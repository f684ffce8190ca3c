"""Decryption of chat-database backups (and re-encryption for fixtures).

The on-device backup files are full copies of the chat database,
encrypted with AES-192 under a key that is identical on every device.
The format carries no header: ciphertext is the raw database encrypted
block by block (ECB, no padding — a SQLite file is always a multiple of
its page size, so the length works out). Because the format is
headerless, success is validated by checking the decrypted bytes for
the SQLite magic; a wrong key, wrong mode, or corrupted file is
self-detecting through that check.
"""

from __future__ import annotations

from pathlib import Path

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .db_reader import SQLITE_MAGIC
from .errors import BadBlockLength, MagicMismatch, UnreadableFile

#: The fixed 24-byte backup key shared by all devices of this app build.
DEFAULT_BACKUP_KEY = bytes.fromhex(
    "346a23652a46392b4d73257c67317e352e3372482177652c"
)

BLOCK_SIZE = 16


def _cipher(key: bytes) -> Cipher:
    if len(key) not in (16, 24, 32):
        raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
    return Cipher(algorithms.AES(key), modes.ECB())


def decrypt_bytes(data: bytes, key: bytes | None = None) -> bytes:
    """Decrypt backup ciphertext and validate the result.

    Raises BadBlockLength for empty or non-block-multiple input and
    MagicMismatch when the plaintext does not start with the SQLite
    magic (wrong key/mode or corrupted data; no alternatives are
    guessed).
    """
    if len(data) == 0 or len(data) % BLOCK_SIZE != 0:
        raise BadBlockLength(
            f"ciphertext length {len(data)} is not a positive multiple of {BLOCK_SIZE}"
        )
    key = DEFAULT_BACKUP_KEY if key is None else key
    decryptor = _cipher(key).decryptor()
    plain = decryptor.update(data) + decryptor.finalize()
    if not plain.startswith(SQLITE_MAGIC):
        raise MagicMismatch(
            "decrypted data lacks the SQLite magic header; this tool assumes a "
            "headerless AES-ECB backup under the fixed key — wrong key, a "
            "different backup format, or corruption (try --key for variant builds)"
        )
    return plain


def decrypt_backup(path: str | Path, key: bytes | None = None) -> bytes:
    """Decrypt one backup file to plaintext SQLite bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UnreadableFile(f"cannot read backup {path}: {exc}") from exc
    return decrypt_bytes(data, key)


def encrypt_fixture(plaintext: bytes, key: bytes | None = None) -> bytes:
    """Encrypt plaintext the way a device would store a backup.

    Test-fixture inverse of decrypt_bytes; never used on real evidence.
    Accepts empty input (zero blocks in, zero blocks out).
    """
    if len(plaintext) % BLOCK_SIZE != 0:
        raise BadBlockLength(
            f"plaintext length {len(plaintext)} is not a multiple of {BLOCK_SIZE}"
        )
    key = DEFAULT_BACKUP_KEY if key is None else key
    encryptor = _cipher(key).encryptor()
    return encryptor.update(plaintext) + encryptor.finalize()
