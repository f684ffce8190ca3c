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

import os
from pathlib import Path

from .db_reader import SQLITE_MAGIC
from .errors import BadBlockLength, MagicMismatch, UnreadableFile

#: The fixed 24-byte backup key shared by all devices of this app build.
DEFAULT_BACKUP_KEY = bytes.fromhex(
    "346a23652a46392b4d73257c67317e352e3372482177652c"
)

BLOCK_SIZE = 16

# a backup file is read this much at a time
_READ_CHUNK = 1 << 20


def _cipher(key: bytes):
    if len(key) not in (16, 24, 32):
        raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
    # Imported only to decrypt or encrypt: a tree without backups never
    # loads the library (about 10 ms and 6 MB of a command's start-up).
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    return Cipher(algorithms.AES(key), modes.ECB())


def _check_ciphertext_length(size: int) -> None:
    if size == 0 or size % BLOCK_SIZE != 0:
        raise BadBlockLength(
            f"ciphertext length {size} is not a positive multiple of {BLOCK_SIZE}"
        )


def _validated(plain: bytearray) -> bytearray:
    if not plain.startswith(SQLITE_MAGIC):
        raise MagicMismatch(
            "decrypted data lacks the SQLite magic header; this tool assumes a "
            "headerless AES-ECB backup under the fixed key — wrong key, a "
            "different backup format, or corruption (try --key for variant builds)"
        )
    return plain


def decrypt_backup(path: str | Path, key: bytes | None = None) -> bytearray:
    """Decrypt one backup file to plaintext SQLite bytes.

    The file is read in chunks and decrypted into one buffer of its size,
    so the ciphertext is never held whole beside the plaintext. Raises
    BadBlockLength for an empty or non-block-multiple file and
    MagicMismatch when the plaintext does not start with the SQLite
    magic (wrong key/mode or corrupted data; no alternatives are
    guessed).
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            _check_ciphertext_length(size)
            decryptor = _cipher(DEFAULT_BACKUP_KEY if key is None else key).decryptor()
            plain = bytearray(size + BLOCK_SIZE - 1)
            chunk = bytearray(min(size, _READ_CHUNK))
            read = written = 0
            with memoryview(plain) as out, memoryview(chunk) as view:
                while read < size:
                    count = fh.readinto(view[: size - read])
                    if not count:
                        break
                    read += count
                    written += decryptor.update_into(view[:count], out[written:])
    except OSError as exc:
        raise UnreadableFile(f"cannot read backup {path}: {exc}") from exc
    if read != size:
        raise UnreadableFile(f"cannot read backup {path}: it shrank while it was read")
    decryptor.finalize()  # for its check only: whole blocks leave nothing
    del plain[written:]
    return _validated(plain)


def encrypt_fixture(plaintext: bytes) -> bytearray:
    """Encrypt plaintext the way a device would store a backup.

    Test-fixture inverse of decrypt_backup; never used on real evidence.
    Accepts empty input (zero blocks in, zero blocks out).
    """
    if len(plaintext) % BLOCK_SIZE != 0:
        raise BadBlockLength(
            f"plaintext length {len(plaintext)} is not a multiple of {BLOCK_SIZE}"
        )
    encryptor = _cipher(DEFAULT_BACKUP_KEY).encryptor()
    # update_into needs room for one block less a byte beyond the output;
    # whole blocks in leave none of it used.
    out = bytearray(len(plaintext) + BLOCK_SIZE - 1)
    written = encryptor.update_into(plaintext, out)
    encryptor.finalize()  # for its check only: whole blocks leave nothing
    del out[written:]
    return out
