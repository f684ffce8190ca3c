"""Backup encryption layer: golden vectors, inverses, failure modes."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wadroid
from helpers import decrypt_file
from wadroid.backup_crypto import (
    DEFAULT_BACKUP_KEY,
    SQLITE_MAGIC,
    decrypt_backup,
    encrypt_fixture,
)
from wadroid.errors import BadBlockLength, MagicMismatch, UnreadableFile

# Pinned with an independent AES implementation (FIPS-197 reference
# rounds, validated against the App. C.2 vector) over the fixed key.
GOLDEN_ZERO_BLOCK = bytes.fromhex("8d1bebc51923f0f4f21a278c2a8d4d92")
GOLDEN_MAGIC_BLOCK = bytes.fromhex("49ef23aefff9750ec6cd5ca0a59f2d35")


def test_encrypt_zero_block_golden():
    assert encrypt_fixture(bytes(16)) == GOLDEN_ZERO_BLOCK


def test_encrypt_magic_block_golden():
    assert encrypt_fixture(SQLITE_MAGIC) == GOLDEN_MAGIC_BLOCK


def test_encrypt_is_deterministic():
    data = bytes(range(16)) * 4
    assert encrypt_fixture(data) == encrypt_fixture(data)


def test_encrypt_empty_is_empty():
    assert encrypt_fixture(b"") == b""


def test_encrypt_rejects_partial_block():
    with pytest.raises(BadBlockLength):
        encrypt_fixture(b"x" * 15)


def test_roundtrip_random_inputs(tmp_path):
    rng = random.Random(42)
    path = tmp_path / "roundtrip.crypt"
    for _ in range(200):
        plaintext = SQLITE_MAGIC + rng.randbytes(16 * rng.randrange(0, 16))
        assert decrypt_file(path, encrypt_fixture(plaintext)) == plaintext


def test_decrypt_rejects_bad_length(tmp_path):
    path = tmp_path / "bad.crypt"
    with pytest.raises(BadBlockLength):
        decrypt_file(path, b"x" * 17)
    with pytest.raises(BadBlockLength):
        decrypt_file(path, b"")


def test_decrypt_random_data_fails_magic(tmp_path):
    rng = random.Random(7)
    path = tmp_path / "random.crypt"
    for _ in range(50):
        with pytest.raises(MagicMismatch):
            decrypt_file(path, rng.randbytes(32))


def test_decrypt_wrong_key_fails_magic(tmp_path):
    ciphertext = encrypt_fixture(SQLITE_MAGIC + bytes(16))
    wrong = bytes(24)
    with pytest.raises(MagicMismatch):
        decrypt_file(tmp_path / "wrong-key.crypt", ciphertext, wrong)


def test_decrypt_never_returns_unvalidated_plaintext(tmp_path):
    # valid length, garbage content: must raise, not return bytes
    with pytest.raises(MagicMismatch):
        decrypt_file(tmp_path / "garbage.crypt", bytes(16))


def test_decrypt_backup_file(tmp_path):
    plaintext = SQLITE_MAGIC + bytes(48)
    path = tmp_path / "msgstore.db.crypt"
    path.write_bytes(encrypt_fixture(plaintext))
    assert decrypt_backup(path) == plaintext


def test_decrypt_backup_missing_file(tmp_path):
    with pytest.raises(UnreadableFile):
        decrypt_backup(tmp_path / "nope.crypt")


def test_key_length_validation(tmp_path):
    path = tmp_path / "msgstore.db.crypt"
    path.write_bytes(encrypt_fixture(SQLITE_MAGIC))
    with pytest.raises(ValueError):
        decrypt_backup(path, key=b"short")
    assert len(DEFAULT_BACKUP_KEY) == 24


@pytest.mark.parametrize(
    "content, error",
    [(b"", BadBlockLength), (b"x" * 17, BadBlockLength), (bytes(32), MagicMismatch)],
    ids=["empty", "partial-block", "not-sqlite"],
)
def test_decrypt_backup_file_errors(tmp_path, content, error):
    path = tmp_path / "bad.crypt"
    path.write_bytes(content)
    with pytest.raises(error):
        decrypt_backup(path)


def test_decrypt_backup_directory_is_unreadable(tmp_path):
    with pytest.raises(UnreadableFile):
        decrypt_backup(tmp_path)


def test_decrypt_backup_across_read_chunks(tmp_path):
    plaintext = SQLITE_MAGIC + random.Random(3).randbytes((2 << 20) + 32)
    path = tmp_path / "chunks.crypt"
    path.write_bytes(encrypt_fixture(plaintext))
    assert decrypt_backup(path) == plaintext


def test_decrypt_backup_holds_about_one_copy_of_the_file(tmp_path):
    size = 16 << 20
    path = tmp_path / "large.crypt"
    path.write_bytes(encrypt_fixture(SQLITE_MAGIC + bytes(size - len(SQLITE_MAGIC))))
    measure = (
        "import resource, sys\n"
        "from wadroid.backup_crypto import decrypt_backup\n"
        # the cipher library loads at the first decrypt; its memory is not the decrypt's
        "import cryptography.hazmat.primitives.ciphers\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "plain = decrypt_backup(sys.argv[1])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(len(plain), after - before)\n"
    )
    # A process starts with the ru_maxrss of the one that started it, so the
    # measuring process is started from a small one rather than from pytest.
    launch = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    env = {**os.environ, "PYTHONPATH": str(Path(wadroid.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", launch, sys.executable, "-c", measure, str(path)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    length, growth = map(int, done.stdout.split())
    growth *= 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in kB on Linux
    assert length == size
    assert growth <= 1.5 * size
