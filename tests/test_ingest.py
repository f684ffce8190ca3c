"""How ingest lists the media files of an evidence tree."""

import errno
import os
from pathlib import Path

import pytest

from wadroid import ingest, layout

M = layout.MEDIA_DIR


def _write(path: Path, size: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"x" * size)


@pytest.fixture
def evidence(tmp_path) -> Path:
    root = tmp_path / "evidence"
    media = root / M
    _write(media / "b.jpg", 3)
    _write(media / ".nomedia", 0)
    _write(media / ".hidden" / "a.jpg", 1)
    _write(media / "Sent" / "a.jpg", 2)
    _write(media / "Sent-old" / "a.jpg", 4)
    _write(tmp_path / "outside" / "secret.jpg", 5)
    (media / "linked-dir").symlink_to(tmp_path / "outside", target_is_directory=True)
    (media / "file-link.jpg").symlink_to(media / "b.jpg")
    (media / "dangling.jpg").symlink_to(tmp_path / "missing.jpg")
    (media / "loop.jpg").symlink_to(media / "loop.jpg")
    return root


def test_media_listing(evidence):
    media = evidence / M
    assert ingest._list_media(evidence) == [
        # Sorted as POSIX relative paths: "Sent-old/" before "Sent/".
        (f"{M}/.hidden/a.jpg", 1, media / ".hidden" / "a.jpg"),
        (f"{M}/.nomedia", 0, media / ".nomedia"),
        (f"{M}/Sent-old/a.jpg", 4, media / "Sent-old" / "a.jpg"),
        (f"{M}/Sent/a.jpg", 2, media / "Sent" / "a.jpg"),
        (f"{M}/b.jpg", 3, media / "b.jpg"),
        # A link to a file is listed under its own name, with its target's size;
        # a link to a directory is not followed, and a dangling or looping link
        # is no file.
        (f"{M}/file-link.jpg", 3, media / "file-link.jpg"),
    ]


def test_no_media_directory(tmp_path):
    assert ingest._list_media(tmp_path) == []
    _write(tmp_path / M, 1)  # a file where the directory should be
    assert ingest._list_media(tmp_path) == []


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads any directory")
def test_an_unreadable_directory_is_skipped(evidence):
    locked = evidence / M / "Sent"
    locked.chmod(0)
    try:
        listed = [rel for rel, _, _ in ingest._list_media(evidence)]
    finally:
        locked.chmod(0o755)
    assert f"{M}/Sent-old/a.jpg" in listed
    assert f"{M}/Sent/a.jpg" not in listed


@pytest.mark.parametrize(
    "error, skipped",
    [
        (PermissionError(errno.EACCES, "Permission denied"), True),
        (OSError(errno.EIO, "Input/output error"), False),
    ],
    ids=["permission", "io"],
)
@pytest.mark.parametrize("where", ["top", "sub"])
def test_a_directory_listing_error(evidence, monkeypatch, error, skipped, where):
    """A directory that cannot be read is skipped; any other listing error is raised."""
    bad = evidence / M if where == "top" else evidence / M / "Sent"
    real_scandir = os.scandir

    def scandir(path="."):
        if Path(path) == bad:
            raise error
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    if not skipped:
        with pytest.raises(OSError) as raised:
            ingest._list_media(evidence)
        assert raised.value is error
        return
    listed = [rel for rel, _, _ in ingest._list_media(evidence)]
    if where == "top":
        assert listed == []
    else:
        assert f"{M}/Sent/a.jpg" not in listed and f"{M}/Sent-old/a.jpg" in listed
