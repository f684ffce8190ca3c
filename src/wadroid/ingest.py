"""Assembles a CaseBundle from an evidence directory.

The directory is expected to follow the on-device layout (see
``layout``), rooted anywhere. Missing artifacts degrade the bundle to a
partial one with warnings; only a directory containing no recognizable
artifact at all is a structural error. Evidence files are opened
strictly read-only; encrypted backups are decrypted in memory and never
written anywhere. Two loaders read less than ``load_case_bundle``, with
the same steps it uses for what they read: ``load_backup_deltas`` reads
only the backups and the live store's (conversation, key) pairs, and
``load_chronology`` only the live messages, the backups and the log
lines of the group membership kinds.
"""

from __future__ import annotations

import os
import re
import stat
from contextlib import nullcontext
from pathlib import Path
from typing import Collection, NamedTuple

from . import db_reader, layout
from .backup_crypto import decrypt_backup
from .errors import StructuralError, WadroidError
from .log_parser import DEFAULT_GRAMMAR, LogGrammar, merge_events, parse_log_file
from .model import (
    AvatarFile,
    BackupSet,
    CaseBundle,
    EventKind,
    GROUP_MEMBERSHIP_KINDS,
    LogEvent,
    MediaFile,
    ParseWarning,
    warn_to,
)

# C0 and C1 control characters, which no registered number holds.
_CONTROL_CHARACTER = re.compile(r"[\x00-\x1f\x7f-\x9f]")

# The first bytes of a rollback journal that still holds a transaction.
_JOURNAL_MAGIC = bytes.fromhex("d9d505f920a163d7")


def _rel(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix()


class _Evidence(NamedTuple):
    """An evidence root known to hold at least one recognizable artifact."""

    root: Path
    log_files: list[Path]
    crypt_files: list[Path]


def _find_evidence(root: str | Path) -> _Evidence:
    """Where the artifacts under ``root`` are; StructuralError if there are none."""
    root = Path(root)
    if not root.is_dir():
        raise StructuralError(f"evidence root {root} is not a directory")
    logs_dir = root / layout.LOGS_DIR
    backups_dir = root / layout.BACKUPS_DIR
    log_files = sorted(logs_dir.glob("whatsapp*.log")) if logs_dir.is_dir() else []
    crypt_files = sorted(backups_dir.glob("*.crypt")) if backups_dir.is_dir() else []
    if (
        not (root / layout.WA_DB).is_file()
        and not (root / layout.MSGSTORE_DB).is_file()
        and not log_files
        and not crypt_files
    ):
        raise StructuralError(
            f"{root} holds no recognizable evidence (no contacts/chat database, "
            "logs, or backups in the expected layout)"
        )
    return _Evidence(root, log_files, crypt_files)


def _live_source(
    root: Path, rel_path: str, kind: db_reader.DbKind, warn: list[ParseWarning]
) -> db_reader.DbSource:
    """The live database at ``rel_path``, opened in SQLite's immutable mode.

    That mode reads no write-ahead log and rolls back no hot journal, so
    a non-empty log or a hot journal beside the database is warned about.
    """
    wal = root / f"{rel_path}-wal"
    if wal.is_file() and wal.stat().st_size > 0:
        warn_to(
            warn,
            f"{rel_path}-wal",
            "write-ahead log ignored: rows committed after the last checkpoint are not read",
        )
    journal = root / f"{rel_path}-journal"
    if journal.is_file():
        with journal.open("rb") as handle:
            # An empty journal, or one whose header a commit zeroed, is not hot.
            hot = handle.read(len(_JOURNAL_MAGIC)) == _JOURNAL_MAGIC
        if hot:
            warn_to(
                warn,
                f"{rel_path}-journal",
                "hot rollback journal ignored: changes of an unfinished transaction "
                "may be read as committed",
            )
    return db_reader.open_source(root / rel_path, kind)


def _chat_store(root: Path, warn: list[ParseWarning]) -> db_reader.DbSource | nullcontext[None]:
    """The live chat database to read in a ``with``; if it is missing, a warning and None."""
    if (root / layout.MSGSTORE_DB).is_file():
        return _live_source(root, layout.MSGSTORE_DB, db_reader.DbKind.CHAT_STORE, warn)
    warn_to(warn, layout.MSGSTORE_DB, "chat database missing; message analysis degraded")
    return nullcontext()


def _live_pairs(messages) -> frozenset[tuple[str, str]]:
    return frozenset((m.key_remote_jid.raw, m.key_id_raw) for m in messages)


def _load_backups(
    evidence: _Evidence,
    key: bytes | None,
    live_pairs: frozenset[tuple[str, str]],
    warn: list[ParseWarning],
) -> list[BackupSet]:
    """Every readable backup, kept as a delta against ``live_pairs``.

    A row whose (conversation, key) pair is live adds nothing the live
    copy does not hold, so it is not decoded.
    """
    backups = []
    for crypt in evidence.crypt_files:
        rel_path = _rel(evidence.root, crypt)
        try:
            plain = decrypt_backup(crypt, key)
        except WadroidError as exc:
            warn_to(warn, rel_path, f"backup not decrypted: {exc}")
            continue
        try:
            # Named after its crypt file, so row warnings name the backup.
            source = db_reader.open_source(crypt.name, db_reader.DbKind.CHAT_STORE, image=plain)
            del plain  # SQLite reads its own copy
            with source:
                # Only the messages matter for recovery; a backup's own
                # chat_list pointers legitimately dangle mid-history.
                backup_messages = db_reader.load_messages(source, warn, skip_pairs=live_pairs)
        except WadroidError as exc:
            warn_to(warn, rel_path, f"decrypted backup unreadable: {exc}")
            continue
        backups.append(BackupSet(name=crypt.name, messages=tuple(backup_messages)))
    return backups


class BackupDeltas(NamedTuple):
    """What ``diff`` reads of an evidence root.

    ``backups`` are the deltas against ``live_pairs``, the (conversation
    jid, key) pairs of the live chat database; ``warnings`` are those
    raised while reading them.
    """

    live_pairs: frozenset[tuple[str, str]]
    backups: tuple[BackupSet, ...]
    warnings: tuple[ParseWarning, ...]


def load_backup_deltas(root: str | Path, key: bytes | None = None) -> BackupDeltas:
    """The backups under ``root`` and the live pairs, and nothing else.

    Of the live chat database only the key columns of ``messages`` are
    read; contacts, chat list, logs, settings and media are not opened.
    """
    evidence = _find_evidence(root)
    warn: list[ParseWarning] = []
    with _chat_store(evidence.root, warn) as source:
        live_pairs = db_reader.load_message_pairs(source) if source is not None else frozenset()
    backups = _load_backups(evidence, key, live_pairs, warn)
    return BackupDeltas(live_pairs, tuple(backups), tuple(warn))


def _read_logs(
    evidence: _Evidence,
    grammar: LogGrammar,
    warn: list[ParseWarning],
    kinds: Collection[EventKind] | None = None,
) -> list[LogEvent]:
    """The events of every log file, merged; ``kinds`` as in ``parse_log_file``."""
    if not evidence.log_files:
        warn_to(warn, layout.LOGS_DIR, "no log files found; log-based inference disabled")
        return []
    return merge_events(
        *(parse_log_file(path, grammar, warn, kinds) for path in evidence.log_files)
    )


def load_chronology(
    root: str | Path, grammar: LogGrammar = DEFAULT_GRAMMAR, key: bytes | None = None
) -> CaseBundle:
    """The part of ``root`` that ``correlator.build_chronology`` reads, as a CaseBundle.

    It holds the live messages, the backups (deltas against them) and the
    log events of the group membership kinds, with the warnings of those
    reads. The contacts database, chat list, settings and media are not
    opened, and log lines of other kinds are not parsed past their body.
    """
    evidence = _find_evidence(root)
    warn: list[ParseWarning] = []
    messages = []
    with _chat_store(evidence.root, warn) as source:
        if source is not None:
            messages = db_reader.load_messages(source, warn)
    backups = _load_backups(evidence, key, _live_pairs(messages), warn)
    events = _read_logs(evidence, grammar, warn, GROUP_MEMBERSHIP_KINDS)
    return CaseBundle(
        messages=tuple(messages),
        log_events=tuple(events),
        backups=tuple(backups),
        warnings=tuple(warn),
    )


def _skip_unreadable(error: OSError) -> None:
    if not isinstance(error, PermissionError):
        raise error


def _list_media(root: Path) -> list[tuple[str, int, str]]:
    """(path relative to ``root``, size, path) of every media file, by relative path.

    Listed, not read: one ``stat`` per file, and no warning. As under
    ``Path.rglob``, a link to a directory is not followed, and a
    directory that cannot be read is skipped.
    """
    listed = []
    media_dir = os.path.join(root, layout.MEDIA_DIR)
    if os.path.isdir(media_dir):
        for dir_path, _, names in os.walk(media_dir, onerror=_skip_unreadable):
            rel_dir = layout.MEDIA_DIR + dir_path[len(media_dir) :].replace(os.sep, "/")
            for name in names:
                path = os.path.join(dir_path, name)
                try:
                    info = os.stat(path)
                except OSError:  # a dangling or looping link: not a file
                    continue
                if stat.S_ISREG(info.st_mode):
                    listed.append((f"{rel_dir}/{name}", info.st_size, path))
        listed.sort(key=lambda item: item[0])
    return listed


def load_case_bundle(
    root: str | Path,
    grammar: LogGrammar = DEFAULT_GRAMMAR,
    key: bytes | None = None,
) -> CaseBundle:
    """Parse every artifact under ``root`` into an immutable CaseBundle.

    Media files are listed, not read: ``MediaFile.sha256`` hashes a file
    when first asked.
    """
    evidence = _find_evidence(root)
    root = evidence.root
    warn: list[ParseWarning] = []

    contacts = []
    if (root / layout.WA_DB).is_file():
        with _live_source(root, layout.WA_DB, db_reader.DbKind.CONTACTS, warn) as source:
            contacts = db_reader.load_contacts(source, warn)
    else:
        warn_to(warn, layout.WA_DB, "contacts database missing; contact analysis degraded")

    messages, chats = [], []
    with _chat_store(root, warn) as source:
        if source is not None:
            messages = db_reader.load_messages(source, warn)
            chats = db_reader.load_chat_list(source, warn)
            db_reader.check_chat_list_consistency(chats, messages, warn)

    backups = _load_backups(evidence, key, _live_pairs(messages), warn)
    events = _read_logs(evidence, grammar, warn)

    me_file = root / layout.ME_FILE
    registered = None
    if me_file.is_file():
        raw = me_file.read_bytes()
        registered = raw.decode("utf-8", errors="replace").strip() or None
        try:
            damaged = _CONTROL_CHARACTER.search(raw.decode("utf-8").strip()) is not None
        except UnicodeDecodeError:
            damaged = True
        if damaged:
            warn_to(
                warn,
                layout.ME_FILE,
                f"registered number file is not clean UTF-8 text: {registered!r}",
            )
    else:
        warn_to(warn, layout.ME_FILE, "settings file with the registered number missing")

    media = [MediaFile(rel, size, source=path) for rel, size, path in _list_media(root)]

    avatars = []
    for directory in (root / layout.AVATARS_DIR, root / layout.PROFILE_PICTURES_DIR):
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob(f"*{layout.AVATAR_SUFFIX}")):
            avatars.append(
                AvatarFile(
                    jid_raw=path.name[: -len(layout.AVATAR_SUFFIX)],
                    path=_rel(root, path),
                )
            )
    avatars.sort(key=lambda a: (a.jid_raw, a.path))

    return CaseBundle(
        contacts=tuple(contacts),
        messages=tuple(messages),
        chat_list=tuple(chats),
        log_events=tuple(events),
        registered_number=registered,
        own_avatar_present=(root / layout.ME_AVATAR).is_file(),
        media_inventory=tuple(media),
        avatar_inventory=tuple(avatars),
        backups=tuple(backups),
        warnings=tuple(warn),
    )


def snapshot_tree(root: str | Path) -> dict[str, tuple[int, int]]:
    """Map of every file to (mtime_ns, size), for read-only verification."""
    root = Path(root)
    snapshot = {}
    for path in sorted(root.rglob("*")):
        try:
            info = path.stat()
        except OSError:  # vanished, or a dangling or looping link: not a file
            continue
        if stat.S_ISREG(info.st_mode):
            snapshot[_rel(root, path)] = (info.st_mtime_ns, info.st_size)
    return snapshot
