"""Assembles a CaseBundle from an evidence directory.

The directory is expected to follow the on-device layout (see
``layout``), rooted anywhere. Missing artifacts degrade the bundle to a
partial one with warnings; only a directory containing no recognizable
artifact at all is a structural error. Evidence files are opened
strictly read-only; encrypted backups are decrypted into a temporary
directory, never next to the evidence. ``load_backup_deltas`` reads
only the backups and the live store's (conversation, key) pairs, with
the same steps ``load_case_bundle`` uses for them.
"""

from __future__ import annotations

import re
import stat
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import db_reader, layout
from .backup_crypto import decrypt_backup
from .errors import StructuralError, WadroidError
from .log_parser import DEFAULT_GRAMMAR, LogGrammar, merge_events, parse_log_file
from .model import (
    AvatarFile,
    BackupSet,
    CaseBundle,
    MediaFile,
    MediaHashes,
    ParseWarning,
    WarningLog,
    warn_to,
)

# C0 and C1 control characters, which no registered number holds.
_CONTROL_CHARACTER = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _rel(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix()


@dataclass(frozen=True)
class _Evidence:
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


def _chat_store(root: Path, warn: WarningLog) -> db_reader.DbSource | None:
    """The live chat database, or None, with a warning, when it is missing."""
    path = root / layout.MSGSTORE_DB
    if path.is_file():
        return db_reader.open_source(path, db_reader.DbKind.CHAT_STORE)
    warn_to(warn, layout.MSGSTORE_DB, "chat database missing; message analysis degraded")
    return None


def _load_backups(
    evidence: _Evidence,
    key: bytes | None,
    live_pairs: frozenset[tuple[str, str]],
    warn: WarningLog,
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
        with tempfile.TemporaryDirectory() as tmp:
            # Named after its crypt file, so row warnings name the backup.
            tmp_db = Path(tmp) / crypt.name
            tmp_db.write_bytes(plain)
            try:
                # Only the messages matter for recovery; a backup's own
                # chat_list pointers legitimately dangle mid-history.
                source = db_reader.open_source(tmp_db, db_reader.DbKind.CHAT_STORE)
                backup_messages = db_reader.load_messages(source, warn, skip_pairs=live_pairs)
            except WadroidError as exc:
                # The temp directory's name is random; keep it out of the report.
                reason = str(exc).replace(str(tmp_db), crypt.name)
                warn_to(warn, rel_path, f"decrypted backup unreadable: {reason}")
                continue
        backups.append(BackupSet(name=crypt.name, messages=tuple(backup_messages)))
    return backups


@dataclass(frozen=True)
class BackupDeltas:
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
    warn = WarningLog()
    source = _chat_store(evidence.root, warn)
    live_pairs = db_reader.load_message_pairs(source) if source is not None else frozenset()
    backups = _load_backups(evidence, key, live_pairs, warn)
    return BackupDeltas(live_pairs, tuple(backups), warn.items)


def _list_media(root: Path) -> list[tuple[str, int, Path]]:
    """(path relative to ``root``, size, path) of every media file, by relative path.

    Listed, not read: one ``stat`` per file, and no warning.
    """
    listed = []
    media_dir = root / layout.MEDIA_DIR
    if media_dir.is_dir():
        for path in media_dir.rglob("*"):
            try:
                info = path.stat()
            except OSError:  # a dangling or looping link: not a file
                continue
            if stat.S_ISREG(info.st_mode):
                listed.append((_rel(root, path), info.st_size, path))
        listed.sort(key=lambda item: item[0])
    return listed


def load_case_bundle(
    root: str | Path,
    grammar: LogGrammar = DEFAULT_GRAMMAR,
    key: bytes | None = None,
    *,
    prehash_media: bool = False,
) -> CaseBundle:
    """Parse every artifact under ``root`` into an immutable CaseBundle.

    Media files are listed, not read: ``MediaFile.sha256`` hashes a file
    when first asked. With ``prehash_media``, for a caller that will ask
    for every digest, a forked helper (``MediaHashes``) hashes them while
    the rest of the evidence is read, where that pays off.
    """
    evidence = _find_evidence(root)
    listed = _list_media(evidence.root)
    hashes = None
    if prehash_media:
        # Forked before this command opens any database or temp directory.
        sources = [path for _, _, path in listed]
        hashes = MediaHashes.start(sources, sum(size for _, size, _ in listed))
    try:
        return _read_bundle(evidence, grammar, key, listed, hashes)
    except BaseException:
        if hashes is not None:
            hashes.close()
        raise


def _read_bundle(
    evidence: _Evidence,
    grammar: LogGrammar,
    key: bytes | None,
    listed: list[tuple[str, int, Path]],
    hashes: MediaHashes | None,
) -> CaseBundle:
    root = evidence.root
    warn = WarningLog()

    contacts = []
    wa_db = root / layout.WA_DB
    if wa_db.is_file():
        source = db_reader.open_source(wa_db, db_reader.DbKind.CONTACTS)
        contacts = db_reader.load_contacts(source, warn)
    else:
        warn_to(warn, layout.WA_DB, "contacts database missing; contact analysis degraded")

    messages, chats = [], []
    source = _chat_store(root, warn)
    if source is not None:
        messages = db_reader.load_messages(source, warn)
        chats = db_reader.load_chat_list(source, warn)
        db_reader.check_chat_list_consistency(chats, messages, warn)

    live_pairs = frozenset((m.key_remote_jid.raw, m.key_id_raw) for m in messages)
    backups = _load_backups(evidence, key, live_pairs, warn)

    events = []
    if evidence.log_files:
        per_file = [parse_log_file(path, grammar, warn) for path in evidence.log_files]
        events = merge_events(*per_file)
    else:
        warn_to(warn, layout.LOGS_DIR, "no log files found; log-based inference disabled")

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

    media = [MediaFile(rel, size, source=path, hashes=hashes) for rel, size, path in listed]

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
        warnings=warn.items,
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
