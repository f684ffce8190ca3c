"""Assembles a CaseBundle from an evidence directory.

The directory is expected to follow the on-device layout (see
``layout``), rooted anywhere. Missing artifacts degrade the bundle to a
partial one with warnings; only a directory containing no recognizable
artifact at all is a structural error. Evidence files are opened
strictly read-only; encrypted backups are decrypted into a temporary
directory, never next to the evidence.
"""

from __future__ import annotations

import hashlib
import re
import stat
import tempfile
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
    WarningLog,
    warn_to,
)

# Media files are hashed in chunks of this size, so a multi-GB video
# never sits in memory whole.
MEDIA_HASH_CHUNK = 1 << 20

# C0 and C1 control characters, which no registered number holds.
_CONTROL_CHARACTER = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _rel(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix()


def _load_store(path: Path, warn: WarningLog):
    source = db_reader.open_source(path, db_reader.DbKind.CHAT_STORE)
    messages = db_reader.load_messages(source, warn)
    chats = db_reader.load_chat_list(source, warn)
    db_reader.check_chat_list_consistency(chats, messages, warn)
    return messages, chats


def load_case_bundle(
    root: str | Path,
    grammar: LogGrammar = DEFAULT_GRAMMAR,
    key: bytes | None = None,
) -> CaseBundle:
    """Parse every artifact under ``root`` into an immutable CaseBundle."""
    root = Path(root)
    if not root.is_dir():
        raise StructuralError(f"evidence root {root} is not a directory")
    warn = WarningLog()

    wa_db = root / layout.WA_DB
    msgstore = root / layout.MSGSTORE_DB
    logs_dir = root / layout.LOGS_DIR
    backups_dir = root / layout.BACKUPS_DIR
    log_files = sorted(logs_dir.glob("whatsapp*.log")) if logs_dir.is_dir() else []
    crypt_files = sorted(backups_dir.glob("*.crypt")) if backups_dir.is_dir() else []
    if not wa_db.is_file() and not msgstore.is_file() and not log_files and not crypt_files:
        raise StructuralError(
            f"{root} holds no recognizable evidence (no contacts/chat database, "
            "logs, or backups in the expected layout)"
        )

    contacts = []
    if wa_db.is_file():
        source = db_reader.open_source(wa_db, db_reader.DbKind.CONTACTS)
        contacts = db_reader.load_contacts(source, warn)
    else:
        warn_to(warn, layout.WA_DB, "contacts database missing; contact analysis degraded")

    messages, chats = [], []
    if msgstore.is_file():
        messages, chats = _load_store(msgstore, warn)
    else:
        warn_to(warn, layout.MSGSTORE_DB, "chat database missing; message analysis degraded")

    # Backups are kept as deltas: a row whose (conversation, key) pair is
    # live adds nothing the live copy does not hold, so it is not decoded.
    live_pairs = frozenset((m.key_remote_jid.raw, m.key_id_raw) for m in messages)
    backups = []
    for crypt in crypt_files:
        try:
            plain = decrypt_backup(crypt, key)
        except WadroidError as exc:
            warn_to(warn, _rel(root, crypt), f"backup not decrypted: {exc}")
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
                warn_to(warn, _rel(root, crypt), f"decrypted backup unreadable: {reason}")
                continue
        backups.append(BackupSet(name=crypt.name, messages=tuple(backup_messages)))

    events = []
    if log_files:
        per_file = [parse_log_file(path, grammar, warn) for path in log_files]
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

    media = []
    media_dir = root / layout.MEDIA_DIR
    if media_dir.is_dir():
        media_paths = sorted(
            (p for p in media_dir.rglob("*") if p.is_file()),
            key=lambda p: _rel(root, p),
        )
        for path in media_paths:
            digest, size = hashlib.sha256(), 0
            with path.open("rb") as handle:
                while chunk := handle.read(MEDIA_HASH_CHUNK):
                    digest.update(chunk)
                    size += len(chunk)
            media.append(
                MediaFile(path=_rel(root, path), size_bytes=size, sha256=digest.hexdigest())
            )

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
