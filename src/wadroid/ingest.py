"""Reads the artifacts of an evidence directory.

The directory is expected to follow the on-device layout (see
``layout``), rooted anywhere. ``Evidence`` reads each artifact when it
is first asked for, and collects the warnings of every read in one
list; ``load_case_bundle`` reads all of them into a CaseBundle. Missing
artifacts degrade the result to a partial one with warnings; only a
directory containing no recognizable artifact at all is a structural
error. Evidence files are opened strictly read-only; encrypted backups
are decrypted in memory and never written anywhere.
"""

from __future__ import annotations

import fnmatch
import os
import re
import stat
from contextlib import ExitStack
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterator

from . import db_reader, layout
from .backup_crypto import decrypt_backup
from .errors import StructuralError, UnreadableFile, WadroidError, os_reason
from .log_parser import DEFAULT_GRAMMAR, LogGrammar, merge_events, parse_log_file
from .model import (
    AvatarFile,
    BackupSet,
    CaseBundle,
    ChatListRecord,
    ContactRecord,
    EventKind,
    GROUP_MEMBERSHIP_KINDS,
    LogEvent,
    MediaFile,
    MessageRecord,
    ParseWarning,
    warn_to,
)

# C0 and C1 control characters, which no registered number holds.
_CONTROL_CHARACTER = re.compile(r"[\x00-\x1f\x7f-\x9f]")

# The first bytes of a rollback journal that still holds a transaction.
_JOURNAL_MAGIC = bytes.fromhex("d9d505f920a163d7")


def _rel(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix()


def _live_source(root: Path, rel_path: str, warn: list[ParseWarning]) -> db_reader.DbSource:
    """The live database at ``rel_path``, opened in SQLite's immutable mode.

    That mode reads no write-ahead log and rolls back no hot journal, so
    a non-empty log or a hot journal beside the database is warned about,
    as is a journal that cannot be read.
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
        try:
            with journal.open("rb") as handle:
                # An empty journal, or one whose header a commit zeroed, is not hot.
                hot = handle.read(len(_JOURNAL_MAGIC)) == _JOURNAL_MAGIC
        except OSError as exc:
            hot = False
            warn_to(
                warn,
                f"{rel_path}-journal",
                f"rollback journal not read: {os_reason(exc)}; if it is hot, changes of "
                "an unfinished transaction may be read as committed",
            )
        if hot:
            warn_to(
                warn,
                f"{rel_path}-journal",
                "hot rollback journal ignored: changes of an unfinished transaction "
                "may be read as committed",
            )
    return db_reader.open_source(root / rel_path)


def _walk(root: Path, rel_dir: str, what: str, warn: list[ParseWarning] | None) -> Iterator:
    """``os.walk`` of ``rel_dir``; nothing if it is not a directory.

    A directory that cannot be read is skipped with a warning under its
    path relative to ``root``; any other listing error is raised.
    """

    def unlisted(error: OSError) -> None:
        if not isinstance(error, PermissionError):
            raise error
        rel = _rel(root, Path(error.filename))
        warn_to(warn, rel, f"{what} directory not listed: {os_reason(error)}")

    top = os.path.join(root, rel_dir)
    return os.walk(top, onerror=unlisted) if os.path.isdir(top) else iter(())


def _list_dir(root: Path, rel: str, glob: str, what: str, warn: list[ParseWarning]) -> list[Path]:
    """The entries of ``rel`` whose names match ``glob``, in name order, whatever their type."""
    _, dirs, files = next(_walk(root, rel, what, warn), ("", [], []))
    return [root / rel / name for name in sorted(fnmatch.filter(dirs + files, glob))]


def _list_files(
    root: Path, rel_dir: str, what: str, warn: list[ParseWarning] | None
) -> list[tuple[str, os.stat_result, str]]:
    """(path relative to ``root``, stat, path) of every file under ``rel_dir``, by relative path.

    Listed, not read: one ``stat`` per file. A link to a file is listed
    under its own name; a link to a directory is not followed, and a
    dangling or looping link is no file. A directory that cannot be read
    is skipped with a warning (``_walk``).
    """
    listed = []
    top = os.path.join(root, rel_dir)
    for dir_path, _, names in _walk(root, rel_dir, what, warn):
        prefix = rel_dir + dir_path[len(top) :].replace(os.sep, "/")
        for name in names:
            path = os.path.join(dir_path, name)
            try:
                info = os.stat(path)
            except OSError:  # a dangling or looping link: not a file
                continue
            if stat.S_ISREG(info.st_mode):
                listed.append((f"{prefix}/{name}" if prefix else name, info, path))
    listed.sort(key=lambda item: item[0])
    return listed


def _list_media(root: Path, warn: list[ParseWarning] | None = None) -> list[tuple[str, int, str]]:
    """(path relative to ``root``, size, path) of every media file (``_list_files``)."""
    listed = _list_files(root, layout.MEDIA_DIR, "media", warn)
    return [(rel, info.st_size, path) for rel, info, path in listed]


def _unlisted_text(unlisted: list[ParseWarning]) -> str:
    return "; ".join(f"{w.source}: {w.message}" for w in unlisted)


class Evidence:
    """The artifacts under one evidence root, each read once, when first asked for.

    Opening it reads nothing; StructuralError if ``root`` holds no
    recognizable artifact. The warnings of each read are appended to
    ``warnings`` when it happens. Use it in a ``with`` block: the live chat
    database is opened once and closed when the block ends. ``live_pairs``
    and ``group_events`` are taken from ``messages`` and ``log_events``
    when those were read first; in the other order, the group log lines
    are parsed twice, and warned about once.
    """

    def __init__(
        self, root: str | Path, grammar: LogGrammar = DEFAULT_GRAMMAR, key: bytes | None = None
    ) -> None:
        root = Path(root)
        if not root.is_dir():
            raise StructuralError(f"evidence root {root} is not a directory")
        # Listed for the check below; a listing warning is given by the reader.
        self._log_unlisted: list[ParseWarning] = []
        self._crypt_unlisted: list[ParseWarning] = []
        logs, backups = layout.LOGS_DIR, layout.BACKUPS_DIR
        self._log_files = _list_dir(root, logs, "whatsapp*.log", "log", self._log_unlisted)
        self._crypt_files = _list_dir(root, backups, "*.crypt", "backup", self._crypt_unlisted)
        if (
            not (root / layout.WA_DB).is_file()
            and not (root / layout.MSGSTORE_DB).is_file()
            and not self._log_files
            and not self._crypt_files
        ):
            # A directory that could not be listed may hold what is missing.
            unlisted = _unlisted_text(self._log_unlisted + self._crypt_unlisted)
            raise StructuralError(
                f"{root} holds no recognizable evidence (no contacts/chat database, "
                "logs, or backups in the expected layout)" + (f"; {unlisted}" if unlisted else "")
            )
        self.root = root
        self.grammar = grammar
        self.key = key
        self.warnings: list[ParseWarning] = []
        self._open = ExitStack()

    def __enter__(self) -> Evidence:
        return self

    def __exit__(self, *exc_info) -> None:
        self._open.close()

    @cached_property
    def contacts(self) -> tuple[ContactRecord, ...]:
        warn = self.warnings
        if not (self.root / layout.WA_DB).is_file():
            warn_to(warn, layout.WA_DB, "contacts database missing; contact analysis degraded")
            return ()
        with _live_source(self.root, layout.WA_DB, warn) as source:
            return tuple(db_reader.load_contacts(source, warn))

    @cached_property
    def _live_store(self) -> db_reader.DbSource | None:
        """The live chat database, open until the ``with`` block ends; None if missing."""
        warn = self.warnings
        if not (self.root / layout.MSGSTORE_DB).is_file():
            warn_to(warn, layout.MSGSTORE_DB, "chat database missing; message analysis degraded")
            return None
        source = _live_source(self.root, layout.MSGSTORE_DB, warn)
        return self._open.enter_context(source)

    @cached_property
    def messages(self) -> tuple[MessageRecord, ...]:
        source = self._live_store
        return () if source is None else tuple(db_reader.load_messages(source, self.warnings))

    @cached_property
    def chat_list(self) -> tuple[ChatListRecord, ...]:
        """The live chat list, checked against ``messages``."""
        messages = self.messages
        source = self._live_store
        if source is None:
            return ()
        chats = db_reader.load_chat_list(source, self.warnings)
        db_reader.check_chat_list_consistency(chats, messages, self.warnings)
        return tuple(chats)

    @cached_property
    def live_pairs(self) -> frozenset[tuple[str, str]]:
        """The (conversation jid, key) pair of every live message.

        Without ``messages`` read, only the key columns are read.
        """
        if "messages" in self.__dict__:
            return frozenset((m.key_remote_jid.raw, m.key_id_raw) for m in self.messages)
        source = self._live_store
        return frozenset() if source is None else db_reader.load_message_pairs(source)

    @cached_property
    def backups(self) -> tuple[BackupSet, ...]:
        """Every readable backup, kept as a delta against ``live_pairs``.

        A row whose (conversation, key) pair is live adds nothing the live
        copy does not hold, so it is not decoded.
        """
        live_pairs, warn = self.live_pairs, self.warnings
        warn.extend(self._crypt_unlisted)
        backups = []
        for crypt in self._crypt_files:
            rel_path = _rel(self.root, crypt)
            try:
                plain = decrypt_backup(crypt, self.key)
            except WadroidError as exc:
                warn_to(warn, rel_path, f"backup not decrypted: {exc}")
                continue
            try:
                # Named after its crypt file, so row warnings name the backup.
                source = db_reader.open_source(crypt.name, image=plain)
                del plain  # SQLite reads its own copy
                with source:
                    # Only the messages matter for recovery; a backup's own
                    # chat_list pointers legitimately dangle mid-history.
                    messages = db_reader.load_messages(source, warn, skip_pairs=live_pairs)
            except WadroidError as exc:
                warn_to(warn, rel_path, f"decrypted backup unreadable: {exc}")
                continue
            backups.append(BackupSet(name=crypt.name, messages=tuple(messages)))
        return tuple(backups)

    def _parse_logs(
        self, kinds: Collection[EventKind] | None, warn: list[ParseWarning]
    ) -> tuple[LogEvent, ...]:
        """The events of every readable log file, merged; ``kinds`` as in ``parse_log_file``."""
        parsed = []
        for path in self._log_files:
            try:
                parsed.append(parse_log_file(path, self.grammar, warn, kinds))
            except UnreadableFile as exc:
                warn_to(warn, _rel(self.root, path), f"log file not read: {exc}")
        return tuple(merge_events(*parsed))

    @cached_property
    def log_events(self) -> tuple[LogEvent, ...]:
        if not self._log_files:
            warn = self.warnings
            warn.extend(self._log_unlisted)
            if not self._log_unlisted:
                warn_to(warn, layout.LOGS_DIR, "no log files found; log-based inference disabled")
            return ()
        if "group_events" not in self.__dict__:
            return self._parse_logs(None, self.warnings)
        # The group parse gave every warning of the lines failing the line
        # pattern, of the group lines and of the unreadable files: only the
        # warnings of the other lines are added.
        warn: list[ParseWarning] = []
        events = self._parse_logs(None, warn)
        self.warnings.extend(w for w in warn if w.source not in self._group_warned)
        return events

    @cached_property
    def group_events(self) -> tuple[LogEvent, ...]:
        """The log events of the group membership kinds.

        Taken from ``log_events`` if those were read, or if there is no log
        file (so that its absence is warned about once). Otherwise a line of
        another kind is dropped before its timestamp and fields are parsed.
        """
        if "log_events" in self.__dict__ or not self._log_files:
            return tuple(e for e in self.log_events if e.kind in GROUP_MEMBERSHIP_KINDS)
        warn: list[ParseWarning] = []
        events = self._parse_logs(GROUP_MEMBERSHIP_KINDS, warn)
        self.warnings.extend(warn)
        self._group_warned = {w.source for w in warn}
        return events

    @cached_property
    def registered_number(self) -> str | None:
        warn, me_file = self.warnings, self.root / layout.ME_FILE
        if not me_file.is_file():
            warn_to(warn, layout.ME_FILE, "settings file with the registered number missing")
            return None
        try:
            raw = me_file.read_bytes()
        except OSError as exc:
            warn_to(warn, layout.ME_FILE, f"settings file not read: {os_reason(exc)}")
            return None
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
        return registered

    @cached_property
    def media_inventory(self) -> tuple[MediaFile, ...]:
        """Every media file, listed, not read: ``MediaFile.sha256`` hashes one when first asked."""
        listed = _list_media(self.root, self.warnings)
        return tuple(MediaFile(rel, size, source=path) for rel, size, path in listed)

    @cached_property
    def avatar_inventory(self) -> tuple[AvatarFile, ...]:
        avatars = [
            AvatarFile(jid_raw=path.name[: -len(layout.AVATAR_SUFFIX)], path=_rel(self.root, path))
            for directory in (layout.AVATARS_DIR, layout.PROFILE_PICTURES_DIR)
            for path in _list_dir(
                self.root, directory, f"*{layout.AVATAR_SUFFIX}", "avatar", self.warnings
            )
            if path.is_file()  # a link is followed, as for media
        ]
        return tuple(sorted(avatars, key=lambda a: (a.jid_raw, a.path)))


def load_case_bundle(
    root: str | Path,
    grammar: LogGrammar = DEFAULT_GRAMMAR,
    key: bytes | None = None,
) -> CaseBundle:
    """Read every artifact under ``root`` into an immutable CaseBundle."""
    with Evidence(root, grammar, key) as evidence:
        return CaseBundle(
            contacts=evidence.contacts,
            messages=evidence.messages,
            chat_list=evidence.chat_list,
            backups=evidence.backups,
            log_events=evidence.log_events,
            registered_number=evidence.registered_number,
            own_avatar_present=(evidence.root / layout.ME_AVATAR).is_file(),
            media_inventory=evidence.media_inventory,
            avatar_inventory=evidence.avatar_inventory,
            warnings=tuple(evidence.warnings),
        )


def snapshot_tree(root: str | Path) -> dict[str, tuple[int, int]]:
    """Map of every file to (mtime_ns, size), for read-only verification.

    StructuralError if a directory cannot be listed: its files would go
    unverified.
    """
    unlisted: list[ParseWarning] = []
    listed = _list_files(Path(root), "", "evidence", unlisted)
    if unlisted:
        raise StructuralError(f"read-only verification incomplete: {_unlisted_text(unlisted)}")
    return {rel: (info.st_mtime_ns, info.st_size) for rel, info, _ in listed}
