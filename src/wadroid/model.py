"""Domain types and primitive decoders shared across the toolkit.

WhatsApp identifiers (user/group/broadcast jids, message keys) and the
epoch timestamps used throughout the evidence databases are decoded
here. All types are immutable after construction and every decoder is a
pure function, so values may be shared freely between concurrent
readers.

Timestamps are stored internally as UTC epoch integers; converting to a
display timezone is strictly a report-rendering concern (see
``render_epoch_ms`` and the ``--tz`` CLI option). ``render_local_ms`` is
the one epoch-to-calendar conversion: integer arithmetic within a day,
and each day's date taken from ``datetime.date`` once, so the text is
datetime's over its whole calendar (years 1 to 9999).
"""

from __future__ import annotations

import base64
import hashlib
import os
import re
import weakref
from dataclasses import InitVar, dataclass, field
from datetime import date
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Mapping, NoReturn, Sequence

from .errors import MalformedGroupId, MalformedJid, MalformedKey

USER_JID_SUFFIX = "@s.whatsapp.net"
GROUP_JID_SUFFIX = "@g.us"
BROADCAST_JID = "broadcast"

# Phone numbers may carry 'x' characters: evidence shared publicly (and
# some anonymized exports) masks tail digits, and the parser must keep
# accepting those identifiers instead of rejecting the record.
_USER_JID_RE = re.compile(r"^(?P<phone>[0-9][0-9x]*)@s\.whatsapp\.net$")
_GROUP_JID_RE = re.compile(r"^(?P<creator>[0-9][0-9x]*)-(?P<epoch>[0-9]+)@g\.us$")
_MESSAGE_KEY_RE = re.compile(r"^(?P<bc>%~)?(?P<start>[0-9]+)-(?P<seq>[0-9]+)$")

#: Epoch milliseconds of 10000-01-01 00:00Z, where datetime's calendar ends.
CALENDAR_END_MS = 253402300800000

_DAY_MS = 86_400_000
#: ``date.toordinal()`` of 1970-01-01: day 0 of the epoch-day count.
EPOCH_ORDINAL = 719_163
# The epoch days of datetime's calendar: 0001-01-01 up to 10000-01-01.
_FIRST_DAY = 1 - EPOCH_ORDINAL
_END_DAY = CALENDAR_END_MS // _DAY_MS

# Media files are hashed in chunks of this size, so a multi-GB video
# never sits in memory whole.
MEDIA_HASH_CHUNK = 1 << 20

# Forking the hashing helper and reaping it costs the command about 4 ms
# (measured on 2 vCPUs with the package imported), in which SHA-256 gets
# through about 4 MB at ~0.9 GB/s. Media of less than twice that in all
# is hashed by the command itself, where it is asked for.
MEDIA_HELPER_MIN_BYTES = 8 * MEDIA_HASH_CHUNK


@dataclass(frozen=True)
class ParseWarning:
    """One non-fatal problem found while decoding evidence.

    ``source`` pinpoints the offending artifact, e.g. ``wa.db:wa_contacts#3``
    or ``whatsapp.log:17``.
    """

    source: str
    message: str


class WarningLog:
    """Accumulates parse/consistency warnings.

    Forensic parsing never aborts on malformed values; problems are
    recorded here and surfaced in reports instead.
    """

    def __init__(self) -> None:
        self._items: list[ParseWarning] = []

    def add(self, source: str, message: str) -> None:
        self._items.append(ParseWarning(source, message))

    @property
    def items(self) -> tuple[ParseWarning, ...]:
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __repr__(self) -> str:
        return f"WarningLog({len(self._items)} warnings)"


def warn_to(warn: WarningLog | None, source: str, message: str) -> None:
    """Record a warning if a sink was provided; no-op otherwise."""
    if warn is not None:
        warn.add(source, message)


class JidKind(str, Enum):
    USER = "user"
    GROUP = "group"
    BROADCAST = "broadcast"
    #: Not a spec'd jid shape; used to retain records whose identifier
    #: could not be parsed (they are never silently dropped).
    OTHER = "other"


@dataclass(frozen=True)
class WaJid:
    """A WhatsApp identifier.

    Users are ``<phone>@s.whatsapp.net``, groups are
    ``<creator>-<epoch>@g.us`` and the literal ``broadcast`` names the
    sender's own row of a broadcast fan-out. ``phone_number`` is the
    user's phone for user jids and the creator's phone for group jids.
    """

    raw: str
    phone_number: str
    kind: JidKind

    def rebuild(self) -> str:
        """Reassemble the canonical string form (identity on well-formed input)."""
        if self.kind is JidKind.USER:
            return self.phone_number + USER_JID_SUFFIX
        if self.kind is JidKind.BROADCAST:
            return BROADCAST_JID
        return self.raw

    @property
    def is_parsed(self) -> bool:
        return self.kind is not JidKind.OTHER


@dataclass(frozen=True)
class GroupId:
    """A parsed group identifier: creator plus creation time (epoch seconds)."""

    raw: str
    creator: WaJid
    creation_time: int

    def rebuild(self) -> str:
        return f"{self.creator.phone_number}-{self.creation_time}{GROUP_JID_SUFFIX}"


@dataclass(frozen=True)
class MessageKey:
    """A message identifier assigned by the sending device.

    The value concatenates the epoch second of the sender's last
    application start with a per-session message counter. Records stored
    on the receiving side of a broadcast carry a ``%~`` prefix.
    """

    raw: str
    session_start: int
    sequence: int
    broadcast_received: bool

    def rebuild(self) -> str:
        prefix = "%~" if self.broadcast_received else ""
        return f"{prefix}{self.session_start}-{self.sequence}"


def parse_jid(raw: str) -> WaJid:
    """Parse a jid string, raising MalformedJid when no pattern matches."""
    if not raw:
        raise MalformedJid("empty jid")
    if raw == BROADCAST_JID:
        return WaJid(raw=raw, phone_number="", kind=JidKind.BROADCAST)
    m = _USER_JID_RE.match(raw)
    if m:
        return WaJid(raw=raw, phone_number=m.group("phone"), kind=JidKind.USER)
    if raw.endswith(GROUP_JID_SUFFIX):
        gid = parse_group_id(raw)
        return WaJid(raw=raw, phone_number=gid.creator.phone_number, kind=JidKind.GROUP)
    raise MalformedJid(f"unrecognized jid: {raw!r}")


def classify_jid(raw: str | None, warn: WarningLog | None = None, source: str = "") -> WaJid:
    """Lenient jid decoding for record loaders.

    Returns a kind=OTHER placeholder (raw preserved) instead of raising,
    so malformed identifiers never drop evidence rows.
    """
    text = raw if raw is not None else ""
    try:
        return _known_jid(text)
    except MalformedJid as exc:
        warn_to(warn, source, f"malformed jid kept verbatim: {exc}")
        return WaJid(raw=text, phone_number="", kind=JidKind.OTHER)


# A device's identifiers repeat: a conversation's jid in each of its rows
# and log lines, a message's key in its send and ack lines. Successful
# parses are kept, this many of each kind; malformed input is not, so it
# is parsed, and warned about, every time.
_PARSE_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _known_jid(raw: str) -> WaJid:
    return parse_jid(raw)


def parse_group_id(raw: str) -> GroupId:
    """Parse ``<creator>-<epoch>@g.us``; raises MalformedGroupId otherwise."""
    m = _GROUP_JID_RE.match(raw)
    if not m:
        raise MalformedGroupId(f"group id missing creator/epoch structure: {raw!r}")
    try:
        creation_time = int(m.group("epoch"))
    except ValueError as exc:  # more digits than CPython converts
        raise MalformedGroupId(f"group id epoch has too many digits: {raw!r}") from exc
    creator = WaJid(
        raw=m.group("creator") + USER_JID_SUFFIX,
        phone_number=m.group("creator"),
        kind=JidKind.USER,
    )
    return GroupId(raw=raw, creator=creator, creation_time=creation_time)


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_message_key(raw: str) -> MessageKey:
    """Parse ``[%~]<epoch>-<sequence>``; raises MalformedKey otherwise.

    Memoised: equal keys give the same (immutable) MessageKey.
    """
    if not raw:
        raise MalformedKey("empty message key")
    m = _MESSAGE_KEY_RE.match(raw)
    if not m:
        raise MalformedKey(f"unrecognized message key: {raw!r}")
    try:
        session_start, sequence = int(m.group("start")), int(m.group("seq"))
    except ValueError as exc:  # more digits than CPython converts
        raise MalformedKey(f"message key has too many digits: {raw!r}") from exc
    return MessageKey(
        raw=raw,
        session_start=session_start,
        sequence=sequence,
        broadcast_received=m.group("bc") is not None,
    )


def ts_present(value: int | None) -> bool:
    """True when an epoch field holds an actual timestamp (not NULL / -1 / 0)."""
    return value is not None and value > 0


def parse_tz_offset(text: str) -> int:
    """Parse a ``+HH:MM`` / ``-HH:MM`` / ``Z`` offset into minutes."""
    if text in ("Z", "z", ""):
        return 0
    m = re.match(r"^(?P<sign>[+-])(?P<h>\d{2}):?(?P<m>\d{2})$", text)
    # strptime's %z bounds: hours below 24, minutes below 60.
    if not m or int(m.group("h")) >= 24 or int(m.group("m")) >= 60:
        raise ValueError(f"bad timezone offset {text!r}; expected +HH:MM")
    minutes = int(m.group("h")) * 60 + int(m.group("m"))
    return -minutes if m.group("sign") == "-" else minutes


@lru_cache(maxsize=64)  # one entry per display offset in use
def format_tz_offset(offset_minutes: int) -> str:
    sign = "-" if offset_minutes < 0 else "+"
    mins = abs(offset_minutes)
    return f"{sign}{mins // 60:02d}:{mins % 60:02d}"


# A report's times fall on a few local days: each day's date is computed
# once, and the time of day by integer arithmetic.
@lru_cache(maxsize=4096)
def _calendar_date(day: int) -> str:
    d = date.fromordinal(day + EPOCH_ORDINAL)
    return f"{d.year:04d}-{d.month:02d}-{d.day:02d}"


def render_local_ms(local_ms: int) -> str | None:
    """``YYYY-MM-DD HH:MM:SS.mmm`` of a wall-clock time.

    ``local_ms`` counts milliseconds from 1970-01-01 00:00 on the same
    clock. None when the time is off datetime's calendar (years 1-9999).
    """
    day, ms = divmod(local_ms, _DAY_MS)
    if not _FIRST_DAY <= day < _END_DAY:
        return None
    second, milli = divmod(ms, 1000)
    minute, second = divmod(second, 60)
    hour, minute = divmod(minute, 60)
    return "%s %02d:%02d:%02d.%03d" % (_calendar_date(day), hour, minute, second, milli)


def render_epoch_ms(value_ms: int | None, offset_minutes: int = 0) -> str | None:
    """Render an epoch-millisecond value in the given display offset.

    Format: ``YYYY-MM-DD HH:MM:SS.mmm +HH:MM``. Returns None for absent
    values, and for a value whose local time is past the year 9999.
    """
    if value_ms is None or value_ms < 0:
        return None
    local = render_local_ms(value_ms + offset_minutes * 60_000)
    if local is None:
        return None
    return f"{local} {format_tz_offset(offset_minutes)}"


@dataclass(frozen=True)
class ContactRecord:
    """One decoded row of the contacts table.

    WhatsApp-sourced fields are decoded; the phonebook-sourced fields are
    retained verbatim in ``phonebook`` without interpretation. ``photo_ts``
    is kept verbatim and never interpreted.
    """

    id: int
    jid: WaJid
    is_whatsapp_user: bool
    unseen_msg_count: int
    photo_ts: int | None
    thumb_ts: int | None
    photo_id_timestamp: int | None
    wa_name: str | None
    status_line: str | None
    phonebook: Mapping[str, object] = field(default_factory=dict)


# The content kind of each known media_wa_type; a row of any other type is
# kept as text.
MEDIA_KINDS = {0: "text", 1: "image", 2: "audio", 3: "video", 4: "contact_card", 5: "geo"}


@dataclass(frozen=True)
class MessageRecord:
    """One decoded row of the chat-store messages table.

    Timestamp semantics follow the on-device schema: ``timestamp`` is the
    send time for outgoing rows and the record insertion time for
    incoming ones; ``received_timestamp`` is the receipt time for
    incoming rows (for an outgoing row it holds the insertion time only
    while the message is still pending locally). The ``receipt_*`` pair
    tracks the server/device acknowledgements of outgoing messages; -1
    means "no ack yet".
    """

    id: int
    key_remote_jid: WaJid
    key_id_raw: str
    key_id: MessageKey | None
    from_me: bool
    status_code: int
    timestamp: int | None
    received_timestamp: int | None
    receipt_server_timestamp: int | None
    receipt_device_timestamp: int | None
    send_timestamp: int | None  # unused on-device; retained verbatim
    needs_push: int
    recipient_count: int | None
    remote_resource_raw: str | None
    remote_resource: WaJid | None
    media_wa_type: int
    data: str | None
    raw_data: bytes | None
    media_hash: str | None
    media_url: str | None
    media_mime_type: str | None
    media_size: int | None
    media_name: str | None
    media_duration: int | None
    latitude: float | None
    longitude: float | None
    thumb_image: bytes | None  # housekeeping blob; retained, never examined

    STATUS_RECEIVED = 0
    STATUS_ON_SERVER = 4
    STATUS_DELIVERED = 5
    STATUS_CONTROL = 6

    @property
    def is_control(self) -> bool:
        return self.status_code == self.STATUS_CONTROL

    @property
    def is_broadcast_sender_row(self) -> bool:
        return self.needs_push == 2 or self.key_remote_jid.kind is JidKind.BROADCAST

    @property
    def is_broadcast_receipt(self) -> bool:
        return self.key_id_raw.startswith("%~")

    @property
    def direction(self) -> str:
        return "outgoing" if self.from_me else "incoming"

    @property
    def effective_time(self) -> int | None:
        """Ordering timestamp: receipt time for incoming, send time for outgoing."""
        if not self.from_me and ts_present(self.received_timestamp):
            return self.received_timestamp
        return self.timestamp


def media_digest(media_hash: str) -> bytes:
    """The SHA-256 digest a media_hash value holds as base64.

    Raises ValueError, whose text says why, when the value is not the
    base64 of exactly 32 bytes.
    """
    try:
        digest = base64.b64decode(media_hash, validate=True)
    except ValueError:
        raise ValueError(f"media_hash is not valid base64: {media_hash!r}") from None
    if len(digest) != 32:
        raise ValueError(f"media_hash decodes to {len(digest)} bytes; expected a 32-byte digest")
    return digest


def coordinates_fault(latitude: float | None, longitude: float | None) -> str | None:
    """Why a geo message's coordinates are unusable; None when they are usable."""
    if latitude is None or longitude is None:
        return "geo message lacks latitude/longitude"
    if not (-90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0):
        return f"geo coordinates out of range: {latitude}, {longitude}"
    return None


@dataclass(frozen=True)
class ChatListRecord:
    """One conversation entry; points at the last message of the thread."""

    id: int
    key_remote_jid: WaJid
    message_table_id: int


class EventKind(str, Enum):
    CONTACT_NOT_IN_DB = "contact_not_in_db"
    CONTACT_QUERY = "contact_query"
    AVATAR_DOWNLOADED = "avatar_downloaded"
    CONTACT_BLOCKED = "contact_blocked"
    CONTACT_UNBLOCKED = "contact_unblocked"
    MESSAGE_SENT = "message_sent"
    MESSAGE_RECEIVED = "message_received"
    SERVER_ACK = "server_ack"
    DEVICE_ACK = "device_ack"
    MESSAGE_DELETED = "message_deleted"
    GROUP_CREATED = "group_created"
    GROUP_ADD_REQUESTED = "group_add_requested"
    GROUP_MEMBER_ADDED = "group_member_added"
    GROUP_MEMBER_LEFT = "group_member_left"
    OTHER = "other"


#: Kinds that must carry a message key to be classified at all.
KEY_BEARING_KINDS = frozenset(
    {
        EventKind.MESSAGE_SENT,
        EventKind.MESSAGE_RECEIVED,
        EventKind.SERVER_ACK,
        EventKind.DEVICE_ACK,
        EventKind.MESSAGE_DELETED,
    }
)

#: Kinds the group membership timelines read, in the order create, join,
#: leave (that of ``correlator.GroupEventKind``).
GROUP_MEMBERSHIP_KINDS = (
    EventKind.GROUP_CREATED,
    EventKind.GROUP_MEMBER_ADDED,
    EventKind.GROUP_MEMBER_LEFT,
)

#: Kinds giving evidence that a contact was added to the database.
CONTACT_ADDITION_KINDS = frozenset(
    {
        EventKind.CONTACT_NOT_IN_DB,
        EventKind.CONTACT_QUERY,
        EventKind.AVATAR_DOWNLOADED,
    }
)


@dataclass(frozen=True)
class LogEvent:
    """One classified line of an application log file.

    Unblock events are anonymous and cumulative on-device, so
    ``subject_jid`` is always None for them; ``group_subject`` carries
    the group name announced by creation events.
    """

    occurred_at: int | None  # epoch ms; None when the line had no parsable time
    kind: EventKind
    subject_jid: WaJid | None
    message_key: MessageKey | None
    group_id: GroupId | None
    group_subject: str | None
    raw_line: str
    source_file: str
    line_number: int

    @property
    def evidence_ref(self) -> str:
        return f"{self.source_file}:{self.line_number}"


def file_sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in ``MEDIA_HASH_CHUNK`` chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(MEDIA_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class MediaHashes:
    """SHA-256 digests of a list of files, hashed by a forked helper process.

    The helper hashes the files in order with ``file_sha256`` while the
    command goes on, and writes one line per file to a pipe: the hex
    digest, or an empty line where it met an ``OSError``. The first
    ``digest`` call reads the pipe to EOF and reaps the helper; a file
    without a digest is then hashed by the caller. ``close`` kills and
    reaps a helper not collected yet, and runs when the handle is
    released if no one called it.
    """

    def __init__(self, sources: Sequence[Path], pid: int, read_fd: int):
        self._sources = list(sources)
        self._digests: dict[Path, str] | None = None
        self._pid, self._read_fd = pid, read_fd
        self._stop = weakref.finalize(self, _stop_helper, pid, read_fd)

    @classmethod
    def start(cls, sources: Sequence[Path], total_bytes: int) -> MediaHashes | None:
        """A helper hashing ``sources``, or None where it would not pay off.

        It pays off where a process can be forked, a second CPU can run
        it, and the files hold at least ``MEDIA_HELPER_MIN_BYTES``.
        """
        if (
            not hasattr(os, "fork")
            or _available_cpus() < 2
            or total_bytes < MEDIA_HELPER_MIN_BYTES
        ):
            return None
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the files are hashed where asked for
            os.close(read_fd)
            os.close(write_fd)
            return None
        if pid == 0:
            _hash_in_helper(sources, read_fd, write_fd)
        os.close(write_fd)
        return cls(sources, pid, read_fd)

    def digest(self, source: Path) -> str | None:
        """The helper's digest of ``source``, or None if it gave none."""
        if self._digests is None:
            self._digests = self._collect()
        return self._digests.get(source)

    def close(self) -> None:
        self._stop()

    def _collect(self) -> dict[Path, str]:
        if self._stop.detach() is None:  # closed before it was collected
            return {}
        with open(self._read_fd, "rb") as pipe:
            data = pipe.read()
        _reap(self._pid)
        lines = data.split(b"\n")[:-1]  # a cut-off last line is no digest
        if len(lines) > len(self._sources):
            return {}
        return {source: line.decode("ascii") for source, line in zip(self._sources, lines) if line}


def _hash_in_helper(sources: Sequence[Path], read_fd: int, write_fd: int) -> NoReturn:
    """The helper's whole life; it leaves through ``os._exit``.

    It runs no atexit handler, flushes no inherited stdio buffer and
    removes no temporary directory of the command. The lines are written
    at the end, in one go, so a pipe full of early digests never stops
    the hashing while the command is busy elsewhere.
    """
    status = 1
    try:
        os.close(read_fd)
        lines = []
        for source in sources:
            try:
                lines.append(file_sha256(source))
            except OSError:
                lines.append("")
        data = memoryview("".join(line + "\n" for line in lines).encode("ascii"))
        while data:
            data = data[os.write(write_fd, data) :]
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # already reaped elsewhere
        pass


def _stop_helper(pid: int, read_fd: int) -> None:
    # Imported here: no other code of the CLI uses it, and importing it
    # costs every command about 1 ms.
    import signal

    os.close(read_fd)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _reap(pid)


@dataclass(frozen=True)
class MediaFile:
    """One file found under the media directories.

    The content hash is computed on demand: ``sha256`` reads ``source``
    once, on first access, and caches the digest, so a command that never
    asks for it never opens the file. Where ``hashes`` is a helper
    hashing the file ahead of time, its digest is taken instead of
    reading the file. A digest already known, such as the forge's hash of
    the bytes it wrote, is passed as ``known_sha256`` and no file is read.
    Equality compares the digests too.
    """

    path: str  # POSIX path relative to the evidence root
    size_bytes: int
    source: Path | None = field(default=None, repr=False, compare=False)
    hashes: MediaHashes | None = field(default=None, repr=False, compare=False)
    known_sha256: InitVar[str | None] = None

    def __post_init__(self, known_sha256: str | None) -> None:
        if known_sha256 is not None:
            # Fills the cache of ``sha256``, which has no setter to refuse it.
            object.__setattr__(self, "sha256", known_sha256)

    @cached_property
    def sha256(self) -> str:
        if self.hashes is not None and (digest := self.hashes.digest(self.source)):
            return digest
        return file_sha256(self.source)

    def __eq__(self, other):
        if not isinstance(other, MediaFile):
            return NotImplemented
        return (
            self.path == other.path
            and self.size_bytes == other.size_bytes
            and self.sha256 == other.sha256
        )


@dataclass(frozen=True)
class AvatarFile:
    jid_raw: str
    path: str


@dataclass(frozen=True)
class BackupSet:
    """Messages recovered from one decrypted chat-database backup.

    Only the rows the live store lost are kept: a backup row whose
    (conversation jid, key) pair is also a live row's is dropped at
    ingest, undecoded. ``messages`` is therefore a delta against
    ``CaseBundle.messages``, in ascending _id order.
    """

    name: str
    messages: tuple[MessageRecord, ...]


@dataclass(frozen=True)
class CaseBundle:
    """The parsed evidence set of one device."""

    contacts: tuple[ContactRecord, ...] = ()
    messages: tuple[MessageRecord, ...] = ()
    chat_list: tuple[ChatListRecord, ...] = ()
    log_events: tuple[LogEvent, ...] = ()
    registered_number: str | None = None
    own_avatar_present: bool = False
    media_inventory: tuple[MediaFile, ...] = ()
    avatar_inventory: tuple[AvatarFile, ...] = ()
    backups: tuple[BackupSet, ...] = ()
    warnings: tuple[ParseWarning, ...] = ()

    def log_coverage(self) -> tuple[int | None, int | None]:
        """(first, last) event time in ms; (None, None) without dated events."""
        times = [e.occurred_at for e in self.log_events if e.occurred_at is not None]
        if not times:
            return (None, None)
        return (min(times), max(times))
