"""Read-only access to the contacts and chat-store SQLite databases.

Rows are mapped by column NAME, never by position: the app's schema has
drifted across versions, so extra columns are ignored and missing
optional columns decode to absent values. The reader never writes to an
evidence file (databases are opened through SQLite's read-only
immutable mode). SQLite's own errors on a damaged file are raised as
CorruptDatabase, so callers handle them like any other tool error.

Recovery of deleted rows from freelist/WAL pages is out of scope; the
correlator's log-based inference covers deletions instead.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import CorruptDatabase, MissingTable, NotSqlite, UnreadableFile
from .model import (
    ChatListRecord,
    ContactRecord,
    MessageRecord,
    WarningLog,
    classify_jid,
    parse_message_key,
    warn_to,
)

SQLITE_MAGIC = b"SQLite format 3\x00"

CONTACTS_TABLE = "wa_contacts"
MESSAGES_TABLE = "messages"
CHAT_LIST_TABLE = "chat_list"

#: Phonebook-sourced columns retained verbatim, plus the sort key.
PHONEBOOK_COLUMNS = (
    "number",
    "display_name",
    "given_name",
    "family_name",
    "phone_type",
    "phone_label",
    "raw_contact_id",
    "sort_name",
)


class DbKind(Enum):
    CONTACTS = "contacts"
    CHAT_STORE = "chat_store"


_REQUIRED_TABLES = {
    DbKind.CONTACTS: (CONTACTS_TABLE,),
    DbKind.CHAT_STORE: (MESSAGES_TABLE, CHAT_LIST_TABLE),
}


@dataclass(frozen=True)
class DbSource:
    """A verified handle on one evidence database file."""

    path: str
    db_kind: DbKind
    table_names_found: tuple[str, ...]


def _check_magic(path: Path) -> None:
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(SQLITE_MAGIC))
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc}") from exc
    if head != SQLITE_MAGIC:
        raise NotSqlite(f"{path} does not start with the SQLite magic header")


def _connect_ro(path: Path) -> sqlite3.Connection:
    # immutable=1 disables locking and journal access entirely, so the
    # evidence file is guaranteed untouched.
    uri = f"file:{path.as_posix()}?mode=ro&immutable=1"
    return sqlite3.connect(uri, uri=True)


def open_source(path: str | Path, db_kind: DbKind) -> DbSource:
    """Validate magic and required tables, returning a DbSource handle."""
    path = Path(path)
    if not path.is_file():
        raise UnreadableFile(f"no such database file: {path}")
    _check_magic(path)
    try:
        conn = _connect_ro(path)
        try:
            names = tuple(
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name"
                )
            )
        finally:
            conn.close()
    except sqlite3.DatabaseError as exc:
        raise CorruptDatabase(f"{path} is damaged or unreadable: {exc}") from exc
    missing = [t for t in _REQUIRED_TABLES[db_kind] if t not in names]
    if missing:
        raise MissingTable(f"{path} lacks required table(s): {', '.join(missing)}")
    return DbSource(path=str(path), db_kind=db_kind, table_names_found=names)


class _Row:
    """Column-name access over one row with type-tolerant getters."""

    def __init__(
        self, row: sqlite3.Row, keys: frozenset[str], source: str, warn: WarningLog | None
    ):
        self._row = row
        self._keys = keys
        self.source = source
        self.warn = warn

    def _raw(self, name):
        if name not in self._keys:
            return None
        return self._row[name]

    def _mismatch(self, name, value, expected) -> None:
        warn_to(
            self.warn,
            self.source,
            f"column {name!r}: expected {expected}, got {type(value).__name__}; "
            "field treated as absent",
        )

    def int_(self, name: str, default: int | None = None) -> int | None:
        value = self._raw(name)
        if value is None:
            return default
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                pass
        self._mismatch(name, value, "integer")
        return default

    def float_(self, name: str) -> float | None:
        value = self._raw(name)
        if value is None:
            return None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        self._mismatch(name, value, "real")
        return None

    def text(self, name: str) -> str | None:
        value = self._raw(name)
        if value is None:
            return None
        if isinstance(value, str):
            return value
        if isinstance(value, bytes):
            try:
                return value.decode("utf-8")
            except UnicodeDecodeError:
                self._mismatch(name, value, "text")
                return None
        self._mismatch(name, value, "text")
        return None

    def blob(self, name: str) -> bytes | None:
        value = self._raw(name)
        if value is None:
            return None
        if isinstance(value, bytes):
            return value
        if isinstance(value, str):
            return value.encode("utf-8")
        self._mismatch(name, value, "blob")
        return None

    def bool_(self, name: str, default: bool = False) -> bool:
        value = self.int_(name)
        if value is None:
            return default
        return value != 0


@contextmanager
def _reading(source: DbSource, table: str):
    """A read-only connection returning ``sqlite3.Row`` rows.

    SQLite's errors while reading ``table`` are raised as CorruptDatabase.
    """
    try:
        conn = _connect_ro(Path(source.path))
        try:
            conn.row_factory = sqlite3.Row
            yield conn
        finally:
            conn.close()
    except sqlite3.DatabaseError as exc:
        raise CorruptDatabase(f"{source.path}: table {table} is damaged: {exc}") from exc


def _fetch_rows(source: DbSource, table: str) -> tuple[frozenset[str], list[sqlite3.Row]]:
    """The table's column names and its rows in ascending _id order.

    A table without an ``_id`` column is read in rowid order. Each row
    starts with the number that names it in warnings, outside the column
    names: its ``_id``, or its rowid where the table has no ``_id``.
    """
    with _reading(source, table) as conn:
        # Column names from a query that reads no row: PRAGMA table_info cost
        # a spawned ``diff`` of 41 backups ~20 ms more (measured on 2 vCPUs).
        columns = [c[0] for c in conn.execute(f"SELECT * FROM {table} LIMIT 0").description]
        order = "_id" if "_id" in {c.lower() for c in columns} else "rowid"
        rows = conn.execute(f"SELECT {order}, * FROM {table} ORDER BY {order}").fetchall()
        return frozenset(columns), rows


def load_contacts(source: DbSource, warn: WarningLog | None = None) -> list[ContactRecord]:
    """Materialize every contacts-table row, in ascending _id order."""
    if source.db_kind is not DbKind.CONTACTS:
        raise ValueError("load_contacts requires a CONTACTS source")
    name = Path(source.path).name
    records = []
    keys, raw_rows = _fetch_rows(source, CONTACTS_TABLE)
    phonebook_columns = [col for col in PHONEBOOK_COLUMNS if col in keys]
    for raw_row in raw_rows:
        rid = raw_row[0]
        row = _Row(raw_row, keys, f"{name}:{CONTACTS_TABLE}#{rid}", warn)
        jid = classify_jid(row.text("jid"), warn, row.source)
        thumb_ts = row.int_("thumb_ts")
        photo_id_ts = row.int_("photo_id_timestamp")
        record = ContactRecord(
            id=row.int_("_id", 0) or 0,
            jid=jid,
            is_whatsapp_user=row.bool_("is_whatsapp_user"),
            unseen_msg_count=row.int_("unseen_msg_count", 0) or 0,
            photo_ts=row.int_("photo_ts"),
            thumb_ts=thumb_ts,
            photo_id_timestamp=photo_id_ts,
            wa_name=row.text("wa_name"),
            status_line=row.text("status"),
            phonebook={col: raw_row[col] for col in phonebook_columns},
        )
        # An avatar cannot be downloaded before the contact set it.
        if thumb_ts and photo_id_ts and thumb_ts > 0 and photo_id_ts > 0:
            if thumb_ts * 1000 > photo_id_ts:
                warn_to(
                    warn,
                    row.source,
                    f"thumb_ts {thumb_ts} is later than photo_id_timestamp {photo_id_ts}",
                )
        records.append(record)
    return records


def _decode_media_hash(row: _Row, value: str | None) -> None:
    """Warn when media_hash is not base64 for exactly 32 bytes (kept verbatim)."""
    if value is None:
        return
    import base64
    import binascii

    try:
        digest = base64.b64decode(value, validate=True)
    except (binascii.Error, ValueError):
        warn_to(row.warn, row.source, f"media_hash is not valid base64: {value!r}")
        return
    if len(digest) != 32:
        warn_to(
            row.warn,
            row.source,
            f"media_hash decodes to {len(digest)} bytes; expected a 32-byte digest",
        )


_PAIR_COLUMNS = ("key_remote_jid", "key_id")


def _message_pair(row: _Row) -> tuple[str, str]:
    """(key_remote_jid.raw, key_id_raw) of the record decoded from ``row``."""
    return row.text("key_remote_jid") or "", row.text("key_id") or ""


def load_message_pairs(source: DbSource) -> frozenset[tuple[str, str]]:
    """The (conversation jid, key) pair of every messages-table row.

    Each pair is read as ``load_messages`` would decode it into
    (``key_remote_jid.raw``, ``key_id_raw``), without warnings; no other
    column is read. A missing key column reads as absent in every row.
    """
    if source.db_kind is not DbKind.CHAT_STORE:
        raise ValueError("load_message_pairs requires a CHAT_STORE source")
    with _reading(source, MESSAGES_TABLE) as conn:
        present = {row["name"] for row in conn.execute(f"PRAGMA table_info({MESSAGES_TABLE})")}
        columns = ", ".join(c if c in present else f"NULL AS {c}" for c in _PAIR_COLUMNS)
        # NOT INDEXED: read the table's own pages, as ``load_messages`` does,
        # even where an index holds both key columns.
        cursor = conn.execute(f"SELECT {columns} FROM {MESSAGES_TABLE} NOT INDEXED")
        keys = frozenset(_PAIR_COLUMNS)
        return frozenset(_message_pair(_Row(raw_row, keys, "", None)) for raw_row in cursor)


def load_messages(
    source: DbSource,
    warn: WarningLog | None = None,
    skip_pairs: frozenset[tuple[str, str]] = frozenset(),
) -> list[MessageRecord]:
    """Materialize the messages-table rows, in ascending _id order.

    Rows whose (conversation jid, key) pair is in ``skip_pairs`` are
    dropped before they are decoded, so they give neither a record nor a
    warning. Blob columns are carried as opaque bytes; ``thumb_image`` is
    retained but never examined.
    """
    if source.db_kind is not DbKind.CHAT_STORE:
        raise ValueError("load_messages requires a CHAT_STORE source")
    name = Path(source.path).name
    keys, raw_rows = _fetch_rows(source, MESSAGES_TABLE)
    if skip_pairs:
        # Read the pair as the decoded record holds it below, without warnings.
        raw_rows = [
            raw_row
            for raw_row in raw_rows
            if _message_pair(_Row(raw_row, keys, "", None)) not in skip_pairs
        ]
    records = []
    for raw_row in raw_rows:
        rid = raw_row[0]
        row = _Row(raw_row, keys, f"{name}:{MESSAGES_TABLE}#{rid}", warn)
        key_raw = row.text("key_id") or ""
        try:
            key = parse_message_key(key_raw)
        except Exception:
            warn_to(warn, row.source, f"malformed key_id kept verbatim: {key_raw!r}")
            key = None
        rr_raw = row.text("remote_resource")
        rr_jid = None
        needs_push = row.int_("needs_push", 0) or 0
        if rr_raw:
            try:
                rr_jid = classify_jid(rr_raw, None, row.source)
                if not rr_jid.is_parsed:
                    rr_jid = None
                    # Broadcast fan-out rows store the whole destination
                    # set in this column; that is expected, not malformed.
                    if needs_push != 2:
                        warn_to(
                            warn,
                            row.source,
                            f"remote_resource is not a single jid: {rr_raw!r}",
                        )
            except Exception:
                rr_jid = None
        media_hash = row.text("media_hash")
        _decode_media_hash(row, media_hash)
        record = MessageRecord(
            id=row.int_("_id", 0) or 0,
            key_remote_jid=classify_jid(row.text("key_remote_jid"), warn, row.source),
            key_id_raw=key_raw,
            key_id=key,
            from_me=row.bool_("key_from_me"),
            status_code=row.int_("status", 0) or 0,
            timestamp=row.int_("timestamp"),
            received_timestamp=row.int_("received_timestamp"),
            receipt_server_timestamp=row.int_("receipt_server_timestamp"),
            receipt_device_timestamp=row.int_("receipt_device_timestamp"),
            send_timestamp=row.int_("send_timestamp"),
            needs_push=needs_push,
            recipient_count=row.int_("recipient_count"),
            remote_resource_raw=rr_raw,
            remote_resource=rr_jid,
            media_wa_type=row.int_("media_wa_type", 0) or 0,
            data=row.text("data"),
            raw_data=row.blob("raw_data"),
            media_hash=media_hash,
            media_url=row.text("media_url"),
            media_mime_type=row.text("media_mime_type"),
            media_size=row.int_("media_size"),
            media_name=row.text("media_name"),
            media_duration=row.int_("media_duration"),
            latitude=row.float_("latitude"),
            longitude=row.float_("longitude"),
            thumb_image=row.blob("thumb_image"),
        )
        _check_message_invariants(record, row.source, warn)
        records.append(record)
    return records


def _check_message_invariants(rec: MessageRecord, source: str, warn: WarningLog | None) -> None:
    """Record-level sanity checks; violations warn, never reorder or drop."""
    ts = [
        ("timestamp", rec.timestamp),
        ("receipt_server_timestamp", rec.receipt_server_timestamp),
        ("receipt_device_timestamp", rec.receipt_device_timestamp),
    ]
    previous_name, previous = None, None
    for field_name, value in ts:
        if value is None or value <= 0:
            continue
        if previous is not None and value < previous:
            warn_to(
                warn,
                source,
                f"{field_name} ({value}) precedes {previous_name} ({previous}); "
                "state-change times are not monotone",
            )
        previous_name, previous = field_name, value
    if rec.media_wa_type == 5:
        lat, lon = rec.latitude, rec.longitude
        if lat is None or lon is None:
            warn_to(warn, source, "geo message lacks latitude/longitude")
        elif not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            warn_to(warn, source, f"geo coordinates out of range: {lat}, {lon}")


def load_chat_list(source: DbSource, warn: WarningLog | None = None) -> list[ChatListRecord]:
    """Materialize every chat-list row, in ascending _id order."""
    if source.db_kind is not DbKind.CHAT_STORE:
        raise ValueError("load_chat_list requires a CHAT_STORE source")
    name = Path(source.path).name
    records = []
    keys, raw_rows = _fetch_rows(source, CHAT_LIST_TABLE)
    for raw_row in raw_rows:
        rid = raw_row[0]
        row = _Row(raw_row, keys, f"{name}:{CHAT_LIST_TABLE}#{rid}", warn)
        records.append(
            ChatListRecord(
                id=row.int_("_id", 0) or 0,
                key_remote_jid=classify_jid(row.text("key_remote_jid"), warn, row.source),
                message_table_id=row.int_("message_table_id", 0) or 0,
            )
        )
    return records


def check_chat_list_consistency(chat_list, messages, warn: WarningLog | None) -> None:
    """Warn for chat-list rows whose last-message pointer is dangling.

    A dangling pointer is normal after the referenced message was
    deleted; the row is kept as-is.
    """
    known = {m.id for m in messages}
    for row in chat_list:
        if row.message_table_id not in known:
            warn_to(
                warn,
                f"msgstore.db:{CHAT_LIST_TABLE}#{row.id}",
                f"message_table_id {row.message_table_id} does not reference a "
                "live messages row (the message may have been deleted)",
            )
