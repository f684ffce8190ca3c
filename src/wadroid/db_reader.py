"""Read-only access to the contacts and chat-store SQLite databases.

Rows are mapped by column NAME, never by position, and table and column
names are matched case-insensitively, as SQLite matches them: the app's
schema has drifted across versions, so extra columns are ignored and
missing optional columns decode to absent values. A source is one
connection: to a file, through SQLite's read-only immutable mode, so the
reader never writes to an evidence file, or to a decrypted backup's
image in memory. Opening a source requires no table; a loader raises
MissingTable when the table it reads is absent, so a database is checked
only for the tables that are read from it. SQLite's own errors on a
damaged database are raised as CorruptDatabase, so callers handle them
like any other tool error.

Each table a record is decoded from has a column table, {name: the
storage class its values need no conversion in}. A value that is NULL or
of its column's class is kept as it is. Any other goes to that class's
converter (``_CONVERTERS``), which converts it where the conversion
loses nothing, and otherwise warns about the mismatch and reads it as
absent. A row's warnings come in this order: its mismatch warnings, in
column-table order, then the warnings about the decoded record (key,
remote resource, media hash, jid, then the record's invariants).

Each table is read by one SELECT, whatever its shape (``_Table.rows``);
of a backup, it leaves out the rows whose (conversation, key) pair is
live, reading only their key columns. Rows numbered by position use a
window function, which needs SQLite 3.25 or later.

Recovery of deleted rows from freelist/WAL pages is out of scope; the
correlator's log-based inference covers deletions instead.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from pathlib import Path
from types import NoneType
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import CorruptDatabase, MalformedKey, MissingTable, NotSqlite, UnreadableFile
from .model import (
    CALENDAR_END_MS,
    ChatListRecord,
    ContactRecord,
    MessageRecord,
    ParseWarning,
    ascii_int,
    classify_jid,
    coordinates_fault,
    media_digest,
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


class DbSource:
    """An evidence database, open until its ``with`` block ends."""

    def __init__(self, path: str, tables: frozenset[str], connection: sqlite3.Connection) -> None:
        self.path = path  # the file, or the name of an in-memory image
        self.tables = tables  # lower-cased, as SQLite matches them
        self.connection = connection

    def __enter__(self) -> DbSource:
        return self

    def __exit__(self, *exc_info) -> None:
        self.connection.close()


def _head(path: Path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read(len(SQLITE_MAGIC))
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc}") from exc


def open_source(path: str | Path, *, image: bytes | None = None) -> DbSource:
    """The SQLite database at ``path``, open, with the names of its tables.

    A file without the SQLite magic is NotSqlite; one whose schema cannot
    be read is CorruptDatabase. No table is required here: each loader
    checks for the table it reads. Given its bytes as ``image``, the
    database is read from a copy of them in memory, and ``path`` only
    names it.
    """
    path = Path(path)
    if image is None and not path.is_file():
        raise UnreadableFile(f"no such database file: {path}")
    if not (_head(path) if image is None else image).startswith(SQLITE_MAGIC):
        raise NotSqlite(f"{path} does not start with the SQLite magic header")
    if image is None:
        # immutable=1 disables locking and journal access entirely, so the
        # evidence file is guaranteed untouched.
        conn = sqlite3.connect(f"file:{path.as_posix()}?mode=ro&immutable=1", uri=True)
    else:
        conn = sqlite3.connect(":memory:")
        if image[18:20] == b"\x02\x02":  # WAL mode, which SQLite cannot read in memory
            image = bytearray(image)
            image[18:20] = b"\x01\x01"  # the same pages, as a rollback-journal database
    try:
        if image is not None:
            conn.deserialize(image)
        tables = frozenset(
            name.lower()
            for (name,) in conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
        )
    except sqlite3.DatabaseError as exc:
        conn.close()
        raise CorruptDatabase(f"{path} is damaged or unreadable: {exc}") from exc
    return DbSource(path=str(path), tables=tables, connection=conn)


@contextmanager
def _reading(source: DbSource, table: str):
    """The source's connection, to read ``table``.

    MissingTable if the source has no such table; SQLite's errors reading
    it become CorruptDatabase.
    """
    if table not in source.tables:
        raise MissingTable(f"{source.path} lacks required table(s): {table}")
    try:
        yield source.connection
    except sqlite3.DatabaseError as exc:
        raise CorruptDatabase(f"{source.path}: table {table} is damaged: {exc}") from exc


class _Table(NamedTuple):
    """The shape of one table: what reading its rows depends on."""

    name: str
    columns: tuple[str, ...]  # lower-cased, as SQLite matches them
    has_rowid: bool  # False for a WITHOUT ROWID table

    @classmethod
    def probe(cls, conn: sqlite3.Connection, name: str) -> _Table:
        # From queries that read no row: PRAGMA table_info cost a spawned
        # ``diff`` of 41 backups ~20 ms more (measured on 2 vCPUs).
        try:
            columns = conn.execute(f"SELECT rowid, * FROM {name} LIMIT 0").description[1:]
            has_rowid = True
        except sqlite3.OperationalError:  # no such column: a WITHOUT ROWID table
            columns = conn.execute(f"SELECT * FROM {name} LIMIT 0").description
            has_rowid = False
        return cls(name, tuple(c[0].lower() for c in columns), has_rowid)

    def select(self, columns: Sequence[str]) -> str:
        """A select list of ``columns``, each one the table lacks read as NULL."""
        return ", ".join(c if c in self.columns else f"NULL AS {c}" for c in columns)

    def rows(
        self, conn: sqlite3.Connection, select: str, skip_pairs: frozenset = frozenset()
    ) -> list[tuple]:
        """Every row's ``select`` columns, after the number naming the row in warnings.

        Rows come in ascending _id order (equal ids in rowid order) and are
        named by their _id. A table without ``_id`` is read in rowid order
        and names its rows by rowid; one without rowids either is read in
        primary-key order and names its rows by their 1-based position in
        the whole table. One statement reads them; it leaves out each row
        whose (conversation, key) pair is in ``skip_pairs``, reading only
        that row's key columns.
        """
        # NOT INDEXED: read the table's own pages, even where an index
        # holds the columns read.
        table = f"{self.name} NOT INDEXED"
        if "_id" in self.columns:
            label, order = "_id", "_id, rowid" if self.has_rowid else "_id"
        elif self.has_rowid:
            label = order = "rowid"
        else:  # numbered in a subquery, before the filter leaves rows out
            label = order = "_position"
            table = f"(SELECT row_number() OVER () AS _position, * FROM {table})"
        where = ""
        if skip_pairs:
            # ``skip_pairs`` holds pairs of str, so a raw pair is in it only
            # when both values are TEXT, and then it is its own decoding:
            # most skipped rows are found without ``_pair``.
            def kept(jid, key) -> bool:
                return (jid, key) not in skip_pairs and _pair(jid, key) not in skip_pairs

            conn.create_function("wadroid_kept", 2, kept, deterministic=True)
            pair = ", ".join(c if c in self.columns else "NULL" for c in _PAIR_COLUMNS)
            where = f" WHERE wadroid_kept({pair})"
        query = f"SELECT {label}, {select} FROM {table}{where} ORDER BY {order}"
        return conn.execute(query).fetchall()


def _mismatch(
    value, name: str, expected: str, source: str, warn: list[ParseWarning] | None
) -> None:
    warn_to(
        warn,
        source,
        f"column {name!r}: expected {expected}, got {type(value).__name__}; "
        "field treated as absent",
    )


def _as_int(value, name: str, source: str, warn: list[ParseWarning] | None) -> int | None:
    """An INTEGER column's value: an integral real or base-10 text converts.

    Text must be ASCII and hold no ``_``: SQLite's INTEGER affinity keeps
    ``1_000`` and other scripts' digits as TEXT, though ``int`` reads them.
    """
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return ascii_int(value)
        except ValueError:
            pass
    return _mismatch(value, name, "integer", source, warn)


def _as_real(value, name: str, source: str, warn: list[ParseWarning] | None) -> float | None:
    """A REAL column's value: an integer converts."""
    if isinstance(value, (int, float)):
        return float(value)
    return _mismatch(value, name, "real", source, warn)


def _as_text(value, name: str, source: str, warn: list[ParseWarning] | None) -> str | None:
    """A TEXT column's value: a blob holding UTF-8 converts."""
    if isinstance(value, str):
        return value
    if isinstance(value, bytes):
        try:
            return value.decode("utf-8")
        except UnicodeDecodeError:
            pass
    return _mismatch(value, name, "text", source, warn)


def _as_blob(value, name: str, source: str, warn: list[ParseWarning] | None) -> bytes | None:
    """A BLOB column's value: text converts to its UTF-8 bytes."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    return _mismatch(value, name, "blob", source, warn)


#: The converter of each storage class a column table names.
_CONVERTERS = {int: _as_int, float: _as_real, str: _as_text, bytes: _as_blob}


def _decoded(
    rows: Iterable[Sequence],
    columns: dict[str, type],
    prefix: str,
    warn: list[ParseWarning] | None,
) -> Iterator[tuple[str, Sequence]]:
    """Each row, with its ``columns`` values converted, after the source naming it.

    A row holds the number naming it (the source is ``prefix`` and that
    number), then a value for each of ``columns``, then any values kept
    verbatim. A value neither NULL nor of its column's class goes to the
    class's converter, in column order, so a row's mismatch warnings
    precede those its caller gives about the record. The positions to
    convert are found once for each signature of value types: a row
    needing no conversion is passed on as it is.
    """
    # For each signature of value types: (position, column, converter) to apply.
    to_convert: dict[tuple[type, ...], list[tuple[int, str, Callable]]] = {}
    for row in rows:
        source = f"{prefix}{row[0]}"
        signature = tuple(map(type, row))
        plan = to_convert.get(signature)
        if plan is None:
            plan = to_convert[signature] = [
                (position, name, _CONVERTERS[expected])
                for position, (kind, (name, expected)) in enumerate(
                    zip(signature[1:], columns.items()), start=1
                )
                if kind is not NoneType and kind is not expected
            ]
        if plan:
            row = list(row)
            for position, name, convert in plan:
                row[position] = convert(row[position], name, source, warn)
        yield source, row


#: The contacts columns a record is decoded from, each with its storage class.
_CONTACT_COLUMNS = {
    "_id": int,
    "jid": str,
    "is_whatsapp_user": int,
    "unseen_msg_count": int,
    "photo_ts": int,
    "thumb_ts": int,
    "photo_id_timestamp": int,
    "wa_name": str,
    "status": str,
}


def load_contacts(source: DbSource, warn: list[ParseWarning] | None = None) -> list[ContactRecord]:
    """Materialize every contacts-table row, in ascending _id order."""
    with _reading(source, CONTACTS_TABLE) as conn:
        shape = _Table.probe(conn, CONTACTS_TABLE)
        phonebook_columns = [c for c in PHONEBOOK_COLUMNS if c in shape.columns]
        raw_rows = shape.rows(conn, shape.select([*_CONTACT_COLUMNS, *phonebook_columns]))
    prefix = f"{Path(source.path).name}:{CONTACTS_TABLE}#"
    records = []
    for where, row in _decoded(raw_rows, _CONTACT_COLUMNS, prefix, warn):
        (
            _,
            id_,
            jid_raw,
            is_whatsapp_user,
            unseen_msg_count,
            photo_ts,
            thumb_ts,
            photo_id_ts,
            wa_name,
            status,
            *phonebook,
        ) = row
        record = ContactRecord(
            id=id_ or 0,
            jid=classify_jid(jid_raw, warn, where),
            is_whatsapp_user=bool(is_whatsapp_user),
            unseen_msg_count=unseen_msg_count or 0,
            photo_ts=photo_ts,
            thumb_ts=thumb_ts,
            photo_id_timestamp=photo_id_ts,
            wa_name=wa_name,
            status_line=status,
            phonebook=dict(zip(phonebook_columns, phonebook)),
        )
        # An avatar cannot be downloaded before the contact set it.
        if thumb_ts and photo_id_ts and thumb_ts > 0 and photo_id_ts > 0:
            if thumb_ts * 1000 > photo_id_ts:
                warn_to(
                    warn,
                    where,
                    f"thumb_ts {thumb_ts} is later than photo_id_timestamp {photo_id_ts}",
                )
        records.append(record)
    return records


def _decode_media_hash(value: str | None, source: str, warn: list[ParseWarning] | None) -> None:
    """Warn when media_hash is not base64 for exactly 32 bytes (kept verbatim)."""
    if value is None:
        return
    try:
        media_digest(value)
    except ValueError as exc:
        warn_to(warn, source, str(exc))


_PAIR_COLUMNS = ("key_remote_jid", "key_id")


def _pair(jid, key) -> tuple[str, str]:
    """(key_remote_jid.raw, key_id_raw) of the record decoded from these key columns."""
    if type(jid) is str and type(key) is str:
        return jid, key
    return _as_text(jid, "", "", None) or "", _as_text(key, "", "", None) or ""


def load_message_pairs(source: DbSource) -> frozenset[tuple[str, str]]:
    """The (conversation jid, key) pair of every messages-table row.

    Each pair is read as ``load_messages`` would decode it into
    (``key_remote_jid.raw``, ``key_id_raw``), without warnings; no other
    column is read. A missing key column reads as absent in every row.
    """
    with _reading(source, MESSAGES_TABLE) as conn:
        shape = _Table.probe(conn, MESSAGES_TABLE)
        # NOT INDEXED: read the table's own pages, as ``load_messages`` does,
        # even where an index holds both key columns.
        cursor = conn.execute(
            f"SELECT {shape.select(_PAIR_COLUMNS)} FROM {MESSAGES_TABLE} NOT INDEXED"
        )
        return frozenset(_pair(jid, key) for jid, key in cursor)


#: The messages columns a record is decoded from, each with the storage
#: class it holds when it needs no conversion.
_MESSAGE_COLUMNS = {
    "_id": int,
    "key_remote_jid": str,
    "key_id": str,
    "key_from_me": int,
    "status": int,
    "timestamp": int,
    "received_timestamp": int,
    "receipt_server_timestamp": int,
    "receipt_device_timestamp": int,
    "send_timestamp": int,
    "needs_push": int,
    "recipient_count": int,
    "remote_resource": str,
    "media_wa_type": int,
    "data": str,
    "raw_data": bytes,
    "media_hash": str,
    "media_url": str,
    "media_mime_type": str,
    "media_size": int,
    "media_name": str,
    "media_duration": int,
    "latitude": float,
    "longitude": float,
    "thumb_image": bytes,
}


def load_messages(
    source: DbSource,
    warn: list[ParseWarning] | None = None,
    skip_pairs: frozenset[tuple[str, str]] = frozenset(),
) -> list[MessageRecord]:
    """Materialize the messages-table rows, in ascending _id order.

    The statement reading the rows leaves out those whose (conversation
    jid, key) pair is in ``skip_pairs``: they give neither a record nor a
    warning, and the others keep their labels. Blob columns are carried
    as opaque bytes; ``thumb_image`` is retained but never examined.
    """
    with _reading(source, MESSAGES_TABLE) as conn:
        shape = _Table.probe(conn, MESSAGES_TABLE)
        raw_rows = shape.rows(conn, shape.select(_MESSAGE_COLUMNS), skip_pairs)
    prefix = f"{Path(source.path).name}:{MESSAGES_TABLE}#"
    decoded = _decoded(raw_rows, _MESSAGE_COLUMNS, prefix, warn)
    return [_message(row, where, warn) for where, row in decoded]


def _message_key(key_raw: str, source: str, warn: list[ParseWarning] | None) -> None:
    """Warn when key_id is not a message key; the record keeps it verbatim."""
    try:
        parse_message_key(key_raw)
    except MalformedKey:
        warn_to(warn, source, f"malformed key_id kept verbatim: {key_raw!r}")


def _remote_resource(
    rr_raw: str | None, needs_push: int, source: str, warn: list[ParseWarning] | None
) -> None:
    """Warn when remote_resource is not a single jid; the record keeps it verbatim."""
    # Broadcast fan-out rows store the whole destination set in this
    # column; that is expected, not malformed.
    if rr_raw and not classify_jid(rr_raw).is_parsed and needs_push != 2:
        warn_to(warn, source, f"remote_resource is not a single jid: {rr_raw!r}")


def _message(row: Sequence, source: str, warn: list[ParseWarning] | None) -> MessageRecord:
    """The record of a ``_decoded`` messages row, checked for its invariants."""
    (
        _,
        id_,
        jid_raw,
        key_raw,
        from_me,
        status,
        timestamp,
        received_timestamp,
        receipt_server_timestamp,
        receipt_device_timestamp,
        send_timestamp,
        needs_push,
        recipient_count,
        rr_raw,
        media_wa_type,
        data,
        raw_data,
        media_hash,
        media_url,
        media_mime_type,
        media_size,
        media_name,
        media_duration,
        latitude,
        longitude,
        thumb_image,
    ) = row
    key_raw = key_raw or ""
    _message_key(key_raw, source, warn)
    needs_push = needs_push or 0
    _remote_resource(rr_raw, needs_push, source, warn)
    _decode_media_hash(media_hash, source, warn)
    record = MessageRecord(
        id=id_ or 0,
        key_remote_jid=classify_jid(jid_raw, warn, source),
        key_id_raw=key_raw,
        from_me=bool(from_me),
        status_code=status or 0,
        timestamp=timestamp,
        received_timestamp=received_timestamp,
        receipt_server_timestamp=receipt_server_timestamp,
        receipt_device_timestamp=receipt_device_timestamp,
        send_timestamp=send_timestamp,
        needs_push=needs_push,
        recipient_count=recipient_count,
        remote_resource_raw=rr_raw,
        media_wa_type=media_wa_type or 0,
        data=data,
        raw_data=raw_data,
        media_hash=media_hash,
        media_url=media_url,
        media_mime_type=media_mime_type,
        media_size=media_size,
        media_name=media_name,
        media_duration=media_duration,
        latitude=latitude,
        longitude=longitude,
        thumb_image=thumb_image,
    )
    _check_message_invariants(record, source, warn)
    return record


def _check_message_invariants(
    rec: MessageRecord, source: str, warn: list[ParseWarning] | None
) -> None:
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
    for field_name, value in (*ts, ("received_timestamp", rec.received_timestamp)):
        if value is not None and value >= CALENDAR_END_MS:
            warn_to(warn, source, f"{field_name} ({value}) is past the year 9999; no local time")
    if rec.media_wa_type == 5 and (fault := coordinates_fault(rec.latitude, rec.longitude)):
        warn_to(warn, source, fault)


#: The chat-list columns a record is decoded from, each with its storage class.
_CHAT_LIST_COLUMNS = {"_id": int, "key_remote_jid": str, "message_table_id": int}


def load_chat_list(
    source: DbSource, warn: list[ParseWarning] | None = None
) -> list[ChatListRecord]:
    """Materialize every chat-list row, in ascending _id order."""
    with _reading(source, CHAT_LIST_TABLE) as conn:
        shape = _Table.probe(conn, CHAT_LIST_TABLE)
        raw_rows = shape.rows(conn, shape.select(_CHAT_LIST_COLUMNS))
    prefix = f"{Path(source.path).name}:{CHAT_LIST_TABLE}#"
    return [
        ChatListRecord(
            id=id_ or 0,
            key_remote_jid=classify_jid(jid_raw, warn, where),
            message_table_id=message_table_id or 0,
        )
        for where, (_, id_, jid_raw, message_table_id) in _decoded(
            raw_rows, _CHAT_LIST_COLUMNS, prefix, warn
        )
    ]


def check_chat_list_consistency(chat_list, messages, warn: list[ParseWarning] | None) -> None:
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
