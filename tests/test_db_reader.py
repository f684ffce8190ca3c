"""Evidence database readers: decoding, tolerance, read-only behavior."""

import base64
import random
import re
import sqlite3

import pytest

from helpers import MESSAGE_DEFAULTS, build_db, contacts_db, corrupt_page_2, jid, msgstore_db
from wadroid import db_reader
from wadroid.db_reader import (
    check_chat_list_consistency,
    load_chat_list,
    load_contacts,
    load_message_pairs,
    load_messages,
    open_source,
)
from wadroid.errors import CorruptDatabase, MissingTable, NotSqlite, UnreadableFile
from wadroid.model import (
    ChatListRecord,
    ContactRecord,
    JidKind,
    MessageRecord,
    classify_jid,
    parse_message_key,
    warn_to,
)

CONTACT_ROW = {
    "jid": "39331xxxxxxx@s.whatsapp.net",
    "is_whatsapp_user": 1,
    "status": "hi",
    "number": "+39331xxxxxxx",
    "raw_contact_id": 12,
    "display_name": "Someone",
    "phone_type": 2,
    "phone_label": "mobile",
    "unseen_msg_count": 0,
    "photo_ts": 0,
    "thumb_ts": 1380000000,
    "photo_id_timestamp": 1380111266000,
    "given_name": "Some",
    "family_name": "One",
    "wa_name": "someone",
    "sort_name": "Someone",
}


def _contacts_source(tmp_path, rows):
    return open_source(contacts_db(tmp_path / "wa.db", rows))


def _store_source(tmp_path, messages=(), chats=()):
    return open_source(msgstore_db(tmp_path / "msgstore.db", messages, chats))


def test_load_single_contact(tmp_path):
    warn = []
    records = load_contacts(_contacts_source(tmp_path, [CONTACT_ROW]), warn)
    assert len(records) == 1
    record = records[0]
    assert record.jid.kind is JidKind.USER
    assert record.jid.phone_number == "39331xxxxxxx"
    assert record.is_whatsapp_user is True
    assert record.wa_name == "someone"
    assert record.status_line == "hi"
    assert record.phonebook["display_name"] == "Someone"
    assert record.phonebook["sort_name"] == "Someone"
    assert record.thumb_ts == 1380000000
    assert len(warn) == 0


def test_load_contacts_empty_table(tmp_path):
    assert load_contacts(_contacts_source(tmp_path, [])) == []


def test_phonebook_only_entry(tmp_path):
    row = dict(CONTACT_ROW, is_whatsapp_user=0)
    records = load_contacts(_contacts_source(tmp_path, [row]))
    assert records[0].is_whatsapp_user is False


def test_phonebook_holds_the_columns_the_table_has(tmp_path):
    path = tmp_path / "wa.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE wa_contacts (_id INTEGER PRIMARY KEY, jid TEXT, sort_name TEXT,
                                  number TEXT, mystery TEXT);
        INSERT INTO wa_contacts VALUES (1, '1@s.whatsapp.net', 'Zed', '+1', 'x');
        INSERT INTO wa_contacts VALUES (2, '2@s.whatsapp.net', NULL, '+2', 'y');
        """
    )
    conn.close()
    records = load_contacts(open_source(path))
    assert [list(r.phonebook.items()) for r in records] == [
        [("number", "+1"), ("sort_name", "Zed")],
        [("number", "+2"), ("sort_name", None)],
    ]


def test_contact_avatar_time_inversion_warns(tmp_path):
    row = dict(CONTACT_ROW, thumb_ts=2000000000, photo_id_timestamp=1000000000000)
    warn = []
    load_contacts(_contacts_source(tmp_path, [row]), warn)
    assert any("thumb_ts" in w.message for w in warn)


def test_malformed_contact_jid_kept(tmp_path):
    row = dict(CONTACT_ROW, jid="garbage")
    warn = []
    records = load_contacts(_contacts_source(tmp_path, [row]), warn)
    assert records[0].jid.kind is JidKind.OTHER
    assert records[0].jid.raw == "garbage"
    assert len(warn) == 1


def test_not_sqlite(tmp_path):
    path = tmp_path / "wa.db"
    path.write_bytes(b"definitely not a database")
    with pytest.raises(NotSqlite):
        open_source(path)


def test_missing_file(tmp_path):
    with pytest.raises(UnreadableFile):
        open_source(tmp_path / "absent.db")


def test_missing_table(tmp_path):
    path = tmp_path / "wa.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE other (x)")
    conn.commit()
    conn.close()
    with open_source(path) as source:
        with pytest.raises(MissingTable, match=re.escape("lacks required table(s): wa_contacts")):
            load_contacts(source)


def test_msgstore_missing_messages_table(tmp_path):
    path = tmp_path / "msgstore.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE chat_list (_id INTEGER PRIMARY KEY)")
    conn.commit()
    conn.close()
    with open_source(path) as source:
        with pytest.raises(MissingTable, match=re.escape("lacks required table(s): messages")):
            load_messages(source)


def test_an_image_reads_as_its_file_under_the_name_given(tmp_path):
    row = {"key_remote_jid": jid("393480000002"), "key_id": "1-1", "data": "hi", "latitude": 1}
    path = msgstore_db(tmp_path / "msgstore.db", [{**row, "media_wa_type": 5}])
    from_file, from_image = [], []
    with open_source(path) as source:
        expected = load_messages(source, from_file)
    name = "msgstore-1.db.crypt"
    with open_source(name, image=path.read_bytes()) as source:
        assert source.path == name
        assert load_messages(source, from_image) == expected
    assert [w.message for w in from_image] == [w.message for w in from_file]
    assert [w.source for w in from_image] == [f"{name}:messages#1"]
    with pytest.raises(NotSqlite, match=re.escape(name)):
        open_source(name, image=b"not a database")
    with open_source(name, image=path.read_bytes()) as source:
        with pytest.raises(MissingTable, match=re.escape(name)):
            load_contacts(source)
    with pytest.raises(CorruptDatabase, match=re.escape(f"{name}: table messages is damaged")):
        with open_source(name, image=corrupt_page_2(path.read_bytes())) as s:
            load_messages(s)


def test_incoming_text_message(tmp_path):
    row = {
        "key_remote_jid": jid("393480000002"),
        "key_from_me": 0,
        "key_id": "1329112000-1",
        "data": "Message 1",
        "timestamp": 1329116349000,
        "received_timestamp": 1329116349000,
    }
    warn = []
    records = load_messages(_store_source(tmp_path, [row]), warn)
    assert len(records) == 1
    record = records[0]
    assert record.from_me is False
    assert record.data == "Message 1"
    assert record.received_timestamp == 1329116349000
    assert parse_message_key(record.key_id_raw).session_start == 1329112000
    assert len(warn) == 0


def test_geo_message(tmp_path):
    row = {
        "key_remote_jid": jid("393480000002"),
        "key_id": "1-1",
        "media_wa_type": 5,
        "latitude": 45.07,
        "longitude": 7.68,
        "timestamp": 1329116349000,
        "received_timestamp": 1329116349000,
    }
    records = load_messages(_store_source(tmp_path, [row]))
    assert records[0].latitude == pytest.approx(45.07)
    assert records[0].longitude == pytest.approx(7.68)


def test_geo_message_without_coordinates_warns(tmp_path):
    row = {
        "key_remote_jid": jid("393480000002"),
        "key_id": "1-1",
        "media_wa_type": 5,
        "timestamp": 1,
        "received_timestamp": 1,
    }
    warn = []
    load_messages(_store_source(tmp_path, [row]), warn)
    assert any("latitude" in w.message for w in warn)


def test_invalid_media_hash_warns(tmp_path):
    row = {
        "key_remote_jid": jid("393480000002"),
        "key_id": "1-1",
        "media_wa_type": 1,
        "media_hash": "not base64!!",
        "timestamp": 1,
        "received_timestamp": 1,
    }
    warn = []
    load_messages(_store_source(tmp_path, [row]), warn)
    assert any("media_hash" in w.message for w in warn)


def test_ack_order_violation_warns(tmp_path):
    row = {
        "key_remote_jid": jid("393480000002"),
        "key_from_me": 1,
        "key_id": "1-1",
        "status": 5,
        "timestamp": 2000,
        "receipt_server_timestamp": 1500,
        "receipt_device_timestamp": 1200,
    }
    warn = []
    records = load_messages(_store_source(tmp_path, [row]), warn)
    assert len(records) == 1  # kept, never reordered
    assert any("not monotone" in w.message for w in warn)


def test_rows_ordered_by_id(tmp_path):
    rows = [
        {"_id": 7, "key_remote_jid": jid("1111"), "key_id": "1-3", "timestamp": 3},
        {"_id": 2, "key_remote_jid": jid("1111"), "key_id": "1-1", "timestamp": 1},
        {"_id": 5, "key_remote_jid": jid("1111"), "key_id": "1-2", "timestamp": 2},
    ]
    records = load_messages(_store_source(tmp_path, rows))
    assert [r.id for r in records] == [2, 5, 7]


def test_extra_and_missing_columns_tolerated(tmp_path):
    path = tmp_path / "msgstore.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE messages (
            _id INTEGER PRIMARY KEY, key_remote_jid TEXT, key_from_me INTEGER,
            key_id TEXT, status INTEGER, timestamp INTEGER,
            mystery_new_column TEXT
        );
        CREATE TABLE chat_list (_id INTEGER PRIMARY KEY, key_remote_jid TEXT,
                                message_table_id INTEGER);
        """
    )
    conn.execute(
        "INSERT INTO messages VALUES (1, ?, 0, '9-9', 0, 123, 'surprise')",
        (jid("393480000002"),),
    )
    conn.commit()
    conn.close()
    records = load_messages(open_source(path))
    assert records[0].data is None
    assert records[0].media_wa_type == 0
    assert records[0].timestamp == 123


def test_column_type_mismatch_keeps_row(tmp_path):
    row = {
        "key_remote_jid": jid("393480000002"),
        "key_id": "1-1",
        "timestamp": "not-a-number",
        "received_timestamp": 1,
    }
    warn = []
    records = load_messages(_store_source(tmp_path, [row]), warn)
    assert len(records) == 1
    assert records[0].timestamp is None
    assert any("expected integer" in w.message for w in warn)


def test_a_key_with_a_trailing_line_feed_is_kept_verbatim_and_warned(tmp_path):
    row = {"key_remote_jid": jid("393480000002"), "key_id": "1-1\n", "timestamp": 1}
    warn = []
    records = load_messages(_store_source(tmp_path, [row]), warn)
    assert records[0].key_id_raw == "1-1\n"
    assert [w.message for w in warn] == ["malformed key_id kept verbatim: '1-1\\n'"]


@pytest.mark.parametrize("text, value", [("1_000", None), ("١٢", None), (" 7 ", 7), ("+5", 5)])
def test_integer_text_converts_only_where_sqlite_stores_an_integer(tmp_path, text, value):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (v INTEGER)")
    conn.execute("INSERT INTO t VALUES (?)", (text,))
    stored = conn.execute("SELECT typeof(v) FROM t").fetchone()[0]
    conn.close()
    assert stored == ("text" if value is None else "integer")
    source = _untyped_store(tmp_path / "msgstore.db", [dict(_PLAIN_ROW, timestamp=text)])
    records, warnings = _load(source)
    assert records[0].timestamp == value
    mismatch = "column 'timestamp': expected integer, got str; field treated as absent"
    assert [w.message for w in warnings] == ([] if value is not None else [mismatch])


def test_skipped_pairs_are_matched_on_decoded_text(tmp_path):
    live = (jid("393480000002"), "1329112000-1")
    rows = [
        # the live key stored as a BLOB of its UTF-8 bytes decodes to the live pair
        {"key_remote_jid": live[0], "key_id": live[1].encode("utf-8"), "data": "live copy"},
        {"key_remote_jid": live[0], "key_id": "1329112000-2", "data": "lost"},
        # an undecodable key reads as "", which is not live: decoded, and warned about
        {"key_remote_jid": live[0], "key_id": b"\xff", "data": "bad key"},
    ]
    source = _store_source(tmp_path, rows)
    assert [r.key_id_raw for r in load_messages(source)] == [live[1], "1329112000-2", ""]
    warn = []
    records = load_messages(source, warn, skip_pairs=frozenset({live}))
    assert [r.data for r in records] == ["lost", "bad key"]
    assert warn and all(w.source == "msgstore.db:messages#3" for w in warn)


_AWKWARD_KEYS = [
    {"key_remote_jid": jid("393480000002"), "key_id": "1329112000-1"},
    {"key_remote_jid": None, "key_id": None},
    {"key_remote_jid": jid("393480000002").encode("utf-8"), "key_id": b"1329112000-2"},
    {"key_remote_jid": b"\xff\xfe", "key_id": b"\xff"},
    {"key_remote_jid": 393480000002, "key_id": 7},  # stored as text: both columns are TEXT
    {"key_remote_jid": "not a jid", "key_id": ""},
]


@pytest.mark.parametrize("dropped", [None, "key_id", "key_remote_jid"])
def test_message_pairs_are_the_decoded_records_pairs(tmp_path, dropped):
    path = msgstore_db(tmp_path / "msgstore.db", _AWKWARD_KEYS)
    if dropped:
        conn = sqlite3.connect(path)
        conn.execute(f"ALTER TABLE messages DROP COLUMN {dropped}")
        conn.commit()
        conn.close()
    source = open_source(path)
    pairs = load_message_pairs(source)
    assert pairs == {(m.key_remote_jid.raw, m.key_id_raw) for m in load_messages(source)}
    if not dropped:
        conversation = jid("393480000002")
        assert pairs == {
            (conversation, "1329112000-1"),
            ("", ""),  # NULL, and undecodable bytes, read as absent
            (conversation, "1329112000-2"),  # BLOBs holding UTF-8 read as text
            ("393480000002", "7"),
            ("not a jid", ""),
        }


def test_corrupt_messages_table_fails_the_pair_read(tmp_path):
    path = msgstore_db(tmp_path / "msgstore.db", [{"key_remote_jid": jid("1"), "key_id": "1-1"}])
    conn = sqlite3.connect(path)
    conn.execute("CREATE INDEX messages_key ON messages (key_remote_jid, key_id)")  # intact
    conn.close()
    source = open_source(path)
    path.write_bytes(corrupt_page_2(path.read_bytes()))  # the messages table's root
    with pytest.raises(CorruptDatabase):
        load_message_pairs(source)


def test_corrupt_database_is_a_tool_error(tmp_path):
    path = msgstore_db(tmp_path / "msgstore.db", [{"key_remote_jid": jid("1"), "key_id": "1-1"}])
    source = open_source(path)
    path.write_bytes(corrupt_page_2(path.read_bytes()))  # the messages table's root
    with pytest.raises(CorruptDatabase):
        load_messages(source)


def test_chat_list_single_conversation(tmp_path):
    messages = [
        {"_id": 1, "key_remote_jid": jid("1111"), "key_id": "1-1", "timestamp": 1},
        {"_id": 2, "key_remote_jid": jid("1111"), "key_id": "1-2", "timestamp": 2},
    ]
    chats = [{"_id": 1, "key_remote_jid": jid("1111"), "message_table_id": 2}]
    source = _store_source(tmp_path, messages, chats)
    chat_records = load_chat_list(source)
    message_records = load_messages(source)
    assert len(chat_records) == 1
    assert chat_records[0].message_table_id == message_records[-1].id
    warn = []
    check_chat_list_consistency(chat_records, message_records, warn)
    assert len(warn) == 0


def test_chat_list_empty(tmp_path):
    assert load_chat_list(_store_source(tmp_path)) == []


def test_dangling_chat_pointer_warns(tmp_path):
    messages = [{"_id": 1, "key_remote_jid": jid("1111"), "key_id": "1-1", "timestamp": 1}]
    chats = [{"_id": 1, "key_remote_jid": jid("1111"), "message_table_id": 99}]
    source = _store_source(tmp_path, messages, chats)
    chat_records = load_chat_list(source)
    message_records = load_messages(source)
    warn = []
    check_chat_list_consistency(chat_records, message_records, warn)
    assert len(warn) == 1
    assert "99" in warn[0].message


def test_loading_never_writes(tmp_path):
    path = msgstore_db(
        tmp_path / "msgstore.db",
        [dict(MESSAGE_DEFAULTS, key_remote_jid=jid("1"), key_id="1-1", timestamp=1)],
    )
    before = (path.stat().st_mtime_ns, path.read_bytes())
    source = open_source(path)
    load_messages(source)
    load_chat_list(source)
    after = (path.stat().st_mtime_ns, path.read_bytes())
    assert before == after
    assert not (tmp_path / "msgstore.db-journal").exists()
    assert not (tmp_path / "msgstore.db-wal").exists()


# --- fast decoding and key-first filtering ----------------------------------------

_PLAIN_ROW = {
    "_id": 1,
    "key_remote_jid": jid("393480000002"),
    "key_id": "1329112000-1",
    "key_from_me": 1,
    "status": 5,
    "timestamp": 1329112000000,
    "received_timestamp": 1329112000500,
    "receipt_server_timestamp": 1329112001000,
    "receipt_device_timestamp": 1329112002000,
    "needs_push": 0,
    "recipient_count": 1,
    "remote_resource": jid("393200000003"),
    "media_wa_type": 5,
    "data": "café",
    "raw_data": b"\x00\x01",
    "media_hash": base64.b64encode(bytes(range(32))).decode("ascii"),
    "media_url": "https://mms.example/1",
    "media_mime_type": "image/jpeg",
    "media_size": 1024,
    "media_name": "IMG-1.jpg",
    "media_duration": 0,
    "latitude": 45.5,
    "longitude": 9.25,
}

_STORAGE_CLASSES = {
    "null": None,
    "integer": 7,
    "integral-real": 7.0,
    "real": 7.5,
    "numeric-text": "7",
    "text": "some text",
    "utf8-blob": "café".encode("utf-8"),
    "invalid-utf8-blob": b"\xff\xfe",
}


def _untyped_store(path, rows, id_column="_id INTEGER PRIMARY KEY"):
    """A chat store whose decoded messages columns have no type affinity.

    Each value keeps the storage class it was inserted with.
    """
    others = [c for c in db_reader._MESSAGE_COLUMNS if c != "_id"]
    schema = f"""
        CREATE TABLE messages ({id_column}, {', '.join(others)});
        CREATE TABLE chat_list (_id INTEGER PRIMARY KEY, key_remote_jid TEXT,
                                message_table_id INTEGER);
    """
    return open_source(build_db(path, schema, {"messages": rows}))


def _load(source, **kwargs):
    warn = []
    return load_messages(source, warn, **kwargs), warn


class _ReferenceRow:
    """Column-name access over one ``SELECT _id, *`` row, with type-tolerant getters.

    The reference the column-table decoder is checked against: each getter
    reads its column as that column's storage class, converting where
    nothing is lost and otherwise warning and reading it as absent.
    """

    def __init__(self, row, index, source, warn):
        self.row = row
        self.index = index
        self.source = source
        self.warn = warn

    def raw(self, name):
        position = self.index.get(name)
        return None if position is None else self.row[position]

    def _mismatch(self, name, value, expected):
        warn_to(
            self.warn,
            self.source,
            f"column {name!r}: expected {expected}, got {type(value).__name__}; "
            "field treated as absent",
        )

    def int_(self, name, default=None):
        value = self.raw(name)
        if value is None:
            return default
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

    def float_(self, name):
        value = self.raw(name)
        if value is None:
            return None
        if isinstance(value, (int, float)):
            return float(value)
        self._mismatch(name, value, "real")
        return None

    def text(self, name):
        value = self.raw(name)
        if value is None:
            return None
        if isinstance(value, str):
            return value
        if isinstance(value, bytes):
            try:
                return value.decode("utf-8")
            except UnicodeDecodeError:
                pass
        self._mismatch(name, value, "text")
        return None

    def blob(self, name):
        value = self.raw(name)
        if value is None:
            return None
        if isinstance(value, bytes):
            return value
        if isinstance(value, str):
            return value.encode("utf-8")
        self._mismatch(name, value, "blob")
        return None

    def bool_(self, name):
        value = self.int_(name)
        return False if value is None else value != 0


def _reference_message(row):
    key_raw = row.text("key_id") or ""
    db_reader._message_key(key_raw, row.source, row.warn)
    rr_raw = row.text("remote_resource")
    needs_push = row.int_("needs_push", 0) or 0
    db_reader._remote_resource(rr_raw, needs_push, row.source, row.warn)
    media_hash = row.text("media_hash")
    db_reader._decode_media_hash(media_hash, row.source, row.warn)
    record = MessageRecord(
        id=row.int_("_id", 0) or 0,
        key_remote_jid=classify_jid(row.text("key_remote_jid"), row.warn, row.source),
        key_id_raw=key_raw,
        from_me=row.bool_("key_from_me"),
        status_code=row.int_("status", 0) or 0,
        timestamp=row.int_("timestamp"),
        received_timestamp=row.int_("received_timestamp"),
        receipt_server_timestamp=row.int_("receipt_server_timestamp"),
        receipt_device_timestamp=row.int_("receipt_device_timestamp"),
        needs_push=needs_push,
        recipient_count=row.int_("recipient_count"),
        remote_resource_raw=rr_raw,
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
    )
    db_reader._check_message_invariants(record, row.source, row.warn)
    return record


def _reference_contact(row):
    jid_ = classify_jid(row.text("jid"), row.warn, row.source)
    thumb_ts = row.int_("thumb_ts")
    photo_id_ts = row.int_("photo_id_timestamp")
    record = ContactRecord(
        id=row.int_("_id", 0) or 0,
        jid=jid_,
        is_whatsapp_user=row.bool_("is_whatsapp_user"),
        thumb_ts=thumb_ts,
        photo_id_timestamp=photo_id_ts,
        wa_name=row.text("wa_name"),
        status_line=row.text("status"),
        phonebook={c: row.raw(c) for c in db_reader.PHONEBOOK_COLUMNS if c in row.index},
    )
    if thumb_ts and photo_id_ts and thumb_ts > 0 and photo_id_ts > 0:
        if thumb_ts * 1000 > photo_id_ts:
            warn_to(
                row.warn,
                row.source,
                f"thumb_ts {thumb_ts} is later than photo_id_timestamp {photo_id_ts}",
            )
    return record


def _reference_chat(row):
    return ChatListRecord(
        id=row.int_("_id", 0) or 0,
        key_remote_jid=classify_jid(row.text("key_remote_jid"), row.warn, row.source),
        message_table_id=row.int_("message_table_id", 0) or 0,
    )


_PLAIN_CONTACT = {
    "_id": 1,
    "jid": jid("393480000002"),
    "is_whatsapp_user": 1,
    "thumb_ts": 1380000000,
    "photo_id_timestamp": 1380111266000,
    "wa_name": "someone",
    "status": "hi",
    "number": "+393480000002",
    "display_name": "Someone",
    "given_name": "Some",
    "family_name": "One",
    "phone_type": 2,
    "phone_label": "mobile",
    "raw_contact_id": 12,
    "sort_name": "Someone",
}

_PLAIN_CHAT = {"_id": 1, "key_remote_jid": jid("393480000002"), "message_table_id": 1}

#: Per table: its decoder's columns, a row that needs no conversion, one
#: that warns about the record it gives (not about any column), the
#: reference decoder and the loader.
_TABLES = {
    "messages": (
        db_reader._MESSAGE_COLUMNS,
        _PLAIN_ROW,
        dict(_PLAIN_ROW, key_id="bad", remote_resource="a,b", media_hash="%%",
             key_remote_jid="nobody", latitude=99.0),
        _reference_message,
        load_messages,
    ),
    "wa_contacts": (
        [*db_reader._CONTACT_COLUMNS, *db_reader.PHONEBOOK_COLUMNS],
        _PLAIN_CONTACT,
        dict(_PLAIN_CONTACT, jid="nobody", thumb_ts=2000000000, photo_id_timestamp=10**12),
        _reference_contact,
        load_contacts,
    ),
    "chat_list": (
        db_reader._CHAT_LIST_COLUMNS,
        _PLAIN_CHAT,
        dict(_PLAIN_CHAT, key_remote_jid="nobody"),
        _reference_chat,
        load_chat_list,
    ),
}


def _reference_load(path, table, decode):
    """Every row of ``table`` decoded by the reference getters, and their warnings."""
    warn = []
    conn = sqlite3.connect(path)
    try:
        cursor = conn.execute(f"SELECT _id, * FROM {table} ORDER BY _id, rowid")
        names = [d[0].lower() for d in cursor.description[1:]]
        index = {name: position for position, name in enumerate(names, start=1)}
        rows = cursor.fetchall()
    finally:
        conn.close()
    records = [decode(_ReferenceRow(row, index, f"{path.name}:{table}#{row[0]}", warn))
               for row in rows]
    return records, warn


def _mismatches_first(warnings, columns):
    """``warnings`` with each row's column mismatches first, in column order."""
    sources = list(dict.fromkeys(w.source for w in warnings))
    columns = list(columns)

    def rank(warning):
        mismatch = re.match(r"column '(\w+)': expected ", warning.message)
        in_row = columns.index(mismatch[1]) if mismatch else len(columns)
        return sources.index(warning.source), in_row

    return sorted(warnings, key=rank)


@pytest.mark.parametrize("storage_class", list(_STORAGE_CLASSES))
@pytest.mark.parametrize(
    "table, column",
    [
        pytest.param(table, column, id=column if table == "messages" else f"{table}.{column}")
        for table, (columns, *_) in _TABLES.items()
        for column in columns
    ],
)
def test_plain_rows_decode_as_the_getters_do(tmp_path, monkeypatch, table, column, storage_class):
    columns, plain, warning, reference, load = _TABLES[table]
    rows = [
        plain,
        {**plain, "_id": 2, column: _STORAGE_CLASSES[storage_class]},
        dict(warning, _id=3),
    ]
    # No type affinity: each value keeps the storage class it was inserted with.
    schema = "".join(f"CREATE TABLE {t} ({', '.join(c)});" for t, (c, *_) in _TABLES.items())
    path = build_db(tmp_path / "evidence.db", schema, {table: rows})
    converted = []

    def counting(convert):
        def counted(value, name, source, warn):
            converted.append(source)
            return convert(value, name, source, warn)

        return counted

    converters = {storage: counting(c) for storage, c in db_reader._CONVERTERS.items()}
    monkeypatch.setattr(db_reader, "_CONVERTERS", converters)
    warn = []
    records = load(open_source(path), warn)
    expected, expected_warnings = _reference_load(path, table, reference)
    assert len(records) == 3
    assert records == expected
    assert repr(records) == repr(expected)  # ``==`` alone takes True for 1 and 7.0 for 7
    assert warn == _mismatches_first(expected_warnings, columns)
    # the rows needing no conversion go through no converter
    assert not {f"{path.name}:{table}#1", f"{path.name}:{table}#3"} & set(converted)


def test_a_rows_mismatch_warnings_precede_its_record_warnings(tmp_path):
    row = dict(_PLAIN_ROW, key_id=b"\xff", timestamp="soon", remote_resource="a,b",
               media_hash="%%", key_remote_jid="nobody", latitude=99.0)
    source = _untyped_store(tmp_path / "msgstore.db", [row])
    records, warnings = _load(source)
    assert [w.message.split(":")[0] for w in warnings] == [
        "column 'key_id'",  # the column mismatches, in column-table order
        "column 'timestamp'",
        "malformed key_id kept verbatim",  # then the record's own warnings
        "remote_resource is not a single jid",
        "media_hash is not valid base64",
        "malformed jid kept verbatim",
        "geo coordinates out of range",
    ]
    assert (records[0].key_id_raw, records[0].timestamp) == ("", None)


def test_key_first_filter_keeps_order_and_ignores_duplicate_ids(tmp_path):
    live, lost = jid("393480000002"), jid("393200000003")
    rows = [
        {"_id": 3, "key_remote_jid": live, "key_id": "1-1", "data": "live"},
        {"_id": 1, "key_remote_jid": lost, "key_id": "1-2", "data": "b"},
        {"_id": 3, "key_remote_jid": lost, "key_id": "1-3", "data": "c"},
        {"_id": 1, "key_remote_jid": live, "key_id": "1-1", "data": "live again"},
        {"_id": 2, "key_remote_jid": lost, "key_id": b"1-4", "data": "d"},
        {"_id": 1, "key_remote_jid": lost, "key_id": "1-5", "data": "e"},
    ]
    source = _untyped_store(tmp_path / "msgstore.db", rows, id_column="_id INTEGER")
    skip = frozenset({(live, "1-1")})
    records, warnings = _load(source, skip_pairs=skip)
    everything, _ = _load(source)
    assert records == [r for r in everything if (r.key_remote_jid.raw, r.key_id_raw) not in skip]
    assert [(r.id, r.data) for r in records] == [(1, "b"), (1, "e"), (2, "d"), (3, "c")]
    assert warnings == []


def test_key_first_filter_fetches_only_the_kept_rows(tmp_path):
    order = list(range(1, 2501))
    random.Random(3).shuffle(order)
    rows = [
        {"_id": n, "key_remote_jid": jid("393480000002"), "key_id": f"1-{n}", "data": str(n)}
        for n in order
    ]
    source = _untyped_store(tmp_path / "msgstore.db", rows, id_column="_id INTEGER")
    skip = frozenset((jid("393480000002"), f"1-{n}") for n in range(1, 2501) if n % 3 == 0)
    statements = []
    source.connection.set_trace_callback(statements.append)
    records = load_messages(source, skip_pairs=skip)
    assert [r.id for r in records] == [n for n in range(1, 2501) if n % 3]
    # Besides the probe, which reads no row, one statement reads the kept rows.
    probe, read = statements
    assert probe.endswith("LIMIT 0") and read.startswith("SELECT _id, ")
    assert not any("rowid IN" in s for s in statements)


@pytest.mark.parametrize(
    "table, row, unread",
    [
        ("messages", {"key_remote_jid": jid("393480000002"), "key_id": "1-1", "thumb_image": 7},
         {"thumb_image", "send_timestamp"}),
        ("wa_contacts", dict(CONTACT_ROW, photo_ts="never"), {"unseen_msg_count", "photo_ts"}),
    ],
    ids=["messages", "wa_contacts"],
)
def test_columns_no_output_reads_are_not_fetched(tmp_path, table, row, unread):
    """The statement reading the rows names none of them, so their values are not warned about."""
    if table == "messages":
        source, load = _store_source(tmp_path, [row]), load_messages
    else:
        source, load = _contacts_source(tmp_path, [row]), load_contacts
    statements = []
    source.connection.set_trace_callback(statements.append)
    warn = []
    assert len(load(source, warn)) == 1
    probe, read = statements
    assert read.startswith("SELECT _id, ") and f" FROM {table} " in read
    assert not unread & set(re.findall(r"\w+", read))
    assert warn == []


def test_a_filtered_table_without_rowid_or_id_counts_positions_over_the_whole_table(tmp_path):
    partner = jid("393480000002")
    keys = ["1-1", "1-2", "1-3", "x-4", "x-5"]  # primary-key order; x-4 and x-5 are malformed
    path = build_db(tmp_path / "b.crypt", """
        CREATE TABLE messages (key_remote_jid TEXT, key_id TEXT, data TEXT,
                               PRIMARY KEY (key_remote_jid, key_id)) WITHOUT ROWID;
    """, {"messages": [
        {"key_remote_jid": partner, "key_id": key, "data": key} for key in reversed(keys)
    ]})
    source = open_source(path)
    skip = frozenset({(partner, "1-1"), (partner, "1-3")})  # live at positions 1 and 3
    records, warnings = _load(source, skip_pairs=skip)
    everything, every_warning = _load(source)
    assert [r.data for r in everything] == keys
    assert records == [r for r in everything if (r.key_remote_jid.raw, r.key_id_raw) not in skip]
    assert [r.data for r in records] == ["1-2", "x-4", "x-5"]
    assert [w.source for w in warnings] == ["b.crypt:messages#4", "b.crypt:messages#5"]
    assert warnings == every_warning


def test_column_names_match_case_insensitively(tmp_path):
    partner = jid("393480000002")
    path = tmp_path / "msgstore.db"
    build_db(path, """
        CREATE TABLE MESSAGES (_ID INTEGER PRIMARY KEY, KEY_REMOTE_JID TEXT, Key_Id TEXT,
                               DATA TEXT, TIMESTAMP INTEGER);
        CREATE TABLE Chat_List (_ID INTEGER PRIMARY KEY, KEY_REMOTE_JID TEXT,
                                MESSAGE_TABLE_ID INTEGER);
    """, {
        "messages": [{"_id": 4, "key_remote_jid": partner, "key_id": "1-1", "data": "hi",
                      "timestamp": 5}],
        "chat_list": [{"_id": 1, "key_remote_jid": partner, "message_table_id": 4}],
    })
    source = open_source(path)
    warn = []
    (message,) = load_messages(source, warn)
    assert (message.id, message.key_remote_jid.raw, message.key_id_raw, message.data) == (
        4, partner, "1-1", "hi"
    )
    assert message.timestamp == 5
    assert load_message_pairs(source) == {(partner, "1-1")}
    assert load_messages(source, skip_pairs=frozenset({(partner, "1-1")})) == []
    (chat,) = load_chat_list(source, warn)
    assert (chat.key_remote_jid.raw, chat.message_table_id) == (partner, 4)
    contacts = tmp_path / "wa.db"
    build_db(contacts, "CREATE TABLE WA_Contacts (_ID INTEGER PRIMARY KEY, JID TEXT, "
             "Display_Name TEXT, IS_WHATSAPP_USER INTEGER)",
             {"wa_contacts": [{"jid": partner, "display_name": "Partner", "is_whatsapp_user": 1}]})
    (contact,) = load_contacts(open_source(contacts), warn)
    assert (contact.jid.raw, contact.is_whatsapp_user) == (partner, True)
    assert contact.phonebook == {"display_name": "Partner"}
    assert warn == []
