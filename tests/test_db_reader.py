"""Evidence database readers: decoding, tolerance, read-only behavior."""

import sqlite3

import pytest

from helpers import MESSAGE_DEFAULTS, contacts_db, corrupt_page_2, jid, msgstore_db
from wadroid.db_reader import (
    DbKind,
    check_chat_list_consistency,
    load_chat_list,
    load_contacts,
    load_message_pairs,
    load_messages,
    open_source,
)
from wadroid.errors import CorruptDatabase, MissingTable, NotSqlite, UnreadableFile
from wadroid.model import JidKind, WarningLog

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
    return open_source(contacts_db(tmp_path / "wa.db", rows), DbKind.CONTACTS)


def _store_source(tmp_path, messages=(), chats=()):
    return open_source(msgstore_db(tmp_path / "msgstore.db", messages, chats), DbKind.CHAT_STORE)


def test_load_single_contact(tmp_path):
    warn = WarningLog()
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
    assert record.photo_ts == 0
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
    records = load_contacts(open_source(path, DbKind.CONTACTS))
    assert [list(r.phonebook.items()) for r in records] == [
        [("number", "+1"), ("sort_name", "Zed")],
        [("number", "+2"), ("sort_name", None)],
    ]


def test_contact_avatar_time_inversion_warns(tmp_path):
    row = dict(CONTACT_ROW, thumb_ts=2000000000, photo_id_timestamp=1000000000000)
    warn = WarningLog()
    load_contacts(_contacts_source(tmp_path, [row]), warn)
    assert any("thumb_ts" in w.message for w in warn)


def test_malformed_contact_jid_kept(tmp_path):
    row = dict(CONTACT_ROW, jid="garbage")
    warn = WarningLog()
    records = load_contacts(_contacts_source(tmp_path, [row]), warn)
    assert records[0].jid.kind is JidKind.OTHER
    assert records[0].jid.raw == "garbage"
    assert len(warn) == 1


def test_not_sqlite(tmp_path):
    path = tmp_path / "wa.db"
    path.write_bytes(b"definitely not a database")
    with pytest.raises(NotSqlite):
        open_source(path, DbKind.CONTACTS)


def test_missing_file(tmp_path):
    with pytest.raises(UnreadableFile):
        open_source(tmp_path / "absent.db", DbKind.CONTACTS)


def test_missing_table(tmp_path):
    path = tmp_path / "wa.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE other (x)")
    conn.commit()
    conn.close()
    with pytest.raises(MissingTable):
        open_source(path, DbKind.CONTACTS)


def test_msgstore_missing_messages_table(tmp_path):
    path = tmp_path / "msgstore.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE chat_list (_id INTEGER PRIMARY KEY)")
    conn.commit()
    conn.close()
    with pytest.raises(MissingTable):
        open_source(path, DbKind.CHAT_STORE)


def test_incoming_text_message(tmp_path):
    row = {
        "key_remote_jid": jid("393480000002"),
        "key_from_me": 0,
        "key_id": "1329112000-1",
        "data": "Message 1",
        "timestamp": 1329116349000,
        "received_timestamp": 1329116349000,
    }
    warn = WarningLog()
    records = load_messages(_store_source(tmp_path, [row]), warn)
    assert len(records) == 1
    record = records[0]
    assert record.from_me is False
    assert record.data == "Message 1"
    assert record.received_timestamp == 1329116349000
    assert record.key_id.session_start == 1329112000
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
    warn = WarningLog()
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
    warn = WarningLog()
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
    warn = WarningLog()
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
    records = load_messages(open_source(path, DbKind.CHAT_STORE))
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
    warn = WarningLog()
    records = load_messages(_store_source(tmp_path, [row]), warn)
    assert len(records) == 1
    assert records[0].timestamp is None
    assert any("expected integer" in w.message for w in warn)


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
    warn = WarningLog()
    records = load_messages(source, warn, skip_pairs=frozenset({live}))
    assert [r.data for r in records] == ["lost", "bad key"]
    assert warn.items and all(w.source == "msgstore.db:messages#3" for w in warn)


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
    source = open_source(path, DbKind.CHAT_STORE)
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
    source = open_source(path, DbKind.CHAT_STORE)
    path.write_bytes(corrupt_page_2(path.read_bytes()))  # the messages table's root
    with pytest.raises(CorruptDatabase):
        load_message_pairs(source)


def test_corrupt_database_is_a_tool_error(tmp_path):
    path = msgstore_db(tmp_path / "msgstore.db", [{"key_remote_jid": jid("1"), "key_id": "1-1"}])
    source = open_source(path, DbKind.CHAT_STORE)
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
    warn = WarningLog()
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
    warn = WarningLog()
    check_chat_list_consistency(chat_records, message_records, warn)
    assert len(warn) == 1
    assert "99" in warn.items[0].message


def test_loading_never_writes(tmp_path):
    path = msgstore_db(
        tmp_path / "msgstore.db",
        [dict(MESSAGE_DEFAULTS, key_remote_jid=jid("1"), key_id="1-1", timestamp=1)],
    )
    before = (path.stat().st_mtime_ns, path.read_bytes())
    source = open_source(path, DbKind.CHAT_STORE)
    load_messages(source)
    load_chat_list(source)
    after = (path.stat().st_mtime_ns, path.read_bytes())
    assert before == after
    assert not (tmp_path / "msgstore.db-journal").exists()
    assert not (tmp_path / "msgstore.db-wal").exists()
