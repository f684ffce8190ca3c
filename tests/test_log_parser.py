"""Log tokenization, grammar handling, block-event classification."""

import json

import pytest

from wadroid.errors import BadGrammar, UnreadableFile
from wadroid.log_parser import (
    DEFAULT_GRAMMAR,
    LogGrammar,
    body_avatar_downloaded,
    body_contact_blocked,
    body_contact_missing,
    body_contact_query,
    body_contact_unblocked,
    body_device_ack,
    body_group_add_requested,
    body_group_created,
    body_group_member_added,
    body_group_member_left,
    body_message_deleted,
    body_message_received,
    body_message_sent,
    body_server_ack,
    format_line,
    merge_events,
    parse_log_file,
    parse_log_lines,
)
from wadroid.model import EventKind, WarningLog

JID = "39331xxxxxxx@s.whatsapp.net"
GID = "3933xxxxxxx-1363078943@g.us"


def _one(line, warn=None):
    events = parse_log_lines([line], "whatsapp.log", DEFAULT_GRAMMAR, warn)
    assert len(events) == 1
    return events[0]


@pytest.mark.parametrize(
    "body,kind,has_jid,has_key,has_gid",
    [
        (body_contact_missing(JID), EventKind.CONTACT_NOT_IN_DB, True, False, False),
        (body_contact_query(JID, "profile"), EventKind.CONTACT_QUERY, True, False, False),
        (body_contact_query(JID, "status"), EventKind.CONTACT_QUERY, True, False, False),
        (body_avatar_downloaded(JID), EventKind.AVATAR_DOWNLOADED, True, False, False),
        (body_contact_blocked(JID), EventKind.CONTACT_BLOCKED, True, False, False),
        (body_contact_unblocked(), EventKind.CONTACT_UNBLOCKED, False, False, False),
        (body_message_sent("123-1", JID), EventKind.MESSAGE_SENT, True, True, False),
        (body_message_received("%~123-1", JID), EventKind.MESSAGE_RECEIVED, True, True, False),
        (body_server_ack("123-1"), EventKind.SERVER_ACK, False, True, False),
        (body_device_ack("123-1"), EventKind.DEVICE_ACK, False, True, False),
        (body_message_deleted("123-1"), EventKind.MESSAGE_DELETED, False, True, False),
        (body_group_created(GID, "wa test group"), EventKind.GROUP_CREATED, False, False, True),
        (body_group_add_requested(GID, [JID]), EventKind.GROUP_ADD_REQUESTED, False, False, True),
        (body_group_member_added(GID, JID), EventKind.GROUP_MEMBER_ADDED, True, False, True),
        (body_group_member_left(GID, JID), EventKind.GROUP_MEMBER_LEFT, True, False, True),
    ],
)
def test_emitters_roundtrip_through_grammar(body, kind, has_jid, has_key, has_gid):
    event = _one(format_line(1363253864000, body))
    assert event.kind is kind
    assert event.occurred_at == 1363253864000
    assert (event.subject_jid is not None) == has_jid
    assert (event.message_key is not None) == has_key
    assert (event.group_id is not None) == has_gid
    assert event.line_number == 1


def test_delete_line_reference_values():
    event = _one(format_line(1363258162000, body_message_deleted("1363253484-1")))
    assert event.kind is EventKind.MESSAGE_DELETED
    assert event.message_key.raw == "1363253484-1"
    assert event.occurred_at == 1363258162000  # 2013-03-14 10:49:22Z


def test_send_line_reference_values():
    jid = "39366xxxxxxx@s.whatsapp.net"
    event = _one(format_line(1363253864000, body_message_sent("1363253484-1", jid)))
    assert event.kind is EventKind.MESSAGE_SENT
    assert event.subject_jid.raw == jid
    assert event.occurred_at == 1363253864000  # 2013-03-14 09:37:44Z


def test_group_created_carries_subject():
    event = _one(format_line(1, body_group_created(GID, "wa test group")))
    assert event.group_subject == "wa test group"
    assert event.group_id.creator.phone_number == "3933xxxxxxx"


def test_blank_line_is_other():
    event = _one("")
    assert event.kind is EventKind.OTHER
    assert event.occurred_at is None


def test_unparsable_timestamp_warns():
    warn = WarningLog()
    event = _one("9999-99-99 99:99:99.999 +0000 contact/block jid=" + JID, warn)
    assert event.kind is EventKind.OTHER
    assert event.occurred_at is None
    assert len(warn) == 1


def test_unmatched_body_is_other_with_time():
    event = _one(format_line(5000, "something/else entirely"))
    assert event.kind is EventKind.OTHER
    assert event.occurred_at == 5000
    assert event.raw_line.endswith("something/else entirely")


def test_parse_is_total():
    lines = [
        format_line(1000, body_contact_missing(JID)),
        "",
        "garbage",
        format_line(2000, body_contact_unblocked()),
    ]
    events = parse_log_lines(lines, "whatsapp.log")
    assert len(events) == len(lines)
    assert [e.line_number for e in events] == [1, 2, 3, 4]


def test_timestamp_offset_respected():
    # the same instant written with a +02:00 wall clock
    line = format_line(1381932937884, "contact/block jid=" + JID, tz_offset_minutes=120)
    assert line.startswith("2013-10-16 16:15:37.884 +0200")
    event = _one(line)
    assert event.occurred_at == 1381932937884


def test_unblock_never_carries_jid():
    # even a grammar that captures a jid must not attach it to an unblock
    grammar = LogGrammar.from_dict(
        {
            "version": 1,
            "line_pattern": DEFAULT_GRAMMAR.line_pattern.pattern,
            "timestamp_format": DEFAULT_GRAMMAR.timestamp_format,
            "rules": [
                {"kind": "contact_unblocked", "pattern": r"^unblock jid=(?P<jid>\S+)$"}
            ],
        }
    )
    events = parse_log_lines(
        [format_line(1000, "unblock jid=" + JID)], "whatsapp.log", grammar
    )
    assert events[0].kind is EventKind.CONTACT_UNBLOCKED
    assert events[0].subject_jid is None


def test_file_merge_order(tmp_path):
    old = tmp_path / "whatsapp-2013-03-13.log"
    new = tmp_path / "whatsapp.log"
    old.write_text(
        format_line(1000, body_contact_missing(JID))
        + "\n"
        + format_line(3000, body_contact_blocked(JID))
        + "\n",
        encoding="utf-8",
    )
    new.write_text(format_line(2000, body_contact_unblocked()) + "\n", encoding="utf-8")
    events = merge_events(parse_log_file(old), parse_log_file(new))
    assert [e.occurred_at for e in events] == [1000, 2000, 3000]
    assert [e.source_file for e in events] == [old.name, new.name, old.name]


def test_missing_log_file(tmp_path):
    with pytest.raises(UnreadableFile):
        parse_log_file(tmp_path / "whatsapp.log")


def test_custom_grammar_from_file(tmp_path):
    spec = {
        "version": 1,
        "line_pattern": r"^\[(?P<ts>\d+)\] (?P<body>.*)$",
        "timestamp_format": "epoch_s",
        "rules": [
            {"kind": "message_deleted", "pattern": r"^DEL (?P<key>\S+)$"},
        ],
    }
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    grammar = LogGrammar.from_json_file(path)
    events = parse_log_lines(["[1363258162] DEL 1363253484-1"], "x.log", grammar)
    assert events[0].kind is EventKind.MESSAGE_DELETED
    assert events[0].occurred_at == 1363258162000


def test_bad_grammar_rejected(tmp_path):
    with pytest.raises(BadGrammar):
        LogGrammar.from_dict({"version": 1, "line_pattern": "(", "timestamp_format": "", "rules": []})
    with pytest.raises(BadGrammar):
        LogGrammar.from_dict(
            {
                "version": 1,
                "line_pattern": "^(?P<ts>.)$",  # lacks the body group
                "timestamp_format": "%s",
                "rules": [],
            }
        )
