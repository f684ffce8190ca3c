"""Log tokenization, grammar handling, timestamp parsing."""

import dataclasses
import json
import re
from datetime import datetime

import pytest

from wadroid import forge, layout, log_parser
from wadroid.errors import BadGrammar, UnreadableFile
from wadroid.log_parser import (
    DEFAULT_GRAMMAR,
    GrammarRule,
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
from wadroid.model import GROUP_MEMBERSHIP_KINDS, EventKind

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
    warn = []
    event = _one("9999-99-99 99:99:99.999 +0000 contact/block jid=" + JID, warn)
    assert event.kind is EventKind.OTHER
    assert event.occurred_at is None
    assert len(warn) == 1


def test_unmatched_body_is_other_with_time():
    event = _one(format_line(5000, "something/else entirely"))
    assert event.kind is EventKind.OTHER
    assert event.occurred_at == 5000
    assert event.evidence_ref == "whatsapp.log:1"


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


_IMPOSSIBLE_DATE = "2013-02-30 10:00:00.000 +0000 "

# Line numbers in comments; "warns" marks a line the full parse warns about.
_MIXED_LOG = [
    format_line(1000, body_group_created(GID, "wa test group")),  # 1
    format_line(2000, body_group_member_added(GID, JID)),  # 2
    format_line(3000, body_message_sent("123-1", JID)),  # 3
    format_line(4000, body_contact_blocked("not a jid")),  # 4 warns
    "",  # 5
    "garbage",  # 6 warns: fails the line pattern
    _IMPOSSIBLE_DATE + body_group_member_left(GID, JID),  # 7 warns
    _IMPOSSIBLE_DATE + body_contact_blocked(JID),  # 8 warns
    format_line(5000, body_message_deleted("bad")),  # 9 warns twice
    format_line(6000, body_group_member_added("bad", JID)),  # 10 warns
    format_line(7000, "something/else entirely"),  # 11
    format_line(8000, body_group_member_left(GID, JID)),  # 12
]

# An unwanted rule that takes every group/add line before the DEFAULT one.
_SHADOWING_GRAMMAR = DEFAULT_GRAMMAR._replace(
    rules=(
        GrammarRule(
            EventKind.CONTACT_QUERY, re.compile(r"^group/add gid=(?P<gid>\S+) jid=(?P<jid>\S+)$")
        ),
        *DEFAULT_GRAMMAR.rules,
    ),
)


@pytest.mark.parametrize(
    "grammar, event_lines, warning_lines",
    [(DEFAULT_GRAMMAR, [1, 2, 10, 12], [6, 7, 10]), (_SHADOWING_GRAMMAR, [1, 12], [6, 7])],
    ids=["default", "shadowing"],
)
def test_kinds_gives_the_full_parse_events_of_those_kinds(
    tmp_path, grammar, event_lines, warning_lines
):
    log = tmp_path / "whatsapp.log"
    log.write_text("\n".join(_MIXED_LOG) + "\n", encoding="utf-8")
    full_warn, warn = [], []
    full = parse_log_file(log, grammar, full_warn)
    events = parse_log_file(log, grammar, warn, kinds=GROUP_MEMBERSHIP_KINDS)
    assert events == [e for e in full if e.kind in GROUP_MEMBERSHIP_KINDS]
    assert [e.line_number for e in events] == event_lines
    # Only lines failing the line pattern, or whose rule is of a wanted kind, warn.
    sources = {f"whatsapp.log:{n}" for n in warning_lines}
    assert warn == [w for w in full_warn if w.source in sources]
    assert {w.source for w in warn} == sources
    with pytest.raises(ValueError):
        parse_log_lines(_MIXED_LOG, "whatsapp.log", grammar, kinds={EventKind.OTHER})


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


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_lines_end_only_at_newline(tmp_path, newline):
    """A subject holding U+2028, U+0085, \\x0b, \\x0c, \\x1c-\\x1e or \\r stays one line."""
    subject = "trip\u2028plans\x85and\x0bmore\x0c\x1c\x1d\x1e\rend"
    bodies = [
        body_contact_missing(JID),
        body_group_created(GID, subject),
        body_contact_blocked(JID),
    ]
    path = tmp_path / "whatsapp.log"
    text = "".join(format_line(1000 * i, body) + newline for i, body in enumerate(bodies))
    path.write_bytes(text.encode("utf-8"))
    warn = []
    events = parse_log_file(path, DEFAULT_GRAMMAR, warn)
    assert [e.kind for e in events] == [
        EventKind.CONTACT_NOT_IN_DB,
        EventKind.GROUP_CREATED,
        EventKind.CONTACT_BLOCKED,
    ]
    assert [e.evidence_ref for e in events] == [f"whatsapp.log:{n}" for n in (1, 2, 3)]
    assert events[1].group_subject == subject
    assert not list(warn)


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


@pytest.mark.parametrize(
    "line_pattern, timestamp_format, stamp, warning",
    [
        (DEFAULT_GRAMMAR.line_pattern.pattern, DEFAULT_GRAMMAR.timestamp_format,
         "\u0662\u0660\u0661\u0663-06-01 10:00:00.000 +0000",
         "line does not match the grammar line pattern"),
        (r"^(?P<ts>.+?) \| (?P<body>.*)$", "%Y-%m-%d %H:%M:%S",
         "\u0662\u0660\u0661\u0663-06-01 10:00:00", "unparsable timestamp"),
        (r"^(?P<ts>\S+) (?P<body>.*)$", "epoch_s", "\u0661\u0663\u0667\u0660", "unparsable timestamp"),
        (r"^(?P<ts>\S+) (?P<body>.*)$", "epoch_ms", "1_370_080_800_000", "unparsable timestamp"),
        (r"^(?P<ts>\S+) (?P<body>.*)$", "epoch_s", "\uff11\uff13", "unparsable timestamp"),
    ],
)
def test_only_ascii_digits_date_a_line(line_pattern, timestamp_format, stamp, warning):
    grammar = DEFAULT_GRAMMAR._replace(
        line_pattern=re.compile(line_pattern), timestamp_format=timestamp_format
    )
    separator = " | " if "|" in line_pattern else " "
    warn = []
    (event,) = parse_log_lines([stamp + separator + body_contact_blocked(JID)], "x.log", grammar, warn)
    assert (event.kind, event.occurred_at) == (EventKind.OTHER, None)
    (message,) = [w.message for w in warn]
    assert message.startswith(warning)


# --- the default format's fast path against strptime ------------------------

_FORMAT = DEFAULT_GRAMMAR.timestamp_format

# Stamps of the exact default shape with valid fields: read without strptime.
_FAST_STAMPS = [
    "2013-10-16 14:15:37.8 +0000",
    "2013-10-16 14:15:37.88 +0000",
    "2013-10-16 14:15:37.884 +0000",
    "2013-10-16 14:15:37.8841 +0000",
    "2013-10-16 14:15:37.88412 +0000",
    "2013-10-16 14:15:37.884123 +0000",
    "2013-10-16 14:15:37.884 +0200",
    "2013-10-16 14:15:37.884 -0030",
    "2013-10-16 14:15:37.884 -0000",
    "2013-10-16 14:15:37.884 +2359",
    "2013-10-16 14:15:37.884 -2359",
    "2012-02-29 23:59:59.999 +0100",
    "1970-01-01 00:00:00.000 +0000",
]
# Every other stamp goes to strptime, which reads these ...
_STRPTIME_READ = [
    "2013-10-16 14:15:37.884 +05:30",
    "2013-10-16 14:15:37.884 -00:30",
    "2013-10-16 14:15:37.884 Z",
    "2013-1-16 14:15:37.884 +0000",
    "2013-10-16  14:15:37.884 +0000",
]
# ... and rejects these, but for the non-ASCII ones: strptime reads other
# scripts' digits, but the parser refuses any stamp that is not ASCII.
_REJECTED = [
    "\u0662\u0660\u0661\u0663-10-16 14:15:37.884 +0000",
    "2013-10-16 14:15:37.884 +\u0660\u0661\u0660\u0660",
    "2013-10-16 14:15:37.884 +0060",
    "2013-10-16 14:15:37.884 +2400",
    "2013-10-16 14:15:37.884 -2400",
    "2013-10-16 24:00:00.000 +0000",
    "2013-10-16 14:60:00.000 +0000",
    "2013-10-16 14:15:60.000 +0000",
    "2013-02-30 14:15:37.884 +0000",
    "2013-13-01 14:15:37.884 +0000",
    "2013-00-01 14:15:37.884 +0000",
    "0000-01-01 00:00:00.000 +0000",
    "2013-10-16 14:15:37.8841234 +0000",
    "2013-10-16 14:15:37 +0000",
    "2013-10-16 14:15:37.884 +0000 ",
    "2013-10-16 14:15:37.884",
]
_STAMPS = _FAST_STAMPS + _STRPTIME_READ + _REJECTED


def _strptime_ms(text):
    return int(round(datetime.strptime(text, _FORMAT).timestamp() * 1000))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def test_default_stamp_fast_path_covers_exactly_the_default_shape():
    assert [s for s in _FAST_STAMPS if log_parser._default_stamp(s) is None] == []
    slow = _STRPTIME_READ + _REJECTED
    assert [s for s in slow if log_parser._default_stamp(s) is not None] == []


@pytest.mark.parametrize("text", _STAMPS)
def test_default_timestamp_parse_equals_strptime(text):
    fast = _outcome(lambda t: log_parser._parse_timestamp(t, _FORMAT), text)
    assert fast == (_outcome(_strptime_ms, text) if text.isascii() else ValueError)
    assert (fast is ValueError) == (text in _REJECTED)


def test_default_timestamp_parse_equals_strptime_on_a_forged_log(tmp_path):
    script = forge.random_script(seed=11, max_actions=120)
    script = dataclasses.replace(script, tz_offset_minutes=-30)
    root = forge.generate_bundle(script, tmp_path / "evidence").root
    lines = (root / layout.MAIN_LOG).read_text(encoding="utf-8").splitlines()
    stamps = [DEFAULT_GRAMMAR.line_pattern.match(line).group("ts") for line in lines]
    assert len(stamps) > 100 and all(s.endswith("-0030") for s in stamps)
    assert [log_parser._parse_timestamp(s, _FORMAT) for s in stamps] == [
        _strptime_ms(s) for s in stamps
    ]


def test_malformed_stamps_give_the_strptime_events_and_warnings(monkeypatch):
    # A line pattern that hands any stamp to the default timestamp format.
    grammar = DEFAULT_GRAMMAR._replace(line_pattern=re.compile(r"^(?P<ts>.+?) \| (?P<body>.*)$"))
    lines = [f"{stamp} | {body_contact_blocked(JID)}" for stamp in _STAMPS]

    def parse():
        warn = []
        return parse_log_lines(lines, "whatsapp.log", grammar, warn), warn

    fast_events, fast_warnings = parse()
    monkeypatch.setattr(log_parser, "_default_stamp", lambda text: None)
    assert parse() == (fast_events, fast_warnings)
    assert [w.message for w in fast_warnings] == [f"unparsable timestamp {s!r}" for s in _REJECTED]
    read, rejected = len(_STAMPS) - len(_REJECTED), len(_REJECTED)
    expected = [(EventKind.CONTACT_BLOCKED, False)] * read + [(EventKind.OTHER, True)] * rejected
    assert [(e.kind, e.occurred_at is None) for e in fast_events] == expected
