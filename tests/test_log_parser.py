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
    format_body,
    format_line,
    merge_events,
    parse_log_file,
    parse_log_lines,
)
from wadroid.model import (
    GROUP_MEMBERSHIP_KINDS,
    EventKind,
    classify_jid,
    parse_group_id,
    parse_message_key,
)

JID = "39331xxxxxxx@s.whatsapp.net"
GID = "3933xxxxxxx-1363078943@g.us"


def _one(line, warn=None):
    events = parse_log_lines([line], "whatsapp.log", DEFAULT_GRAMMAR, warn)
    assert len(events) == 1
    return events[0]


@pytest.mark.parametrize(
    "body,kind,has_jid,has_key,has_gid",
    [
        (
            format_body(EventKind.CONTACT_NOT_IN_DB, jid=JID),
            EventKind.CONTACT_NOT_IN_DB,
            True,
            False,
            False,
        ),
        (
            format_body(EventKind.CONTACT_QUERY, jid=JID, query="profile"),
            EventKind.CONTACT_QUERY,
            True,
            False,
            False,
        ),
        (
            format_body(EventKind.CONTACT_QUERY, jid=JID, query="status"),
            EventKind.CONTACT_QUERY,
            True,
            False,
            False,
        ),
        (
            format_body(EventKind.AVATAR_DOWNLOADED, jid=JID),
            EventKind.AVATAR_DOWNLOADED,
            True,
            False,
            False,
        ),
        (
            format_body(EventKind.CONTACT_BLOCKED, jid=JID),
            EventKind.CONTACT_BLOCKED,
            True,
            False,
            False,
        ),
        (
            format_body(EventKind.CONTACT_UNBLOCKED),
            EventKind.CONTACT_UNBLOCKED,
            False,
            False,
            False,
        ),
        (
            format_body(EventKind.MESSAGE_SENT, key="123-1", jid=JID),
            EventKind.MESSAGE_SENT,
            True,
            True,
            False,
        ),
        (
            format_body(EventKind.MESSAGE_RECEIVED, key="%~123-1", jid=JID),
            EventKind.MESSAGE_RECEIVED,
            True,
            True,
            False,
        ),
        (format_body(EventKind.SERVER_ACK, key="123-1"), EventKind.SERVER_ACK, False, True, False),
        (format_body(EventKind.DEVICE_ACK, key="123-1"), EventKind.DEVICE_ACK, False, True, False),
        (
            format_body(EventKind.MESSAGE_DELETED, key="123-1"),
            EventKind.MESSAGE_DELETED,
            False,
            True,
            False,
        ),
        (
            format_body(EventKind.GROUP_CREATED, gid=GID, subject="wa test group"),
            EventKind.GROUP_CREATED,
            False,
            False,
            True,
        ),
        (
            format_body(EventKind.GROUP_ADD_REQUESTED, gid=GID, jids=JID),
            EventKind.GROUP_ADD_REQUESTED,
            False,
            False,
            True,
        ),
        (
            format_body(EventKind.GROUP_MEMBER_ADDED, gid=GID, jid=JID),
            EventKind.GROUP_MEMBER_ADDED,
            True,
            False,
            True,
        ),
        (
            format_body(EventKind.GROUP_MEMBER_LEFT, gid=GID, jid=JID),
            EventKind.GROUP_MEMBER_LEFT,
            True,
            False,
            True,
        ),
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
    body = format_body(EventKind.MESSAGE_DELETED, key="1363253484-1")
    event = _one(format_line(1363258162000, body))
    assert event.kind is EventKind.MESSAGE_DELETED
    assert event.message_key.raw == "1363253484-1"
    assert event.occurred_at == 1363258162000  # 2013-03-14 10:49:22Z


def test_send_line_reference_values():
    jid = "39366xxxxxxx@s.whatsapp.net"
    body = format_body(EventKind.MESSAGE_SENT, key="1363253484-1", jid=jid)
    event = _one(format_line(1363253864000, body))
    assert event.kind is EventKind.MESSAGE_SENT
    assert event.subject_jid.raw == jid
    assert event.occurred_at == 1363253864000  # 2013-03-14 09:37:44Z


def test_group_created_carries_subject():
    body = format_body(EventKind.GROUP_CREATED, gid=GID, subject="wa test group")
    event = _one(format_line(1, body))
    assert event.group_subject == "wa test group"
    assert event.group_id.creator.phone_number == "3933xxxxxxx"


_USER = "393311234567@s.whatsapp.net"
_OTHER_USER = "393317654321@s.whatsapp.net"
_GROUP = "393311234567-1363078943@g.us"

# One line of each DEFAULT kind, written out by hand rather than through
# format_body: (body, kind, jid, key, gid, subject).
_LITERAL_LINES = [
    (
        "msgstore/delete key=1363253484-1",
        EventKind.MESSAGE_DELETED,
        None,
        "1363253484-1",
        None,
        None,
    ),
    (
        "msgstore/send key=1363253484-2 to=393311234567@s.whatsapp.net",
        EventKind.MESSAGE_SENT,
        _USER,
        "1363253484-2",
        None,
        None,
    ),
    (
        "msgstore/recv key=%~1363253000-7 from=393311234567@s.whatsapp.net",
        EventKind.MESSAGE_RECEIVED,
        _USER,
        "%~1363253000-7",
        None,
        None,
    ),
    (
        "msgstore/ack/server key=1363253484-3",
        EventKind.SERVER_ACK,
        None,
        "1363253484-3",
        None,
        None,
    ),
    (
        "msgstore/ack/device key=1363253484-4",
        EventKind.DEVICE_ACK,
        None,
        "1363253484-4",
        None,
        None,
    ),
    (
        "contact/sync/missing jid=393311234567@s.whatsapp.net",
        EventKind.CONTACT_NOT_IN_DB,
        _USER,
        None,
        None,
        None,
    ),
    (
        "contact/query/status jid=393311234567@s.whatsapp.net",
        EventKind.CONTACT_QUERY,
        _USER,
        None,
        None,
        None,
    ),
    (
        "contact/avatar/downloaded jid=393311234567@s.whatsapp.net",
        EventKind.AVATAR_DOWNLOADED,
        _USER,
        None,
        None,
        None,
    ),
    (
        "contact/block jid=393311234567@s.whatsapp.net",
        EventKind.CONTACT_BLOCKED,
        _USER,
        None,
        None,
        None,
    ),
    ("contact/unblock/completed", EventKind.CONTACT_UNBLOCKED, None, None, None, None),
    (
        "group/create gid=393311234567-1363078943@g.us subject=wa test group",
        EventKind.GROUP_CREATED,
        None,
        None,
        _GROUP,
        "wa test group",
    ),
    (
        "group/add/request gid=393311234567-1363078943@g.us"
        " jids=393311234567@s.whatsapp.net,393317654321@s.whatsapp.net",
        EventKind.GROUP_ADD_REQUESTED,
        None,
        None,
        _GROUP,
        None,
    ),
    (
        "group/add gid=393311234567-1363078943@g.us jid=393317654321@s.whatsapp.net",
        EventKind.GROUP_MEMBER_ADDED,
        _OTHER_USER,
        None,
        _GROUP,
        None,
    ),
    (
        "group/leave gid=393311234567-1363078943@g.us jid=393317654321@s.whatsapp.net",
        EventKind.GROUP_MEMBER_LEFT,
        _OTHER_USER,
        None,
        _GROUP,
        None,
    ),
]


@pytest.mark.parametrize(
    "body, kind, jid, key, gid, subject",
    _LITERAL_LINES,
    ids=[row[1].value for row in _LITERAL_LINES],
)
def test_a_literal_line_of_each_default_kind(body, kind, jid, key, gid, subject):
    warn = []
    event = _one("2013-03-14 09:37:44.000 +0000 " + body, warn)
    assert warn == []
    assert (event.kind, event.occurred_at) == (kind, 1363253864000)
    assert event.subject_jid == (None if jid is None else classify_jid(jid))
    assert event.message_key == (None if key is None else parse_message_key(key))
    assert event.group_id == (None if gid is None else parse_group_id(gid))
    assert event.group_subject == subject


def test_every_default_kind_has_a_literal_line():
    assert {row[1] for row in _LITERAL_LINES} == {rule.kind for rule in DEFAULT_GRAMMAR.rules}
    assert len(_LITERAL_LINES) == len(DEFAULT_GRAMMAR.rules) == 14


def test_a_custom_grammar_may_capture_the_jid_as_to_or_from():
    """The README's custom rules may name the jid group ``to`` or ``from``."""
    grammar = LogGrammar.from_dict(
        {
            "version": 1,
            "line_pattern": r"^(?P<ts>\d+) (?P<body>.*)$",
            "timestamp_format": "epoch_s",
            "rules": [
                {"kind": "message_sent", "pattern": r"^OUT (?P<key>\S+) (?P<to>\S+)$"},
                {"kind": "message_received", "pattern": r"^IN (?P<key>\S+) (?P<from>\S+)$"},
            ],
        }
    )
    lines = [f"1363253864 OUT 1363253484-2 {_USER}", f"1363253865 IN 1363253000-7 {_OTHER_USER}"]
    warn = []
    sent, received = parse_log_lines(lines, "custom.log", grammar, warn)
    assert warn == []
    assert (sent.kind, sent.subject_jid.raw, sent.message_key.raw) == (
        EventKind.MESSAGE_SENT,
        _USER,
        "1363253484-2",
    )
    assert (received.kind, received.subject_jid.raw, received.message_key.raw) == (
        EventKind.MESSAGE_RECEIVED,
        _OTHER_USER,
        "1363253000-7",
    )


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
        format_line(1000, format_body(EventKind.CONTACT_NOT_IN_DB, jid=JID)),
        "",
        "garbage",
        format_line(2000, format_body(EventKind.CONTACT_UNBLOCKED)),
    ]
    events = parse_log_lines(lines, "whatsapp.log")
    assert len(events) == len(lines)
    assert [e.line_number for e in events] == [1, 2, 3, 4]


_IMPOSSIBLE_DATE = "2013-02-30 10:00:00.000 +0000 "

# Line numbers in comments; "warns" marks a line the full parse warns about.
_MIXED_LOG = [
    format_line(1000, format_body(EventKind.GROUP_CREATED, gid=GID, subject="wa test group")),  # 1
    format_line(2000, format_body(EventKind.GROUP_MEMBER_ADDED, gid=GID, jid=JID)),  # 2
    format_line(3000, format_body(EventKind.MESSAGE_SENT, key="123-1", jid=JID)),  # 3
    format_line(4000, format_body(EventKind.CONTACT_BLOCKED, jid="not a jid")),  # 4 warns
    "",  # 5
    "garbage",  # 6 warns: fails the line pattern
    _IMPOSSIBLE_DATE + format_body(EventKind.GROUP_MEMBER_LEFT, gid=GID, jid=JID),  # 7 warns
    _IMPOSSIBLE_DATE + format_body(EventKind.CONTACT_BLOCKED, jid=JID),  # 8 warns
    format_line(5000, format_body(EventKind.MESSAGE_DELETED, key="bad")),  # 9 warns twice
    format_line(6000, format_body(EventKind.GROUP_MEMBER_ADDED, gid="bad", jid=JID)),  # 10 warns
    format_line(7000, "something/else entirely"),  # 11
    format_line(8000, format_body(EventKind.GROUP_MEMBER_LEFT, gid=GID, jid=JID)),  # 12
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
        format_line(1000, format_body(EventKind.CONTACT_NOT_IN_DB, jid=JID))
        + "\n"
        + format_line(3000, format_body(EventKind.CONTACT_BLOCKED, jid=JID))
        + "\n",
        encoding="utf-8",
    )
    new.write_text(
        format_line(2000, format_body(EventKind.CONTACT_UNBLOCKED)) + "\n", encoding="utf-8"
    )
    events = merge_events(parse_log_file(old), parse_log_file(new))
    assert [e.occurred_at for e in events] == [1000, 2000, 3000]
    assert [e.source_file for e in events] == [old.name, new.name, old.name]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_lines_end_only_at_newline(tmp_path, newline):
    """A subject holding U+2028, U+0085, \\x0b, \\x0c, \\x1c-\\x1e or \\r stays one line."""
    subject = "trip\u2028plans\x85and\x0bmore\x0c\x1c\x1d\x1e\rend"
    bodies = [
        format_body(EventKind.CONTACT_NOT_IN_DB, jid=JID),
        format_body(EventKind.GROUP_CREATED, gid=GID, subject=subject),
        format_body(EventKind.CONTACT_BLOCKED, jid=JID),
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
    line = stamp + separator + format_body(EventKind.CONTACT_BLOCKED, jid=JID)
    (event,) = parse_log_lines([line], "x.log", grammar, warn)
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
    lines = [f"{stamp} | {format_body(EventKind.CONTACT_BLOCKED, jid=JID)}" for stamp in _STAMPS]

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
