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
    warn = WarningLog()
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
    "\u0662\u0660\u0661\u0663-10-16 14:15:37.884 +0000",
]
# ... and rejects these.
_REJECTED = [
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
    assert fast == _outcome(_strptime_ms, text)
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
    grammar = dataclasses.replace(
        DEFAULT_GRAMMAR, line_pattern=re.compile(r"^(?P<ts>.+?) \| (?P<body>.*)$")
    )
    lines = [f"{stamp} | {body_contact_blocked(JID)}" for stamp in _STAMPS]

    def parse():
        warn = WarningLog()
        return parse_log_lines(lines, "whatsapp.log", grammar, warn), warn.items

    fast_events, fast_warnings = parse()
    monkeypatch.setattr(log_parser, "_default_stamp", lambda text: None)
    assert parse() == (fast_events, fast_warnings)
    assert [w.message for w in fast_warnings] == [f"unparsable timestamp {s!r}" for s in _REJECTED]
    read, rejected = len(_STAMPS) - len(_REJECTED), len(_REJECTED)
    expected = [(EventKind.CONTACT_BLOCKED, False)] * read + [(EventKind.OTHER, True)] * rejected
    assert [(e.kind, e.occurred_at is None) for e in fast_events] == expected


# --- rules skipped on their literal prefix ----------------------------------------

_GATE_RULES = {
    # name: (kind, pattern, flags, the literal prefix derived from it)
    "ignorecase": (EventKind.MESSAGE_SENT, r"^msgstore/send key=(?P<key>\S+) to=(?P<to>\S+)$",
                   re.IGNORECASE, ""),
    "inline-ignorecase": (EventKind.MESSAGE_SENT,
                          r"(?i)^msgstore/send key=(?P<key>\S+) to=(?P<to>\S+)$", 0, ""),
    "leading-group": (EventKind.MESSAGE_RECEIVED,
                      r"^(?:msgstore)/recv key=(?P<key>\S+) from=(?P<from>\S+)$", 0, ""),
    "alternation": (EventKind.CONTACT_BLOCKED, r"^zzz|contact/block jid=(?P<jid>\S+)$", 0, ""),
    "escaped-slash": (EventKind.SERVER_ACK, r"^msgstore\/ack\/server key=(?P<key>\S+)$", 0,
                      "msgstore/ack/server key="),
    "quantifier": (EventKind.MESSAGE_DELETED, r"^ms*gstore/delete key=(?P<key>\S+)$", 0, "m"),
    "optional": (EventKind.DEVICE_ACK, r"^msgstore/ack/devices? key=(?P<key>\S+)$", 0,
                 "msgstore/ack/device"),
    "unanchored": (EventKind.CONTACT_UNBLOCKED, r"contact/unblock/completed$", 0, ""),
    "class-escape": (EventKind.CONTACT_QUERY, r"^contact\.query\d jid=(?P<jid>\S+)$", 0,
                     "contact.query"),
}

_GATE_BODIES = [
    body_message_sent("1363253484-1", JID),
    body_message_sent("1363253484-2", JID).upper(),
    "Msgstore/Send key=1363253484-3 to=" + JID,
    body_message_received("1363253484-4", JID),
    "zzz",
    "zzzz and more",
    body_contact_blocked(JID),
    "xcontact/block jid=" + JID,
    body_server_ack("1363253484-5"),
    r"msgstore\/ack\/server key=1363253484-6",
    "mgstore/delete key=1363253484-7",
    "msssgstore/delete key=1363253484-8",
    body_message_deleted("1363253484-9"),
    body_device_ack("1363253484-10"),
    "msgstore/ack/devices key=1363253484-11",
    body_contact_unblocked(),
    "xcontact/unblock/completed",
    "contact.query7 jid=" + JID,
    "contact.queryX jid=" + JID,
    "m",
    "",
    "nothing a rule knows",
]


def _gate_grammar(*names):
    rules = [
        GrammarRule(kind, re.compile(pattern, flags))
        for kind, pattern, flags, _ in (_GATE_RULES[name] for name in names)
    ]
    return LogGrammar(
        line_pattern=re.compile(r"^\[(?P<ts>\d+)\] (?P<body>.*)$"),
        timestamp_format="epoch_s",
        rules=(*rules, *DEFAULT_GRAMMAR.rules),
    )


def test_literal_prefixes():
    for name, (kind, pattern, flags, prefix) in _GATE_RULES.items():
        assert GrammarRule(kind, re.compile(pattern, flags)).prefix == prefix, name
    assert GrammarRule(EventKind.OTHER, re.compile("^ab*c")).prefix == "a"
    assert GrammarRule(EventKind.OTHER, re.compile("^a{2}b")).prefix == ""
    assert GrammarRule(EventKind.OTHER, re.compile(r"^a\\b")).prefix == "a\\b"
    assert GrammarRule(EventKind.OTHER, re.compile(r"^a\ b\é")).prefix == "a bé"
    assert GrammarRule(EventKind.OTHER, re.compile(r"^a\tb")).prefix == "a"
    assert GrammarRule(EventKind.OTHER, re.compile(r"^a b", re.VERBOSE)).prefix == ""
    assert all(rule.prefix for rule in DEFAULT_GRAMMAR.rules)


@pytest.mark.parametrize("names", [(name,) for name in _GATE_RULES] + [tuple(_GATE_RULES)])
def test_prefix_gate_classifies_as_the_ungated_loop(monkeypatch, names):
    grammar = _gate_grammar(*names)
    lines = [f"[{1363258162 + n}] {body}" for n, body in enumerate(_GATE_BODIES)]
    for rule in grammar.rules:
        for body in _GATE_BODIES:
            if rule.pattern.match(body):
                assert body.startswith(rule.prefix), (rule.pattern.pattern, body)

    def parse():
        warn = WarningLog()
        return parse_log_lines(lines, "whatsapp.log", grammar, warn), warn.items

    gated = parse()
    monkeypatch.setattr(GrammarRule, "prefix", property(lambda rule: ""))
    assert parse() == gated
    # every custom rule matches some line and misses another
    for rule in grammar.rules[: len(names)]:
        assert sorted({bool(rule.pattern.match(body)) for body in _GATE_BODIES}) == [False, True]
