"""Tokenizes application log files into classified event streams.

The on-device logs record contact synchronization, block/unblock
operations, message traffic with its acknowledgements, message
deletions, and group lifecycle operations. The exact line syntax varies
between application builds, so classification is driven by a grammar: a
line pattern splitting timestamp from body, plus an ordered rule list
mapping body patterns to event kinds. The DEFAULT grammar below encodes
the event taxonomy this toolkit relies on; a user-supplied grammar file
(JSON, versioned) adapts the parser to other builds without touching
the analysis code.

Recognized capture group names in rules: ``jid`` (also ``to``/``from``),
``key``, ``gid``, ``subject``. The timestamp format is either a strptime
pattern (naive times are taken as UTC) or the literal ``epoch_s`` /
``epoch_ms`` for logs that stamp lines with raw epoch integers.

Parsing is total: every input line yields exactly one event; lines that
match no rule (or whose timestamp cannot be read) are preserved as
kind=other. A caller that reads only some kinds passes ``kinds`` and
gets only the events of those kinds: the lines of other kinds are
dropped before their timestamps and fields are parsed.
"""

from __future__ import annotations

import functools
import json
import re
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Collection, NamedTuple

from .errors import BadGrammar, MalformedGroupId, MalformedKey, UnreadableFile, os_reason
from .model import (
    EPOCH_ORDINAL,
    EventKind,
    KEY_BEARING_KINDS,
    LogEvent,
    ParseWarning,
    ascii_int,
    classify_jid,
    parse_group_id,
    parse_message_key,
    render_local_ms,
    warn_to,
)

GRAMMAR_FORMAT_VERSION = 1

_DEFAULT_LINE_PATTERN = (
    r"^(?P<ts>[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3} [+-][0-9]{4})"
    r" (?P<body>.*)$"
)
_DEFAULT_TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S.%f %z"

_DEFAULT_RULES = (
    (EventKind.MESSAGE_DELETED, r"^msgstore/delete key=(?P<key>\S+)$"),
    (EventKind.MESSAGE_SENT, r"^msgstore/send key=(?P<key>\S+) to=(?P<to>\S+)$"),
    (EventKind.MESSAGE_RECEIVED, r"^msgstore/recv key=(?P<key>\S+) from=(?P<from>\S+)$"),
    (EventKind.SERVER_ACK, r"^msgstore/ack/server key=(?P<key>\S+)$"),
    (EventKind.DEVICE_ACK, r"^msgstore/ack/device key=(?P<key>\S+)$"),
    (EventKind.CONTACT_NOT_IN_DB, r"^contact/sync/missing jid=(?P<jid>\S+)$"),
    (EventKind.CONTACT_QUERY, r"^contact/query/\w+ jid=(?P<jid>\S+)$"),
    (EventKind.AVATAR_DOWNLOADED, r"^contact/avatar/downloaded jid=(?P<jid>\S+)$"),
    (EventKind.CONTACT_BLOCKED, r"^contact/block jid=(?P<jid>\S+)$"),
    # Unblocks are anonymous and cumulative: the line never names who
    # was unblocked, and one line may cover several contacts.
    (EventKind.CONTACT_UNBLOCKED, r"^contact/unblock/completed$"),
    (EventKind.GROUP_CREATED, r"^group/create gid=(?P<gid>\S+) subject=(?P<subject>.*)$"),
    (EventKind.GROUP_ADD_REQUESTED, r"^group/add/request gid=(?P<gid>\S+) jids=(?P<jids>\S+)$"),
    (EventKind.GROUP_MEMBER_ADDED, r"^group/add gid=(?P<gid>\S+) jid=(?P<jid>\S+)$"),
    (EventKind.GROUP_MEMBER_LEFT, r"^group/leave gid=(?P<gid>\S+) jid=(?P<jid>\S+)$"),
)


class GrammarRule(NamedTuple):
    kind: EventKind
    pattern: re.Pattern


class LogGrammar(NamedTuple):
    """Line-splitting pattern plus an ordered first-match-wins rule list."""

    line_pattern: re.Pattern
    timestamp_format: str
    rules: tuple[GrammarRule, ...]

    @classmethod
    def from_dict(cls, spec: dict) -> "LogGrammar":
        # A grammar file is outside input: check its shape before reading it.
        if not isinstance(spec, dict):
            raise BadGrammar("invalid grammar: not a JSON object")
        version = spec.get("version", GRAMMAR_FORMAT_VERSION)
        if version != GRAMMAR_FORMAT_VERSION:
            raise BadGrammar(f"unsupported grammar version {version!r}")
        try:
            line_pattern = re.compile(spec["line_pattern"])
            ts_format = spec["timestamp_format"]
            if not isinstance(ts_format, str):
                raise BadGrammar("invalid grammar: timestamp_format is not a string")
            rules = []
            for number, rule in enumerate(spec["rules"], start=1):
                if not isinstance(rule, dict):
                    raise BadGrammar(f"invalid grammar: rule #{number} is not a JSON object")
                rules.append(
                    GrammarRule(kind=EventKind(rule["kind"]), pattern=re.compile(rule["pattern"]))
                )
        except (KeyError, TypeError, ValueError, re.error) as exc:
            raise BadGrammar(f"invalid grammar: {exc}") from exc
        if "ts" not in line_pattern.groupindex or "body" not in line_pattern.groupindex:
            raise BadGrammar("line_pattern must define 'ts' and 'body' groups")
        return cls(line_pattern=line_pattern, timestamp_format=ts_format, rules=tuple(rules))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "LogGrammar":
        try:
            spec = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UnreadableFile(f"cannot read grammar file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise BadGrammar(f"grammar file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(spec)


DEFAULT_GRAMMAR = LogGrammar(
    line_pattern=re.compile(_DEFAULT_LINE_PATTERN),
    timestamp_format=_DEFAULT_TIMESTAMP_FORMAT,
    rules=tuple(GrammarRule(kind=k, pattern=re.compile(p)) for k, p in _DEFAULT_RULES),
)


# The DEFAULT format's stamps, read without strptime. Only the exact
# shape matches: ASCII digits, a 1-6 digit fraction, and a ±HHMM offset
# whose minutes are below 60 (strptime rejects +0060). A stamp that does
# not match, or whose fields datetime() or timezone() would reject (a
# date date() rejects, an hour of 24, an offset of 24 hours), goes to
# strptime, so every error is strptime's own.
_DEFAULT_STAMP = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2}) ([0-9]{2}):([0-9]{2}):([0-9]{2})"
    r"\.([0-9]{1,6}) ([+-][0-9]{2}[0-5][0-9])"
)


@functools.lru_cache(maxsize=4096)
def _epoch_day(ymd: str) -> int | None:
    """Days from 1970-01-01 to the date ``YYYY-MM-DD``; None where date() rejects it."""
    try:
        return date(int(ymd[:4]), int(ymd[5:7]), int(ymd[8:])).toordinal() - EPOCH_ORDINAL
    except ValueError:
        return None


@functools.cache  # bounded: the pattern admits 2 × 100 × 60 offsets
def _offset_minutes(text: str) -> int | None:
    """``±HHMM`` in minutes east of UTC; None where timezone() rejects it."""
    hours = int(text[1:3])
    if hours >= 24:
        return None
    minutes = hours * 60 + int(text[3:])
    return -minutes if text[0] == "-" else minutes


def _default_stamp(text: str) -> int | None:
    """Epoch ms of a DEFAULT-shape stamp; None for strptime to read or reject."""
    m = _DEFAULT_STAMP.fullmatch(text)
    if m is None:
        return None
    ymd, hour, minute, second, fraction, offset = m.groups()
    day = _epoch_day(ymd)
    offset_minutes = _offset_minutes(offset)
    hour, minute, second = int(hour), int(minute), int(second)
    if day is None or offset_minutes is None or hour >= 24 or minute >= 60 or second >= 60:
        return None
    seconds = ((day * 24 + hour) * 60 + minute - offset_minutes) * 60 + second
    # What datetime.timestamp() gives: microseconds / 10**6, a float.
    return int(round((seconds * 1_000_000 + int(fraction.ljust(6, "0"))) / 10**6 * 1000))


def _parse_timestamp(text: str, fmt: str) -> int:
    if fmt == "epoch_ms":
        return ascii_int(text)
    if fmt == "epoch_s":
        return ascii_int(text) * 1000
    if fmt == _DEFAULT_TIMESTAMP_FORMAT:
        ms = _default_stamp(text)
        if ms is not None:
            return ms
    if not text.isascii():  # strptime, like int, reads other scripts' digits
        raise ValueError(f"non-ASCII timestamp {text!r}")
    stamp = datetime.strptime(text, fmt)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(round(stamp.timestamp() * 1000))


def _other(line: str, source: str, number: int, occurred_at: int | None = None) -> LogEvent:
    return LogEvent(
        occurred_at=occurred_at,
        kind=EventKind.OTHER,
        subject_jid=None,
        message_key=None,
        group_id=None,
        group_subject=None,
        raw_line=line,
        source_file=source,
        line_number=number,
    )


def _find_rule(grammar: LogGrammar, body: str) -> tuple[GrammarRule, re.Match] | None:
    """The first rule matching ``body``, with its match; None if no rule does."""
    for rule in grammar.rules:
        bm = rule.pattern.match(body)
        if bm:
            return rule, bm
    return None


def _classify_line(
    line: str,
    source: str,
    number: int,
    grammar: LogGrammar,
    warn: list[ParseWarning] | None,
    kinds: Collection[EventKind] | None,
) -> LogEvent | None:
    """The line's event.

    With ``kinds``, None for a line that fits the line pattern but whose
    body no rule matches, or whose first matching rule is of another kind.
    """
    where = f"{source}:{number}"
    if not line.strip():
        return _other(line, source, number)
    m = grammar.line_pattern.match(line)
    if not m:
        warn_to(warn, where, "line does not match the grammar line pattern")
        return _other(line, source, number)
    body = m.group("body")
    found = _find_rule(grammar, body)
    if kinds is not None and (found is None or found[0].kind not in kinds):
        return None
    try:
        occurred_at = _parse_timestamp(m.group("ts"), grammar.timestamp_format)
    except ValueError:
        warn_to(warn, where, f"unparsable timestamp {m.group('ts')!r}")
        return _other(line, source, number)
    if found is None:
        return _other(line, source, number, occurred_at)

    rule, bm = found
    groups = bm.groupdict()
    jid_text = groups.get("jid") or groups.get("to") or groups.get("from")
    subject_jid = classify_jid(jid_text, warn, where) if jid_text else None
    # The unblock operation is anonymous on-device; never attach a jid.
    if rule.kind is EventKind.CONTACT_UNBLOCKED:
        subject_jid = None
    key = None
    if groups.get("key"):
        try:
            key = parse_message_key(groups["key"])
        except MalformedKey:
            warn_to(warn, where, f"malformed message key {groups['key']!r}")
    if rule.kind in KEY_BEARING_KINDS and key is None:
        warn_to(warn, where, f"{rule.kind.value} line lacks a message key; kept as other")
        return _other(line, source, number, occurred_at)
    gid = None
    if groups.get("gid"):
        try:
            gid = parse_group_id(groups["gid"])
        except MalformedGroupId:
            warn_to(warn, where, f"malformed group id {groups['gid']!r}")
    return LogEvent(
        occurred_at=occurred_at,
        kind=rule.kind,
        subject_jid=subject_jid,
        message_key=key,
        group_id=gid,
        group_subject=groups.get("subject"),
        raw_line=line,
        source_file=source,
        line_number=number,
    )


def parse_log_lines(
    lines,
    source_name: str,
    grammar: LogGrammar = DEFAULT_GRAMMAR,
    warn: list[ParseWarning] | None = None,
    kinds: Collection[EventKind] | None = None,
) -> list[LogEvent]:
    """Classify an iterable of lines, one event per line.

    With ``kinds``, only the events of those kinds are returned, in line
    order: exactly those of the full parse. A line whose rule (the first
    match, as always) is of another kind, or that no rule matches, gives
    no event; its timestamp and fields are not parsed, so it does not
    warn. A line that fails the line pattern still warns. ``kinds`` must
    not hold ``other``.
    """
    if kinds is not None and EventKind.OTHER in kinds:
        raise ValueError("kinds selects classified events; 'other' is what no rule classifies")
    events = [
        _classify_line(line.rstrip("\n"), source_name, number, grammar, warn, kinds)
        for number, line in enumerate(lines, start=1)
    ]
    if kinds is None:
        return events
    return [event for event in events if event is not None and event.kind in kinds]


def parse_log_file(
    path: str | Path,
    grammar: LogGrammar = DEFAULT_GRAMMAR,
    warn: list[ParseWarning] | None = None,
    kinds: Collection[EventKind] | None = None,
) -> list[LogEvent]:
    """Parse one log file into events, preserving file order and line numbers.

    ``kinds`` selects events as in ``parse_log_lines``.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8", errors="replace")
    except OSError as exc:
        raise UnreadableFile(f"cannot read log file: {os_reason(exc)}") from exc
    # A line ends only at \n, and a \r just before it is dropped. Text
    # mode and ``str.splitlines`` would also break at a lone \r, U+2028,
    # \x1c and the like, which user text such as a group subject may hold.
    lines = text.split("\n")
    if lines[-1] == "":  # the text ends with a newline, or is empty
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return parse_log_lines(lines, path.name, grammar, warn, kinds)


def merge_events(*event_lists) -> list[LogEvent]:
    """Merge per-file event lists by time, then (source_file, line_number).

    Undated events sort after dated ones from the same merge so nothing
    is lost.
    """
    merged = [event for events in event_lists for event in events]
    merged.sort(
        key=lambda e: (
            e.occurred_at is None,
            e.occurred_at if e.occurred_at is not None else 0,
            e.source_file,
            e.line_number,
        )
    )
    return merged


# --- canonical line bodies -------------------------------------------------
#
# The fixture forge emits log lines through these helpers so the DEFAULT
# grammar and the generated fixtures cannot drift apart.


def format_line(occurred_at_ms: int, body: str, tz_offset_minutes: int = 0) -> str:
    """Render one log line in the DEFAULT grammar's line format."""
    local = render_local_ms(occurred_at_ms + tz_offset_minutes * 60_000)
    if local is None:
        raise OverflowError(f"{occurred_at_ms} ms at {tz_offset_minutes} min is off the calendar")
    sign = "-" if tz_offset_minutes < 0 else "+"
    mins = abs(tz_offset_minutes)
    return f"{local} {sign}{mins // 60:02d}{mins % 60:02d} {body}"


def body_message_deleted(key: str) -> str:
    return f"msgstore/delete key={key}"


def body_message_sent(key: str, to_jid: str) -> str:
    return f"msgstore/send key={key} to={to_jid}"


def body_message_received(key: str, from_jid: str) -> str:
    return f"msgstore/recv key={key} from={from_jid}"


def body_server_ack(key: str) -> str:
    return f"msgstore/ack/server key={key}"


def body_device_ack(key: str) -> str:
    return f"msgstore/ack/device key={key}"


def body_contact_missing(jid: str) -> str:
    return f"contact/sync/missing jid={jid}"


def body_contact_query(jid: str, what: str = "profile") -> str:
    return f"contact/query/{what} jid={jid}"


def body_avatar_downloaded(jid: str) -> str:
    return f"contact/avatar/downloaded jid={jid}"


def body_contact_blocked(jid: str) -> str:
    return f"contact/block jid={jid}"


def body_contact_unblocked() -> str:
    return "contact/unblock/completed"


def body_group_created(gid: str, subject: str) -> str:
    return f"group/create gid={gid} subject={subject}"


def body_group_add_requested(gid: str, jids) -> str:
    return f"group/add/request gid={gid} jids={','.join(jids)}"


def body_group_member_added(gid: str, jid: str) -> str:
    return f"group/add gid={gid} jid={jid}"


def body_group_member_left(gid: str, jid: str) -> str:
    return f"group/leave gid={gid} jid={jid}"
