"""Tokenizes application log files into classified event streams.

The on-device logs record contact synchronization, block/unblock
operations, message traffic with its acknowledgements, message
deletions, and group lifecycle operations. The exact line syntax varies
between application builds, so classification is driven by a grammar: a
line pattern splitting timestamp from body, plus an ordered rule list
mapping body patterns to event kinds. The DEFAULT grammar below encodes
the event taxonomy this toolkit relies on: one ordered table of line
bodies (``_DEFAULT_BODIES``) gives both its rules and, through
``format_body``, the lines the fixture forge writes. A user-supplied
grammar file (JSON, versioned) adapts the parser to other builds without
touching the analysis code.

Recognized capture group names in rules: ``jid`` (a custom grammar may
name it ``to`` or ``from``), ``key``, ``gid``, ``subject``. The timestamp
format is either a strptime pattern (naive times are taken as UTC) or
the literal ``epoch_s`` / ``epoch_ms`` for logs that stamp lines with
raw epoch integers.

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

# The DEFAULT grammar's line bodies, in first-match order. Each rule is
# compiled from its body (``_body_pattern``), and the forge writes its
# lines from the same text (``format_body``).
_DEFAULT_BODIES = (
    (EventKind.MESSAGE_DELETED, "msgstore/delete key={key}"),
    (EventKind.MESSAGE_SENT, "msgstore/send key={key} to={jid}"),
    (EventKind.MESSAGE_RECEIVED, "msgstore/recv key={key} from={jid}"),
    (EventKind.SERVER_ACK, "msgstore/ack/server key={key}"),
    (EventKind.DEVICE_ACK, "msgstore/ack/device key={key}"),
    (EventKind.CONTACT_NOT_IN_DB, "contact/sync/missing jid={jid}"),
    (EventKind.CONTACT_QUERY, "contact/query/{query} jid={jid}"),
    (EventKind.AVATAR_DOWNLOADED, "contact/avatar/downloaded jid={jid}"),
    (EventKind.CONTACT_BLOCKED, "contact/block jid={jid}"),
    # Unblocks are anonymous and cumulative: the line never names who
    # was unblocked, and one line may cover several contacts.
    (EventKind.CONTACT_UNBLOCKED, "contact/unblock/completed"),
    (EventKind.GROUP_CREATED, "group/create gid={gid} subject={subject}"),
    (EventKind.GROUP_ADD_REQUESTED, "group/add/request gid={gid} jids={jids}"),
    (EventKind.GROUP_MEMBER_ADDED, "group/add gid={gid} jid={jid}"),
    (EventKind.GROUP_MEMBER_LEFT, "group/leave gid={gid} jid={jid}"),
)

# A field matches one token, except these.
_FIELD_PATTERNS = {"subject": ".*", "query": r"\w+"}


def _body_pattern(body: str) -> re.Pattern:
    """The rule of ``body``: its text literally, each ``{field}`` a named group."""
    parts = re.split(r"\{(\w+)\}", body)  # text, field, text, ..., field, text
    pattern = re.escape(parts[0])
    for field, text in zip(parts[1::2], parts[2::2]):
        group = _FIELD_PATTERNS.get(field, r"\S+")
        pattern += f"(?P<{field}>{group})" + re.escape(text)
    return re.compile(f"^{pattern}$")


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
    rules=tuple(GrammarRule(kind=k, pattern=_body_pattern(b)) for k, b in _DEFAULT_BODIES),
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


def _other(source: str, number: int, occurred_at: int | None = None) -> LogEvent:
    return LogEvent(
        occurred_at=occurred_at,
        kind=EventKind.OTHER,
        subject_jid=None,
        message_key=None,
        group_id=None,
        group_subject=None,
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
        return _other(source, number)
    m = grammar.line_pattern.match(line)
    # A match in which the ts or body group takes no part does not fit either.
    ts, body = m.group("ts", "body") if m else (None, None)
    if ts is None or body is None:
        warn_to(warn, where, "line does not match the grammar line pattern")
        return _other(source, number)
    found = _find_rule(grammar, body)
    if kinds is not None and (found is None or found[0].kind not in kinds):
        return None
    try:
        occurred_at = _parse_timestamp(ts, grammar.timestamp_format)
    except ValueError:
        warn_to(warn, where, f"unparsable timestamp {ts!r}")
        return _other(source, number)
    if found is None:
        return _other(source, number, occurred_at)

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
        return _other(source, number, occurred_at)
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


# --- DEFAULT lines -----------------------------------------------------------
#
# The fixture forge writes its log lines with these. A body is formatted
# from the text its rule is compiled from, so the DEFAULT grammar reads
# every forged line as the forge meant it.

_BODY_OF = dict(_DEFAULT_BODIES)


def format_body(kind: EventKind, **fields: str) -> str:
    """The DEFAULT body of a ``kind`` line, e.g. ``key`` and ``jid`` for ``message_sent``."""
    return _BODY_OF[kind].format_map(fields)


def format_line(occurred_at_ms: int, body: str, tz_offset_minutes: int = 0) -> str:
    """Render one log line in the DEFAULT grammar's line format."""
    local = render_local_ms(occurred_at_ms + tz_offset_minutes * 60_000)
    if local is None:
        raise OverflowError(f"{occurred_at_ms} ms at {tz_offset_minutes} min is off the calendar")
    sign = "-" if tz_offset_minutes < 0 else "+"
    mins = abs(tz_offset_minutes)
    return f"{local} {sign}{mins // 60:02d}{mins % 60:02d} {body}"
