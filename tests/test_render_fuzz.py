"""Property tests of the report's hot paths against the standard library.

Epoch-to-calendar rendering is compared with ``datetime`` arithmetic
(a copy of the code it replaced), the DEFAULT log stamp parse with
``strptime``, and the JSON writer with ``json.dumps``.
"""

import json
from datetime import datetime, timedelta, timezone
from enum import Enum, IntEnum

import pytest

from wadroid import log_parser
from wadroid.model import CALENDAR_END_MS, format_tz_offset, render_epoch_ms
from wadroid.report import render_report_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_SETTINGS = hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY_MS = 86_400_000
#: Epoch milliseconds of 0001-01-01 00:00Z, where datetime's calendar starts.
_CALENDAR_START_MS = -62135596800000


def _reference_local(value_ms: int, offset_minutes: int) -> str:
    """The ``datetime`` rendering the calendar routine replaced; raises OverflowError."""
    local = _EPOCH + timedelta(milliseconds=value_ms, minutes=offset_minutes)
    return (
        f"{local.year:04d}-{local.month:02d}-{local.day:02d} "
        f"{local.hour:02d}:{local.minute:02d}:{local.second:02d}"
        f".{local.microsecond // 1000:03d}"
    )


def _reference_render_epoch_ms(value_ms: int, offset_minutes: int) -> str | None:
    if value_ms < 0:
        return None
    try:
        local = _reference_local(value_ms, offset_minutes)
    except OverflowError:
        return None
    return f"{local} {format_tz_offset(offset_minutes)}"


def _reference_format_line(value_ms: int, body: str, offset_minutes: int) -> str:
    sign = "-" if offset_minutes < 0 else "+"
    mins = abs(offset_minutes)
    local = _reference_local(value_ms, offset_minutes)
    return f"{local} {sign}{mins // 60:02d}{mins % 60:02d} {body}"


def _outcome(call, *args):
    try:
        return call(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


# Display offsets strictly within a day, as ``parse_tz_offset`` admits.
_OFFSETS = st.integers(-(24 * 60 - 1), 24 * 60 - 1)


def _near(*edges: int) -> st.SearchStrategy:
    """Integers within two days of one of ``edges``."""
    return st.sampled_from(edges).flatmap(
        lambda edge: st.integers(edge - 2 * _DAY_MS, edge + 2 * _DAY_MS)
    )


@_SETTINGS
@hypothesis.given(
    value_ms=st.integers(-1, CALENDAR_END_MS + 2 * _DAY_MS) | _near(0, CALENDAR_END_MS),
    offset_minutes=_OFFSETS,
)
def test_render_epoch_ms_equals_datetime(value_ms, offset_minutes):
    assert render_epoch_ms(value_ms, offset_minutes) == _reference_render_epoch_ms(
        value_ms, offset_minutes
    )


@_SETTINGS
@hypothesis.given(
    value_ms=st.integers(_CALENDAR_START_MS - 2 * _DAY_MS, CALENDAR_END_MS + 2 * _DAY_MS)
    | _near(_CALENDAR_START_MS, 0, CALENDAR_END_MS),
    offset_minutes=_OFFSETS,
)
def test_format_line_equals_datetime_and_raises_off_the_calendar(value_ms, offset_minutes):
    body = "msgstore/delete key=1-1"
    assert _outcome(log_parser.format_line, value_ms, body, offset_minutes) == _outcome(
        _reference_format_line, value_ms, body, offset_minutes
    )


_FORMAT = log_parser.DEFAULT_GRAMMAR.timestamp_format


def _digits(width: int, high: int, *edges: int) -> st.SearchStrategy:
    """``width``-digit numbers up to ``high``, often one of ``edges``."""
    return (st.integers(0, high) | st.sampled_from(edges)).map(lambda n: f"{n:0{width}d}")


@st.composite
def _default_shape_stamps(draw) -> str:
    """``YYYY-MM-DD HH:MM:SS.f ±HHMM`` with fields in and out of their ranges."""
    year = draw(_digits(4, 9999, 0, 1, 1970, 2012, 9999))
    month, day = draw(_digits(2, 13, 0, 1, 2, 12, 13)), draw(_digits(2, 32, 0, 1, 28, 29, 30, 31))
    hour = draw(_digits(2, 25, 0, 23, 24))
    minute, second = draw(_digits(2, 61, 0, 59, 60)), draw(_digits(2, 61, 0, 59, 60))
    fraction = draw(st.text("0123456789", min_size=1, max_size=6))
    sign = draw(st.sampled_from("+-"))
    offset = sign + draw(_digits(2, 25, 0, 23, 24)) + draw(_digits(2, 61, 0, 59, 60))
    return f"{year}-{month}-{day} {hour}:{minute}:{second}.{fraction} {offset}"


def _strptime_ms(text: str) -> int:
    return int(round(datetime.strptime(text, _FORMAT).timestamp() * 1000))


@_SETTINGS
@hypothesis.given(text=_default_shape_stamps())
def test_default_stamp_parse_equals_strptime(text):
    assert _outcome(log_parser._parse_timestamp, text, _FORMAT) == _outcome(_strptime_ms, text)


class _Colour(str, Enum):
    RED = "red"
    BLUE = "blü"


class _Level(IntEnum):
    LOW = -1
    HIGH = 3


# Lone surrogates included: evidence text may hold them.
_TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8)
_LEAVES = (
    _TEXT
    | st.integers()
    | st.floats()
    | st.booleans()
    | st.none()
    | st.sampled_from(_Colour)
    | st.sampled_from(_Level)
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4)
    | st.dictionaries(st.integers() | st.booleans(), children, max_size=4),
    max_leaves=24,
)


@hypothesis.settings(_SETTINGS, max_examples=200)
@hypothesis.given(doc=_DOCUMENTS)
def test_json_writer_equals_json_dumps(doc):
    expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert render_report_json(doc) == expected
