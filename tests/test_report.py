"""The JSON serializer: the bytes of ``json.dumps(indent=2, sort_keys=True)``."""

import json
from enum import Enum, IntEnum
from pathlib import Path

import pytest

from wadroid.model import parse_jid
from wadroid.report import render_report_json

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


class Colour(str, Enum):
    RED = "red"


class Level(IntEnum):
    HIGH = 3


DOCUMENTS = {
    "non-ascii": {"text": "caffè ☕ 日本", "emoji": ["🙂", "ü"]},
    "control-characters": {"s": "\x00\x01\x1f\x7f\x85  ", "esc": '"\\/\b\f\n\r\t'},
    "lone-surrogates": {"high": "\ud800", "low": ["\udfff", "a\udc80b"]},
    "empty-containers": {"d": {}, "l": [], "t": (), "nested": {"a": {}, "b": [[], {}, [{}]]}},
    "empty-top-dict": {},
    "empty-top-list": [],
    "tuples": {"t": (1, (2, 3), ("x", ())), "top": [(), (None,)]},
    "floats": {"zero": -0.0, "big": 1e16, "small": 1e-7, "pi": 3.141592653589793, "one": 1.0},
    "non-finite": {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
    "ints": {"big": 2**100, "neg": -(2**70), "zero": 0, "list": [1, -1, 10**30]},
    "bools-and-none": {"t": True, "f": False, "n": None, "l": [True, False, None]},
    "enum-members": {"colour": Colour.RED, "level": Level.HIGH, "l": [Colour.RED, Level.HIGH]},
    "enum-keys": {Colour.RED: 1, "blue": 2},
    "int-keys": {10: "ten", 2: "two", -1: "minus one"},
    "float-keys": {1.5: "a", -0.0: "b", float("inf"): "c"},
    "bool-and-none-keys": {True: 1, False: 0},
    "none-key": {None: "null"},
    "int-enum-key": {Level.HIGH: "high", 1: "one"},
    "deep": {"a": [{"b": [{"c": [1, {"d": "e"}]}]}]},
    "top-string": "just a string",
    "top-int": 7,
    "top-none": None,
}


@pytest.mark.parametrize("doc", DOCUMENTS.values(), ids=DOCUMENTS.keys())
def test_writer_matches_json_dumps(doc):
    assert render_report_json(doc) == _dumps(doc)


def test_writer_matches_json_dumps_on_the_golden_report():
    text = GOLDEN.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert render_report_json(doc) == _dumps(doc) == text


@pytest.mark.parametrize(
    "doc",
    [{"a": object()}, [b"bytes"], {("tuple", "key"): 1}, {"a": 1, 2: "mixed keys"}],
    ids=["object", "bytes", "tuple-key", "unsortable-keys"],
)
def test_writer_rejects_what_json_dumps_rejects(doc):
    with pytest.raises(TypeError):
        _dumps(doc)
    with pytest.raises(TypeError):
        render_report_json(doc)


_RECORD = parse_jid("393480000002@s.whatsapp.net")


@pytest.mark.parametrize(
    "doc",
    [_RECORD, {"jid": _RECORD}, {"payload": {"jids": [_RECORD]}}, [(_RECORD,)]],
    ids=["top", "dict-value", "in-a-list", "in-a-tuple"],
)
def test_a_record_never_reaches_a_document(doc):
    """A record is a tuple, but no array: ``json.dumps`` would write it as one."""
    with pytest.raises(TypeError, match="WaJid is not JSON serializable"):
        render_report_json(doc)
