"""The names the benchmark's tracer wraps still exist where it looks for them.

``perfbench/traced.py`` times a command by swapping module-level functions
of ``wadroid`` for wrappers, found by name and replaced by identity in
every module's namespace. A renamed, nested or rebound function would
silently drop its span or count, so each name is checked here. The
tracer is only read, never run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from wadroid import model

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _spanned() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.SPANNED


@pytest.mark.parametrize(
    "module_name, name",
    [(module_name, name) for module_name, names in _spanned().items() for name in names],
)
def test_spanned_names_are_module_level_functions(module_name, name):
    module = importlib.import_module(f"wadroid.{module_name}")
    function = getattr(module, name)
    assert inspect.isfunction(function)
    assert function.__qualname__ == name


def test_counted_names_resolve():
    assert inspect.isfunction(model.parse_jid)
    assert model.parse_jid.__qualname__ == "parse_jid"
    assert inspect.isfunction(model.CaseBundle.log_coverage)
    assert model.CaseBundle.log_coverage.__qualname__ == "CaseBundle.log_coverage"


def test_jids_are_parsed_through_the_module_level_parse_jid(monkeypatch):
    """A jid is parsed by a call to ``model.parse_jid`` (looked up at call time)."""
    calls = []
    parse_jid = model.parse_jid

    def counted(raw):
        calls.append(raw)
        return parse_jid(raw)

    monkeypatch.setattr(model, "parse_jid", counted)
    fresh = "39300000000000000099@s.whatsapp.net"  # no other test parses it
    assert model.classify_jid(fresh).phone_number == "39300000000000000099"
    assert model.classify_jid(fresh).phone_number == "39300000000000000099"
    model.classify_jid("not a jid")
    model.classify_jid("not a jid")
    # a parse is kept, a malformed jid is parsed (and warned about) every time
    assert calls == [fresh, "not a jid", "not a jid"]
