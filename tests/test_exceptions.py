"""A programming error is an internal error, never a warning about the evidence."""

import ast
from pathlib import Path

import pytest

import helpers
from wadroid import correlator, db_reader, forge, log_parser
from wadroid.cli import EXIT_ERROR, EXIT_OK, run

SRC = Path(__file__).resolve().parent.parent / "src" / "wadroid"


@pytest.fixture(scope="module")
def group_root(tmp_path_factory):
    """A group's create, joins and leaves, with direct and group texts between them."""
    group = helpers.group_script()
    create, add_e, add_f, leave_f, leave_e = group.actions
    actions = (
        create,
        add_e,
        forge.SendText(at_ms=add_e.at_ms + 1_000, sender=helpers.USER_D, to="g", text="hi"),
        forge.SendText(
            at_ms=add_e.at_ms + 2_000, sender=helpers.USER_D, to=helpers.USER_E, text="direct"
        ),
        add_f,
        leave_f,
        leave_e,
    )
    script = forge.ScenarioScript(owner=group.owner, actors=group.actors, actions=actions)
    root = forge.generate_bundle(script, tmp_path_factory.mktemp("group") / "evidence").root
    assert run(["report", "--in", str(root)]) == EXIT_OK
    return root


@pytest.mark.parametrize(
    "module, parser",
    [
        (db_reader, "parse_message_key"),
        (log_parser, "parse_message_key"),
        (log_parser, "parse_group_id"),
        (correlator, "parse_group_id"),
    ],
)
def test_a_parser_bug_is_an_internal_error(group_root, monkeypatch, capsys, module, parser):
    def broken(raw):
        raise RuntimeError(f"bug while parsing {raw!r}")

    capsys.readouterr()
    monkeypatch.setattr(module, parser, broken)
    assert run(["report", "--in", str(group_root)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "internal error: RuntimeError" in captured.err
    assert not captured.out


def _broad(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return caught is None or any(
        isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
        for name in names
    )


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) and node.exc is None for node in ast.walk(handler))


def test_only_the_command_line_catch_all_swallows_every_exception():
    """Each broad handler re-raises, except the one that turns a bug into exit 2."""
    swallowing = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits an outer function before the functions nested in
        # it, so each node ends up owned by its innermost function.
        owner = {}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, function.name) for node in ast.walk(function))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and _broad(node) and not _reraises(node):
                swallowing.append(f"{path.stem}.{owner.get(node)}:{node.lineno}")
    assert [where.rsplit(":", 1)[0] for where in swallowing] == ["cli.run"], swallowing
