"""Property test of the forge's script input: refuse it, or forge it faithfully.

Each example takes a reference script in its JSON form, replaces one
field of one action, or the owner, or the actors, with an arbitrary JSON
value, and forges the result. The forge must either refuse the script as
``InvalidScript`` before writing anything, or write a tree that parses to
exactly the bundle it predicted.
"""

import json
import tempfile
from pathlib import Path

import pytest

import helpers
from wadroid import forge, ingest
from wadroid.errors import InvalidScript

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_BASE_SCRIPTS = [
    json.loads(forge.script_to_json(make()))
    for make in (
        helpers.conversation_script,
        helpers.delivery_script,
        helpers.broadcast_script,
        helpers.group_script,
    )
]

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=5,
)


@st.composite
def _mutated_scripts(draw) -> dict:
    spec = json.loads(json.dumps(draw(st.sampled_from(_BASE_SCRIPTS))))
    targets = [("owner",), ("actors",)] + [
        (index, name) for index, action in enumerate(spec["actions"]) for name in sorted(action)
    ]
    target = draw(st.sampled_from(targets))
    value = draw(_JSON_VALUES)
    if len(target) == 1:
        spec[target[0]] = value
    else:
        spec["actions"][target[0]][target[1]] = value
    return spec


@hypothesis.settings(max_examples=60, derandomize=True, deadline=None, database=None)
@hypothesis.given(spec=_mutated_scripts())
def test_a_script_is_refused_or_forged_faithfully(spec):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "evidence"
        try:
            result = forge.generate_bundle(forge.script_from_json(json.dumps(spec)), out)
        except InvalidScript:
            assert not out.exists()
            return
        assert ingest.load_case_bundle(out) == result.bundle
