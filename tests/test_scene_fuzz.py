"""A scene-file fuzzer: one field of a known-good scene file changed at a time.

Each example takes a scene file of ``tests/data``, drops one of its fields
(a key of an object or an element of a list, at any depth) or sets it to a
value of another kind or an extreme size, and runs ``parageom verify`` on
the result.  Whatever the input, no exception may leave ``cli.main``, the
exit code is one of the documented four, and an input error (exit 2) is a
single stderr line that names a field path.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parageom.cli import EXIT_DEGENERATE, EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main

DATA = Path(__file__).parent / "data"
SCENES = ("hyperbola", "quadric_n1", "perturbed_n1", "graph_n1")
DROP = "<drop>"
VALUES = (DROP, None, True, "x", 1e308, -1e308, 0, -1, 1.5, [], {}, 10**30)


def field_paths(node, path=()):
    """The path of every field below ``node``, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


BASES = {name: json.loads((DATA / f"{name}.json").read_text(encoding="utf-8")) for name in SCENES}
FIELDS = [(name, path) for name in SCENES for path in field_paths(BASES[name])]


def mutated(name, path, value):
    """Scene file ``name`` with the field at ``path`` dropped or set to ``value``."""
    data = json.loads(json.dumps(BASES[name]))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scene.json"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(VALUES))
# 1e308 is finite but overflows the quadric's symmetrization and x'Ax.
@example(field=("quadric_n1", ("scene", "params", "quadric", "P", 0, 0)), value=1e308)
@example(field=("perturbed_n1", ("scene", "params", "base_point", 0)), value=-1e308)
def test_one_changed_field_exits_with_a_documented_code(scene_path, field, value):
    scene_path.write_text(json.dumps(mutated(*field, value)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(scene_path)])
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_DEGENERATE)
    if code == EXIT_INPUT:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: $"), lines
