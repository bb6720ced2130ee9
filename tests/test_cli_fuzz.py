"""Hypothesis fuzzing of set loading through ``upoblab verify``.

A valid set file is mutated at random places: wrong types, booleans, null,
NaN and Infinity literals, ragged or triple entries, wrong rows or cols,
missing keys, non-object members, extra nesting.  Whatever the file holds,
``verify`` must end normally or exit 2 with an ``error:`` line; it must
never raise.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from upoblab.catalog import construct_by_name
from upoblab.cli import main
from upoblab.product import OperatorSet

BASE = OperatorSet(
    ((2, 2), (2, 2)), construct_by_name("u2").members[:4]
).to_json()

#: Values put in place of any node of the set's JSON tree.
REPLACEMENTS = [
    True, False, None, "x", "", 0, -1, 2, 1.5, 2**70,
    math.nan, math.inf, -math.inf,
    [], {}, [1.0, 0.0, 2.0], [[1.0]], [[1.0, 0.0]], [None, 0.0],
    {"rows": 1, "cols": 1}, {"label": "x", "factors": []},
]

#: Finite numbers put in place of a node, which keep entries valid.
NUMBERS = [0, -1, 2, 0.5, 1e-300, 1e300]


def paths(node, prefix=()):
    """The key path of every node in a JSON tree, the root's included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def mutate(rnd, obj):
    """``obj`` with one change at a node drawn uniformly from all of its
    nodes, so most changes land in the matrix entries, which hold most."""
    path = rnd.choice(list(paths(obj)))
    if not path:
        return copy.deepcopy(rnd.choice(REPLACEMENTS))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rnd.choice(["number", "replace", "remove", "duplicate", "wrap"])
    if kind == "number":
        parent[key] = rnd.choice(NUMBERS)
    elif kind == "replace":
        parent[key] = copy.deepcopy(rnd.choice(REPLACEMENTS))
    elif kind == "wrap":
        parent[key] = [parent[key]]
    elif kind == "remove":
        del parent[key]  # a missing key, or a shorter list
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return obj


@st.composite
def mutated_sets(draw):
    # Hypothesis biases its own draws towards the first choice; a seeded
    # Random it supplies draws uniformly and stays reproducible.
    rnd = draw(st.randoms(use_true_random=False))
    obj = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        obj = mutate(rnd, obj)
    return obj


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(mutated_sets())
def test_verify_never_raises(obj):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj))  # NaN and Infinity become literals
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["verify", "--set", path, "--budget", "2000",
                       "--restarts", "1", "--iters", "5"])
    finally:
        os.unlink(path)
    err = err.getvalue()
    if rc == 2:
        assert err.startswith("error:") and "Traceback" not in err
    else:
        assert rc in (0, 1, 3)


def test_base_set_verifies():
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(BASE))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--set", path, "--restarts", "1", "--iters", "5"]) == 0
    finally:
        os.unlink(path)
