"""Generated documents through the whole ``njk`` front end.

Lie, algebroid and forms documents are built from small valid parts, with
malformed fields mixed in: bad rationals and polynomials, keys outside the
grammar, wrong shapes, wrong types, unknown and missing fields. Each one is
run through ``cli.main`` in process, with the document on stdin. Whatever
the input, the exit code is 0, 2 or 3, and exit 3 prints nothing on stdout
and exactly one ``error: `` line on stderr: never a traceback.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from njkit.cli import main  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)

RATIONALS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "2/4", " 3 "])
# Malformed leaves: rationals and polynomials outside the grammar (zero
# denominators, digits of other scripts, digit separators, variables out of
# range), then values of the wrong JSON type.
BAD_STRINGS = ["1/0", "x", "", "1.5", "1e3", "٣/٤", "1_0", "--1", "x0", "x9", "x1^"]
BAD_STRINGS += ["++", "x١", "x1^２", "*", "x1 x2", "1/0*x1"]
BAD_VALUES = st.sampled_from(BAD_STRINGS + [-1, 0, 3, None, [], {}, True, 1.5])
BAD_KEYS = st.sampled_from(["0,1_0", "a,b", "1", "0,0", "1,0", "٠,١", "0,1,2", "", "|"])
BAD_KEYS |= st.sampled_from(["1,1|1", "2,1|1", "1|9", "١|1", "1_0|1", "0_1", "9", "bogus"])


@st.composite
def polys(draw, n_vars: int) -> str:
    """A polynomial of degree at most 2 in the ``parse`` syntax."""
    terms = []
    for _ in range(draw(st.integers(0, 2))):
        factors = [draw(RATIONALS).strip()]
        if n_vars:
            for _ in range(draw(st.integers(0, 2))):
                factors.append(f"x{draw(st.integers(1, n_vars))}")
        terms.append("*".join(factors))
    text = " + ".join(terms).replace("+ -", "- ")
    return text or "0"


def matrices(nrows: int, ncols: int, cells: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(
        st.lists(cells, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


def _sites(value, path=()) -> list[tuple]:
    """Every place in a document: the paths of all its values, the root first."""
    out = [path]
    if isinstance(value, dict):
        for key, item in value.items():
            out += _sites(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out += _sites(item, path + (i,))
    return out


@st.composite
def corrupted(draw, doc: dict) -> dict:
    """``doc`` as it is, or with one malformed place: a value replaced, a key
    renamed or removed, a list padded, or an unknown field added."""
    if draw(st.integers(0, 2)):
        return doc
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(_sites(doc)[1:] or [()]))
    if not path:
        doc["bogus"] = 1
        return doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    action = draw(st.sampled_from(["replace", "replace", "rekey", "drop", "pad"]))
    if action == "replace":
        parent[last] = draw(BAD_VALUES)
    elif action == "rekey" and isinstance(parent, dict):
        parent[draw(BAD_KEYS)] = parent.pop(last)
    elif action == "drop":
        del parent[last]
    else:
        target = parent[last]
        if isinstance(target, list):
            target.append(target[0] if target else "1")
        elif isinstance(target, dict):
            target["bogus"] = "1"
        else:
            parent[last] = draw(BAD_VALUES)
    return doc


@st.composite
def lie_documents(draw) -> dict:
    dim = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(0, dim - 2), st.integers(1, dim - 1)).filter(
        lambda p: p[0] < p[1]
    )
    brackets = {}
    if dim > 1:
        for i, j in draw(st.lists(pairs, max_size=3, unique=True)):
            comps = draw(st.dictionaries(st.integers(0, dim - 1), RATIONALS, max_size=2))
            brackets[f"{i},{j}"] = {str(k): c for k, c in comps.items()}
    doc: dict = {"dim": dim, "brackets": brackets}
    if draw(st.integers(0, 3)):
        doc["nijenhuis"] = draw(matrices(dim, dim, RATIONALS))
    if draw(st.integers(0, 3)) == 0:
        rdim = draw(st.integers(1, 2))
        doc["representation"] = {
            "dim": rdim,
            "matrices": [draw(matrices(rdim, rdim, RATIONALS)) for _ in range(dim)],
        }
        if draw(st.booleans()):
            doc["rep_nijenhuis"] = draw(matrices(rdim, rdim, RATIONALS))
    return draw(corrupted(doc))


@st.composite
def algebroid_documents(draw) -> dict:
    base_dim, rank = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    # A zero anchor and no structure make a valid algebroid, so that the
    # deeper checks run too.
    doc: dict = {"base_dim": base_dim, "rank": rank, "anchor": [["0"] * base_dim] * rank}
    if draw(st.booleans()):
        doc["anchor"] = draw(matrices(rank, base_dim, polys(base_dim)))
        pairs = [f"{i},{j}" for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
        if pairs:
            vectors = st.lists(polys(base_dim), min_size=rank, max_size=rank)
            doc["structure"] = draw(st.dictionaries(st.sampled_from(pairs), vectors, max_size=2))
    if draw(st.integers(0, 4)):
        doc["nijenhuis"] = draw(matrices(rank, rank, polys(base_dim)))
    return draw(corrupted(doc))


@st.composite
def forms(draw, n: int) -> dict:
    degree = draw(st.integers(0, min(n, 2)))
    words = st.lists(st.integers(1, n), min_size=degree, max_size=degree, unique=True)
    keys = st.tuples(words, st.integers(1, n)).map(
        lambda k: ",".join(str(i) for i in sorted(k[0])) + f"|{k[1]}"
    )
    return {"degree": degree, "entries": draw(st.dictionaries(keys, polys(n), max_size=3))}


@st.composite
def forms_documents(draw) -> dict:
    n = draw(st.integers(1, 2))
    doc: dict = {"n": n}
    for name in ("left", "right"):
        if draw(st.integers(0, 4)):
            doc[name] = draw(forms(n))
    if draw(st.booleans()):
        doc["operator"] = draw(matrices(n, n, polys(n)))
    return draw(corrupted(doc))


def _assert_contract(argv: list[str], doc) -> None:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3), (argv, doc)
    if code == 3:
        assert out.getvalue() == "", (argv, doc)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, doc, lines)
    else:
        json.loads(out.getvalue())


LIE_COMMANDS = [
    ["check", "lie", "-"],
    ["check", "nijenhuis", "-"],
    ["check", "rep", "-"],
    ["torsion", "-"],
    ["mc", "--n-max", "2", "-"],
    ["cohomology", "--complex", "ce", "--max-degree", "2", "-"],
    ["cohomology", "--complex", "njo", "--max-degree", "2", "-"],
    ["cohomology", "--complex", "njl", "--max-degree", "2", "-"],
]
ALGEBROID_COMMANDS = [
    ["check", "algebroid", "-"],
    ["torsion", "-"],
    ["algebroid", "phi", "-"],
    ["algebroid", "njld", "-"],
    ["algebroid", "mc", "-"],
]
FORMS_COMMANDS = [["fn-bracket", "-"], ["torsion", "-"]]


@SETTINGS
@given(st.sampled_from(LIE_COMMANDS), lie_documents())
def test_generated_lie_documents_keep_the_exit_contract(argv, doc):
    _assert_contract(argv, doc)


@SETTINGS
@given(st.sampled_from(ALGEBROID_COMMANDS), algebroid_documents())
def test_generated_algebroid_documents_keep_the_exit_contract(argv, doc):
    _assert_contract(argv, doc)


@SETTINGS
@given(st.sampled_from(FORMS_COMMANDS), forms_documents())
def test_generated_forms_documents_keep_the_exit_contract(argv, doc):
    _assert_contract(argv, doc)
