"""Mutated documents: only an `UnfolderError` escapes the parser and the CLI.

Each input is a small gallery document, or an unfolding of one, with a few
mutations: a dropped key, a value of the wrong type, an out-of-range facet
id, a bad ridge or mapping, another dimension or copy count, another vertex
label, an integer literal above Python's digit limit or nesting deeper than
the recursion limit.  Documents keep dim <= 3 and at most 20 copies, so
every command finishes quickly; `cli.main` then has to return 0 or 2.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from unfolder.cli import main
from unfolder.complexes import Gluing, PseudoComplex, as_pseudo
from unfolder.errors import UnfolderError
from unfolder.gallery import (
    boundary_simplex,
    cycle_graph,
    nonsimplicial_unfolding_example,
    starred_triangle,
)
from unfolder.io import emit, emit_unfolding, parse_document
from unfolder.unfoldings import partial_unfolding

SEEDS = tuple(
    json.loads(text)
    for text in (
        emit(boundary_simplex(2)),
        emit(boundary_simplex(4)),
        emit(starred_triangle()),
        emit(cycle_graph(4)),
        emit(nonsimplicial_unfolding_example()),
        emit(as_pseudo(boundary_simplex(3))),
        emit(PseudoComplex(0, 3, (Gluing(0, (), 1, (), ()), Gluing(1, (), 2, (), ())))),
        emit_unfolding(partial_unfolding(starred_triangle())),
    )
)
KEYS = ("format_version", "kind", "dim", "facet_count", "facets", "gluings", "vertex_classes")
GLUING_KEYS = ("a", "ridge_a", "b", "ridge_b", "mapping")
# written in place of these strings once the document is serialised
RAW = {'"<huge>"': "9" * 5000, '"<deep>"': "[" * 100000 + "]" * 100000}

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 5), max_size=5),
    st.just({}),
    st.sampled_from(sorted(RAW)).map(json.loads),
    st.sampled_from(("simplicial", "pseudo")),
)
positions = st.lists(st.integers(-1, 4), max_size=5)


def _pick(draw, items):
    return draw(st.integers(0, len(items) - 1)) if items else None


def drop_key(draw, doc):
    gluings = doc.get("gluings")
    i = _pick(draw, gluings) if isinstance(gluings, list) else None
    target = gluings[i] if i is not None and isinstance(gluings[i], dict) else doc
    if target:
        target.pop(draw(st.sampled_from(sorted(target))))


def wrong_type(draw, doc):
    doc[draw(st.sampled_from(KEYS))] = draw(junk)


def gluing_field(draw, doc):
    gluings = doc.get("gluings")
    if not isinstance(gluings, list) or not gluings:
        return
    i = _pick(draw, gluings)
    if not isinstance(gluings[i], dict):
        return
    key = draw(st.sampled_from(GLUING_KEYS))
    if key in ("a", "b"):
        value = draw(st.one_of(st.integers(-3, 25), junk))
    else:
        value = draw(st.one_of(positions, junk))
    gluings[i][key] = value


def gluing_list(draw, doc):
    gluings = doc.get("gluings")
    if not isinstance(gluings, list) or not gluings:
        return
    i = _pick(draw, gluings)
    change = draw(st.sampled_from(("drop", "repeat", "junk")))
    if change == "drop":
        del gluings[i]
    elif change == "repeat":
        gluings.append(copy.deepcopy(gluings[i]))
    else:
        gluings[i] = draw(junk)


def size(draw, doc):
    if draw(st.booleans()):
        doc["dim"] = draw(st.integers(0, 3))
    else:
        doc["facet_count"] = draw(st.integers(0, 20))


def facet_row(draw, doc):
    rows = doc.get("facets")
    if not isinstance(rows, list) or not rows:
        return
    i = _pick(draw, rows)
    rows[i] = draw(st.one_of(st.lists(st.integers(0, 8), max_size=5), junk))


def label(draw, doc):
    rows = doc.get("facets")
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list) or not rows[0]:
        return
    old = rows[0][_pick(draw, rows[0])]
    # a lone surrogate is a JSON string but cannot be written as UTF-8
    new = draw(st.one_of(st.text(max_size=3), st.just("\ud800")))
    for row in rows:
        if isinstance(row, list):
            row[:] = [new if v == old else v for v in row]


MUTATIONS = (drop_key, wrong_type, gluing_field, gluing_list, size, facet_row, label)


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        draw(st.sampled_from(MUTATIONS))(draw, doc)
    return doc


def _cli(argv) -> int:
    # a strict UTF-8 stream, like a terminal's, so that an unprintable
    # output fails here as it would there
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
        out.flush()
    return code


@settings(max_examples=300, deadline=None)
@given(documents())
def test_only_unfolder_errors_escape_parse_and_the_cli(doc):
    text = json.dumps(doc)
    for token, raw in RAW.items():
        text = text.replace(token, raw)
    try:
        parse_document(text)
    except UnfolderError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "doc.json")
        path.write_text(text)
        out = str(Path(tmp, "out.json"))
        for argv in (
            ["analyze", str(path)],
            ["unfold", "--mode", "partial", "-o", out, str(path)],
            ["unfold", "--mode", "partial", "--component", "1", str(path)],
            ["unfold", "--mode", "complete", str(path)],
        ):
            assert _cli(argv) in (0, 2), argv
