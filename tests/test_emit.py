"""The document writer, and checks under `python -O`.

The reference builders in `oracles` are the dict-and-`json.dumps` version
of the emit: each document is built as nested dicts and lists, its vertex
classes come from the full face-class closure, and `json.dumps(doc,
indent=1)` writes it.  A component's reference document is built from `components(u)`,
a complex of its own.  The library must write exactly the same text.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from corpus import pseudo_complexes
from hypothesis import given, settings
from oracles import reference_emit, reference_emit_component, reference_emit_unfolding

from unfolder.complexes import AbstractComplex, Gluing, PseudoComplex
from unfolder.diagnostics import is_strongly_connected
from unfolder.errors import BadParameter, SelfIdentification
from unfolder.gallery import gallery_entries, starred_triangle
from unfolder.io import emit, emit_component, emit_unfolding, parse
from unfolder.subdivisions import antiprismatic
from unfolder.unfoldings import complete_unfolding, component_of, components, partial_unfolding
from unfolder.verify import _Context

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_components_match_the_reference(u):
    """Every component's document, written from its cut of the total, and
    the total's document with its vertex classes merged from all the
    components, equal the references; so does each component cut alone."""
    comps = components(u)
    want = [reference_emit_component(c, u.kind) for c in comps]
    assert [emit_component(c, u.kind) for c in comps] == want
    assert emit_unfolding(u, comps) == reference_emit_unfolding(u)
    for c, text in zip(comps, want):
        assert emit_component(component_of(u, c.member_copies), u.kind) == text


def test_emit_unfolding_refuses_components_that_miss_or_repeat_copies():
    u = partial_unfolding(starred_triangle())
    comps = components(u)
    assert len(comps) == 2
    again = component_of(u, comps[1].member_copies)
    for wrong in (comps[:1], comps[1:], (comps[0], comps[0]), (again, again)):
        with pytest.raises(BadParameter, match="do not cover"):
            emit_unfolding(u, wrong)
    assert emit_unfolding(u, comps) == reference_emit_unfolding(u)


ENTRIES = gallery_entries()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.name for e in ENTRIES])
def test_emit_matches_the_reference_on_the_gallery(entry):
    x = entry.complex
    assert emit(x) == reference_emit(x)
    for u in (complete_unfolding(x), partial_unfolding(x)):
        assert emit(u.total) == reference_emit(u.total)
        assert emit_unfolding(u) == reference_emit_unfolding(u)
        assert_components_match_the_reference(u)


def test_emit_edge_cases():
    dim0 = PseudoComplex(0, 3, (Gluing(0, (), 1, (), ()), Gluing(1, (), 2, (), ())))
    single = PseudoComplex(2, 1, ())
    one_facet = AbstractComplex.from_facets([(0, 1, 2)])
    for x in (dim0, single, one_facet, antiprismatic(dim0).result):
        text = emit(x)
        assert text == reference_emit(x)
        assert parse(text) == x
    assert '"ridge_a": []' in emit(dim0)
    assert '"gluings": []' in emit(single)
    u = complete_unfolding(one_facet)
    assert u.total.facet_count == 1
    assert emit_unfolding(u) == reference_emit_unfolding(u)
    assert '"gluings": []' in emit_unfolding(u)
    assert_components_match_the_reference(partial_unfolding(dim0))
    assert_components_match_the_reference(complete_unfolding(dim0))


def test_simplicial_labels_are_escaped_like_json():
    K = starred_triangle()
    labels = {0: 'say "hi"', 1: "back\\slash", 2: "caf\u00e9 \u2713", 3: "tab\tnew\nline"}
    text = emit(K, vertex_labels=labels)
    assert text == reference_emit(K, labels)
    assert "\\u00e9" in text
    partial = {3: "%s {0} {}"}
    assert emit(K, vertex_labels=partial) == reference_emit(K, partial)


def test_emit_raises_on_a_copy_that_identifies_two_of_its_vertices():
    bad = PseudoComplex(
        2,
        2,
        (
            Gluing(0, (0, 1), 1, (0, 1), (0, 1)),
            Gluing(0, (1, 2), 1, (0, 1), (0, 1)),
        ),
    )
    with pytest.raises(SelfIdentification):
        emit(bad)
    with pytest.raises(SelfIdentification):
        bad.classes()


@settings(max_examples=200, deadline=None)
@given(pseudo_complexes())
def test_component_documents_match_the_reference_on_random_complexes(P):
    units = [partial_unfolding(P)]
    if is_strongly_connected(P):
        units.append(complete_unfolding(P))
    for u in units:
        try:
            emit(u.total)
        except SelfIdentification as e:
            # the merged table names the copy by its id in the total, as the
            # total's own closure does
            comps = components(u)
            with pytest.raises(SelfIdentification, match=re.escape(str(e))):
                emit_unfolding(u, comps)
            for c in comps:
                try:
                    want = reference_emit_component(c, u.kind)
                except SelfIdentification:
                    with pytest.raises(SelfIdentification):
                        emit_component(c, u.kind)
                else:
                    assert emit_component(c, u.kind) == want
            continue
        assert_components_match_the_reference(u)


BROKEN_CONTEXT = """
from unfolder.verify import CHECKS, _Context


class Broken(_Context):
    def up(self, e):  # the complete unfolding where the partial one belongs
        return self.uc(e)


fn = dict((cid, fn) for cid, _suite, fn in CHECKS)["unf-01-facet-count-laws"]
"""


def test_checks_still_fail_under_python_optimize():
    """A check run on a deliberately broken context fails, in this process
    and under `python -O`, with the same message; on a sound context it
    passes."""
    scope: dict = {}
    exec(BROKEN_CONTEXT, scope)
    fn, broken = scope["fn"], scope["Broken"]
    assert fn(_Context()).startswith("facet-count laws hold")
    with pytest.raises(AssertionError) as caught:
        fn(broken())
    here = f"AssertionError: {caught.value}"
    assert here == "AssertionError: boundary-simplex-3"
    program = BROKEN_CONTEXT + (
        "import sys\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        "    fn(Broken())\n"
        "    print('passed')\n"
        "except AssertionError as e:\n"
        "    print(f'{type(e).__name__}: {e}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", program],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout.splitlines()
    assert out == ["1", here]
