"""The compact incidence index and face tables against the constructions they
replaced.

The references in `oracles` are the earlier per-pair constructions: the
dual graph's (gluing id, neighbour) tuples per facet and `derived_gluings`
from a dict keyed by ridge tuples.  The library must give the same
answers, errors included.
"""

import tracemalloc

import pytest
from corpus import abstract_complexes, named_cases, pseudo_complexes, with_loose_copies
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    face_classes_shape,
    outcome,
    reference_adjacency,
    reference_derived_gluings,
    reference_from_glued,
)

from unfolder import complexes
from unfolder.complexes import (
    AbstractComplex,
    FaceClasses,
    PseudoComplex,
    as_pseudo,
    dual_graph,
    gluings_from,
    subset_index,
)
from unfolder.diagnostics import is_locally_strongly_connected, odd_subcomplex
from unfolder.errors import BadParameter, Mismatch, UnfolderError
from unfolder.gallery import boundary_simplex, gallery_entries, knot_neighborhood
from unfolder.io import parse_document
from unfolder.projectivities import star_group
from unfolder.subdivisions import barycentric, iterate
from unfolder.unfoldings import branching_index, partial_unfolding

BARY_D3 = barycentric(boundary_simplex(3)).result
CASES = named_cases()
IDS = [name for name, _x in CASES]


def assert_tables_match(x):
    """Every comparison of this module on one complex."""
    if isinstance(x, AbstractComplex):
        want = outcome(reference_derived_gluings, x)
        assert outcome(x.derived_gluings) == want
        if want[:1] == (BadParameter,):
            return
    dg = dual_graph(x)
    want = reference_adjacency(x)
    assert [list(dg.incident(f)) for f in range(x.facet_count)] == want
    assert dg.adjacency() == dict(enumerate(want))
    assert list(dg.offsets) == [sum(map(len, want[:f])) for f in range(x.facet_count + 1)]
    even = range(0, x.facet_count, 2)
    assert gluings_from(x, even) == [gid for gid, g in enumerate(x.gluings) if g.facet_a % 2 == 0]
    if isinstance(x, PseudoComplex):
        try:
            classes = x.classes()
        except UnfolderError:
            return
        assert classes.facets is None
        with pytest.raises(BadParameter):
            classes.face_key(0)


@pytest.mark.parametrize("x", [x for _name, x in CASES], ids=IDS)
def test_tables_match_the_references(x):
    assert_tables_match(x)


@pytest.mark.parametrize("loose", [1, 5, 12])
def test_loose_copies_get_the_classes_of_the_full_closure(loose):
    # the union-find skips copies that no gluing joins; the reference unites
    # over every slot
    x = with_loose_copies(as_pseudo(BARY_D3), loose)
    for y in (x, PseudoComplex(x.dim, loose, ())):
        got = FaceClasses.from_glued(y.dim, y.facet_count, y.gluings)
        want = reference_from_glued(y.dim, y.facet_count, y.gluings)
        assert face_classes_shape(got) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(pseudo_complexes(), abstract_complexes()))
def test_tables_match_the_references_on_random_complexes(x):
    assert_tables_match(x)


def test_the_derived_gluings_are_counted_before_they_are_built(monkeypatch):
    entries = [e.complex for e in gallery_entries() if isinstance(e.complex, AbstractComplex)]
    monkeypatch.setattr(complexes, "MAX_CLOSURE_SLOTS", 10)
    refused = 0
    for x in entries:
        K = AbstractComplex.from_facets(x.facets)  # nothing kept on it yet
        want = outcome(reference_derived_gluings, K, 10)
        assert outcome(K.derived_gluings) == want
        refused += want[:1] == (BadParameter,)
    assert 0 < refused < len(entries)


def test_a_loop_in_a_link_graph_names_the_smallest_class():
    # a copy whose two ridges through a codimension-2 face share a class has
    # a loop in that face's link graph; a face table never holds one, so two
    # copies' ridge slots are overwritten, and both codes name one class
    entries = gallery_entries()
    for x in (barycentric(entries[1].complex).result, as_pseudo(entries[3].complex)):
        classes = x.classes()
        is_locally_strongly_connected(x)
        sc, per, d = list(classes.slot_class), classes.per, x.dim
        assert d == 2
        # the two ridges through local vertex 0
        ra, rb = subset_index(3)[(0, 1)], subset_index(3)[(0, 2)]
        for f in (x.facet_count - 1, 1):
            sc[f * per + rb] = sc[f * per + ra]
        looped = FaceClasses(d, x.facet_count, classes.cards, classes.first, sc)
        x.__dict__["_memo_classes"] = looped
        smallest = min(sc[f * per + subset_index(3)[(0,)]] for f in (x.facet_count - 1, 1))
        want = (Mismatch, f"loop in the link graph of class {smallest}")
        assert outcome(odd_subcomplex, x) == want


def test_a_document_of_loose_copies_keeps_its_face_table_small():
    # 2000 unglued copies of the 8-simplex: 1022000 slots, each a class;
    # the tables hold 4 bytes a slot and a class
    text = '{"kind": "pseudo", "dim": 8, "facet_count": 2000}'
    tracemalloc.start()
    try:
        x = parse_document(text).complex
        classes = x.classes()
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 40 * 2**20
    assert classes.count == 2000 * 511
    assert list(classes.slot_class[511 * 7 : 511 * 7 + 3]) == [7 * 9, 7 * 9 + 1, 7 * 9 + 2]


def _live_growth(call):
    """The bytes `call()` leaves live, under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result is not None
    return after - before


def _index_bytes(classes):
    """The class -> slot index: 4 bytes a slot, and 4 bytes a class each for
    its member counts and its offsets."""
    return 4 * (len(classes.slot_class) + 2 * classes.count + 1)


def test_one_class_queries_keep_only_the_class_index():
    # with the face classes and the incidence index built, asking about one
    # class keeps no data for every other class: a star group walks the
    # incidence index and keeps nothing, a branching index keeps the class ->
    # slot index (each with 64 KiB for the answer and the caches it fills)
    slack = 64 * 2**10
    x = iterate(barycentric, boundary_simplex(3), 4)
    classes = x.classes()
    dual_graph(x)
    assert classes.count == 15554
    assert _live_growth(lambda: star_group(x, 0)) < slack
    u = partial_unfolding(knot_neighborhood(30, "klein").complex)
    total, base = u.total.classes(), u.base.classes()
    assert total.count == 10260
    bound = _index_bytes(total) + 4 * base.count + slack  # and the base's member counts
    assert _live_growth(lambda: branching_index(u, 0)) < bound
