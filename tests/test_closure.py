"""The integer-slot closure kernel against the union-find closure it replaced.

The face classes, derived gluings and vertex classes must equal those of
the references in `oracles`, the builders the kernel replaced: the same
classes, ids, gluings and `SelfIdentification` messages.

The readers that scan each copy's slots (local strong connectivity, the
balanced coloring, the odd subcomplex, the pseudo-manifold census) are
checked against references that build their own classes, and the readers
that need only counts and first members must never build the class -> slot
index.
"""

import networkx as nx
import pytest
from corpus import abstract_complexes, named_cases, pseudo_complexes
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    face_classes_shape,
    fresh,
    outcome,
    reference_balanced_coloring,
    reference_derived_gluings,
    reference_from_glued,
    reference_lsc_witness,
    reference_odd_subcomplex,
    reference_shape,
    reference_pseudo_manifold,
    reference_vertex_classes,
)

from unfolder import cli
from unfolder.complexes import (
    AbstractComplex,
    FaceClasses,
    Gluing,
    PseudoComplex,
    _roots,
    as_pseudo,
    is_simplicial,
    vertex_classes,
)
from unfolder.diagnostics import (
    balanced_coloring,
    euler_characteristic,
    is_locally_strongly_connected,
    is_pseudo_manifold,
    odd_subcomplex,
)
from unfolder.errors import SelfIdentification
from unfolder.gallery import boundary_simplex, knot_neighborhood, pinched_strip
from unfolder.io import emit
from unfolder.projectivities import star_group
from unfolder.subdivisions import antiprismatic, barycentric, iterate

CASES = named_cases()
IDS = [name for name, _x in CASES]


@pytest.mark.parametrize("x", [x for _name, x in CASES], ids=IDS)
def test_classes_gluings_and_slot_scans_match_the_references(x):
    y = fresh(x)
    assert face_classes_shape(y.classes()) == reference_shape(x)
    if isinstance(x, AbstractComplex):
        assert y.derived_gluings() == reference_derived_gluings(x)
        # as_pseudo does not check the derived gluings again
        P = as_pseudo(x)
        assert P == PseudoComplex(x.dim, x.facet_count, x.derived_gluings())
        assert face_classes_shape(P.classes()) == reference_shape(P)
        assert vertex_classes(P) == reference_vertex_classes(P)
    else:
        assert vertex_classes(y) == reference_vertex_classes(x)
    for got, want in slot_scans_and_references(y, x):
        assert got == want


def test_class_of_answers_as_the_reference_dict_did():
    for x in (boundary_simplex(3), as_pseudo(iterate(barycentric, boundary_simplex(2), 1))):
        classes = x.classes()
        by_ref = {ref: cid for cid in range(classes.count) for ref in classes.members_of(cid)}
        assert {ref: classes.class_of(ref) for ref in by_ref} == by_ref
        for bad in ((-1, (0,)), (x.facet_count, (0,)), (0, (0, 0)), (0, (9,))):
            with pytest.raises(KeyError):
                classes.class_of(bad)


@settings(max_examples=300, deadline=None)
@given(pseudo_complexes())
def test_random_pseudo_complexes_match_the_reference(P):
    args = (P.dim, P.facet_count, P.gluings)
    assert outcome(FaceClasses.from_glued, *args) == outcome(reference_from_glued, *args)
    assert outcome(vertex_classes, fresh(P)) == outcome(reference_vertex_classes, P)


def test_self_identification_names_the_reference_faces():
    # two gluings of the same pair of copies that disagree identify vertices
    bad = PseudoComplex(
        2,
        3,
        (
            Gluing(0, (0, 1), 1, (0, 1), (0, 1)),
            Gluing(0, (1, 2), 1, (0, 1), (0, 1)),
            Gluing(1, (0, 2), 2, (0, 2), (2, 0)),
        ),
    )
    got = outcome(FaceClasses.from_glued, bad.dim, bad.facet_count, bad.gluings)
    assert got[0] is SelfIdentification
    assert got == outcome(reference_from_glued, bad.dim, bad.facet_count, bad.gluings)
    assert outcome(vertex_classes, bad) == outcome(reference_vertex_classes, bad)


@settings(max_examples=150, deadline=None)
@given(abstract_complexes())
def test_random_abstract_complexes_match_the_reference(K):
    got = FaceClasses.from_abstract(K.facets, K.dim)
    assert face_classes_shape(got) == reference_shape(K)
    assert K.derived_gluings() == reference_derived_gluings(K)
    P = as_pseudo(K)
    assert P == PseudoComplex(K.dim, K.facet_count, K.derived_gluings())
    assert vertex_classes(P) == reference_vertex_classes(P)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_roots_are_the_smallest_slot_of_each_networkx_component(data):
    n = data.draw(st.integers(1, 40))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pairs)
    want = [0] * n
    for comp in nx.connected_components(g):
        for v in comp:
            want[v] = min(comp)
    assert _roots(n, pairs) == want


def slot_scans_and_references(y, x):
    """(library, reference) outcome pairs of the four slot-scan readers, the
    library's on `y`, a copy of `x` that has decided nothing yet; the odd
    subcomplex goes first, so that it decides local strong connectivity
    itself."""
    return [
        (outcome(odd_subcomplex, y), outcome(reference_odd_subcomplex, x)),
        (outcome(is_locally_strongly_connected, y), outcome(reference_lsc_witness, x)),
        (outcome(balanced_coloring, y), outcome(reference_balanced_coloring, x)),
        (outcome(is_pseudo_manifold, y), outcome(reference_pseudo_manifold, x)),
    ]


@settings(max_examples=300, deadline=None)
@given(st.one_of(pseudo_complexes(), abstract_complexes()))
def test_slot_scans_match_the_references_on_random_complexes(x):
    for got, want in slot_scans_and_references(fresh(x), x):
        assert got == want


def branched_classes(x):
    """The codimension-2 classes in a ridge class that three or more copies
    hold."""
    if is_pseudo_manifold(x) != "no":
        return []
    classes, d = x.classes(), x.dim
    return [
        cid
        for cid in classes.classes_of_card(d - 1)
        if any(
            classes.sizes[classes.class_of((f, tuple(sorted((*s, a)))))] >= 3
            for f, s in classes.members_of(cid)
            for a in range(d + 1)
            if a not in s
        )
    ]


def test_the_corpus_has_negative_and_odd_cases():
    lsc = [is_locally_strongly_connected(x)[0] for _name, x in CASES]
    assert lsc.count(False) >= 5
    assert sum(ok and not odd_subcomplex(x).is_empty for (_n, x), ok in zip(CASES, lsc)) >= 20
    # a branched link is decided by its star group, not by parity: the corpus
    # must hold branched classes that are odd and branched classes that are not
    odd_branched = even_branched = 0
    for (_n, x), ok in zip(CASES, lsc):
        if ok:
            branched = set(branched_classes(x))
            odd = branched.intersection(odd_subcomplex(x).odd_faces)
            assert odd == {c for c in branched if star_group(x, c).order > 1}
            odd_branched += bool(odd)
            even_branched += bool(branched - odd)
    assert odd_branched >= 8
    assert even_branched >= 3


def test_counts_and_first_members_build_no_member_tuple(monkeypatch, capsys, tmp_path):
    def refuse(classes):
        raise AssertionError("class -> slot index built")

    monkeypatch.setattr(FaceClasses, "by_class", property(refuse))
    klein = knot_neighborhood(3, "klein").complex
    for x in (boundary_simplex(3), klein, pinched_strip()):
        path = tmp_path / "x.json"
        path.write_text(emit(x))
        assert cli.main(["analyze", str(path)]) == 0
        assert "odd subcomplex: " in capsys.readouterr().out
    assert is_simplicial(as_pseudo(antiprismatic(boundary_simplex(3)).result)) == (True, None)
    assert euler_characteristic(antiprismatic(klein).result) == 0
