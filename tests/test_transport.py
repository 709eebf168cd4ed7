"""Orientability and balancedness are read off the projectivity search.

The references in `oracles` are the propagation versions of `orientable`
and `balanced_coloring`: each walks the dual graph on its own, one with a
sign per gluing from the ridge data, the other with a coloring per facet
and a final scan of every gluing.  The library must give the same result,
exception type and message.  This keeps check `diag-01`'s "balanced <=>
trivial group" tied to a computation that does not use the group.
"""

import pytest
from corpus import named_cases, pseudo_complexes
from hypothesis import given, settings
from oracles import (
    dual_components,
    fresh,
    outcome,
    reference_balanced_coloring,
    reference_orientable,
)

from unfolder import cli, complexes, diagnostics, permutations, projectivities, unfoldings
from unfolder.complexes import Gluing, PseudoComplex, as_pseudo
from unfolder.diagnostics import balanced_coloring, odd_subcomplex, orientable
from unfolder.errors import NotStronglyConnected
from unfolder.gallery import boundary_simplex, knot_neighborhood
from unfolder.io import emit
from unfolder.permutations import perm_compose, perm_inverse
from unfolder.projectivities import odd_generated_subgroup, projectivity_group, star_group
from unfolder.subdivisions import barycentric
from unfolder.unfoldings import partial_unfolding


def assert_agrees(x):
    """Result, exception type and message equal the references', on fresh
    instances and with both calls on one instance."""
    want_o = outcome(reference_orientable, x)
    want_b = outcome(reference_balanced_coloring, x)
    assert outcome(orientable, fresh(x)) == want_o
    assert outcome(balanced_coloring, fresh(x)) == want_b
    # both orders on one instance, so a kept search answers the second
    y = fresh(x)
    assert (outcome(balanced_coloring, y), outcome(orientable, y)) == (want_b, want_o)


def negatives(x):
    return not reference_orientable(x), len(dual_components(x)) > 1


TRANSPORT_CASES = named_cases()


@pytest.mark.parametrize("name, x", TRANSPORT_CASES, ids=[n for n, _x in TRANSPORT_CASES])
def test_orientable_and_balanced_match_the_propagation_reference(name, x):
    assert_agrees(x)


def test_random_pseudo_complexes_match_the_propagation_reference():
    tally = [negatives(x) for _name, x in TRANSPORT_CASES]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pseudo_complexes())
    def check(P):
        assert_agrees(P)
        tally.append(negatives(P))

    check()
    # the corpus, fixed cases and random ones, must exercise both negatives
    assert sum(n for n, _d in tally) >= 10
    assert sum(d for _n, d in tally) >= 10


def _count_crossings(monkeypatch):
    """Record every read of a gluing's steps, the one seam a crossing passes:
    `perspectivity` reads `_steps` too, so it is counted through it."""
    calls = []
    real = complexes._steps

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, complexes, diagnostics, projectivities, unfoldings):
        if hasattr(module, "_steps"):
            monkeypatch.setattr(module, "_steps", counted)
    return calls


def two_copies(P):
    n = P.facet_count
    shifted = tuple(
        Gluing(g.facet_a + n, g.ridge_a, g.facet_b + n, g.ridge_b, g.mapping) for g in P.gluings
    )
    return PseudoComplex(P.dim, 2 * n, P.gluings + shifted)


@pytest.mark.parametrize("kind", ["abstract", "pseudo", "disconnected"])
def test_analyze_crosses_each_gluing_once(kind, monkeypatch, capsys, tmp_path):
    x = boundary_simplex(3)
    if kind != "abstract":
        x = as_pseudo(x)
    if kind == "disconnected":
        x = two_copies(x)
    doc = tmp_path / "x.json"
    doc.write_text(emit(x))
    calls = _count_crossings(monkeypatch)
    assert cli.main(["analyze", str(doc)]) == 0
    out = capsys.readouterr().out
    assert "orientable: yes" in out
    assert ("balanced: n/a" if kind == "disconnected" else "balanced: no") in out
    assert len(calls) == len(x.gluings)


def test_the_search_is_kept_per_base():
    x = boundary_simplex(3)
    for base in (0, 2):
        assert projectivity_group(x, base) is projectivity_group(x, base)
    assert projectivity_group(x, 0) is not projectivity_group(x, 2)


def test_a_kept_search_refuses_a_disconnected_complex_on_every_call():
    x = PseudoComplex(1, 4, (Gluing(0, (0,), 2, (1,), (1,)),))
    message = r"^facets \[1, 3\] are not reachable from 0$"
    kept = []
    for _ in range(3):
        with pytest.raises(NotStronglyConnected, match=message):
            projectivity_group(x)
        kept.append(x.__dict__["_memo_projectivity_group"][0])
    # one search forest, kept and read again by each refusing call
    assert kept[0].reached == (0, 2, 1, 3)
    assert kept[0].roots == (0, 1, 0, 3)
    assert kept[1] is kept[0] and kept[2] is kept[0]


def refuse(*args):
    raise AssertionError("a group was closed")


def test_no_group_is_closed_where_none_is_read(monkeypatch, capsys, tmp_path):
    """A group is closed where its order is read: `analyze` on a
    disconnected complex and a partial unfolding read none."""
    monkeypatch.setattr(permutations, "closure", refuse)
    doc = tmp_path / "x.json"
    doc.write_text(emit(two_copies(as_pseudo(boundary_simplex(3)))))
    assert cli.main(["analyze", str(doc)]) == 0
    assert "Pi order: n/a (dual graph disconnected)" in capsys.readouterr().out
    u = partial_unfolding(boundary_simplex(8))
    assert len(u.component_partition) == 1
    with pytest.raises(AssertionError, match="a group was closed"):
        projectivity_group(boundary_simplex(3)).group.order


def test_generators_alone_answer_without_closing(monkeypatch):
    """Triviality, a change of base and the odd subgroup read the generators
    alone; each answer is then checked against the closed groups."""
    monkeypatch.setattr(permutations, "closure", refuse)
    assert balanced_coloring(barycentric(boundary_simplex(3)).result) is not None
    x = knot_neighborhood(3, "klein").complex
    trivial = [star_group(x, c).is_trivial for c in range(x.classes().count)]
    # each odd class's star group, carried to facet 0, in the odd subcomplex's order
    odd_gens = odd_generated_subgroup(x).generators
    pg, first_ref = projectivity_group(x), x.classes().first_ref
    at_base = [
        star_group(x, c).conjugated(perm_inverse(pg.transport_to(first_ref(c)[0])))
        for c in odd_subcomplex(x).odd_faces
    ]
    assert odd_gens == tuple(p for group in at_base for p in group.generators)
    y = boundary_simplex(3)
    pg = projectivity_group(y)
    t = pg.transport_to(y.facet_count - 1)
    moved = pg.group.conjugated(t)
    want = [perm_compose(perm_compose(perm_inverse(t), g), t) for g in pg.group.generators]
    assert list(moved.generators) == want
    monkeypatch.undo()
    assert trivial == [star_group(x, c).order == 1 for c in range(x.classes().count)]
    assert trivial.count(False) == 6
    assert odd_subcomplex(x).odd_faces == (26, 69, 80) and len(odd_gens) == 3
    assert moved.elements == projectivity_group(y, y.facet_count - 1).group.elements
