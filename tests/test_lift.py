"""Both unfoldings are one lift: the kernel against the two separate loops.

`reference_complete` and `reference_partial` in `oracles` are the lifting
loops each unfolding used to run on its own.  The shared `_lift` must give
the same totals (gluing for gluing, in order), projections and labels.
"""

import pytest
from corpus import gallery_cases, pseudo_complexes
from hypothesis import given, settings
from oracles import dual_components, reference_complete, reference_partial

from unfolder import complexes, diagnostics, permutations, projectivities, unfoldings
from unfolder.cli import main
from unfolder.complexes import MAX_CLOSURE_SLOTS, PseudoComplex, check_size, max_copies
from unfolder.errors import BadParameter
from unfolder.gallery import boundary_simplex, knot_neighborhood
from unfolder.io import emit, emit_unfolding, parse_document
from unfolder.projectivities import projectivity_group
from unfolder.unfoldings import complete_unfolding, components, partial_unfolding


CASES = gallery_cases() + [
    (f"knot-nbhd:4:{variant}", knot_neighborhood(4, variant).complex)
    for variant in ("orientable", "klein")
]


@pytest.mark.parametrize("name, x", CASES, ids=[n for n, _x in CASES])
def test_both_unfoldings_match_the_separate_lifting_loops(name, x):
    u = partial_unfolding(x)
    assert (u.total, u.projection, u.labels) == reference_partial(x)
    assert u.component_partition == dual_components(u.total)
    for base in sorted({0, x.facet_count // 2}):
        u = complete_unfolding(x, base)
        assert (u.total, u.projection, u.labels) == reference_complete(x, base), base
        assert u.group is projectivity_group(x, base)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pseudo_complexes())
def test_orbit_parts_are_the_components_of_the_total(P):
    assert unfoldings._orbit_parts(P) == dual_components(partial_unfolding(P).total)


def test_the_partial_unfolding_runs_no_search(monkeypatch):
    """Its components come from the gluings' steps, so the unfolding, its
    components and its document read no search of the base."""
    x = knot_neighborhood(3, "klein").complex
    u = partial_unfolding(x)
    comps = components(u)
    want = (u.component_partition, comps, emit_unfolding(u, comps))
    assert len(comps) == 2

    def refuse(*args):
        raise AssertionError("a search of the dual graph ran")

    for module in (diagnostics, projectivities, unfoldings):
        if hasattr(module, "_search"):
            monkeypatch.setattr(module, "_search", refuse)
    fresh = PseudoComplex(x.dim, x.facet_count, x.gluings)
    u = partial_unfolding(fresh)
    comps = components(u)
    assert (u.component_partition, comps, emit_unfolding(u, comps)) == want


def complete_refusal(x):
    """The complete unfolding's refusal of a group with more elements than
    `max_copies`: the size check's, for one copy more of each facet."""
    with pytest.raises(BadParameter) as refusal:
        check_size(x.dim, x.facet_count * (max_copies(x.dim, x.facet_count) + 1), at_least=True)
    assert str(refusal.value).startswith("face closure of at least ")
    return str(refusal.value)


TOO_LARGE = [
    # 2000 copies of dim 8 pass the parser (1022000 slots); 9 each do not
    (
        "partial",
        PseudoComplex(8, 2000, ()),
        f"face closure of {2000 * 9 * 511} slots is above the limit {MAX_CLOSURE_SLOTS}",
    ),
    # 8 facets of dim 6 take 1016 slots a copy, so at most 1032 of the 5040
    # elements of S7
    ("complete", boundary_simplex(7), complete_refusal(boundary_simplex(7))),
]


@pytest.mark.parametrize("mode, x, text", TOO_LARGE, ids=[m for m, _x, _t in TOO_LARGE])
def test_the_lift_refuses_a_total_above_the_closure_bound(
    mode, x, text, capsys, monkeypatch, tmp_path
):
    path = tmp_path / "x.json"
    path.write_text(emit(x))

    def refuse(*args):
        raise AssertionError("a lifted gluing was built")

    monkeypatch.setattr(unfoldings, "Gluing", refuse)
    unfold = partial_unfolding if mode == "partial" else complete_unfolding
    with pytest.raises(BadParameter, match=f"^{text}$"):
        unfold(x)
    assert main(["unfold", "--mode", mode, str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {text}\n")


def test_the_complete_unfolding_stops_closing_a_group_past_the_slot_limit(
    capsys, monkeypatch, tmp_path
):
    # S9 acts on the 10 facets of the 8-simplex's boundary, 511 slots each:
    # at most 205 copies of each facet fit, so the closure may build at most
    # 206 elements, each with one product per generator, before the refusal
    x = boundary_simplex(9)
    path = tmp_path / "x.json"
    path.write_text(emit(x))
    products = []
    real_compose = permutations.perm_compose
    monkeypatch.setattr(
        permutations, "perm_compose", lambda p, q: products.append(p) or real_compose(p, q)
    )
    assert main(["unfold", "--mode", "complete", str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {complete_refusal(x)}\n")
    generators = len(projectivity_group(parse_document(path.read_text()).complex).loops)
    assert 0 < len(products) <= 206 * generators


def test_the_complete_unfolding_closes_the_group_once(monkeypatch):
    calls = []
    real_closure = permutations.closure
    monkeypatch.setattr(permutations, "closure", lambda *a: calls.append(a) or real_closure(*a))
    x = knot_neighborhood(5, "klein").complex
    u = complete_unfolding(x)
    assert u.group.group.order == u.width == 4 and len(calls) == 1
    # a refused group is not kept: read in full, it is closed again
    y = boundary_simplex(4)
    monkeypatch.setattr(complexes, "MAX_CLOSURE_SLOTS", 5 * 15 * 23)
    assert max_copies(y.dim, y.facet_count) == 23
    with pytest.raises(BadParameter, match=f"^face closure of at least {5 * 15 * 24} slots "):
        complete_unfolding(y)
    assert projectivity_group(y).group.order == 24 and len(calls) == 3
