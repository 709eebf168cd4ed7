"""Colorings, odd faces, manifold checks and isomorphism search."""

import pytest
from oracles import reference_odd_subcomplex

from unfolder.complexes import AbstractComplex
from unfolder.diagnostics import (
    ProjectionConstraint,
    balanced_coloring,
    euler_characteristic,
    is_nice,
    is_pseudo_manifold,
    isomorphic,
    mod2_boundary_check,
    odd_subcomplex,
    orientable,
)
from unfolder.errors import NotLocallyStronglyConnected
from unfolder.gallery import (
    boundary_simplex,
    hexagon_cone,
    nonsimplicial_unfolding_example,
    pinched_strip,
    starred_triangle,
    surface_family,
)
from unfolder.unfoldings import complete_unfolding, partial_unfolding


def test_balanced_coloring_found_and_proper():
    K = hexagon_cone()
    coloring = balanced_coloring(K)
    assert coloring is not None
    classes = K.classes()
    for cid_a in classes.classes_of_card(1):
        for cid_b in classes.classes_of_card(1):
            if cid_a < cid_b and any(
                set(classes.vertex_classes_of(e)) == {cid_a, cid_b}
                for e in classes.classes_of_card(2)
            ):
                assert coloring[cid_a] != coloring[cid_b]


def test_odd_subcomplex_needs_connected_stars():
    with pytest.raises(NotLocallyStronglyConnected):
        odd_subcomplex(pinched_strip())


def test_link_graph_parity():
    # the apex's link is a triangle, a rim vertex's a path, and a ridge has
    # no link graph: its link has dimension 0
    K = starred_triangle()
    classes = K.classes()
    center = classes.class_of((0, (2,)))
    rim = classes.class_of((0, (0,)))
    edge = classes.class_of((0, (0, 1)))
    odd, _complex = reference_odd_subcomplex(K)
    assert center in odd and rim not in odd and edge not in odd
    assert odd_subcomplex(K).odd_faces == odd


def test_pseudo_manifold_census():
    assert is_pseudo_manifold(boundary_simplex(3)) == "closed"
    assert is_pseudo_manifold(starred_triangle()) == "with-boundary"
    three_at_an_edge = AbstractComplex.from_facets(
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    )
    assert is_pseudo_manifold(three_at_an_edge) == "no"


def test_mod2_boundary_positive():
    K = boundary_simplex(3)
    odd = odd_subcomplex(K)
    ok, chain = mod2_boundary_check(K, odd.as_complex)
    assert ok
    # the witness chain really has the four vertices as its mod-2 boundary
    degree = {v: 0 for v in K.vertices()}
    for edge in chain:
        for v in edge:
            degree[v] += 1
    assert all(d % 2 == 1 for d in degree.values())


def test_mod2_boundary_negative():
    K = boundary_simplex(3)
    ok, chain = mod2_boundary_check(K, [(0,)])  # a single vertex never bounds
    assert not ok and chain is None


def test_isomorphic_finds_relabelings():
    A = boundary_simplex(3)
    B = AbstractComplex.from_facets(
        [(10, 11, 12), (10, 11, 13), (10, 12, 13), (11, 12, 13)]
    )
    w = isomorphic(A, B)
    assert w is not None
    assert sorted(w.facet_map) == [0, 1, 2, 3]


def test_isomorphic_rejects_different_complexes():
    assert isomorphic(boundary_simplex(3), starred_triangle()) is None
    assert isomorphic(starred_triangle(), hexagon_cone()) is None


def test_isomorphic_respects_projection_constraints():
    T = starred_triangle()
    u = complete_unfolding(T)
    same = ProjectionConstraint.identity_on(u.projection, T.dim + 1)
    w = isomorphic(u.total, u.total, constraints=(same, same))
    assert w is not None
    for f, t in enumerate(w.facet_map):
        assert u.projection[f] == u.projection[t]


def test_facet_map_of_witness_is_a_bijection():
    A = boundary_simplex(3)
    B = AbstractComplex.from_facets(
        [(4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]
    )
    w = isomorphic(A, B)
    assert sorted(w.facet_map) == list(range(B.facet_count))


def test_is_nice_examples():
    assert is_nice(boundary_simplex(3))
    assert is_nice(starred_triangle())
    assert not is_nice(nonsimplicial_unfolding_example())


def test_pinched_strip_regression_triple():
    from unfolder.projectivities import projectivity_group
    from unfolder.unfoldings import projects_isomorphically

    K = pinched_strip()
    assert projectivity_group(K).group.is_trivial
    assert balanced_coloring(K) is None
    assert not projects_isomorphically(complete_unfolding(K).total, K)
    assert not projects_isomorphically(partial_unfolding(K).total, K)


def test_surfaces_are_closed_and_orientable():
    for g in range(3):
        P = surface_family(g)
        assert is_pseudo_manifold(P) == "closed"
        assert orientable(P)
        # each family member is a pinched sphere; the genus shows up upstairs
        assert euler_characteristic(P) == 2
        assert euler_characteristic(complete_unfolding(P).total) == 2 - 2 * g
