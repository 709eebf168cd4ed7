"""Walks between facets and the groups they generate."""

import pytest
from oracles import carried

from unfolder.complexes import FacetPath, as_pseudo, path_from_facets
from unfolder.errors import DegenerateMap, NotAFacet
from unfolder.gallery import (
    boundary_simplex,
    cycle_graph,
    gallery_entries,
    knot_neighborhood,
    starred_triangle,
    torus_z3,
)
from unfolder.permutations import perm_compose, perm_identity, perm_inverse
from unfolder.projectivities import (
    induced_homomorphism_check,
    loop_projectivity,
    odd_generated_subgroup,
    path_projectivity,
    projectivity_group,
    star_group,
)
from unfolder.subdivisions import antiprismatic, crumpling_map
from unfolder.unfoldings import complete_unfolding


def test_path_projectivity_on_a_triangle_cycle():
    C = cycle_graph(3)
    loop = path_from_facets(C, (0, 1, 2, 0))
    assert loop_projectivity(C, loop) == (1, 0)  # odd cycle flips the edge


def test_even_cycle_loop_is_identity():
    C = cycle_graph(4)
    ring = [C.facet_id(e) for e in ((0, 1), (1, 2), (2, 3), (0, 3), (0, 1))]
    loop = path_from_facets(C, ring)
    assert loop_projectivity(C, loop) == (0, 1)


def test_path_projectivity_composes():
    K = boundary_simplex(3)
    p = path_from_facets(K, (0, 1, 3))
    first = path_from_facets(K, (0, 1))
    second = path_from_facets(K, (1, 3))
    assert path_projectivity(K, p) == perm_compose(
        path_projectivity(K, first), path_projectivity(K, second)
    )


def test_loop_projectivity_requires_a_loop():
    K = boundary_simplex(3)
    not_loop = path_from_facets(K, (0, 1))
    with pytest.raises(Exception):
        loop_projectivity(K, not_loop)


def test_transports_start_at_identity_and_land_correctly():
    K = boundary_simplex(3)
    pg = projectivity_group(K, base=2)
    assert pg.base == 2
    assert pg.transport_to(2) == perm_identity(3)
    for f in range(4):
        t = pg.transport_to(f)
        assert sorted(t) == [0, 1, 2]
    with pytest.raises(NotAFacet):
        pg.transport_to(9)


def test_base_change_is_conjugation():
    K = torus_z3()
    pg0 = projectivity_group(K, 0)
    pg1 = projectivity_group(K, 5)
    t = pg0.transport_to(5)
    ti = perm_inverse(t)
    assert {perm_compose(perm_compose(ti, g), t) for g in pg0.group.elements} == set(
        pg1.group.elements
    )


@pytest.mark.parametrize("e", gallery_entries(), ids=lambda e: e.name)
def test_every_base_change_is_the_group_conjugated_by_the_transport(e):
    x = e.complex
    pg0 = projectivity_group(x)
    for f in range(x.facet_count):
        t = pg0.transport_to(f)
        moved = pg0.group.conjugated(t)
        assert moved.elements == projectivity_group(x, f).group.elements
        assert moved.degree == pg0.group.degree
        assert moved.generators == tuple((carried(g, t), tag) for g, tag in pg0.group.generators)


@pytest.mark.parametrize("facet", [99, 4, -1])
def test_a_walk_from_no_facet_is_refused(facet):
    K = boundary_simplex(3)
    nowhere = FacetPath(facet, ())
    for call in (
        lambda: path_from_facets(K, [facet]),
        lambda: nowhere.facet_sequence(K),
        lambda: nowhere.reversed(K),
        lambda: path_projectivity(K, nowhere),
        lambda: loop_projectivity(K, nowhere),
        lambda: projectivity_group(K, facet),
        lambda: complete_unfolding(K, base=facet),
    ):
        with pytest.raises(NotAFacet, match=f"^no facet {facet}$"):
            call()
    assert path_from_facets(K, [3]) == FacetPath(3, ())
    assert path_projectivity(K, FacetPath(3, ())) == perm_identity(3)


def test_star_group_of_odd_vertex():
    T = starred_triangle()
    classes = T.classes()
    center = classes.class_of((0, (2,)))  # vertex 3 sits last in facet (0, 1, 3)
    sg = star_group(T, center)
    assert sg.order == 2


def test_star_group_of_interior_edge_is_trivial():
    T = starred_triangle()
    classes = T.classes()
    edge = classes.class_of((0, (1, 2)))
    assert star_group(T, edge).order == 1


def test_odd_generated_subgroup_recovers_whole_group_on_spheres():
    K = boundary_simplex(3)
    sub = odd_generated_subgroup(K)
    pg = projectivity_group(K)
    assert sub.order == pg.group.order == 6


def test_odd_generated_subgroup_proper_on_torus():
    K = torus_z3()
    sub = odd_generated_subgroup(K)
    assert sub.is_trivial  # no odd faces, yet the group has order 3
    assert projectivity_group(K).group.order == 3


def test_meridian_is_a_transposition():
    kn = knot_neighborhood(2)
    assert loop_projectivity(kn.complex, kn.meridian_loop) == (1, 0, 2, 3)


def test_induced_homomorphism_accepts_the_crumpling_map():
    K = starred_triangle()
    rec = antiprismatic(K)
    assert induced_homomorphism_check(rec.result, K, crumpling_map(rec))


def test_induced_homomorphism_rejects_collapse():
    K = starred_triangle()
    rec = antiprismatic(K)
    squash = {v: 0 for v in rec.result.vertices()}
    with pytest.raises(DegenerateMap):
        induced_homomorphism_check(rec.result, K, squash)


def test_induced_homomorphism_refuses_a_pseudo_complex_on_either_side():
    K = boundary_simplex(2)
    identity = {v: v for v in K.vertices()}
    for source, target in ((K, as_pseudo(K)), (as_pseudo(K), K)):
        with pytest.raises(DegenerateMap, match="both sides of the map must be simplicial"):
            induced_homomorphism_check(source, target, identity)
    rec = antiprismatic(knot_neighborhood(2).complex)
    with pytest.raises(DegenerateMap):
        induced_homomorphism_check(rec.result, rec.source, crumpling_map(rec))
