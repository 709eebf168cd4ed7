"""Complete and partial unfoldings, their components and fiber structure."""

import time

import pytest
from oracles import dual_components, reference_components, reference_containing

from unfolder import unfoldings
from unfolder.complexes import Gluing, PseudoComplex
from unfolder.diagnostics import (
    euler_characteristic,
    is_pseudo_manifold,
    is_strongly_connected,
    isomorphic,
    odd_subcomplex,
    orientable,
)
from unfolder.errors import BadParameter, BaseNotNice, NotAFace
from unfolder.gallery import (
    boundary_simplex,
    cycle_graph,
    gallery_entries,
    hexagon_cone,
    knot_neighborhood,
    starred_triangle,
    torus_z3,
)
from unfolder.projectivities import projectivity_group
from unfolder.unfoldings import (
    branch_locus_counts,
    branching_index,
    complete_unfolding,
    component_of,
    components,
    composition_tower,
    fibers_over,
    partial_unfolding,
    projects_isomorphically,
)


@pytest.fixture(scope="module")
def tetra_hat():
    return complete_unfolding(boundary_simplex(3))


@pytest.fixture(scope="module")
def tetra_tilde():
    return partial_unfolding(boundary_simplex(3))


def test_complete_unfolding_size_and_projection(tetra_hat):
    u = tetra_hat
    assert u.kind == "complete"
    assert u.total.facet_count == 24  # 4 facets x group order 6
    assert u.width == 6
    assert len(u.projection) == 24
    for i, f in enumerate(u.projection):
        assert f == i // 6
        assert u.labels[i][0] == f
    # each copy of a base facet carries a distinct admissible coloring
    for f in range(4):
        colorings = {u.labels[i][1] for i in range(f * 6, (f + 1) * 6)}
        assert len(colorings) == 6


def test_complete_unfolding_is_a_closed_orientable_surface(tetra_hat):
    total = tetra_hat.total
    assert is_pseudo_manifold(total) == "closed"
    assert orientable(total)
    assert euler_characteristic(total) == 0
    assert is_strongly_connected(total)
    assert projectivity_group(total).group.is_trivial


def test_branch_census_over_tetrahedron_vertices(tetra_hat):
    census = branch_locus_counts(tetra_hat)
    assert len(census) == 4  # every vertex of the base is odd
    for fiber in census.values():
        assert len(fiber) == 3
        assert all(index == 2 for _cid, index in fiber)


def test_even_fibers_carry_index_one(tetra_hat):
    u = tetra_hat
    odd = set(odd_subcomplex(u.base).odd_faces)
    for cid, fiber in fibers_over(u).items():
        if cid not in odd:
            assert all(branching_index(u, cc) == 1 for cc in fiber)


def test_partial_unfolding_structure(tetra_tilde):
    u = tetra_tilde
    assert u.kind == "partial"
    assert u.total.facet_count == 12  # 4 facets x 3 local vertices
    comps = components(u)
    assert len(comps) == 1
    total = comps[0].complex
    assert total.facet_count == 12
    counts = total.classes().counts_by_dim()
    assert counts[0] == 8
    degrees = sorted(
        len(total.classes().members_of(cid))
        for cid in total.classes().classes_of_card(1)
    )
    assert degrees == [3, 3, 3, 3, 6, 6, 6, 6]
    assert euler_characteristic(total) == 2
    assert is_pseudo_manifold(total) == "closed"
    assert orientable(total)


def test_two_fold_cover_fibers_over_odd_vertices(tetra_tilde):
    u = tetra_tilde
    odd = set(odd_subcomplex(u.base).odd_faces)
    assert len(odd) == 4
    for cid in odd:
        indices = sorted(branching_index(u, cc) for cc in fibers_over(u)[cid])
        assert indices == [1, 2]


def test_branching_index_refuses_a_class_outside_the_total(tetra_tilde):
    count = tetra_tilde.total.classes().count
    for cid in (-1, count):
        with pytest.raises(NotAFace, match=f"^no face class {cid}$"):
            branching_index(tetra_tilde, cid)
    assert branching_index(tetra_tilde, count - 1) >= 1


def test_unfolding_base_must_exist():
    with pytest.raises(Exception):
        complete_unfolding(boundary_simplex(3), base=7)


def test_partial_unfolding_of_starred_triangle_splits():
    T = starred_triangle()
    u = partial_unfolding(T)
    comps = components(u)
    assert sorted(c.complex.facet_count for c in comps) == [3, 6]
    small = min(comps, key=lambda c: c.complex.facet_count)
    big = max(comps, key=lambda c: c.complex.facet_count)
    assert isomorphic(small.complex, T) is not None
    assert isomorphic(big.complex, hexagon_cone()) is not None


def test_component_count_equals_orbit_count():
    for make in (starred_triangle, torus_z3, lambda: cycle_graph(4)):
        x = make()
        pg = projectivity_group(x)
        assert len(dual_components(partial_unfolding(x).total)) == len(pg.group.orbits())


def test_component_of_agrees_with_partition():
    u = partial_unfolding(starred_triangle())
    for members in u.component_partition:
        assert component_of(u, members) == reference_containing(u, members[0])


@pytest.mark.parametrize("unfold", [partial_unfolding, complete_unfolding])
def test_a_one_part_unfolding_is_its_own_component(unfold):
    u = unfold(boundary_simplex(3))
    (comp,) = components(u)
    assert comp.complex is u.total
    assert (comp.projection, comp.labels) == (u.projection, u.labels)


def test_a_complete_unfolding_has_no_proper_component():
    u = complete_unfolding(boundary_simplex(3))
    with pytest.raises(BadParameter, match="one component"):
        component_of(u, (0, 1))


def test_components_are_lifted_without_the_totals_incidence_index():
    u = partial_unfolding(knot_neighborhood(4, "klein").complex)
    comps = components(u)
    assert len(comps) == 3
    assert "_memo_dual_graph" not in u.total.__dict__
    assert [c.complex for c in comps] == reference_components(u)


def test_components_of_many_small_parts_take_linear_time():
    # 2000 circles of two edges glued at both ends: 4000 parts of two copies
    gluings = tuple(Gluing(2 * c, (v,), 2 * c + 1, (v,), (v,)) for c in range(2000) for v in (0, 1))
    u = partial_unfolding(PseudoComplex(1, 4000, gluings))
    start = time.process_time()
    comps = components(u)
    assert time.process_time() - start < 1.0
    assert len(comps) == 4000
    assert comps[-1].complex == PseudoComplex(1, 2, gluings[:2])


@pytest.mark.parametrize("make", [starred_triangle, lambda: boundary_simplex(3)])
def test_each_tower_stage_is_the_lift_of_the_seeds_orbit(make, monkeypatch):
    calls = []
    real = unfoldings._lift

    def record(x, width, image, members=None):
        calls.append((x, width, members))
        return real(x, width, image, members)

    monkeypatch.setattr(unfoldings, "_lift", record)
    x = make()
    tower = composition_tower(x)
    monkeypatch.undo()
    *lifts, (_root, _order, whole) = calls
    assert whole is None  # only the complete unfolding lifts a whole total
    assert len(lifts) == len(tower.stages) == x.dim + 1
    previous, seed = x, tower.base
    for (base, width, members), v, stage in zip(lifts, tower.vertex_order, tower.stages):
        u = partial_unfolding(previous)
        assert base is previous and width == x.dim + 1
        assert members in u.component_partition
        assert members[stage.seed] == seed * width + v
        ref = reference_containing(u, members[stage.seed])
        assert (stage.complex, stage.to_previous) == (ref.complex, ref.projection)
        previous, seed = stage.complex, stage.seed
    if make is starred_triangle:
        assert len(lifts[0][2]) < x.facet_count * (x.dim + 1)


def test_even_cycle_partial_unfolding_gives_two_copies():
    C = cycle_graph(6)
    u = partial_unfolding(C)
    comps = components(u)
    assert len(comps) == 2
    for comp in comps:
        assert isomorphic(comp.complex, C) is not None


def test_odd_cycle_complete_unfolding_is_a_double_cover():
    C = cycle_graph(5)
    u = complete_unfolding(C)
    assert u.total.facet_count == 10
    assert is_strongly_connected(u.total)


def test_projects_isomorphically_only_for_trivial_groups():
    cone, star = hexagon_cone(), starred_triangle()
    assert projects_isomorphically(complete_unfolding(cone).total, cone)
    assert not projects_isomorphically(complete_unfolding(star).total, star)


@pytest.mark.parametrize("entry", gallery_entries(), ids=lambda e: e.name)
def test_complete_unfolding_has_a_trivial_group(entry):
    u = complete_unfolding(entry.complex)
    assert projectivity_group(u.total).group.is_trivial
    last = u.total.facet_count - 1
    assert projectivity_group(u.total, last).group.is_trivial


def test_composition_tower_reaches_the_complete_unfolding():
    tower = composition_tower(boundary_simplex(3))
    assert len(tower.stages) == 3
    assert tower.final.facet_count == 24
    assert tower.witness is not None
    # the witness respects both projections to the root
    for f, t in enumerate(tower.witness.facet_map):
        assert tower.final_to_root[f] == tower.complete.projection[t]


def test_composition_tower_on_odd_cycle():
    tower = composition_tower(cycle_graph(5))
    assert len(tower.stages) == 2
    assert tower.final.facet_count == 10


def test_branch_census_requires_a_nice_base():
    from unfolder.gallery import nonsimplicial_unfolding_example

    u = complete_unfolding(nonsimplicial_unfolding_example())
    with pytest.raises(BaseNotNice):
        branch_locus_counts(u)
