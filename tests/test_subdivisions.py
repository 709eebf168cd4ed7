"""Subdivision operators and their interaction with unfolding."""

import json
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from oracles import (
    carried,
    central_labels,
    reference_crumpling_group_pair,
    reference_facet_shapes,
    reference_is_simplicial,
)

from unfolder import cli
from unfolder.complexes import AbstractComplex, PseudoComplex, as_pseudo, is_simplicial
from unfolder.diagnostics import balanced_coloring, euler_characteristic
from unfolder.errors import BadParameter, NotAFacet
from unfolder.gallery import (
    boundary_simplex,
    doubled_triangle_sphere,
    gallery_entries,
    starred_triangle,
    torus_z3,
)
from unfolder.permutations import PermutationGroup
from unfolder.projectivities import projectivity_group
from unfolder.subdivisions import (
    antiprism_facet_count,
    antiprism_facet_shapes,
    antiprismatic,
    barycentric,
    crumpling_group_pair,
    crumpling_map,
    iterate,
    stellar,
    unfold_commutes_with_antiprismatic,
)


def shape_volume(shape, dim: int) -> Fraction:
    """Exact volume of one piece in the coordinate realization.

    Pair (tau, w) sits at the barycenter of tau pushed a quarter step away
    from the corner w; volumes are determinants over the rationals.
    """
    s = Fraction(1, 4)
    points = []
    for tau, w in shape:
        coord = [Fraction(0)] * (dim + 1)
        for v in tau:
            coord[v] += (1 + s) / len(tau)
        coord[w] -= s
        points.append(coord)
    rows = [
        [points[i][v] - points[0][v] for v in range(1, dim + 1)]
        for i in range(1, dim + 1)
    ]
    det = _det(rows)
    return abs(det) / factorial(dim)


def _det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


@pytest.mark.parametrize("dim", range(6))
def test_shapes_are_the_reference_search_order_included(dim):
    assert antiprism_facet_shapes(dim) == reference_facet_shapes(dim)


@pytest.mark.parametrize("dim", range(6))
def test_the_central_shape_is_the_last(dim):
    full = tuple(range(dim + 1))
    assert antiprism_facet_shapes(dim)[-1] == tuple((full, w) for w in full)
    rec = antiprismatic(AbstractComplex.from_facets([full]))
    assert rec.central_shape_index() == len(antiprism_facet_shapes(dim)) - 1


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
def test_shape_count_is_the_ordered_partition_number(dim):
    assert len(antiprism_facet_shapes(dim)) == antiprism_facet_count(dim)


def test_ordered_partition_numbers_frozen():
    # OEIS A000670, the Fubini numbers, for 1..9 points
    counts = [1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261]
    assert [antiprism_facet_count(d) for d in range(9)] == counts


@pytest.mark.parametrize("dim, count", [(1, 3), (2, 13), (3, 75)])
def test_shape_counts_frozen(dim, count):
    assert len(antiprism_facet_shapes(dim)) == count


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shapes_tile_the_simplex_exactly(dim):
    # pieces are non-degenerate and their volumes add up to the whole
    volumes = [shape_volume(s, dim) for s in antiprism_facet_shapes(dim)]
    assert all(v > 0 for v in volumes)
    simplex_rows = [
        [Fraction(int(i == v)) - Fraction(int(v == 0)) for v in range(1, dim + 1)]
        for i in range(1, dim + 1)
    ]
    whole = abs(_det(simplex_rows)) / factorial(dim)
    assert sum(volumes) == whole


def test_shapes_use_every_vertex_once():
    for dim in (1, 2, 3):
        for shape in antiprism_facet_shapes(dim):
            assert sorted(w for _tau, w in shape) == list(range(dim + 1))


def test_barycentric_counts_and_balance():
    K = boundary_simplex(3)
    rec = barycentric(K)
    assert rec.result.facet_count == 4 * 6  # facets x orderings
    counts = rec.result.classes().counts_by_dim()
    assert counts[0] == 4 + 6 + 4  # one vertex per face
    assert balanced_coloring(rec.result) is not None
    assert euler_characteristic(rec.result) == 2


def test_barycentric_of_glued_complex():
    P = doubled_triangle_sphere()
    rec = barycentric(P)
    assert rec.result.facet_count == 2 * 6
    assert balanced_coloring(rec.result) is not None


def test_stellar_replaces_one_facet():
    K = starred_triangle()
    out = stellar(K, 0)
    assert out.facet_count == K.facet_count + 2
    assert euler_characteristic(out) == euler_characteristic(K)
    with pytest.raises(Exception):
        stellar(K, 9)


def test_antiprismatic_facet_counts():
    K = starred_triangle()
    rec = antiprismatic(K)
    assert rec.result.facet_count == 3 * 13
    assert euler_characteristic(rec.result) == euler_characteristic(K)


def test_antiprismatic_of_doubled_triangle_is_simplicial():
    P = doubled_triangle_sphere()
    ok, _ = is_simplicial(P)
    assert not ok  # the input complex is not
    rec = antiprismatic(P)
    ok, _ = is_simplicial(as_pseudo(rec.result))
    assert ok  # one round of subdivision separates the doubled faces


def test_central_facets_exist_per_copy():
    K = starred_triangle()
    rec = antiprismatic(K)
    centers = {rec.central_facet(copy) for copy in range(K.facet_count)}
    assert len(centers) == 3
    with pytest.raises(BadParameter):
        barycentric(K).central_shape_index()


def test_a_facet_outside_the_record_is_not_a_facet():
    rec = antiprismatic(boundary_simplex(2))  # three edges, three shapes each
    assert rec.facet_of_copy(2, 2) == rec.central_facet(2)
    for call, message in (
        (lambda: rec.central_facet(99), "no facet of shape 2 in copy 99"),
        (lambda: rec.central_facet(-1), "no facet of shape 2 in copy -1"),
        (lambda: rec.facet_of_copy(0, 3), "no facet of shape 3 in copy 0"),
    ):
        with pytest.raises(NotAFacet, match=f"^{message}$"):
            call()


def test_cli_subdivides_three_loose_copies_of_dim_5(capsys, tmp_path):
    doc = tmp_path / "d5.json"
    doc.write_text(json.dumps({"kind": "pseudo", "dim": 5, "facet_count": 3}))
    assert cli.main(["subdivide", "--kind", "antiprismatic", str(doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["dim"], len(out["facets"])) == (5, 3 * 4683)


def test_crumpling_map_lands_on_parent_facets():
    K = torus_z3()
    rec = antiprismatic(K)
    f = crumpling_map(rec)
    for i, facet in enumerate(rec.result.facets):
        copy, _shape = rec.facet_provenance[i]
        image = tuple(sorted(f[v] for v in facet))
        assert image == K.facets[copy]


def test_crumpling_groups_agree():
    for make in (starred_triangle, lambda: boundary_simplex(3), torus_z3):
        rec = antiprismatic(make())
        lifted, ground = crumpling_group_pair(rec)
        assert lifted.elements == ground.elements
        assert lifted.orbits() == ground.orbits()


def test_iterate_composes_subdivisions():
    K = starred_triangle()
    twice = iterate(antiprismatic, K, 2)
    assert twice.facet_count == 3 * 13 * 13
    assert iterate(antiprismatic, K, 0) is K


def test_balancedness_travels_both_ways():
    for make in (starred_triangle, lambda: boundary_simplex(3), torus_z3):
        K = make()
        before = balanced_coloring(K) is not None
        after = balanced_coloring(antiprismatic(K).result) is not None
        assert before == after


@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_unfolding_commutes_with_subdivision(mode):
    for make in (starred_triangle, lambda: boundary_simplex(3)):
        witness = unfold_commutes_with_antiprismatic(make(), mode=mode)
        assert witness is not None


def test_barycentric_of_unbalanced_complex_unfolds_trivially():
    from unfolder.projectivities import projectivity_group

    K = boundary_simplex(3)
    assert projectivity_group(K).order == 6
    b = barycentric(K).result
    assert projectivity_group(b).group.is_trivial


def _sources():
    out = {e.name: e.complex for e in gallery_entries()}
    out["boundary-simplex-4"] = boundary_simplex(4)
    out["doubled-triangle"] = doubled_triangle_sphere()
    return out


SOURCES = _sources()


@lru_cache(maxsize=None)
def _anti(name):
    return antiprismatic(SOURCES[name])


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_crumpling_group_pair_matches_a_search_at_the_central_facet(name):
    rec = _anti(name)
    lifted, ground = crumpling_group_pair(rec)
    want_lifted, want_ground = reference_crumpling_group_pair(rec)
    assert lifted.elements == want_lifted.elements
    # the generators are the subdivision's loops at facet 0 with their tags,
    # carried by the tree transport to the central facet, then by its labels
    pg = projectivity_group(rec.result)
    t, mu = pg.transport_to(rec.central_facet(0)), central_labels(rec)
    want_gens = tuple((carried(carried(g, t), mu), tag) for g, tag in pg.group.generators)
    assert lifted.generators == want_gens
    d = rec.source.dim
    assert PermutationGroup.generated(lifted.generators, d + 1).elements == lifted.elements
    assert ground == want_ground


@pytest.mark.parametrize("name", sorted(SOURCES))  # figure3 is `pinched_strip()`
@pytest.mark.parametrize("subdivided", [False, True])
def test_is_simplicial_matches_the_per_class_loop(name, subdivided):
    x = _anti(name).result if subdivided else SOURCES[name]
    P = x if isinstance(x, PseudoComplex) else as_pseudo(x)
    assert is_simplicial(P) == reference_is_simplicial(P)
    if name == "nonsimplicial" and not subdivided:
        assert not is_simplicial(P)[0]
