"""Builders for the worked examples and their recorded invariants."""

from pathlib import Path

import pytest

from unfolder.cli import main
from unfolder.complexes import AbstractComplex, PseudoComplex
from unfolder.diagnostics import odd_subcomplex
from unfolder.errors import BadParameter
from unfolder.gallery import (
    boundary_simplex,
    cycle_graph,
    doubled_triangle_sphere,
    gallery_complex,
    gallery_entries,
    hexagon_cone,
    knot_neighborhood,
    starred_triangle,
    surface_family,
    surface_sphere,
    torus_z3,
)
from unfolder.projectivities import projectivity_group


def test_gallery_has_nineteen_entries_with_unique_names():
    entries = gallery_entries()
    assert len(entries) == 19
    names = [e.name for e in entries]
    assert len(set(names)) == 19


def test_gallery_complex_resolves_every_entry():
    for e in gallery_entries():
        x = gallery_complex(e.name)
        if isinstance(x, AbstractComplex):
            assert x.facets == e.complex.facets
        else:
            assert isinstance(x, PseudoComplex)
            assert x.facet_count == e.complex.facet_count


@pytest.mark.parametrize(
    "name", ["no-such-thing", "knot-nbhd:banana:orientable", "surface:-1"]
)
def test_gallery_complex_rejects_bad_names(name):
    with pytest.raises((BadParameter, KeyError, ValueError)):
        gallery_complex(name)


def test_recorded_group_orders_hold():
    for e in gallery_entries():
        if e.expected.group_order is not None:
            assert projectivity_group(e.complex).group.order == e.expected.group_order, e.name


def test_recorded_odd_face_counts_hold():
    for e in gallery_entries():
        want = e.expected.odd_face_count
        if want is None:
            continue
        assert len(odd_subcomplex(e.complex).odd_faces) == want, e.name


def test_small_fixed_complexes():
    assert boundary_simplex(3).facets == (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    )
    assert starred_triangle().facets == ((0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert len(hexagon_cone().facets) == 6
    assert len(torus_z3().facets) == 14
    assert cycle_graph(5).dim == 1
    digon = cycle_graph(2)
    assert isinstance(digon, PseudoComplex) and digon.facet_count == 2
    with pytest.raises(BadParameter):
        cycle_graph(1)


def test_doubled_triangle_is_pseudo_and_small():
    P = doubled_triangle_sphere()
    assert isinstance(P, PseudoComplex)
    assert P.facet_count == 2
    assert len(P.gluings) == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("variant", ["orientable", "klein"])
def test_knot_block_structure(n, variant):
    kn = knot_neighborhood(n, variant)
    assert kn.variant == variant
    assert kn.blocks == n
    assert len(kn.abstract.facets) == 15 * n
    assert len(kn.core_edges) == n
    # the core is a closed edge path: every core vertex has degree 2
    degree = {}
    for e in kn.core_edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    assert set(degree.values()) == {2}


def test_knot_loops_step_through_named_vertices():
    kn = knot_neighborhood(2)
    assert len(kn.vertex_names) == len(kn.abstract.vertices())
    assert kn.longitudinal_loop.start == kn.base_facet
    assert kn.meridian_loop.start == kn.base_facet


def test_knot_facet_id_round_trip():
    kn = knot_neighborhood(2)
    names = tuple(kn.vertex_names[v] for v in kn.abstract.facets[kn.base_facet])
    assert kn.facet_id(names) == kn.base_facet


def test_knot_rejects_bad_parameters():
    with pytest.raises(BadParameter):
        knot_neighborhood(1)
    with pytest.raises(BadParameter):
        knot_neighborhood(3, "moebius")


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_surface_family_counts(g):
    P = surface_family(g)
    assert len(P.facets) == 6 * (g + 1)
    odd = odd_subcomplex(P)
    if g == 0:
        # the unpinched sphere also has two odd vertices
        assert len(odd.odd_faces) == 2
    else:
        assert len(odd.odd_faces) == 2 * (g + 1)


def test_surface_sphere_makes_the_stellar_moves_of_its_definition():
    def star_first_facet(facets):
        target, rest = facets[0], facets[1:]
        apex = max(v for f in facets for v in f) + 1
        cones = [tuple(sorted([w for w in target if w != v] + [apex])) for v in target]
        return sorted(rest + cones)

    facets = sorted(boundary_simplex(3).facets)
    for g in range(1, 40):
        if g > 1:
            facets = star_first_facet(facets)
        assert list(surface_sphere(g).facets) == facets


def test_surface_sphere_sizes():
    assert surface_sphere(1).facets == boundary_simplex(3).facets
    assert len(surface_sphere(2).facets) == 6
    assert len(surface_sphere(3).facets) == 8
    with pytest.raises(BadParameter):
        surface_sphere(0)


def test_recorded_unfolding_counts_spot_check():
    by_name = {e.name: e for e in gallery_entries()}
    assert by_name["boundary-simplex-3"].expected.unfolding_facet_count == 24
    assert by_name["torus-z3"].expected.unfolding_facet_count == 42
    assert by_name["surface:2"].expected.unfolding_euler == -2
    assert by_name["figure3"].expected.component_count == 3


def _recorded_reports() -> dict[str, str]:
    """`analyze` text per gallery entry, from `expected/analyze-gallery.txt`:
    each report follows a line `== NAME`."""
    text = (Path(__file__).parent / "expected" / "analyze-gallery.txt").read_text()
    return dict(part.split("\n", 1) for part in text.split("== ")[1:])


REPORTS = _recorded_reports()


@pytest.mark.parametrize("e", gallery_entries(), ids=lambda e: e.name)
def test_analyze_prints_the_recorded_report(e, capsys, tmp_path):
    """The whole report, `Pi generators` lines included (their cycles,
    order and the gluing id each loop holds in `ProjectivityGroup.loops`),
    on the document `gallery NAME` prints."""
    assert main(["gallery", e.name]) == 0
    doc = tmp_path / "doc.json"
    doc.write_text(capsys.readouterr().out)
    assert main(["analyze", str(doc)]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (REPORTS[e.name], "")
