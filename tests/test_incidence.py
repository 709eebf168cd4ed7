"""The incidence index: stars, links and the projectivity search read it.

The references in `oracles` are the full-scan versions of `star_of_class`,
`link_of_class` and the breadth-first search of `projectivity_group`: every
star rescans the whole gluing list, and the search keeps its spanning data in
lists.  The library must give exactly their results, in the same order.
"""

import gc
import random
import sys
import weakref
from dataclasses import fields
from itertools import combinations

import pytest
from corpus import branched_cases, gallery_cases, pseudo_complexes
from hypothesis import given, settings
from oracles import (
    dual_components,
    part_complex,
    reference_components,
    reference_containing,
    reference_link,
    reference_perspectivity,
    reference_search,
    reference_star,
)

from unfolder import cli, diagnostics
from unfolder.complexes import (
    AbstractComplex,
    Gluing,
    PseudoComplex,
    _steps,
    as_pseudo,
    dual_graph,
    link_of_class,
    nonempty_subsets,
    path_from_facets,
    perspectivity,
    star_of_class,
)
from unfolder.diagnostics import (
    balanced_coloring,
    is_locally_strongly_connected,
    is_strongly_connected,
    odd_subcomplex,
    orientable,
)
from unfolder.errors import (
    InvalidPath,
    NotAFace,
    NotLocallyStronglyConnected,
    NotStronglyConnected,
)
from unfolder.gallery import boundary_simplex, knot_neighborhood, pinched_strip
from unfolder.io import emit
from unfolder.permutations import perm_compose, perm_identity, perm_sign
from unfolder.projectivities import _search, projectivity_group, star_group
from unfolder.subdivisions import antiprismatic, barycentric
from unfolder.unfoldings import (
    complete_unfolding,
    components,
    partial_unfolding,
)


CASES = gallery_cases()


def assert_search_matches(pg, ref):
    assert set(ref) == {f.name for f in fields(pg)} | {"group"}
    for name, want in ref.items():
        if name == "group":
            assert (pg.group.generators, pg.group.elements) == want
            assert pg.group.degree == len(pg.transports[pg.base])
        else:
            assert getattr(pg, name) == want, name
    assert pg.spans == all(root == pg.base for root in ref["roots"])


def assert_kept_search_matches(x, base, ref):
    """`projectivity_group` gives the reference search on a connected complex
    and refuses a disconnected one."""
    if any(root != base for root in ref["roots"]):
        with pytest.raises(NotStronglyConnected):
            projectivity_group(x, base)
    else:
        assert_search_matches(projectivity_group(x, base), ref)


def holds_class(x, gid, cid):
    """Whether gluing `gid`'s ridge holds a member of class `cid`."""
    g, classes = x.gluings[gid], x.classes()
    card = classes.cards[cid]
    return any(classes.class_of((g.facet_a, sub)) == cid for sub in combinations(g.ridge_a, card))


STAR_CASES = CASES + branched_cases()


@pytest.mark.parametrize("name, x", STAR_CASES, ids=[n for n, _x in STAR_CASES])
def test_stars_and_links_match_the_full_scan(name, x):
    for cid in range(x.classes().count):
        star = star_of_class(x, cid)
        assert star == reference_star(x, cid), (name, cid)
        # the walk on the parent gives the star's own search from its first facet
        sg, want = star_group(x, cid), _search(star.complex, 0).group
        assert star.parent_facets[0] == x.classes().first_ref(cid)[0], (name, cid)
        assert [p for p, _t in sg.generators] == [p for p, _t in want.generators]
        assert sg.elements == want.elements
        for _p, tag in sg.generators:
            word, gid = tag.split()
            assert word == "gluing" and holds_class(x, int(gid), cid), (name, cid, tag)
        if x.classes().cards[cid] <= x.dim:
            assert link_of_class(x, cid) == reference_link(x, cid), (name, cid)
            # the star's own search, inside its base component
            ref = reference_search(star.complex, 0)
            assert_search_matches(_search(star.complex, 0), ref)
            assert_kept_search_matches(star.complex, 0, ref)


@pytest.mark.parametrize("name, x", CASES, ids=[n for n, _x in CASES])
def test_projectivity_search_matches_the_list_version(name, x):
    for base in sorted({0, x.facet_count // 2, x.facet_count - 1}):
        ref = reference_search(x, base)
        assert_search_matches(_search(x, base), ref)
        assert_kept_search_matches(x, base, ref)


def assert_steps_match_the_formula(x, name=""):
    """Both directions of every gluing's kept steps equal the formula, they
    are inverse to each other, and their parity bit is the sign's."""
    ident = perm_identity(x.dim + 1)
    for gid, g in enumerate(x.gluings):
        forward, back, even = _steps(x.dim, g.ridge_a, g.ridge_b, g.mapping)
        assert even == (perm_sign(forward) == 1), (name, gid)
        assert forward == reference_perspectivity(x, g.facet_a, gid), (name, gid)
        assert back == reference_perspectivity(x, g.facet_b, gid), (name, gid)
        assert perspectivity(x, g.facet_a, gid) == forward
        assert perspectivity(x, g.facet_b, gid) == back
        assert perm_compose(forward, back) == ident == perm_compose(back, forward)


def _step_cases():
    """The gallery, both subdivisions of its small entries, and the lifts of
    both unfoldings."""
    out = list(CASES)
    for name, x in CASES:
        if x.facet_count <= 12:
            out.append((f"bary({name})", barycentric(x).result))
            out.append((f"anti({name})", antiprismatic(x).result))
        if x.facet_count <= 40:
            out.append((f"partial({name})", partial_unfolding(x).total))
            if len(dual_components(x)) == 1:
                out.append((f"complete({name})", complete_unfolding(x).total))
    return out


def test_steps_match_the_perspectivity_formula():
    cases = _step_cases()
    assert len(cases) > 3 * len(CASES)
    for name, x in cases:
        assert_steps_match_the_formula(x, name)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pseudo_complexes())
def test_steps_match_the_perspectivity_formula_on_random_complexes(P):
    assert_steps_match_the_formula(P)


def test_star_and_link_helpers_refuse_a_bad_class_or_base():
    x = boundary_simplex(3)
    assert x.classes().count == 14
    for call, error, message in (
        (lambda: star_of_class(x, -1), NotAFace, "no face class -1"),
        (lambda: star_of_class(x, 14), NotAFace, "no face class 14"),
        (lambda: link_of_class(x, -2), NotAFace, "no face class -2"),
        (lambda: x.classes().first_ref(-1), NotAFace, "no face class -1"),
        (lambda: x.classes().first_ref(14), NotAFace, "no face class 14"),
        (lambda: x.classes().vertex_classes_of(-1), NotAFace, "no face class -1"),
        (lambda: x.classes().vertex_classes_of(14), NotAFace, "no face class 14"),
        (lambda: star_group(x, -1), NotAFace, "no face class -1"),
        (lambda: star_group(x, 14), NotAFace, "no face class 14"),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            call()


def test_perspectivity_refuses_a_step_off_its_gluing():
    x = boundary_simplex(2)
    assert (x.gluings[0].facet_a, x.gluings[0].facet_b) == (0, 1)
    for facet, gid, message in (
        (0, 3, "no gluing 3"),
        (0, -1, "no gluing -1"),
        (2, 0, "gluing 0 does not touch facet 2"),
        (-1, 0, "gluing 0 does not touch facet -1"),
    ):
        with pytest.raises(InvalidPath, match=f"^{message}$"):
            perspectivity(x, facet, gid)


def two_tetrahedra_at_a_vertex():
    """Two tetrahedron boundaries sharing vertex 0: its star is two 3-cycles
    of triangles, and a loop around either swaps the other two vertices."""
    return AbstractComplex.from_facets(
        [f for block in ((0, 1, 2, 3), (0, 4, 5, 6)) for f in combinations(block, 3)]
    )


@pytest.mark.parametrize(
    "x, order", [(pinched_strip(), 1), (two_tetrahedra_at_a_vertex(), 2)], ids=["figure3", "wedge"]
)
def test_a_disconnected_star_acts_by_its_base_component(x, order):
    cid = x.classes().class_of((0, (0,)))  # vertex 0 is local 0 of facet 0 in both
    star = star_of_class(x, cid)
    parts = dual_components(star.complex)
    assert len(parts) == 2
    with pytest.raises(NotStronglyConnected):
        projectivity_group(star.complex)
    # the walk starts at the first member, facet 0, and stays in its part
    sg = star_group(x, cid)
    assert x.classes().first_ref(cid)[0] == star.parent_facets[0] == 0
    ref = projectivity_group(part_complex(star.complex, parts[0]), 0)
    assert sg.elements == ref.group.elements
    assert [p for p, _t in sg.generators] == [p for p, _t in ref.group.generators]
    assert sg.order == order


def mixed_components(variant):
    """knot-nbhd:3:`variant` (2 label orbits), knot-nbhd:2:orientable (3 orbits)
    and one loose facet (4 orbits) as one complex, their facets interleaved
    by a seeded shuffle."""
    parts = (
        knot_neighborhood(3, variant).complex,
        knot_neighborhood(2, "orientable").complex,
        PseudoComplex(3, 1, ()),
    )
    ids = list(range(sum(p.facet_count for p in parts)))
    random.Random(5).shuffle(ids)
    gluings, offset = [], 0
    for p in parts:
        gluings += [
            Gluing(ids[offset + g.facet_a], g.ridge_a, ids[offset + g.facet_b], g.ridge_b, g.mapping)
            for g in p.gluings
        ]
        offset += p.facet_count
    return PseudoComplex(3, len(ids), tuple(gluings))


@pytest.mark.parametrize("variant", ["klein", "orientable"])
def test_a_disconnected_base_answers_as_its_components_do(variant):
    x = mixed_components(variant)
    parts = dual_components(x)
    comps = [part_complex(x, part) for part in parts]
    assert len(parts) == 3
    assert not is_strongly_connected(x)
    assert all(is_strongly_connected(c) for c in comps)
    assert sorted(len(projectivity_group(c).group.orbits()) for c in comps) == [2, 3, 4]
    assert orientable(x) == all(orientable(c) for c in comps) == (variant == "orientable")
    # copy (j, i) of a component's unfolding is copy (part[j], i) of x's
    w = x.dim + 1
    want = [
        tuple(part[c // w] * w + c % w for c in members)
        for part, comp in zip(parts, comps)
        for members in partial_unfolding(comp).component_partition
    ]
    u = partial_unfolding(x)
    assert u.component_partition == tuple(sorted(map(tuple, map(sorted, want))))
    assert u.component_partition == dual_components(u.total)
    for base in (0, parts[1][0], x.facet_count - 1):
        assert_search_matches(_search(x, base), reference_search(x, base))


def test_dual_graph_is_kept_on_the_complex():
    K = boundary_simplex(3)
    assert dual_graph(K) is dual_graph(K)
    adj = dual_graph(K).adjacency()
    assert adj == {v: list(dual_graph(K).incident(v)) for v in range(K.facet_count)}
    assert all(nb == sorted(nb) for nb in adj.values())
    for pair in ((0, 4), (-1, 0), (0, 0)):
        with pytest.raises(InvalidPath):
            path_from_facets(K, pair)


@pytest.mark.parametrize("name, x", CASES, ids=[n for n, _x in CASES])
def test_component_splits_match_the_full_scan(name, x):
    u = partial_unfolding(x)
    comps = components(u)
    assert [c.complex for c in comps] == reference_components(u)
    for comp in comps:
        for copy in comp.member_copies[:2]:
            assert reference_containing(u, copy) == comp


@pytest.mark.parametrize("pseudo", [False, True])
def test_a_complex_is_freed_with_its_last_reference(pseudo):
    x = as_pseudo(boundary_simplex(3)) if pseudo else boundary_simplex(3)
    x.classes()
    x.gluings  # an abstract complex derives and keeps them here
    star_of_class(x, 0)
    link_of_class(x, 0)
    projectivity_group(x)
    odd_subcomplex(x)
    orientable(x)
    balanced_coloring(x)
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None


def in_some_copy_of(classes, small, larges):
    """Whether some copy holds class `small` inside a class of `larges`,
    read off the slot table."""
    subs, per, sc = nonempty_subsets(classes.dim + 1), classes.per, classes.slot_class
    return any(
        sc[at + i] == small and sc[at + j] in larges and set(subs[i]) <= set(subs[j])
        for at in range(0, len(sc), per)
        for i in range(per)
        for j in range(per)
    )


def test_local_strong_connectivity_and_odd_faces_build_no_star_or_link(
    monkeypatch, capsys, tmp_path
):
    def refuse(x, cid):
        raise AssertionError(f"star or link of class {cid} built")

    for module in [m for n, m in sys.modules.items() if n.startswith("unfolder.")]:
        for name in ("star_of_class", "link_of_class"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    roots = []
    real_roots = diagnostics._roots
    monkeypatch.setattr(diagnostics, "_roots", lambda *a: roots.append(a) or real_roots(*a))
    x = boundary_simplex(3)
    assert is_locally_strongly_connected(x) == (True, None)
    assert len(roots) == 1
    assert is_locally_strongly_connected(x) is is_locally_strongly_connected(x)
    assert len(odd_subcomplex(x).odd_faces) == 4
    assert len(roots) == 1
    assert odd_subcomplex(as_pseudo(x)).odd_faces == odd_subcomplex(x).odd_faces
    assert not is_locally_strongly_connected(pinched_strip())[0]
    for doc in (emit(x), emit(as_pseudo(x)), emit(pinched_strip())):
        path = tmp_path / "x.json"
        path.write_text(doc)
        assert cli.main(["analyze", str(path)]) == 0
        assert "odd subcomplex: " in capsys.readouterr().out
    # a ridge held three times branches the links of its subfaces of
    # codimension 2; they are two-coloured in the scan, and every star group
    # is a walk on the complex (the odd faces are the codimension-2 classes
    # whose group moves), with no star built and no member tuples of the
    # classes
    K = AbstractComplex.from_facets(boundary_simplex(4).facets + ((0, 1, 2, 5), (2, 3, 4, 6)))
    for y in (K, as_pseudo(K)):
        classes = y.classes()
        odd = odd_subcomplex(y).odd_faces
        moving = [c for c in range(classes.count) if star_group(y, c).order > 1]
        assert {c for c in moving if classes.cards[c] == y.dim - 1} == set(odd)
        assert "by_class" not in vars(classes)
        ridges = [r for r in classes.classes_of_card(3) if classes.sizes[r] >= 3]
        branched = [c for c in classes.classes_of_card(2) if in_some_copy_of(classes, c, ridges)]
        assert len(ridges) == 2 and len(branched) == 6
        assert set(branched) <= set(odd)


def test_odd_subcomplex_alone_still_names_the_bad_star():
    ok, witness = is_locally_strongly_connected(pinched_strip())
    assert not ok
    with pytest.raises(NotLocallyStronglyConnected, match=f"face class {witness} "):
        odd_subcomplex(pinched_strip())
