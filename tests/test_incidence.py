"""The incidence index: stars, links and the projectivity search read it.

The reference functions below are the full-scan versions of `star_of_class`,
`link_of_class` and the breadth-first search of `projectivity_group`: every
star rescans the whole gluing list, and the search keeps its spanning data in
lists.  The library must give exactly their results, in the same order.
"""

import gc
import random
import weakref
from itertools import combinations

import pytest
from sympy.combinatorics import Permutation
from sympy.combinatorics import PermutationGroup as SymPyGroup

from unfolder import cli, complexes, diagnostics, projectivities
from unfolder.complexes import (
    AbstractComplex,
    Gluing,
    PseudoComplex,
    StarView,
    as_pseudo,
    component_complex,
    dual_graph,
    link_of_class,
    path_from_facets,
    perspectivity,
    star_of_class,
)
from unfolder.diagnostics import (
    balanced_coloring,
    is_locally_strongly_connected,
    odd_subcomplex,
    orientable,
)
from unfolder.errors import (
    InvalidPath,
    NotLocallyStronglyConnected,
    NotStronglyConnected,
)
from unfolder.gallery import boundary_simplex, gallery_entries, pinched_strip
from unfolder.io import emit
from unfolder.permutations import perm_compose, perm_identity, perm_inverse
from unfolder.projectivities import _search, projectivity_group, star_group
from unfolder.subdivisions import barycentric
from unfolder.unfoldings import component_containing, components, partial_unfolding


def reference_star(x, cid):
    members = x.classes().members[cid]
    facet_ids = tuple(sorted({f for f, _s in members}))
    rep_by_facet = {f: s for f, s in members}
    index = {f: i for i, f in enumerate(facet_ids)}
    kept, sub = [], []
    for gid, g in enumerate(x.gluings):
        rep = rep_by_facet.get(g.facet_a)
        if rep is None or not set(rep) <= set(g.ridge_a):
            continue
        kept.append(gid)
        sub.append(
            Gluing(index[g.facet_a], g.ridge_a, index[g.facet_b], g.ridge_b, g.mapping)
        )
    star = PseudoComplex(x.dim, len(facet_ids), tuple(sub))
    reps = tuple(rep_by_facet[f] for f in facet_ids)
    return StarView(cid, facet_ids, tuple(kept), star, reps)


def reference_link(x, cid):
    star = reference_star(x, cid)
    d = x.dim
    comp_index = [
        {v: i for i, v in enumerate(u for u in range(d + 1) if u not in rep)}
        for rep in star.rep_in
    ]
    out = []
    for g in star.complex.gluings:
        rep_a = set(star.rep_in[g.facet_a])
        ia, ib = comp_index[g.facet_a], comp_index[g.facet_b]
        pairs = [
            (ia[v], ib[g.mapping[p]]) for p, v in enumerate(g.ridge_a) if v not in rep_a
        ]
        ra = tuple(r for r, _m in pairs)
        mapping = tuple(m for _r, m in pairs)
        out.append(Gluing(g.facet_a, ra, g.facet_b, tuple(sorted(mapping)), mapping))
    return PseudoComplex(d - len(star.rep_in[0]), len(star.parent_facets), tuple(out))


def reference_search(x, base):
    """(transports, tree gluings, reached, tagged generators), component of base."""
    gl = x.gluings
    adj = {v: [] for v in range(x.facet_count)}
    for gid, g in enumerate(gl):
        adj[g.facet_a].append((gid, g.facet_b))
        adj[g.facet_b].append((gid, g.facet_a))
    for v in adj:
        adj[v].sort()
    transports = [None] * x.facet_count
    transports[base] = perm_identity(x.dim + 1)
    order, tree, non_tree = [base], [], []
    head = 0
    while head < len(order):
        f = order[head]
        head += 1
        for gid, w in adj[f]:
            if transports[w] is None:
                transports[w] = perm_compose(transports[f], perspectivity(x, f, gid))
                tree.append(gid)
                order.append(w)
            elif gid not in tree and all(g != gid for g, _ in non_tree):
                non_tree.append((gid, f))
    gens = []
    for gid, f in non_tree:
        w = gl[gid].other(f)
        loop = perm_compose(
            perm_compose(transports[f], perspectivity(x, f, gid)),
            perm_inverse(transports[w]),
        )
        gens.append((loop, f"gluing {gid}"))
    return tuple(transports), tuple(tree), tuple(order), tuple(gens)


def shuffled_bary2():
    """bary^2 of the 3-simplex's boundary, relabelled and reordered from seed 7."""
    rng = random.Random(7)
    K = boundary_simplex(3)
    for _ in range(2):
        K = barycentric(K).result
    labels = list(K.vertices())
    rng.shuffle(labels)
    relabelled = AbstractComplex.from_facets([labels[v] for v in f] for f in K.facets)
    order = list(range(relabelled.facet_count))
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    gluings = [
        Gluing(new_id[g.facet_a], g.ridge_a, new_id[g.facet_b], g.ridge_b, g.mapping)
        for g in relabelled.derived_gluings()
    ]
    rng.shuffle(gluings)
    return relabelled, PseudoComplex(K.dim, K.facet_count, tuple(gluings))


CASES = [(e.name, e.complex) for e in gallery_entries()]
CASES += list(zip(("bary2-shuffled", "bary2-shuffled-pseudo"), shuffled_bary2()))


def assert_search_matches(pg, ref):
    transports, tree, reached, gens = ref
    assert pg.transports == transports
    assert pg.tree_gluings == tree
    assert pg.reached == reached
    assert pg.group.generators == gens


def assert_kept_search_matches(x, base, ref):
    """`projectivity_group` gives the reference search on a connected complex
    and refuses a disconnected one."""
    if len(ref[2]) < x.facet_count:
        with pytest.raises(NotStronglyConnected):
            projectivity_group(x, base)
    else:
        assert_search_matches(projectivity_group(x, base), ref)


@pytest.mark.parametrize("name, x", CASES, ids=[n for n, _x in CASES])
def test_stars_and_links_match_the_full_scan(name, x):
    for cid in range(x.classes().count):
        star = star_of_class(x, cid)
        assert star == reference_star(x, cid), (name, cid)
        if x.classes().cards[cid] <= x.dim:
            lk, lk_star = link_of_class(x, cid)
            assert lk == reference_link(x, cid), (name, cid)
            assert lk_star == star
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


@pytest.mark.parametrize("name, x", CASES, ids=[n for n, _x in CASES])
def test_group_order_and_orbits_agree_with_sympy(name, x):
    pg = _search(x, 0)
    assert_kept_search_matches(x, 0, reference_search(x, 0))
    degree = x.dim + 1
    perms = [Permutation(list(p)) for p, _tag in pg.group.generators]
    oracle = SymPyGroup(perms or [Permutation(list(range(degree)))])
    assert pg.order == oracle.order()
    got = {frozenset(orbit) for orbit in pg.group.orbits()}
    assert got == {frozenset(orbit) for orbit in oracle.orbits()}


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
    parts = dual_graph(star.complex).components()
    assert len(parts) == 2
    with pytest.raises(NotStronglyConnected):
        projectivity_group(star.complex)
    for part in parts:
        for base in part:
            sg = star_group(x, cid, star.parent_facets[base])
            ref = projectivity_group(component_complex(star.complex, part), part.index(base))
            assert sg.group.elements == ref.group.elements
            assert [p for p, _t in sg.group.generators] == [p for p, _t in ref.group.generators]
            assert sg.order == order


def test_dual_graph_is_kept_on_the_complex():
    K = boundary_simplex(3)
    assert dual_graph(K) is dual_graph(K)
    adj = dual_graph(K).adjacency()
    assert adj == {v: list(nb) for v, nb in enumerate(dual_graph(K).neighbours)}
    assert all(nb == sorted(nb) for nb in adj.values())
    for pair in ((0, 4), (-1, 0), (0, 0)):
        with pytest.raises(InvalidPath):
            path_from_facets(K, pair)


def reference_components(u):
    out = []
    for members in u.component_partition:
        where = {c: i for i, c in enumerate(members)}
        sub = tuple(
            Gluing(where[g.facet_a], g.ridge_a, where[g.facet_b], g.ridge_b, g.mapping)
            for g in u.total.gluings
            if g.facet_a in where
        )
        out.append(PseudoComplex(u.total.dim, len(members), sub))
    return out


@pytest.mark.parametrize("name, x", CASES, ids=[n for n, _x in CASES])
def test_component_splits_match_the_full_scan(name, x):
    u = partial_unfolding(x)
    comps = components(u)
    assert [c.complex for c in comps] == reference_components(u)
    for comp in comps:
        for copy in comp.member_copies[:2]:
            assert component_containing(u, copy) == comp


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


def test_local_strong_connectivity_and_odd_faces_build_no_star_or_link(
    monkeypatch, capsys, tmp_path
):
    def refuse(x, cid):
        raise AssertionError(f"star or link of class {cid} built")

    for module in (complexes, diagnostics, projectivities, cli):
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


def test_odd_subcomplex_alone_still_names_the_bad_star():
    ok, witness = is_locally_strongly_connected(pinched_strip())
    assert not ok
    with pytest.raises(NotLocallyStronglyConnected, match=f"face class {witness} "):
        odd_subcomplex(pinched_strip())
