"""The incidence index: stars, links and the projectivity search read it.

The reference functions below are the full-scan versions of `star_of_class`,
`link_of_class` and the breadth-first search of `projectivity_group`: every
star rescans the whole gluing list, and the search keeps its spanning data in
lists.  The library must give exactly their results, in the same order.
"""

import gc
import random
import weakref
from dataclasses import fields
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from sympy.combinatorics import Permutation
from sympy.combinatorics import PermutationGroup as SymPyGroup
from test_emit import pseudo_complexes

from unfolder import cli, complexes, diagnostics, projectivities
from unfolder.complexes import (
    AbstractComplex,
    Gluing,
    PseudoComplex,
    StarView,
    _steps,
    as_pseudo,
    dual_graph,
    link_of_class,
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
    NotLocallyStronglyConnected,
    NotStronglyConnected,
)
from unfolder.gallery import boundary_simplex, gallery_entries, knot_neighborhood, pinched_strip
from unfolder.io import emit
from unfolder.permutations import perm_compose, perm_identity, perm_inverse
from unfolder.projectivities import _search, projectivity_group, star_group
from unfolder.subdivisions import antiprismatic, barycentric
from unfolder.unfoldings import (
    Component,
    complete_unfolding,
    components,
    partial_unfolding,
)


def reference_star(x, cid):
    members = x.classes().members[cid]
    facet_ids = tuple(sorted({f for f, _s in members}))
    rep_by_facet = {f: s for f, s in members}
    index = {f: i for i, f in enumerate(facet_ids)}
    sub = []
    for g in x.gluings:
        rep = rep_by_facet.get(g.facet_a)
        if rep is None or not set(rep) <= set(g.ridge_a):
            continue
        sub.append(
            Gluing(index[g.facet_a], g.ridge_a, index[g.facet_b], g.ridge_b, g.mapping)
        )
    star = PseudoComplex(x.dim, len(facet_ids), tuple(sub))
    reps = tuple(rep_by_facet[f] for f in facet_ids)
    return StarView(cid, facet_ids, star, reps)


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


def reference_compose(p, q):
    """p, then q, one index at a time."""
    return tuple(q[p[i]] for i in range(len(p)))


def reference_perspectivity(x, facet, gid):
    """The step through gluing `gid` from `facet`, built from the ridge data
    on every call."""
    g = x.gluings[gid]
    if facet == g.facet_a:
        src_dst, ridge_dst = zip(g.ridge_a, g.mapping), g.ridge_b
    else:
        assert facet == g.facet_b
        src_dst, ridge_dst = zip(g.mapping, g.ridge_a), g.ridge_a
    # a ridge leaves out d(d+1)/2 minus its sum; the ridge overwrites the rest
    d = x.dim
    out = [d * (d + 1) // 2 - sum(ridge_dst)] * (d + 1)
    for v, w in src_dst:
        out[v] = w
    return tuple(out)


def reference_closure(gens, degree):
    """Every product of generators, by saturation."""
    elems = {tuple(range(degree))}
    while True:
        grown = elems | {reference_compose(e, g) for e in elems for g in gens}
        if grown == elems:
            return frozenset(elems)
        elems = grown


def dual_components(x):
    """The dual graph's components by networkx: sorted facet tuples, by
    smallest facet."""
    g = nx.MultiGraph()
    g.add_nodes_from(range(x.facet_count))
    g.add_edges_from((gl.facet_a, gl.facet_b) for gl in x.gluings)
    return tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(g)))


def reference_search(x, base):
    """Each `ProjectivityGroup` field of the search forest from `base`, by
    name, and the group as (generators, elements): a breadth-first tree from
    `base`, then one from each facet not yet reached, in id order.  The group
    is generated by the loops at `base` alone."""
    gl = x.gluings
    n = x.facet_count
    adj = {v: [] for v in range(n)}
    for gid, g in enumerate(gl):
        adj[g.facet_a].append((gid, g.facet_b))
        adj[g.facet_b].append((gid, g.facet_a))
    for v in adj:
        adj[v].sort()
    transports = [None] * n
    depths = [None] * n
    roots = [None] * n
    order, tree, non_tree = [], [], []  # non_tree: (gluing id, facet reached first, root)
    for root in [base, *range(n)]:
        if transports[root] is not None:
            continue
        transports[root] = perm_identity(x.dim + 1)
        depths[root] = 0
        roots[root] = root
        head = len(order)
        order.append(root)
        while head < len(order):
            f = order[head]
            head += 1
            for gid, w in adj[f]:
                if transports[w] is None:
                    step = reference_perspectivity(x, f, gid)
                    transports[w] = reference_compose(transports[f], step)
                    depths[w] = depths[f] + 1
                    roots[w] = root
                    tree.append(gid)
                    order.append(w)
                elif gid not in tree and all(g != gid for g, _f, _r in non_tree):
                    non_tree.append((gid, f, root))
    loops = []
    for gid, f, root in non_tree:
        w = gl[gid].other(f)
        loop = reference_compose(
            reference_compose(transports[f], reference_perspectivity(x, f, gid)),
            perm_inverse(transports[w]),
        )
        loops.append((loop, gid, root))
    gens = [(loop, f"gluing {gid}") for loop, gid, root in loops if root == base]
    return {
        "base": base,
        "group": (tuple(gens), reference_closure([p for p, _t in gens], x.dim + 1)),
        "transports": tuple(transports),
        "tree_gluings": tuple(tree),
        "reached": tuple(order),
        "depths": tuple(depths),
        "roots": tuple(roots),
        "loops": tuple(loops),
    }


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


def assert_steps_match_the_formula(x, name=""):
    """Both directions of every gluing's kept steps equal the formula, and
    they are inverse to each other."""
    ident = perm_identity(x.dim + 1)
    for gid, g in enumerate(x.gluings):
        forward, back = _steps(x.dim, g.ridge_a, g.ridge_b, g.mapping)
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
    parts = dual_components(star.complex)
    assert len(parts) == 2
    with pytest.raises(NotStronglyConnected):
        projectivity_group(star.complex)
    for part in parts:
        for base in part:
            sg = star_group(x, cid, star.parent_facets[base])
            ref = projectivity_group(part_complex(star.complex, part), part.index(base))
            assert sg.group.elements == ref.group.elements
            assert [p for p, _t in sg.group.generators] == [p for p, _t in ref.group.generators]
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


def part_complex(x, part):
    """The sorted copies `part` of `x`, closed under its gluings, as their own
    complex: a full scan of the gluing list, copy `part[k]` renumbered to k."""
    where = {c: i for i, c in enumerate(part)}
    sub = tuple(
        Gluing(where[g.facet_a], g.ridge_a, where[g.facet_b], g.ridge_b, g.mapping)
        for g in x.gluings
        if g.facet_a in where
    )
    return PseudoComplex(x.dim, len(part), sub)


def reference_components(u):
    return [part_complex(u.total, members) for members in u.component_partition]


def reference_containing(u, copy):
    """The component of `u` holding `copy`, cut out of the whole total."""
    members = next(part for part in u.component_partition if copy in part)
    projection = tuple(u.projection[c] for c in members)
    labels = tuple(u.labels[c] for c in members)
    return Component(part_complex(u.total, members), members, projection, labels)


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
