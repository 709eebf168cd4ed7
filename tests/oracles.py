"""Reference implementations the tests compare the library against.

Each `reference_*` function answers one question the library answers, by a
route of its own: the earlier builders the library replaced, brute-force
enumeration, or `networkx` and `sympy.combinatorics`.  Where two routes
answer one question, only the more independent one is kept here.  The
helpers below them are those that more than one test module reads.
`oracle_analyze` rebuilds the whole `analyze` report from the references
alone.  This module holds no tests.
"""

import json
from collections import Counter
from functools import lru_cache
from itertools import combinations
from itertools import permutations as all_permutations

import networkx as nx
from sympy.combinatorics import Permutation
from sympy.combinatorics import PermutationGroup as SymPyGroup

from unfolder.complexes import (
    MAX_CLOSURE_SLOTS,
    AbstractComplex,
    FaceClasses,
    Gluing,
    PseudoComplex,
    StarView,
    dual_graph,
    nonempty_subsets,
    perspectivity,
    subset_index,
)
from unfolder.diagnostics import (
    IsoWitness,
    OddSubcomplex,
    is_pseudo_manifold,
    is_strongly_connected,
    orientable,
)
from unfolder.errors import (
    BadParameter,
    NotLocallyStronglyConnected,
    NotStronglyConnected,
    SelfIdentification,
    UnfolderError,
)
from unfolder.io import emit, parse, parse_document
from unfolder.permutations import (
    PermutationGroup,
    perm_compose,
    perm_identity,
    perm_inverse,
    perm_sign,
)
from unfolder.projectivities import projectivity_group
from unfolder.unfoldings import Component, complete_unfolding, components, partial_unfolding

# ---------------------------------------------------------------- helpers


def outcome(fn, *args):
    """The result of `fn(*args)`, or the type and message of its error; face
    classes and odd subcomplexes as tuples that compare with the references'."""
    try:
        result = fn(*args)
    except UnfolderError as e:
        return type(e), str(e)
    if isinstance(result, FaceClasses):
        return face_classes_shape(result)
    if isinstance(result, OddSubcomplex):
        return result.odd_faces, result.as_complex
    return result


def fresh(x):
    """A copy of `x` with nothing cached on it."""
    if isinstance(x, AbstractComplex):
        return AbstractComplex(x.dim, x.facets)
    return type(x)(x.dim, x.facet_count, x.gluings)


def dual_components(x):
    """The dual graph's components by networkx: sorted facet tuples, by
    smallest facet."""
    g = nx.MultiGraph()
    g.add_nodes_from(range(x.facet_count))
    g.add_edges_from((gl.facet_a, gl.facet_b) for gl in x.gluings)
    return tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(g)))


def face_classes_shape(fc):
    """Every table of `fc`, and each class's members and face key, asked one
    class at a time; the library keeps its tables in arrays, the references
    in lists."""
    classes = range(fc.count)
    return (
        fc.dim,
        fc.facet_count,
        tuple(map(fc.members_of, classes)),
        list(fc.cards),
        list(fc.first),
        list(fc.sizes),
        None if fc.facets is None else tuple(map(fc.face_key, classes)),
        list(fc.slot_class),
    )


def carried(g, t):
    """t^-1 g t written out: the label t(i) goes where t sends g(i)."""
    h = [0] * len(t)
    for i, v in enumerate(t):
        h[v] = t[g[i]]
    return tuple(h)


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


def structure_law_failures(corpus):
    """(index, law) of each law relating a strongly connected complex in
    `corpus` to its unfoldings that it breaks, and (index, error type,
    message) of each complex whose checks raise.  No law is an `assert`, so
    that `python -O` keeps them."""
    failures = []
    for i, P in enumerate(corpus):
        try:
            pg = projectivity_group(P)
            uc = complete_unfolding(P)
            up = partial_unfolding(P)
            kind = is_pseudo_manifold(P)
            again = parse(emit(P))
            laws = {
                "complete size": uc.total.facet_count == pg.group.order * P.facet_count,
                "partial size": up.total.facet_count == (P.dim + 1) * P.facet_count,
                "complete group trivial": projectivity_group(uc.total).group.is_trivial,
                "complete strongly connected": is_strongly_connected(uc.total),
                "partial parts are orbits": len(dual_components(up.total))
                == len(pg.group.orbits()),
                "components strongly connected": all(
                    is_strongly_connected(comp.complex) for comp in components(up)
                ),
                "closed stays closed": kind != "closed"
                or is_pseudo_manifold(uc.total) == "closed",
                "orientable stays orientable": not orientable(P)
                or kind not in ("closed", "with-boundary")
                or orientable(uc.total),
                "round trip": (again.facet_count, again.gluings) == (P.facet_count, P.gluings),
            }
            failures += [(i, law) for law, holds in laws.items() if not holds]
        except Exception as e:  # collect everything, report once
            failures.append((i, type(e).__name__, str(e)[:80]))
    return failures


# ----------------------------------------------------------- face classes
#
# The union-find builders of face classes, derived gluings and vertex
# classes that the integer-slot closure kernel replaced: every subface is
# rebuilt with `combinations` and `sorted`, and the classes are sorted into
# id order at the end.


class ReferenceUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def reference_slot_class(dim, facet_count, members):
    """The class id of each (copy, subset) slot, written from the members."""
    subs = nonempty_subsets(dim + 1)
    sub_index = {s: i for i, s in enumerate(subs)}
    slots = [None] * (facet_count * len(subs))
    for cid, refs in enumerate(members):
        for f, s in refs:
            slots[f * len(subs) + sub_index[s]] = cid
    return slots


def reference_face_classes(dim, facet_count, members, keys):
    """The `face_classes_shape` of reference members and face keys."""
    subs = nonempty_subsets(dim + 1)
    sub_index = {s: i for i, s in enumerate(subs)}
    cards = [len(refs[0][1]) for refs in members]
    first = [f * len(subs) + sub_index[s] for f, s in (refs[0] for refs in members)]
    slots = reference_slot_class(dim, facet_count, members)
    sizes = [len(refs) for refs in members]
    return dim, facet_count, members, cards, first, sizes, keys, slots


def reference_from_abstract(facets, dim):
    by_face = {}
    for f, verts in enumerate(facets):
        for sub in nonempty_subsets(dim + 1):
            face = tuple(verts[l] for l in sub)
            by_face.setdefault(face, []).append((f, sub))
    ordered = sorted(by_face.items(), key=lambda kv: (len(kv[0]), min(kv[1])))
    members = tuple(tuple(sorted(refs)) for _face, refs in ordered)
    keys = tuple(face for face, _refs in ordered)
    return reference_face_classes(dim, len(facets), members, keys)


def reference_from_glued(dim, facet_count, gluings):
    subs = nonempty_subsets(dim + 1)
    per = len(subs)
    sub_index = {s: i for i, s in enumerate(subs)}
    uf = ReferenceUnionFind(facet_count * per)

    def idx(f, s):
        return f * per + sub_index[s]

    for g in gluings:
        positions = range(len(g.ridge_a))
        for k in range(1, len(g.ridge_a) + 1):
            for pos in combinations(positions, k):
                sa = tuple(g.ridge_a[p] for p in pos)
                sb = tuple(sorted(g.mapping[p] for p in pos))
                uf.union(idx(g.facet_a, sa), idx(g.facet_b, sb))
    groups = {}
    for f in range(facet_count):
        for s in subs:
            groups.setdefault(uf.find(idx(f, s)), []).append((f, s))
    for refs in groups.values():
        seen_facets = set()
        for f, _s in refs:
            if f in seen_facets:
                pair = sorted(r for r in refs if r[0] == f)[:2]
                raise SelfIdentification(
                    f"faces {pair[0]} and {pair[1]} of one copy are identified"
                )
            seen_facets.add(f)
    ordered = sorted(groups.values(), key=lambda refs: (len(refs[0][1]), min(refs)))
    members = tuple(tuple(sorted(refs)) for refs in ordered)
    return reference_face_classes(dim, facet_count, members, None)


@lru_cache(maxsize=4)
def reference_shape(x):
    """The `face_classes_shape` of `x`'s face classes by the reference
    builders: none of the library's face classes is read."""
    if isinstance(x, AbstractComplex):
        return reference_from_abstract(x.facets, x.dim)
    return reference_from_glued(x.dim, x.facet_count, x.gluings)


def reference_derived_gluings(K, limit=MAX_CLOSURE_SLOTS):
    """One gluing per pair of facets on a ridge, counted before it is built."""
    d = K.dim
    by_ridge = {}
    for i, f in enumerate(K.facets):
        for ridge in combinations(f, d):
            by_ridge.setdefault(ridge, []).append(i)
    pairs = [
        (i, j, ridge) for ridge, holders in by_ridge.items() for i, j in combinations(holders, 2)
    ]
    if len(pairs) > limit:
        raise BadParameter(f"{len(pairs)} derived gluings are above the limit {limit}")
    pairs.sort()
    out = []
    for i, j, ridge in pairs:
        fa, fb = K.facets[i], K.facets[j]
        ra = tuple(fa.index(v) for v in ridge)
        mapping = tuple(fb.index(v) for v in ridge)
        out.append(Gluing(i, ra, j, tuple(sorted(mapping)), mapping))
    return tuple(out)


def _gluings(x):
    """`x`'s gluings; an abstract complex's by `reference_derived_gluings`."""
    return reference_derived_gluings(x) if isinstance(x, AbstractComplex) else x.gluings


def reference_vertex_classes(x):
    w = x.dim + 1
    uf = ReferenceUnionFind(x.facet_count * w)
    if isinstance(x, AbstractComplex):
        slot = {}
        for f, verts in enumerate(x.facets):
            for l, v in enumerate(verts):
                uf.union(slot.setdefault(v, f * w + l), f * w + l)
    else:
        for g in x.gluings:
            for va, vb in zip(g.ridge_a, g.mapping):
                uf.union(g.facet_a * w + va, g.facet_b * w + vb)
    groups = {}
    for f in range(x.facet_count):
        for l in range(w):
            refs = groups.setdefault(uf.find(f * w + l), [])
            if refs and refs[-1][0] == f:
                raise SelfIdentification(
                    f"faces {refs[-1]} and {(f, (l,))} of one copy are identified"
                )
            refs.append((f, (l,)))
    return tuple(map(tuple, groups.values()))


def reference_is_simplicial(P):
    """The per-class loop: one `class_of` lookup per vertex of each class."""
    classes = P.classes()
    seen = {}
    for cid in range(classes.count):
        f, sub = classes.members_of(cid)[0]
        key = tuple(sorted(classes.class_of((f, (l,))) for l in sub))
        if key in seen:
            return False, (seen[key], cid)
        seen[key] = cid
    return True, None


# ------------------------------------------------- stars, links, dual graph


def reference_adjacency(x):
    """Each facet's (gluing id, neighbour) pairs, in gluing-id order."""
    adj = [[] for _ in range(x.facet_count)]
    for gid, g in enumerate(x.gluings):
        adj[g.facet_a].append((gid, g.facet_b))
        adj[g.facet_b].append((gid, g.facet_a))
    return adj


def reference_star(x, cid):
    """The star of class `cid` from a scan of the whole gluing list."""
    members = x.classes().members_of(cid)
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


# ------------------------------------------------ projectivities and search


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


def reference_search(x, base):
    """Each `ProjectivityGroup` field of the search forest from `base`, by
    name, and the group as (generators, elements): a breadth-first tree from
    `base`, then one from each facet not yet reached, in id order.  Only the
    loops at `base` are kept, and they generate the group; orientability
    comes from the sign propagation of `reference_orientable`."""
    gl = x.gluings
    n = x.facet_count
    adj = reference_adjacency(x)
    transports = [None] * n
    roots = [None] * n
    order, tree, non_tree = [], [], []  # non_tree: (gluing id, facet reached first)
    for root in [base, *range(n)]:
        if transports[root] is not None:
            continue
        transports[root] = perm_identity(x.dim + 1)
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
                    roots[w] = root
                    tree.append(gid)
                    order.append(w)
                elif gid not in tree and all(g != gid for g, _f in non_tree):
                    non_tree.append((gid, f))
    loops = []
    for gid, f in non_tree:
        if roots[f] != base:
            continue
        w = gl[gid].other(f)
        loop = reference_compose(
            reference_compose(transports[f], reference_perspectivity(x, f, gid)),
            perm_inverse(transports[w]),
        )
        loops.append((loop, gid))
    gens = [(loop, f"gluing {gid}") for loop, gid in loops]
    return {
        "base": base,
        "group": (tuple(gens), reference_closure([p for p, _t in gens], x.dim + 1)),
        "transports": tuple(transports),
        "tree_gluings": tuple(tree),
        "reached": tuple(order),
        "roots": tuple(roots),
        "loops": tuple(loops),
        "orientable": reference_orientable(x),
    }


def reference_group(x):
    """The group of projectivities at facet 0 as a sympy group: the loop of
    every gluing, closed through a networkx spanning tree of the dual graph."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(x.facet_count))
    graph.add_edges_from((g.facet_a, g.facet_b, gid) for gid, g in enumerate(x.gluings))
    tree = nx.Graph()
    tree.add_nodes_from(graph)
    for a, b, gid in nx.minimum_spanning_edges(graph, keys=True, data=False):
        tree.add_edge(a, b, gid=gid)
    transports = {0: tuple(range(x.dim + 1))}
    for a, b in nx.bfs_edges(tree, 0):
        step = reference_perspectivity(x, a, tree[a][b]["gid"])
        transports[b] = reference_compose(transports[a], step)
    loops = [
        reference_compose(
            reference_compose(transports[g.facet_a], reference_perspectivity(x, g.facet_a, gid)),
            perm_inverse(transports[g.facet_b]),
        )
        for gid, g in enumerate(x.gluings)
    ]
    return SymPyGroup([Permutation(list(p)) for p in loops or [transports[0]]])


def _crossing_sign(x, gid):
    g = x.gluings[gid]
    order = tuple(g.ridge_b.index(m) for m in g.mapping)
    # the opposite labels are d(d+1)/2 minus the ridge sums, and d(d+1) is even
    return -perm_sign(order) * (-1) ** (sum(g.ridge_a) + sum(g.ridge_b))


def reference_orientable(x):
    """Propagate facet orientations; True when all loops close with sign +1."""
    n = x.facet_count
    adj = reference_adjacency(x)
    sign = [0] * n
    for start in range(n):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            f = stack.pop()
            for gid, w in adj[f]:
                s = sign[f] * _crossing_sign(x, gid)
                if sign[w] == 0:
                    sign[w] = s
                    stack.append(w)
                elif sign[w] != s:
                    return False
    return True


def reference_balanced_coloring(x):
    """Colors spread from facet 0 over a spanning tree, then every gluing is
    checked, and each vertex class must wear one color."""
    n = x.facet_count
    glued = PseudoComplex(x.dim, n, _gluings(x))
    adj = reference_adjacency(glued)
    coloring = [None] * n
    coloring[0] = perm_identity(x.dim + 1)
    queue = [0]
    for f in queue:  # grows while it is read
        for gid, w in adj[f]:
            if coloring[w] is None:
                step = reference_perspectivity(glued, f, gid)
                coloring[w] = perm_compose(perm_inverse(step), coloring[f])
                queue.append(w)
    if len(queue) < n:
        missing = sorted(f for f in range(n) if coloring[f] is None)
        raise NotStronglyConnected(f"facets {missing} are not reachable from 0")
    for g in glued.gluings:
        ca, cb = coloring[g.facet_a], coloring[g.facet_b]
        if any(ca[v] != cb[g.mapping[i]] for i, v in enumerate(g.ridge_a)):
            return None
    out = {}
    for cid, refs in enumerate(reference_shape(x)[2]):
        if len(refs[0][1]) == 1:
            seen = {coloring[f][l] for f, (l,) in refs}
            if len(seen) > 1:
                return None
            out[cid] = seen.pop()
    return out


# ------------------------------------------------------------- diagnostics


@lru_cache(maxsize=4)
def reference_lsc_witness(x):
    """The first class of cardinality <= d-1 whose star is disconnected, by
    networkx: one graph on the pairs (class, copy holding it), where each
    gluing joins its two copies for every class its ridge holds."""
    members = reference_shape(x)[2]
    low = [cid for cid, refs in enumerate(members) if len(refs[0][1]) <= x.dim - 1]
    if not low:
        return True, None
    class_of = {ref: cid for cid in low for ref in members[cid]}
    stars = nx.Graph()
    stars.add_nodes_from((cid, f) for cid in low for f, _s in members[cid])
    stars.add_edges_from(
        ((cid, g.facet_a), (cid, g.facet_b))
        for g in _gluings(x)
        for k in range(1, x.dim)
        for cid in (class_of[g.facet_a, sub] for sub in combinations(g.ridge_a, k))
    )
    parts = Counter(next(iter(part))[0] for part in nx.connected_components(stars))
    split = [cid for cid in low if parts[cid] > 1]
    return (False, split[0]) if split else (True, None)


def reference_odd_subcomplex(x):
    """Odd faces from each class's members, with networkx deciding whether
    the link graph is bipartite, and the facets of the odd subcomplex."""
    ok, witness = reference_lsc_witness(x)
    if not ok:
        raise NotLocallyStronglyConnected(f"star of face class {witness} is disconnected")
    _d, _n, members, *_tables, keys, _slots = reference_shape(x)
    class_of = {ref: cid for cid, refs in enumerate(members) for ref in refs}
    d = x.dim
    odd = []
    for cid, refs in enumerate(members):
        if len(refs[0][1]) != d - 1:
            continue
        link = nx.Graph(
            [class_of[f, tuple(sorted((*s, a)))] for a in range(d + 1) if a not in s]
            for f, s in refs
        )
        if not nx.is_bipartite(link):
            odd.append(cid)
    if not odd:
        return (), None
    if keys is not None:
        facets = [keys[cid] for cid in odd]
    else:
        facets = [
            tuple(sorted(class_of[f, (l,)] for l in sub)) for f, sub in (members[c][0] for c in odd)
        ]
    return tuple(odd), AbstractComplex.from_facets(facets)


def reference_pseudo_manifold(x):
    """The census of how many copies hold each ridge class."""
    held = [len(refs) for refs in reference_shape(x)[2] if len(refs[0][1]) == x.dim]
    if any(k > 2 for k in held):
        return "no"
    return "closed" if all(k == 2 for k in held) else "with-boundary"


def reference_mod2_boundary_check(K, wanted):
    """The dense elimination of a matrix of codimension-2 faces by ridges,
    reduced row by row, with the free variables set to zero."""
    d = K.dim
    codim2 = K.faces(d - 2)
    ridges = K.faces(d - 1)
    index2 = {f: i for i, f in enumerate(codim2)}
    m, n = len(codim2), len(ridges)
    M = [[0] * (n + 1) for _ in range(m)]
    for j, rho in enumerate(ridges):
        for k in range(len(rho)):
            M[index2[rho[:k] + rho[k + 1 :]]][j] = 1
    for f in wanted:
        M[index2[f]][n] = 1
    pivots = []
    r = 0
    for c in range(n):
        hit = next((i for i in range(r, m) if M[i][c]), None)
        if hit is None:
            continue
        M[r], M[hit] = M[hit], M[r]
        for i in range(m):
            if i != r and M[i][c]:
                M[i] = [a ^ b for a, b in zip(M[i], M[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    if any(M[i][n] for i in range(r, m)):
        return False, None
    x = [0] * n
    for row, col in pivots:
        x[col] = M[row][n]
    return True, tuple(ridges[j] for j in range(n) if x[j])


def _facet_fingerprints(classes, dim):
    cards = [len(s) for s in nonempty_subsets(dim + 1)]
    sc, per, sizes = classes.slot_class, classes.per, classes.sizes
    out = []
    for f in range(classes.facet_count):
        pairs = sorted(zip(cards, (sizes[c] for c in sc[f * per : (f + 1) * per])))
        out.append(tuple(v for pair in pairs for v in pair))
    return out


def reference_isomorphic(p, q, constraints=None):
    """Backtracking over every target facet with a matching class-size
    fingerprint and, unconstrained, every label map."""
    if p.dim != q.dim:
        return None
    n = p.facet_count
    if n != q.facet_count:
        return None
    d = p.dim
    cp, cq = p.classes(), q.classes()
    if sorted(zip(cp.cards, cp.sizes)) != sorted(zip(cq.cards, cq.sizes)):
        return None
    subs = nonempty_subsets(d + 1)
    fp = _facet_fingerprints(cp, d)
    fq = _facet_fingerprints(cq, d)
    if sorted(fp) != sorted(fq):
        return None

    order = []
    seen = [False] * n
    adj = dual_graph(p).adjacency()
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            f = queue[head]
            head += 1
            order.append(f)
            for _gid, w in adj[f]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)

    lambdas = tuple(all_permutations(range(d + 1)))

    def candidates(f, used):
        for t in range(n):
            if used[t] or fq[t] != fp[f]:
                continue
            if constraints is not None:
                want, have = constraints
                if have.targets[t] != want.targets[f]:
                    continue
                yield t, perm_compose(want.local_maps[f], perm_inverse(have.local_maps[t]))
            else:
                for lam in lambdas:
                    yield t, lam

    facet_map = [-1] * n
    vertex_maps = [None] * n
    used = [False] * n
    class_map = {}
    class_rev = {}
    index = subset_index(d + 1)
    sp, sq, per = cp.slot_class, cq.slot_class, cp.per

    images = {}

    def try_assign(f, t, lam):
        image = images.get(lam)
        if image is None:
            image = images[lam] = [index[tuple(sorted(lam[v] for v in s))] for s in subs]
        added = []
        for i, j in enumerate(image):
            a = sp[f * per + i]
            b = sq[t * per + j]
            have = class_map.get(a)
            if have is not None:
                if have != b:
                    break
                continue
            if class_rev.get(b) is not None or cp.sizes[a] != cq.sizes[b]:
                break
            class_map[a] = b
            class_rev[b] = a
            added.append((a, b))
        else:
            return added
        for a, b in added:
            del class_map[a]
            del class_rev[b]
        return None

    stack = []
    depth = 0
    iterator = candidates(order[0], used)
    while True:
        f = order[depth]
        advanced = False
        for t, lam in iterator:
            trail = try_assign(f, t, lam)
            if trail is None:
                continue
            facet_map[f] = t
            vertex_maps[f] = lam
            used[t] = True
            stack.append((iterator, t, trail))
            depth += 1
            if depth == n:
                return IsoWitness(tuple(facet_map), tuple(vertex_maps))
            iterator = candidates(order[depth], used)
            advanced = True
            break
        if advanced:
            continue
        if not stack:
            return None
        iterator, t, trail = stack.pop()
        depth -= 1
        facet_map[order[depth]] = -1
        vertex_maps[order[depth]] = None
        used[t] = False
        for a, b in trail:
            del class_map[a]
            del class_rev[b]


# ---------------------------------------------------------------- unfoldings
#
# The lifting loops each unfolding ran on its own before both shared one
# lift, and components cut from the whole total by a full scan.


def reference_complete(x, base):
    pg = projectivity_group(x, base)
    elements = sorted(pg.group.elements)
    index = {g: i for i, g in enumerate(elements)}
    m = len(elements)
    n = x.facet_count
    lifted = []
    for gid, g in enumerate(x.gluings):
        step = perspectivity(x, g.facet_a, gid)
        hol = perm_compose(
            perm_compose(pg.transports[g.facet_a], step),
            perm_inverse(pg.transports[g.facet_b]),
        )
        for i, elt in enumerate(elements):
            j = index[perm_compose(elt, hol)]
            lifted.append(
                Gluing(g.facet_a * m + i, g.ridge_a, g.facet_b * m + j, g.ridge_b, g.mapping)
            )
    total = PseudoComplex(x.dim, n * m, tuple(lifted))
    labels = tuple(
        (f, perm_inverse(perm_compose(elt, pg.transports[f]))) for f in range(n) for elt in elements
    )
    projection = tuple(f for f in range(n) for _ in elements)
    return total, projection, labels


def reference_partial(x):
    width = x.dim + 1
    n = x.facet_count
    lifted = []
    for gid, g in enumerate(x.gluings):
        step = perspectivity(x, g.facet_a, gid)
        for v in range(width):
            b = g.facet_b * width + step[v]
            lifted.append(Gluing(g.facet_a * width + v, g.ridge_a, b, g.ridge_b, g.mapping))
    total = PseudoComplex(x.dim, n * width, tuple(lifted))
    projection = tuple(f for f in range(n) for _ in range(width))
    labels = tuple((f, v) for f in range(n) for v in range(width))
    return total, projection, labels


def reference_components(u):
    return [part_complex(u.total, members) for members in u.component_partition]


def reference_containing(u, copy):
    """The component of `u` holding `copy`, cut out of the whole total."""
    members = next(part for part in u.component_partition if copy in part)
    projection = tuple(u.projection[c] for c in members)
    labels = tuple(u.labels[c] for c in members)
    return Component(part_complex(u.total, members), members, projection, labels)


# ---------------------------------------------------------------- documents
#
# The dict-and-`json.dumps` version of the emit: each document is built as
# nested dicts and lists, its vertex classes come from the full face-class
# closure, and `json.dumps(doc, indent=1)` writes it.


def reference_simplicial_doc(K, vertex_labels):
    def lab(v):
        if vertex_labels is not None and v in vertex_labels:
            return str(vertex_labels[v])
        return str(v)

    return {
        "format_version": 1,
        "kind": "simplicial",
        "dim": K.dim,
        "facets": [[lab(v) for v in f] for f in K.facets],
    }


def reference_pseudo_doc(P):
    classes = P.classes()
    table = [
        [[f, sub[0]] for f, sub in classes.members_of(cid)]
        for cid in classes.classes_of_card(1)
    ]
    return {
        "format_version": 1,
        "kind": "pseudo",
        "dim": P.dim,
        "facet_count": P.facet_count,
        "gluings": [
            {
                "a": g.facet_a,
                "ridge_a": list(g.ridge_a),
                "b": g.facet_b,
                "ridge_b": list(g.ridge_b),
                "mapping": list(g.mapping),
            }
            for g in P.gluings
        ],
        "vertex_classes": table,
    }


def reference_copy_tags(kind, labels):
    if kind == "complete":
        return [{"facet": t[0], "coloring": "".join(map(str, t[1]))} for t in labels]
    return [{"facet": t[0], "vertex": t[1]} for t in labels]


def reference_emit(x, vertex_labels=None):
    if isinstance(x, AbstractComplex):
        doc = reference_simplicial_doc(x, vertex_labels)
    else:
        doc = reference_pseudo_doc(x)
    return json.dumps(doc, indent=1) + "\n"


def reference_emit_unfolding(u):
    doc = reference_pseudo_doc(u.total)
    doc["unfolding"] = {
        "mode": u.kind,
        "projection": list(u.projection),
        "copies": reference_copy_tags(u.kind, u.labels),
    }
    if u.component_partition is not None:
        doc["unfolding"]["components"] = [list(c) for c in u.component_partition]
    return json.dumps(doc, indent=1) + "\n"


def reference_emit_component(comp, kind):
    doc = reference_pseudo_doc(comp.complex)
    doc["unfolding"] = {
        "mode": kind,
        "projection": list(comp.projection),
        "copies": reference_copy_tags(kind, comp.labels),
        "source_copies": list(comp.member_copies),
    }
    return json.dumps(doc, indent=1) + "\n"


# -------------------------------------------------------------- subdivisions


@lru_cache(maxsize=None)
def reference_facet_shapes(dim: int):
    """The depth-first search the generator replaced: every subset is tried
    for containment and admissibility at every step."""
    d = dim
    full = tuple(range(d + 1))
    subsets = [tuple(s) for k in range(1, d + 2) for s in combinations(full, k)]
    shapes = []

    def extend(pairs, tau):
        if len(pairs) == d + 1:
            shapes.append(tuple(pairs))
            return
        for nxt in subsets:
            if tau is not None:
                if len(nxt) < len(tau) or not set(tau) <= set(nxt):
                    continue
            smaller = [t for t, _w in pairs if set(t) < set(nxt)]
            for w in nxt:
                if nxt == tau and w <= pairs[-1][1]:
                    continue
                if any(w in t for t in smaller):
                    continue
                pairs.append((nxt, w))
                extend(pairs, nxt)
                pairs.pop()

    extend([], None)
    return tuple(shapes)


def central_labels(rec):
    """The copy-0 label of each vertex of the central facet of copy 0."""
    classes = rec.source.classes()
    labels = []
    for vid in rec.result.facets[rec.central_facet(0)]:
        _tau_class, w_class = rec.vertex_provenance[vid]
        _f, (l,) = next(r for r in classes.members_of(w_class) if r[0] == 0)
        labels.append(l)
    return tuple(labels)


def reference_crumpling_group_pair(rec):
    """The crumpling group pair from a second search, at the central facet
    of copy 0."""
    x = rec.source
    d = x.dim
    sub_pg = projectivity_group(rec.result, base=rec.central_facet(0))
    mu = central_labels(rec)
    transported = [carried(g, mu) for g in sorted(sub_pg.group.elements)]
    lifted = PermutationGroup(d + 1, tuple((p, "transported") for p in transported))
    return lifted, projectivity_group(x).group


# -------------------------------------------------------- the whole report


def _yes(flag):
    return "yes" if flag else "no"


def _cycles(p):
    """Cycle notation by sympy, fixed points left out; "id" for the identity."""
    cycles = Permutation(list(p)).cyclic_form
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "id"


def oracle_analyze(text):
    """What `unfolder analyze` prints for document `text`, from the
    references alone: none of the library's face classes, derived gluings,
    search, dual graph or diagnostics is read."""
    doc = parse_document(text)
    x = doc.complex
    d, n = x.dim, x.facet_count
    glued = PseudoComplex(d, n, _gluings(x))
    _d, _n, members, *_tables, keys, _slots = reference_shape(x)
    counts = [0] * (d + 1)
    for refs in members:
        counts[len(refs[0][1]) - 1] += 1
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((g.facet_a, g.facet_b) for g in glued.gluings)
    connected = nx.is_connected(graph)
    lsc, _witness = reference_lsc_witness(x)
    lines = [
        f"kind: {doc.kind}",
        f"dim: {d}",
        f"facets: {n}",
        "face counts by dimension: " + " ".join(map(str, counts)),
        f"strongly connected: {_yes(connected)}",
        f"locally strongly connected: {_yes(lsc)}",
        f"pseudo-manifold: {reference_pseudo_manifold(x)}",
        f"orientable: {_yes(reference_orientable(glued))}",
        f"euler characteristic: {sum((-1) ** k * c for k, c in enumerate(counts))}",
    ]
    if not connected:
        lines.append("balanced: n/a (dual graph disconnected)")
        lines.append("Pi order: n/a (dual graph disconnected)")
    else:
        lines.append(f"balanced: {_yes(reference_balanced_coloring(x) is not None)}")
        group = reference_group(glued)
        lines.append(f"Pi order: {group.order()}")
        gens = reference_search(glued, 0)["group"][0]
        if gens:
            lines.append("Pi generators:")
            lines += [f"  {_cycles(p)} from {tag}" for p, tag in gens]
        else:
            lines.append("Pi generators: none")
        orbits = sorted(sorted(orbit) for orbit in group.orbits())
        lines.append("Pi orbits: " + " ".join("{" + ",".join(map(str, o)) + "}" for o in orbits))
    if not lsc:
        lines.append("odd subcomplex: n/a (not locally strongly connected)")
    else:
        odd, _complex = reference_odd_subcomplex(x)
        if not odd:
            lines.append("odd subcomplex: empty")
        else:
            lines.append(f"odd subcomplex: {len(odd)} classes of codimension 2")
            for cid in odd:
                if keys is None:
                    lines.append(f"  class {cid}")
                else:
                    labels = doc.vertex_labels
                    shown = ",".join(str(v) if labels is None else labels[v] for v in keys[cid])
                    lines.append(f"  class {cid} = vertices ({shown})")
    return "\n".join(lines) + "\n"
