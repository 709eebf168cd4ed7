"""The integer-slot closure kernel against the union-find closure it replaced.

The reference functions below are the earlier `_UnionFind`-based builders of
face classes, derived gluings and vertex classes, kept as they were: every
subface is rebuilt with `combinations` and `sorted`, and the classes
are sorted into id order at the end.  The library must give the same
classes, ids, gluings and `SelfIdentification` messages.

The readers that scan each copy's slots (local strong connectivity, the
balanced coloring, the odd subcomplex, the pseudo-manifold census) are
checked against references that walk each class's member tuples, and the
readers that need only counts and first members must never build the class
-> slot index those tuples come from.
"""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_emit import pseudo_complexes

from unfolder import cli
from unfolder.complexes import (
    AbstractComplex,
    FaceClasses,
    Gluing,
    PseudoComplex,
    _roots,
    as_pseudo,
    is_simplicial,
    nonempty_subsets,
    vertex_classes,
)
from unfolder.diagnostics import (
    balanced_coloring,
    euler_characteristic,
    is_locally_strongly_connected,
    is_pseudo_manifold,
    odd_subcomplex,
)
from unfolder.errors import (
    Mismatch,
    NotLocallyStronglyConnected,
    SelfIdentification,
    UnfolderError,
)
from unfolder.gallery import boundary_simplex, gallery_entries, knot_neighborhood, pinched_strip
from unfolder.io import emit
from unfolder.projectivities import projectivity_group
from unfolder.subdivisions import antiprismatic, barycentric, iterate


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


def reference_derived_gluings(K):
    d = K.dim
    by_ridge = {}
    for i, f in enumerate(K.facets):
        for ridge in combinations(f, d):
            by_ridge.setdefault(ridge, []).append(i)
    pairs = []
    for ridge, holders in by_ridge.items():
        for i, j in combinations(holders, 2):
            pairs.append((i, j, ridge))
    pairs.sort()
    out = []
    for i, j, ridge in pairs:
        fa, fb = K.facets[i], K.facets[j]
        ra = tuple(fa.index(v) for v in ridge)
        mapping = tuple(fb.index(v) for v in ridge)
        out.append(Gluing(i, ra, j, tuple(sorted(mapping)), mapping))
    return tuple(out)


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


def outcome(fn, *args):
    """The result of `fn(*args)`, or the type and message of its error."""
    try:
        result = fn(*args)
    except UnfolderError as e:
        return type(e), str(e)
    return face_classes_shape(result) if isinstance(result, FaceClasses) else result


def shuffled(K, seed):
    """`K` with its vertices relabelled and its facet rows shuffled."""
    rng = random.Random(seed)
    labels = list(K.vertices())
    rng.shuffle(labels)
    rows = [[labels[v] for v in f] for f in K.facets]
    rng.shuffle(rows)
    return AbstractComplex.from_facets(rows)


def shuffled_pseudo(P, seed):
    """`P` with its copies renumbered and its gluing order shuffled."""
    rng = random.Random(seed)
    new = list(range(P.facet_count))
    rng.shuffle(new)
    gluings = [
        Gluing(new[g.facet_a], g.ridge_a, new[g.facet_b], g.ridge_b, g.mapping) for g in P.gluings
    ]
    rng.shuffle(gluings)
    return PseudoComplex(P.dim, P.facet_count, tuple(gluings))


def _cases():
    cases = []
    for e in gallery_entries():
        cases.append((e.name, e.complex))
        if e.complex.facet_count <= 50:
            for op in (barycentric, antiprismatic):
                cases.append((f"{op.__name__}({e.name})", iterate(op, e.complex, 1)))
    bary2 = shuffled(iterate(barycentric, boundary_simplex(3), 2), 20261018)
    cases.append(("shuffled bary2(d3)", bary2))
    cases.append(("shuffled as_pseudo(bary2(d3))", shuffled_pseudo(as_pseudo(bary2), 7)))
    return cases


CASES = _cases()
IDS = [name for name, _x in CASES]


@pytest.mark.parametrize("x", [x for _name, x in CASES], ids=IDS)
def test_face_classes_and_gluings_match_the_reference(x):
    if isinstance(x, AbstractComplex):
        got = FaceClasses.from_abstract(x.facets, x.dim)
        want = reference_from_abstract(x.facets, x.dim)
        assert face_classes_shape(got) == want
        assert x.derived_gluings() == reference_derived_gluings(x)
        # as_pseudo does not check the derived gluings again
        assert as_pseudo(x) == PseudoComplex(x.dim, x.facet_count, x.derived_gluings())
        x = as_pseudo(x)
    got = FaceClasses.from_glued(x.dim, x.facet_count, x.gluings)
    want = reference_from_glued(x.dim, x.facet_count, x.gluings)
    assert face_classes_shape(got) == want


def test_class_of_answers_as_the_reference_dict_did():
    for x in (boundary_simplex(3), as_pseudo(iterate(barycentric, boundary_simplex(2), 1))):
        classes = x.classes()
        by_ref = {ref: cid for cid in range(classes.count) for ref in classes.members_of(cid)}
        assert {ref: classes.class_of(ref) for ref in by_ref} == by_ref
        for bad in ((-1, (0,)), (x.facet_count, (0,)), (0, (0, 0)), (0, (9,))):
            with pytest.raises(KeyError):
                classes.class_of(bad)


@pytest.mark.parametrize("x", [x for _name, x in CASES], ids=IDS)
def test_vertex_classes_match_the_reference(x):
    assert vertex_classes(x) == reference_vertex_classes(x)
    if isinstance(x, AbstractComplex):
        P = as_pseudo(x)
        assert vertex_classes(P) == reference_vertex_classes(P)


@settings(max_examples=300, deadline=None)
@given(pseudo_complexes())
def test_random_pseudo_complexes_match_the_reference(P):
    args = (P.dim, P.facet_count, P.gluings)
    assert outcome(FaceClasses.from_glued, *args) == outcome(reference_from_glued, *args)
    fresh = PseudoComplex(*args)
    assert outcome(vertex_classes, fresh) == outcome(reference_vertex_classes, P)


def test_self_identification_names_the_reference_faces():
    # two gluings of the same pair of copies that disagree identify vertices
    bad = PseudoComplex(
        2,
        3,
        (
            Gluing(0, (0, 1), 1, (0, 1), (0, 1)),
            Gluing(0, (1, 2), 1, (0, 1), (0, 1)),
            Gluing(1, (0, 2), 2, (0, 2), (2, 0)),
        ),
    )
    got = outcome(FaceClasses.from_glued, bad.dim, bad.facet_count, bad.gluings)
    assert got[0] is SelfIdentification
    assert got == outcome(reference_from_glued, bad.dim, bad.facet_count, bad.gluings)
    assert outcome(vertex_classes, bad) == outcome(reference_vertex_classes, bad)


@st.composite
def abstract_complexes(draw):
    d = draw(st.integers(0, 3))
    facet = st.lists(st.integers(0, d + 4), min_size=d + 1, max_size=d + 1, unique=True)
    return AbstractComplex.from_facets(draw(st.lists(facet, min_size=1, max_size=12)))


@settings(max_examples=150, deadline=None)
@given(abstract_complexes())
def test_random_abstract_complexes_match_the_reference(K):
    got = FaceClasses.from_abstract(K.facets, K.dim)
    want = reference_from_abstract(K.facets, K.dim)
    assert face_classes_shape(got) == want
    assert K.derived_gluings() == reference_derived_gluings(K)
    assert as_pseudo(K) == PseudoComplex(K.dim, K.facet_count, K.derived_gluings())
    assert vertex_classes(K) == reference_vertex_classes(K)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_roots_are_the_smallest_slot_of_each_networkx_component(data):
    n = data.draw(st.integers(1, 40))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pairs)
    want = [0] * n
    for comp in nx.connected_components(g):
        for v in comp:
            want[v] = min(comp)
    assert _roots(n, pairs) == want


def reference_lsc_witness(x):
    """The first class of cardinality <= d-1 whose star, the facets holding
    it joined through shared ridges, is disconnected."""
    classes = x.classes()
    if isinstance(x, PseudoComplex) or x.dim < 2:
        return True, None
    for cid in range(classes.count):
        if classes.cards[cid] > x.dim - 1:
            break
        face = set(classes.face_key(cid))
        star = [set(f) for f in x.facets if face <= set(f)]
        g = nx.Graph()
        g.add_nodes_from(range(len(star)))
        g.add_edges_from(
            (i, j) for i, j in combinations(range(len(star)), 2) if len(star[i] & star[j]) == x.dim
        )
        if not nx.is_connected(g):
            return False, cid
    return True, None


def reference_balanced_coloring(x):
    pg = projectivity_group(x)
    if not pg.group.is_trivial:
        return None
    classes = x.classes()
    out = {}
    for cid in classes.classes_of_card(1):
        seen = {pg.transports[f].index(l) for f, (l,) in classes.members_of(cid)}
        if len(seen) > 1:
            return None
        out[cid] = seen.pop()
    return list(out.items())


def reference_odd_subcomplex(x):
    """Odd faces from each class's members, with networkx deciding
    bipartiteness, and the facets of the odd subcomplex."""
    ok, witness = reference_lsc_witness(x)
    if not ok:
        raise NotLocallyStronglyConnected(f"star of face class {witness} is disconnected")
    classes, d = x.classes(), x.dim
    odd = []
    for cid in classes.classes_of_card(d - 1):
        g = nx.MultiGraph()
        for f, s in classes.members_of(cid):
            ridges = (tuple(sorted((*s, a))) for a in range(d + 1) if a not in s)
            u, v = (classes.class_of((f, r)) for r in ridges)
            if u == v:
                raise Mismatch(f"loop in the link graph of class {cid}")
            g.add_edge(u, v)
        if not nx.is_bipartite(g):
            odd.append(cid)
    if classes.facets is not None:
        facets = [classes.face_key(cid) for cid in odd]
    else:
        facets = [
            tuple(sorted(classes.class_of((f, (l,))) for l in sub))
            for f, sub in (classes.members_of(cid)[0] for cid in odd)
        ]
    return tuple(odd), (AbstractComplex.from_facets(facets) if odd else None)


def reference_pseudo_manifold(x):
    classes = x.classes()
    degrees = [len(classes.members_of(cid)) for cid in classes.classes_of_card(x.dim)]
    if any(k > 2 for k in degrees):
        return "no"
    return "closed" if all(k == 2 for k in degrees) else "with-boundary"


def slot_scans_and_references(x):
    """(library, reference) outcome pairs of the four slot-scan readers."""

    def coloring(x):
        got = balanced_coloring(x)
        return None if got is None else list(got.items())

    def odd(x):
        got = odd_subcomplex(x)
        return got.odd_faces, got.as_complex

    return [
        (outcome(is_locally_strongly_connected, x), outcome(reference_lsc_witness, x)),
        (outcome(coloring, x), outcome(reference_balanced_coloring, x)),
        (outcome(odd, x), outcome(reference_odd_subcomplex, x)),
        (outcome(is_pseudo_manifold, x), outcome(reference_pseudo_manifold, x)),
    ]


@pytest.mark.parametrize("e", gallery_entries(), ids=lambda e: e.name)
def test_slot_scans_match_the_member_references(e):
    x = e.complex
    for y in (x, as_pseudo(x)) if isinstance(x, AbstractComplex) else (x,):
        for got, want in slot_scans_and_references(y):
            assert got == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(pseudo_complexes(), abstract_complexes()))
def test_slot_scans_match_the_member_references_on_random_complexes(x):
    for got, want in slot_scans_and_references(x):
        assert got == want


def test_counts_and_first_members_build_no_member_tuple(monkeypatch, capsys, tmp_path):
    def refuse(classes):
        raise AssertionError("class -> slot index built")

    monkeypatch.setattr(FaceClasses, "by_class", property(refuse))
    klein = knot_neighborhood(3, "klein").complex
    for x in (boundary_simplex(3), klein, pinched_strip()):
        path = tmp_path / "x.json"
        path.write_text(emit(x))
        assert cli.main(["analyze", str(path)]) == 0
        assert "odd subcomplex: " in capsys.readouterr().out
    assert is_simplicial(as_pseudo(antiprismatic(boundary_simplex(3)).result)) == (True, None)
    assert euler_characteristic(antiprismatic(klein).result) == 0
