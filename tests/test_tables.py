"""The compact incidence index and face tables against the constructions they
replaced.

Each reference below is the earlier per-pair construction, kept as it was:
the dual graph's (gluing id, neighbour) tuples per facet, the face keys
collected while `from_abstract` numbered its faces, `derived_gluings` from
a dict keyed by ridge tuples and a sort, and the odd subcomplex from one
edge list per codimension-2 class.  The library must give the same answers,
errors included.
"""

import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_closure import face_classes_shape, reference_from_glued
from test_emit import pseudo_complexes

from unfolder import complexes
from unfolder.complexes import (
    MAX_CLOSURE_SLOTS,
    AbstractComplex,
    FaceClasses,
    Gluing,
    PseudoComplex,
    as_pseudo,
    dual_graph,
    gluings_from,
    nonempty_subsets,
    subset_index,
)
from unfolder.diagnostics import is_locally_strongly_connected, odd_subcomplex
from unfolder.errors import (
    BadParameter,
    Mismatch,
    NotLocallyStronglyConnected,
    UnfolderError,
)
from unfolder.gallery import boundary_simplex, gallery_entries, knot_neighborhood
from unfolder.io import parse_document
from unfolder.projectivities import star_group
from unfolder.subdivisions import antiprismatic, barycentric, iterate
from unfolder.unfoldings import branching_index, partial_unfolding


def reference_adjacency(x):
    """Each facet's (gluing id, neighbour) pairs, in gluing-id order."""
    adj = [[] for _ in range(x.facet_count)]
    for gid, g in enumerate(x.gluings):
        adj[g.facet_a].append((gid, g.facet_b))
        adj[g.facet_b].append((gid, g.facet_a))
    return adj


def reference_face_keys(K):
    """The face tuples in the order `from_abstract` first met them."""
    ids = {}
    for k in range(1, K.dim + 2):
        for verts in K.facets:
            for face in combinations(verts, k):
                ids.setdefault(face, len(ids))
    return tuple(ids)


def reference_derived_gluings(K, limit=MAX_CLOSURE_SLOTS):
    d = K.dim
    rest = tuple(tuple(p for p in range(d + 1) if p != o) for o in range(d + 1))
    by_ridge = {}
    for i, f in enumerate(K.facets):
        for o, ridge in zip(range(d, -1, -1), combinations(f, d)):
            by_ridge.setdefault(ridge, []).append((i, o))
    count = sum(comb(len(holders), 2) for holders in by_ridge.values())
    if count > limit:
        raise BadParameter(f"{count} derived gluings are above the limit {limit}")
    pairs = sorted(
        (i, j, oi, oj)
        for holders in by_ridge.values()
        for (i, oi), (j, oj) in combinations(holders, 2)
    )
    return tuple(Gluing(i, rest[oi], j, rest[oj], rest[oj]) for i, j, oi, oj in pairs)


def reference_link_graph_is_bipartite(cid, edges):
    adj = {}
    for u, v in edges:
        if u == v:
            raise Mismatch(f"loop in the link graph of class {cid}")
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color = {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def reference_odd_subcomplex(x):
    """Odd faces from one edge list per codimension-2 class, and the facets
    of the odd subcomplex."""
    ok, witness = is_locally_strongly_connected(x)
    if not ok:
        raise NotLocallyStronglyConnected(f"star of face class {witness} is disconnected")
    d = x.dim
    classes = x.classes()
    sc, per = classes.slot_class, classes.per
    index = subset_index(d + 1)
    ends = [
        (index[s], *[index[tuple(sorted((*s, a)))] for a in range(d + 1) if a not in s])
        for s in nonempty_subsets(d + 1)
        if len(s) == d - 1
    ]
    codim2 = classes.classes_of_card(d - 1)
    edges = {c: [] for c in codim2}
    for at in range(0, len(sc), per):
        for i, ra, rb in ends:
            edges[sc[at + i]].append((sc[at + ra], sc[at + rb]))
    odd = []
    for c in codim2:
        e = edges[c]
        if len(e) > 2:
            if not reference_link_graph_is_bipartite(c, e):
                odd.append(c)
        elif any(u == v for u, v in e):
            raise Mismatch(f"loop in the link graph of class {c}")
    if not odd:
        return (), None
    if isinstance(x, AbstractComplex):
        facets = [reference_face_keys(x)[cid] for cid in odd]
    else:
        facets = [classes.vertex_classes_of(cid) for cid in odd]
    return tuple(odd), AbstractComplex.from_facets(facets)


def outcome(fn, *args):
    """`fn(*args)`, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except UnfolderError as e:
        return type(e), str(e)


def library_odd_subcomplex(x):
    odd = odd_subcomplex(x)
    return odd.odd_faces, odd.as_complex


def with_loose_copies(P, loose):
    """`P` with `loose` unglued copies interleaved among its own."""
    n = P.facet_count + loose
    keep = [f for f in range(n) if f % 3 != 1 or f // 3 >= loose]
    gluings = tuple(
        Gluing(keep[g.facet_a], g.ridge_a, keep[g.facet_b], g.ridge_b, g.mapping)
        for g in P.gluings
    )
    return PseudoComplex(P.dim, n, gluings)


BARY_D3 = barycentric(boundary_simplex(3)).result


def _cases():
    cases = []
    for e in gallery_entries():
        for name, x in (
            (e.name, e.complex),
            (f"barycentric({e.name})", barycentric(e.complex).result),
            (f"antiprismatic({e.name})", antiprismatic(e.complex).result),
        ):
            cases.append((name, x))
            if isinstance(x, AbstractComplex):
                cases.append((f"as_pseudo({name})", as_pseudo(x)))
    cases.append(("bary(d3) with loose copies", with_loose_copies(as_pseudo(BARY_D3), 5)))
    return cases


CASES = _cases()
IDS = [name for name, _x in CASES]


def assert_tables_match(x):
    """Every comparison of this module on one complex."""
    if isinstance(x, AbstractComplex):
        want = outcome(reference_derived_gluings, x)
        assert outcome(x.derived_gluings) == want
        classes = x.classes()
        assert tuple(map(classes.face_key, range(classes.count))) == reference_face_keys(x)
        if want[:1] == (BadParameter,):
            return
    dg = dual_graph(x)
    want = reference_adjacency(x)
    assert [list(dg.incident(f)) for f in range(x.facet_count)] == want
    assert dg.adjacency() == dict(enumerate(want))
    assert list(dg.offsets) == [sum(map(len, want[:f])) for f in range(x.facet_count + 1)]
    even = range(0, x.facet_count, 2)
    assert gluings_from(x, even) == [gid for gid, g in enumerate(x.gluings) if g.facet_a % 2 == 0]
    try:
        classes = x.classes()
    except UnfolderError:
        return
    if isinstance(x, PseudoComplex):
        assert classes.facets is None
        with pytest.raises(BadParameter):
            classes.face_key(0)
    assert outcome(library_odd_subcomplex, x) == outcome(reference_odd_subcomplex, x)


@pytest.mark.parametrize("x", [x for _name, x in CASES], ids=IDS)
def test_tables_match_the_references(x):
    assert_tables_match(x)


@pytest.mark.parametrize("loose", [1, 5, 12])
def test_loose_copies_get_the_classes_of_the_full_closure(loose):
    # the union-find skips copies that no gluing joins; the reference unites
    # over every slot
    x = with_loose_copies(as_pseudo(BARY_D3), loose)
    for y in (x, PseudoComplex(x.dim, loose, ())):
        got = FaceClasses.from_glued(y.dim, y.facet_count, y.gluings)
        want = reference_from_glued(y.dim, y.facet_count, y.gluings)
        assert face_classes_shape(got) == want


@st.composite
def abstract_complexes(draw):
    d = draw(st.integers(0, 3))
    v = draw(st.integers(d + 1, d + 5))
    facets = draw(
        st.lists(
            st.lists(st.integers(0, v - 1), min_size=d + 1, max_size=d + 1, unique=True),
            min_size=1,
            max_size=12,
        )
    )
    return AbstractComplex.from_facets(facets)


@settings(max_examples=200, deadline=None)
@given(st.one_of(pseudo_complexes(), abstract_complexes()))
def test_tables_match_the_references_on_random_complexes(x):
    assert_tables_match(x)


def test_the_derived_gluings_are_counted_before_they_are_built(monkeypatch):
    entries = [e.complex for e in gallery_entries() if isinstance(e.complex, AbstractComplex)]
    monkeypatch.setattr(complexes, "MAX_CLOSURE_SLOTS", 10)
    refused = 0
    for x in entries:
        K = AbstractComplex.from_facets(x.facets)  # nothing kept on it yet
        want = outcome(reference_derived_gluings, K, 10)
        assert outcome(K.derived_gluings) == want
        refused += want[:1] == (BadParameter,)
    assert 0 < refused < len(entries)


def test_a_loop_in_a_link_graph_names_the_smallest_class():
    # a copy whose two ridges through a codimension-2 face share a class has
    # a loop in that face's link graph; a face table never holds one, so two
    # copies' ridge slots are overwritten, and both codes name one class
    entries = gallery_entries()
    for x in (barycentric(entries[1].complex).result, as_pseudo(entries[3].complex)):
        classes = x.classes()
        is_locally_strongly_connected(x)
        sc, per, d = list(classes.slot_class), classes.per, x.dim
        assert d == 2
        # the two ridges through local vertex 0
        ra, rb = subset_index(3)[(0, 1)], subset_index(3)[(0, 2)]
        for f in (x.facet_count - 1, 1):
            sc[f * per + rb] = sc[f * per + ra]
        looped = FaceClasses(d, x.facet_count, classes.cards, classes.first, sc)
        x.__dict__["_memo_classes"] = looped
        want = outcome(reference_odd_subcomplex, x)
        assert want[0] is Mismatch
        assert outcome(library_odd_subcomplex, x) == want


def test_a_document_of_loose_copies_keeps_its_face_table_small():
    # 2000 unglued copies of the 8-simplex: 1022000 slots, each a class;
    # the tables hold 4 bytes a slot and a class
    text = '{"kind": "pseudo", "dim": 8, "facet_count": 2000}'
    tracemalloc.start()
    try:
        x = parse_document(text).complex
        classes = x.classes()
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 40 * 2**20
    assert classes.count == 2000 * 511
    assert list(classes.slot_class[511 * 7 : 511 * 7 + 3]) == [7 * 9, 7 * 9 + 1, 7 * 9 + 2]


def _live_growth(call):
    """The bytes `call()` leaves live, under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result is not None
    return after - before


def _index_bytes(classes):
    """The class -> slot index: 4 bytes a slot, and 4 bytes a class each for
    its member counts and its offsets."""
    return 4 * (len(classes.slot_class) + 2 * classes.count + 1)


def test_one_class_queries_keep_only_the_class_index():
    # with the face classes and the incidence index built, asking about one
    # class keeps no data for every other class: a star group walks the
    # incidence index and keeps nothing, a branching index keeps the class ->
    # slot index (each with 64 KiB for the answer and the caches it fills)
    slack = 64 * 2**10
    x = iterate(barycentric, boundary_simplex(3), 4)
    classes = x.classes()
    dual_graph(x)
    assert classes.count == 15554
    assert _live_growth(lambda: star_group(x, 0)) < slack
    u = partial_unfolding(knot_neighborhood(30, "klein").complex)
    total, base = u.total.classes(), u.base.classes()
    assert total.count == 10260
    bound = _index_bytes(total) + 4 * base.count + slack  # and the base's member counts
    assert _live_growth(lambda: branching_index(u, 0)) < bound
