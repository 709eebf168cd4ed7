"""The isomorphism search against a scan-every-facet reference.

In `reference_isomorphic` each facet tries every unused target facet with
a matching class-size fingerprint and, unconstrained, every label map.
The library must agree with it on whether a witness exists, and every
witness it returns must be an isomorphism of face structure.
"""

import random

import pytest
from corpus import pseudo_complexes
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_isomorphic

from unfolder.complexes import (
    AbstractComplex,
    Gluing,
    PseudoComplex,
    as_pseudo,
    nonempty_subsets,
    subset_index,
)
from unfolder.diagnostics import ProjectionConstraint, isomorphic
from unfolder.errors import SelfIdentification, UnfolderError
from unfolder.gallery import gallery_entries, pinched_strip
from unfolder.permutations import perm_compose, perm_inverse
from unfolder.unfoldings import complete_unfolding, partial_unfolding


def assert_witness(p, q, w, constraints=None):
    """`w` maps facets bijectively, and face classes one-to-one onto q's."""
    n, d = p.facet_count, p.dim
    assert sorted(w.facet_map) == list(range(n))
    assert all(sorted(lam) == list(range(d + 1)) for lam in w.vertex_maps)
    cp, cq = p.classes(), q.classes()
    subs, index, per = nonempty_subsets(d + 1), subset_index(d + 1), cp.per
    class_map = {}
    for f, (t, lam) in enumerate(zip(w.facet_map, w.vertex_maps)):
        for i, s in enumerate(subs):
            j = index[tuple(sorted(lam[v] for v in s))]
            a, b = cp.slot_class[f * per + i], cq.slot_class[t * per + j]
            assert class_map.setdefault(a, b) == b
    assert len(class_map) == cp.count == cq.count
    assert len(set(class_map.values())) == cq.count
    if constraints is not None:
        want, have = constraints
        for f, (t, lam) in enumerate(zip(w.facet_map, w.vertex_maps)):
            assert have.targets[t] == want.targets[f]
            assert lam == perm_compose(want.local_maps[f], perm_inverse(have.local_maps[t]))


def check_agrees(p, q, constraints=None):
    """The search agrees with the reference; returns whether a witness exists."""
    w = isomorphic(p, q, constraints)
    assert (w is None) == (reference_isomorphic(p, q, constraints) is None)
    if w is not None:
        assert_witness(p, q, w, constraints)
    return w is not None


def relabel_abstract(K, rng):
    verts = list(K.vertices())
    new = rng.sample(range(10 * len(verts)), len(verts))
    m = dict(zip(verts, new))
    return AbstractComplex.from_facets([[m[v] for v in f] for f in K.facets])


def relabel_pseudo(P, rng):
    """P with its copies renumbered by `pi`, copy f's local labels moved by
    `sigma[f]`, gluing sides swapped at random and the gluings shuffled."""
    n, width = P.facet_count, P.dim + 1
    pi = rng.sample(range(n), n)
    sigma = [tuple(rng.sample(range(width), width)) for _ in range(n)]
    gluings = []
    for g in P.gluings:
        a, b = g.facet_a, g.facet_b
        pairs = [(sigma[a][v], sigma[b][w]) for v, w in zip(g.ridge_a, g.mapping)]
        if rng.random() < 0.5:
            a, b, pairs = b, a, [(w, v) for v, w in pairs]
        pairs.sort()
        ridge_a, mapping = tuple(v for v, _w in pairs), tuple(w for _v, w in pairs)
        gluings.append(Gluing(pi[a], ridge_a, pi[b], tuple(sorted(mapping)), mapping))
    rng.shuffle(gluings)
    return PseudoComplex(P.dim, n, tuple(gluings)), pi, sigma


def relabel(x, rng):
    if isinstance(x, AbstractComplex):
        return relabel_abstract(x, rng)
    return relabel_pseudo(x, rng)[0]


ENTRIES = {e.name: e.complex for e in gallery_entries()}


def _unfoldings(x):
    out = [partial_unfolding(x)]
    try:
        out.append(complete_unfolding(x))
    except UnfolderError:
        pass
    return out


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_gallery_entries_match_seeded_relabelings(name):
    rng = random.Random(f"iso:{name}")
    x = ENTRIES[name]
    shapes = [x] if isinstance(x, PseudoComplex) else [x, as_pseudo(x)]
    for y in shapes:
        for _ in range(3):
            assert check_agrees(y, relabel(y, rng))


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_unfoldings_match_seeded_relabelings_with_and_without_projections(name):
    rng = random.Random(f"unf:{name}")
    x = ENTRIES[name]
    for u in _unfoldings(x):
        q, pi, sigma = relabel_pseudo(u.total, rng)
        assert check_agrees(u.total, q)
        targets, lmaps = [0] * len(pi), [()] * len(pi)
        for f, t in enumerate(pi):
            targets[t] = u.projection[f]
            lmaps[t] = perm_inverse(sigma[f])
        want = ProjectionConstraint.identity_on(u.projection, x.dim + 1)
        assert check_agrees(u.total, q, (want, ProjectionConstraint(tuple(targets), tuple(lmaps))))


def test_base_changes_and_unrelated_gallery_pairs_agree_with_the_reference():
    entries = list(ENTRIES.items())
    for name, x in entries:
        try:
            a = complete_unfolding(x)
            b = complete_unfolding(x, base=x.facet_count - 1)
        except UnfolderError:
            continue
        assert check_agrees(a.total, b.total), name
    for i, (_n1, x) in enumerate(entries):
        for _n2, y in entries[i + 1 :]:
            check_agrees(x, y)


def test_pinched_strip_matches_its_relabelings_and_unfoldings():
    rng = random.Random("figure3")
    K = pinched_strip()
    assert check_agrees(K, relabel_abstract(K, rng))
    assert check_agrees(as_pseudo(K), relabel(as_pseudo(K), rng))
    for u in _unfoldings(K):
        assert check_agrees(u.total, relabel(u.total, rng))


def _edges_at_one_vertex(pairs):
    return PseudoComplex(1, 4, tuple(Gluing(a, (0,), b, (0,), (0,)) for a, b in pairs))


def test_a_star_of_edges_is_isomorphic_to_a_chain_of_edges():
    # four edges through one vertex, glued around copy 0 or one after another:
    # no dual-graph neighbour of the parent's image is left for the last edge
    star = _edges_at_one_vertex([(0, 1), (0, 2), (0, 3)])
    chain = _edges_at_one_vertex([(0, 1), (1, 2), (2, 3)])
    assert check_agrees(star, chain)
    assert check_agrees(chain, star)


def test_points_glued_across_the_empty_ridge():
    glued = PseudoComplex(0, 3, (Gluing(0, (), 1, (), ()), Gluing(1, (), 2, (), ())))
    loose = PseudoComplex(0, 3, ())
    assert check_agrees(glued, loose)
    assert check_agrees(loose, glued)


@settings(max_examples=150, deadline=None)
@given(pseudo_complexes(), pseudo_complexes(), st.integers(0, 2**32))
def test_random_pseudo_complexes_agree_with_the_reference(P, Q, seed):
    try:
        P.classes()
    except SelfIdentification:
        return
    assert check_agrees(P, relabel(P, random.Random(seed)))
    try:
        Q.classes()
    except SelfIdentification:
        return
    check_agrees(P, Q)
