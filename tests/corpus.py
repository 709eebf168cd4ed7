"""Shared test inputs: named complexes, shuffled variants, branched complexes,
seeded random drafts and the hypothesis strategies.

Each builder is kept once here, so that every test module draws from the
same corpus.  This module holds no tests.
"""

import random
from functools import lru_cache
from itertools import permutations

from hypothesis import strategies as st

from unfolder.complexes import AbstractComplex, Gluing, PseudoComplex, as_pseudo
from unfolder.errors import UnfolderError
from unfolder.gallery import boundary_simplex, gallery_entries, knot_neighborhood
from unfolder.subdivisions import antiprismatic, barycentric, iterate
from unfolder.unfoldings import complete_unfolding, partial_unfolding


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


@lru_cache(maxsize=1)
def shuffled_bary2():
    """bary^2 of the 3-simplex's boundary, relabelled and reordered, and the
    same as a pseudo-complex with its copies and gluings reordered."""
    K = shuffled(iterate(barycentric, boundary_simplex(3), 2), 20261018)
    return (
        ("shuffled bary2(d3)", K),
        ("shuffled as_pseudo(bary2(d3))", shuffled_pseudo(as_pseudo(K), 7)),
    )


def gallery_cases():
    """Every gallery entry, and the shuffled bary^2 pair."""
    return [(e.name, e.complex) for e in gallery_entries()] + list(shuffled_bary2())


def with_loose_copies(P, loose):
    """`P` with `loose` unglued copies interleaved among its own."""
    n = P.facet_count + loose
    keep = [f for f in range(n) if f % 3 != 1 or f // 3 >= loose]
    gluings = tuple(
        Gluing(keep[g.facet_a], g.ridge_a, keep[g.facet_b], g.ridge_b, g.mapping)
        for g in P.gluings
    )
    return PseudoComplex(P.dim, n, gluings)


def branched_cases():
    """The boundaries of the 3- and 4-simplex with one to four extra simplices
    glued onto ridges, so that some ridge is held three or more times: in
    abstract form, as pseudo-complexes, and barycentrically subdivided, which
    makes them balanced, so their branched links are even.  A vertex shared
    by two extra simplices and nothing else has a disconnected star."""
    d3, d4 = list(boundary_simplex(3).facets), list(boundary_simplex(4).facets)
    extras = {
        "d3+1": d3 + [(0, 1, 4)],
        "d3+2 on one ridge": d3 + [(0, 1, 4), (0, 1, 5)],
        "d3+2": d3 + [(0, 1, 4), (2, 3, 5)],
        "d3+4": d3 + [(0, 1, 4), (0, 2, 5), (1, 3, 6), (2, 3, 4)],
        "d4+1": d4 + [(0, 1, 2, 5)],
        "d4+2": d4 + [(0, 1, 2, 5), (2, 3, 4, 6)],
        "d4+3": d4 + [(0, 1, 2, 5), (2, 3, 4, 6), (0, 1, 3, 6)],
        "d4+4": d4 + [(0, 1, 2, 5), (2, 3, 4, 6), (0, 1, 3, 6), (1, 2, 5, 7)],
    }
    cases = []
    for name, facets in extras.items():
        K = AbstractComplex.from_facets(facets)
        cases.append((f"branched {name}", K))
        cases.append((f"branched as_pseudo({name})", as_pseudo(K)))
        if K.facet_count <= 6:
            cases.append((f"branched barycentric({name})", barycentric(K).result))
    return cases


@lru_cache(maxsize=1)
def named_cases():
    """`gallery_cases`; each gallery entry subdivided once both ways, each
    abstract one of these as a pseudo-complex, and each entry unfolded both
    ways; the knot neighbourhoods of 2 to 7 blocks; bary^k of the 3-simplex's
    boundary for k up to 4; a complex with loose copies; the branched
    cases."""
    cases = gallery_cases()
    for e in gallery_entries():
        x = e.complex
        derived = [
            (f"barycentric({e.name})", barycentric(x).result),
            (f"antiprismatic({e.name})", antiprismatic(x).result),
        ]
        for name, y in [(e.name, x)] + derived:
            if isinstance(y, AbstractComplex):
                derived.append((f"as_pseudo({name})", as_pseudo(y)))
        derived.append((f"complete({e.name})", complete_unfolding(x).total))
        derived.append((f"partial({e.name})", partial_unfolding(x).total))
        cases += derived
    for n in (4, 5, 6, 7):
        for variant in ("orientable", "klein"):
            cases.append((f"knot-nbhd:{n}:{variant}", knot_neighborhood(n, variant).complex))
    cases.append(("knot-nbhd:7:klein abstract", knot_neighborhood(7, "klein").abstract))
    for k in (2, 3, 4):
        cases.append((f"bary{k}(d3)", iterate(barycentric, boundary_simplex(3), k)))
    bary = as_pseudo(barycentric(boundary_simplex(3)).result)
    cases.append(("bary(d3) with loose copies", with_loose_copies(bary, 5)))
    return cases + branched_cases()


def _closes(P):
    try:
        P.classes()
    except UnfolderError:
        return False
    return True


def random_pseudo(rng, dim):
    """A draft of 2 to 8 copies of the `dim`-simplex: its ridges paired at
    random and about 85% of the pairs glued, and now and then one more copy
    glued onto a paired ridge.  Each gluing takes the first mapping, in random
    order, that the closure accepts, and is left out when there is none."""
    n = rng.randint(2, 8)
    ridges = [tuple(v for v in range(dim + 1) if v != o) for o in range(dim + 1)]
    slots = [(f, r) for f in range(n) for r in ridges]
    rng.shuffle(slots)
    pairs = [(slots.pop(), slots.pop()) for _ in range(len(slots) // 2)]
    if rng.random() < 0.2:
        pairs.append((rng.choice(pairs)[0], (rng.randrange(n), rng.choice(ridges))))
    P = PseudoComplex(dim, n, ())
    for (fa, ra), (fb, rb) in pairs:
        if fa != fb and rng.random() < 0.85:
            maps = list(permutations(rb))
            rng.shuffle(maps)
            tries = (PseudoComplex(dim, n, P.gluings + (Gluing(fa, ra, fb, rb, m),)) for m in maps)
            P = next(filter(_closes, tries), P)
    return P


def seeded_pseudo(seed, dims):
    """Drafts drawn from `seed` in turn over `dims`, without end."""
    rng = random.Random(seed)
    while True:
        for dim in dims:
            yield random_pseudo(rng, dim)


def random_abstract(rng):
    """A complex of dim d from 0 to 3 with 1 to 12 facets on at most d+5
    vertices."""
    d = rng.randint(0, 3)
    v = rng.randint(d + 1, d + 5)
    rows = [rng.sample(range(v), d + 1) for _ in range(rng.randint(1, 12))]
    return AbstractComplex.from_facets(rows)


def seeded_abstract(seed, count):
    """`count` of `random_abstract`, drawn from `seed`."""
    rng = random.Random(seed)
    return [random_abstract(rng) for _ in range(count)]


def abstract_complexes():
    return st.randoms(use_true_random=False).map(random_abstract)


# Kept apart from `random_pseudo`: it draws any gluing list, also the ones
# the closure refuses, which the refusal paths need, and hypothesis shrinks a
# failing list one gluing at a time.
@st.composite
def pseudo_complexes(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    ridges = [tuple(v for v in range(d + 1) if v != skip) for skip in range(d + 1)]
    gluings = []
    for _ in range(draw(st.integers(0, 3 * n))):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        ra, rb = draw(st.sampled_from(ridges)), draw(st.sampled_from(ridges))
        gluings.append(Gluing(a, ra, b, rb, tuple(draw(st.permutations(rb)))))
    return PseudoComplex(d, n, tuple(gluings))
