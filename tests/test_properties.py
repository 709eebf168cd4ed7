"""Randomized checks over generated strongly connected 2-complexes."""

import functools
import random

from test_incidence import dual_components

from unfolder.complexes import Gluing, PseudoComplex
from unfolder.diagnostics import (
    is_pseudo_manifold,
    is_strongly_connected,
    orientable,
)
from unfolder.errors import UnfolderError
from unfolder.io import emit, parse
from unfolder.projectivities import projectivity_group
from unfolder.unfoldings import (
    complete_unfolding,
    components,
    partial_unfolding,
)

RIDGES = ((0, 1), (0, 2), (1, 2))
SEED = 20260822
CASES = 200


def _random_pseudo(rng: random.Random) -> PseudoComplex | None:
    n = rng.randint(4, 8)
    slots = [(f, r) for f in range(n) for r in RIDGES]
    rng.shuffle(slots)
    gluings = []
    while len(slots) >= 2:
        a = slots.pop()
        b = slots.pop()
        if a[0] == b[0]:
            continue
        if rng.random() < 0.15:
            continue  # leave some ridges free so boundaries appear too
        mapping = b[1] if rng.random() < 0.5 else tuple(reversed(b[1]))
        gluings.append(Gluing(a[0], a[1], b[0], b[1], mapping))
    try:
        P = PseudoComplex(2, n, tuple(gluings))
        P.classes()  # the closure may reject gluings the constructor accepts
        return P
    except UnfolderError:
        return None


@functools.lru_cache(maxsize=1)
def _corpus() -> list[PseudoComplex]:
    rng = random.Random(SEED)
    out: list[PseudoComplex] = []
    while len(out) < CASES:
        P = _random_pseudo(rng)
        if P is not None and is_strongly_connected(P):
            out.append(P)
    return out


def test_generated_corpus_obeys_the_structure_laws():
    failures = []
    for i, P in enumerate(_corpus()):
        try:
            pg = projectivity_group(P)
            uc = complete_unfolding(P)
            up = partial_unfolding(P)
            assert uc.total.facet_count == pg.group.order * P.facet_count
            assert up.total.facet_count == (P.dim + 1) * P.facet_count
            assert projectivity_group(uc.total).group.is_trivial
            assert is_strongly_connected(uc.total)
            assert len(dual_components(up.total)) == len(pg.group.orbits())
            for comp in components(up):
                assert is_strongly_connected(comp.complex)
            if is_pseudo_manifold(P) == "closed":
                assert is_pseudo_manifold(uc.total) == "closed"
            if orientable(P) and is_pseudo_manifold(P) in ("closed", "with-boundary"):
                assert orientable(uc.total)
            again = parse(emit(P))
            assert again.facet_count == P.facet_count
            assert again.gluings == P.gluings
        except Exception as e:  # collect everything, report once
            failures.append((i, type(e).__name__, str(e)[:80]))
    assert not failures, failures[:5]


def test_corpus_is_deterministic_and_big_enough():
    sizes = [P.facet_count for P in _corpus()]
    assert len(sizes) == CASES
    assert min(sizes) >= 4 and max(sizes) <= 8
    rng = random.Random(SEED)
    fresh = []
    while len(fresh) < 3:
        P = _random_pseudo(rng)
        if P is not None and is_strongly_connected(P):
            fresh.append(P)
    first_three = _corpus()[:3]
    for a, b in zip(fresh, first_three):
        assert a.gluings == b.gluings
