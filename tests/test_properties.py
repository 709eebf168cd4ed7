"""Randomized checks over generated strongly connected 2-complexes."""

import functools
from itertools import islice

from corpus import seeded_pseudo
from oracles import structure_law_failures

from unfolder.diagnostics import is_pseudo_manifold, is_strongly_connected, orientable
from unfolder.projectivities import projectivity_group

SEED = 20260822
CASES = 200


def _connected(seed):
    return (P for P in seeded_pseudo(seed, (2,)) if is_strongly_connected(P))


@functools.lru_cache(maxsize=1)
def _corpus():
    return list(islice(_connected(SEED), CASES))


def test_generated_corpus_obeys_the_structure_laws():
    failures = structure_law_failures(_corpus())
    assert not failures, failures[:5]


def test_corpus_is_deterministic_and_big_enough():
    corpus = _corpus()
    sizes = [P.facet_count for P in corpus]
    assert len(sizes) == CASES
    assert {P.dim for P in corpus} == {2}
    assert min(sizes) >= 2 and max(sizes) <= 8
    # the seed draws 54 nontrivial groups, 6 closed and 47 non-orientable
    assert sum(not projectivity_group(P).group.is_trivial for P in corpus) >= 40
    assert sum(is_pseudo_manifold(P) == "closed" for P in corpus) >= 5
    assert sum(not orientable(P) for P in corpus) >= 40
    for a, b in zip(islice(_connected(SEED), 3), _corpus()):
        assert a.gluings == b.gluings
