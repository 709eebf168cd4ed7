"""Permutation arithmetic and concrete group containers."""

from itertools import permutations

import pytest
from sympy.combinatorics import Permutation

from unfolder.permutations import (
    PermutationGroup,
    closure,
    perm_compose,
    perm_cycle_string,
    perm_identity,
    perm_inverse,
    perm_is_transposition,
    perm_sign,
)


def test_compose_reads_left_to_right():
    # first apply p, then q
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert perm_compose(p, q) == (2, 0, 1)


def test_compose_matches_sympy_on_all_pairs_in_s4():
    group = list(permutations(range(4)))
    for p in group:
        for q in group:
            want = tuple(q[p[i]] for i in range(4))
            assert perm_compose(p, q) == want
            # sympy's product p * q also applies p first
            assert tuple((Permutation(list(p)) * Permutation(list(q))).array_form) == want


def test_inverse_cancels():
    p = (2, 0, 3, 1)
    assert perm_compose(p, perm_inverse(p)) == perm_identity(4)
    assert perm_compose(perm_inverse(p), p) == perm_identity(4)


@pytest.mark.parametrize(
    "p, sign",
    [((0, 1, 2), 1), ((1, 0, 2), -1), ((1, 2, 0), 1), ((1, 0, 3, 2), 1)],
)
def test_sign(p, sign):
    assert perm_sign(p) == sign


def test_transposition_predicate():
    assert perm_is_transposition((1, 0, 2, 3))
    assert not perm_is_transposition((1, 0, 3, 2))
    assert not perm_is_transposition(perm_identity(4))


def test_cycle_string():
    assert perm_cycle_string(perm_identity(3)) == "id"
    assert perm_cycle_string((1, 0, 2)) == "(0 1)"
    assert perm_cycle_string((1, 2, 0)) == "(0 1 2)"
    assert perm_cycle_string((1, 0, 3, 2)) == "(0 1)(2 3)"


def test_closure_generates_symmetric_group():
    elems = closure(((1, 0, 2), (0, 2, 1)), 3)
    assert len(elems) == 6


def test_group_generated_and_orbits():
    g = PermutationGroup.generated([(1, 0, 2, 3), (0, 1, 3, 2)], 4)
    assert g.order == 4
    assert (1, 0, 3, 2) in g
    assert g.orbits() == ((0, 1), (2, 3))


def test_a_group_is_closed_on_first_read_and_kept_only_when_finished():
    g = PermutationGroup(3, ((1, 2, 0),))
    assert not g.is_trivial
    assert not g.within(2) and "elements" not in vars(g)
    assert g.within(3) and sorted(g.elements) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert vars(g)["elements"] is g.elements
    assert not g.within(2) and g.order == 3
    assert PermutationGroup(3, ((0, 1, 2),)).is_trivial
