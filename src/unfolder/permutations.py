"""Permutations on {0..n-1} and tiny permutation groups.

A permutation is a plain tuple `p` of length n with p[i] = image of i, so
it is also an index map: reading q at every entry of p applies p, then q.
Projectivities compose left to right (apply the first path segment first),
so `perm_compose(p, q)` means "p, then q", and the projectivity search
composes its transports with a gluing's step in that same way.

A group is its generators, plain permutations.  Triviality, orbits and a
change of base read the generators alone; a change of base carries each
generator g along a label bijection t to t^-1 g t (`conjugated`).  Only
the order, a membership test or the element list close the group, by
saturation, on first read, and the elements are then kept.  Groups here
are small: order at most (d+1)!, where d <= 4 for the gallery and benchmark
inputs and d <= `complexes.MAX_DIM` = 8 for any document.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf

Perm = tuple[int, ...]


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q: q read at each image of p."""
    return tuple(map(q.__getitem__, p))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_sign(p: Perm) -> int:
    """+1 for even permutations, -1 for odd ones."""
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_is_transposition(p: Perm) -> bool:
    moved = [i for i in range(len(p)) if p[i] != i]
    return len(moved) == 2 and p[moved[0]] == moved[1] and p[moved[1]] == moved[0]


def perm_cycle_string(p: Perm) -> str:
    """Cycle notation, fixed points suppressed; identity prints as 'id'."""
    seen = [False] * len(p)
    parts: list[str] = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(c) for c in cyc) + ")")
    return "".join(parts) if parts else "id"


def closure(generators: tuple[Perm, ...], degree: int, limit: float = inf) -> frozenset[Perm] | None:
    """Multiply-and-saturate closure of the generated subgroup; None past `limit` elements."""
    ident = perm_identity(degree)
    elems: set[Perm] = {ident}
    frontier = [ident]
    gens = [g for g in dict.fromkeys(generators) if g != ident]
    while frontier:
        nxt: list[Perm] = []
        for e in frontier:
            for g in gens:
                h = perm_compose(e, g)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
                    if len(elems) > limit:
                        return None
        frontier = nxt
    return frozenset(elems)


@dataclass(frozen=True)
class PermutationGroup:
    """The subgroup of Sym({0..degree-1}) that the generators generate,
    closed on first read of `elements`."""

    degree: int
    generators: tuple[Perm, ...]

    @staticmethod
    def generated(gens: list[Perm], degree: int) -> "PermutationGroup":
        """The group `gens` generate, closed now."""
        group = PermutationGroup(degree, tuple(gens))
        group.within(inf)
        return group

    @cached_property
    def elements(self) -> frozenset[Perm]:
        return closure(self.generators, self.degree)

    def within(self, limit: float) -> bool:
        """Whether the group has at most `limit` elements.  The closure stops
        once it passes `limit`, and the elements are kept only when it
        finished."""
        if "elements" not in self.__dict__:
            elems = closure(self.generators, self.degree, limit)
            if elems is None:
                return False
            self.__dict__["elements"] = elems  # what reading `elements` keeps
        return self.order <= limit

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        ident = perm_identity(self.degree)
        return all(g == ident for g in self.generators)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def conjugated(self, t: Perm) -> "PermutationGroup":
        """The group carried along the label bijection t: each generator g
        becomes t^-1 g t."""
        t_inv = perm_inverse(t)
        return PermutationGroup(
            self.degree, tuple(perm_compose(perm_compose(t_inv, g), t) for g in self.generators)
        )

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of {0..degree-1}, each orbit sorted, orbits by min.

        On a finite set the orbits of a group are closed under its
        generators alone, so only the generators' images are followed."""
        seen = [False] * self.degree
        out: list[tuple[int, ...]] = []
        for start in range(self.degree):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            for x in orbit:  # grows while it is read
                for p in self.generators:
                    if not seen[p[x]]:
                        seen[p[x]] = True
                        orbit.append(p[x])
            out.append(tuple(sorted(orbit)))
        return tuple(out)
