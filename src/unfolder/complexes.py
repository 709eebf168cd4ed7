"""Pure simplicial and pseudo-simplicial complexes.

Two sibling representations share one computational substrate:

* `AbstractComplex` -- a finite pure complex given by its facet list; faces
  are vertex sets, so the face structure is read off directly.
* `PseudoComplex` -- a disjoint union of facet copies, each a d-simplex with
  local vertex labels 0..d, glued pairwise along ridges by explicit vertex
  bijections.  Lower-dimensional identifications are *generated* by the ridge
  gluings: two subfaces are the same face of the quotient exactly when a chain
  of gluings carries one onto the other.  Within a single copy no two distinct
  subfaces may become identified.

The ridge-generated closure is the right notion for unfoldings (which are
built by gluing simplex copies along ridges and nothing else).  Embedding an
`AbstractComplex` via `as_pseudo` is faithful precisely when every face of
codimension > 1 has a connected link; the library therefore keeps the vertex
set structure of abstract complexes intact internally instead of routing
everything through `as_pseudo`.

Both types answer one surface, and every layer asks it whichever type it
holds: `x.dim`, `x.facet_count`, `x.gluings` and `x.classes()`.  An
`AbstractComplex`'s gluings are its `derived_gluings()`, one per pair of
facets sharing a ridge.

Face classes, derived gluings and one incidence index per complex are built
on first use and kept on the instance (`per_instance`), so they are freed
with it.  The index, `dual_graph(x)`, is flat: each facet's (gluing id,
neighbour) pairs sit in id order in one stretch of two arrays, which one
pass over the gluings fills.  `gluings_from` reads a facet set's gluings
off it, so a star, a link and an unfolding's component cost
O(|part| * (d+1)) instead of O(#gluings).  `projectivities._search`, the
one search of the dual graph, and `projectivities.star_group` walk it.

Every union-find here is one kernel over integer slots, `_unite`: slot
f * per + i stands for item i of copy f (subset i of `nonempty_subsets` for
the glued face closure, local vertex i for `vertex_classes` and
`unfoldings._orbit_parts`).  The smaller root wins each union, so a class's
root is its smallest slot, and `_roots` finishes every path in one ascending
pass.  A gluing's slot pairs come from a table kept per (dim, ridge_a,
mapping), its two perspectivity steps and their parity from one kept per
(dim, ridge_a, ridge_b, mapping), and one scan per subset size turns the
parents into class ids in (cardinality, smallest member) order, so nothing
is sorted afterwards.  `derived_gluings` reads each ridge's holders off the
ridge slots of the face table: facets are sorted tuples, so the ridge that
omits position o sits at the other positions, in order, in both facets.

`FaceClasses` is flat arrays over that slot numbering, and a reader adds a
copy's offset f * per to a subset's position in `nonempty_subsets`
(`subset_index`).  Questions about one class are answered one class at a
time: `members_of(cid)` reads the class's slots off one class -> slot index,
built on first read, and `face_key(cid)` reads an abstract class's vertices
off its first member, so no table of (copy, subset) or vertex tuples is ever
built for every class.  Tables hold 4-byte ints (`array('i')`) instead of
lists of int objects, which take 36 bytes an entry once past 256.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import accumulate, chain, combinations, groupby
from math import comb
from typing import NamedTuple

from .errors import (
    BadGluing,
    BadParameter,
    DegenerateFacet,
    InvalidPath,
    MixedDimension,
    NotAFace,
    NotAFacet,
    SelfIdentification,
)
from .permutations import Perm, perm_sign

FaceRef = tuple[int, tuple[int, ...]]  # (facet copy id, sorted local vertex tuple)

# Largest dimension and largest face closure (facet count times 2^(dim+1) - 1
# slots) of a document or a built complex: a projectivity group can reach
# (dim+1)! elements, and a pseudo document states its facet count in a few
# bytes.  The gallery, demo and benchmark inputs have dim <= 4 and at most
# 43200 slots (bary^2 of the 4-simplex's boundary); the benchmark's largest
# output, an unfolding of 9000 copies of dim 4, needs 279000, a margin of 3.7.
# `derived_gluings` holds an abstract complex's gluing count to the same bound.
MAX_DIM = 8
MAX_CLOSURE_SLOTS = 2**20


def check_size(dim: int, facet_count: int, at_least: bool = False) -> None:
    """Refuse a complex above the limits, before anything is built;
    `at_least` when `facet_count` is only a lower bound on the count."""
    if dim > MAX_DIM:
        raise BadParameter(f"dim {dim} is above the largest supported dimension {MAX_DIM}")
    slots = facet_count * (2 ** (dim + 1) - 1)
    if slots > MAX_CLOSURE_SLOTS:
        raise BadParameter(
            f"face closure of {'at least ' * at_least}{slots} slots"
            f" is above the limit {MAX_CLOSURE_SLOTS}"
        )


def check_facet(x: Complex, facet: int) -> int:
    """`facet`, when it is a facet id of `x`; NotAFacet otherwise."""
    if not 0 <= facet < x.facet_count:
        raise NotAFacet(f"no facet {facet}")
    return facet


def max_copies(dim: int, facet_count: int) -> int:
    """The most copies of each facet a lift may build: `check_size` passes
    that many copies of all `facet_count` facets and refuses one more."""
    return MAX_CLOSURE_SLOTS // (facet_count * (2 ** (dim + 1) - 1))


@lru_cache(maxsize=None)
def nonempty_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """All non-empty subsets of {0..n-1}, ordered by (cardinality, lex)."""
    out: list[tuple[int, ...]] = []
    for k in range(1, n + 1):
        out.extend(combinations(range(n), k))
    return tuple(out)


@lru_cache(maxsize=None)
def subset_index(n: int) -> dict[tuple[int, ...], int]:
    """Position of each subset in `nonempty_subsets(n)`; shared, not to be
    changed."""
    return {s: i for i, s in enumerate(nonempty_subsets(n))}


def per_instance(fn):
    """Cache `fn(x)` in `x.__dict__`, so that it lives and dies with `x`."""
    key = "_memo_" + fn.__name__

    @wraps(fn)
    def cached(x):
        if key not in x.__dict__:
            x.__dict__[key] = fn(x)
        return x.__dict__[key]

    return cached


def _unite(size: int, pairs) -> list[int]:
    """Each slot's parent after uniting the two slots of every pair.

    The union-find of the face closure: path halving, and the smaller root
    wins each union, so a class's root is its smallest slot and no slot's
    parent exceeds it.  The table is a list, which its loop reads twice as
    fast as an `array`; the callers keep none of it."""
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    return parent


def _roots(size: int, pairs) -> list[int]:
    """Each slot's root: `_unite`'s parents, as one ascending pass finishes
    every path."""
    parent = _unite(size, pairs)
    for i, p in enumerate(parent):
        if p != i:
            parent[i] = parent[p]
    return parent


def _repeats(roots: list[int], per: int, facets):
    """(root, facet, i, j) for each slot j of one of `facets` whose root an
    earlier slot i of the same facet has, in slot order; facet f owns the
    `per` slots from f * per."""
    for f in facets:
        row = roots[f * per : (f + 1) * per]
        if len(set(row)) < per:
            first: dict[int, int] = {}
            for j, r in enumerate(row):
                if r in first:
                    yield r, f, first[r], j
                else:
                    first[r] = j


def _subset_spans(n: int) -> list[tuple[int, int]]:
    """Index range of each cardinality 1..n in `nonempty_subsets(n)`."""
    spans, lo = [], 0
    for k in range(1, n + 1):
        spans.append((lo, lo + comb(n, k)))
        lo += comb(n, k)
    return spans


@lru_cache(maxsize=1024)
def _subface_pairs(
    d: int, ridge_a: tuple[int, ...], mapping: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """For each non-empty subset of a valid gluing's ridge: the indices in
    `nonempty_subsets(d + 1)` of its face on side a and of its image."""
    index = subset_index(d + 1)
    return tuple(
        (index[tuple(ridge_a[p] for p in pos)], index[tuple(sorted(mapping[p] for p in pos))])
        for k in range(1, d + 1)
        for pos in combinations(range(d), k)
    )


@lru_cache(maxsize=4096)
def _ridge_error(
    d: int, ridge_a: tuple[int, ...], ridge_b: tuple[int, ...], mapping: tuple[int, ...]
) -> str | None:
    """What is wrong with a gluing's ridge data in dimension `d`, or None.

    Only parsed or hand-built complexes and `link_of_class`'s link reach
    it: stars, lifts and components are built `PseudoComplex.trusted`.  A
    complex's gluings share few shapes, so nearly every call is a cache hit."""
    for ridge in (ridge_a, ridge_b):
        if len(ridge) != d or sorted(set(ridge)) != list(ridge):
            return f"ridge {ridge} is not a sorted {d}-subset"
        if any(not 0 <= v <= d for v in ridge):
            return f"ridge {ridge} has local labels outside 0..{d}"
    if sorted(mapping) != list(ridge_b):
        return "mapping is not a bijection onto ridge_b"
    return None


@lru_cache(maxsize=4096)
def _steps(
    d: int, ridge_a: tuple[int, ...], ridge_b: tuple[int, ...], mapping: tuple[int, ...]
) -> tuple[Perm, Perm, int]:
    """The perspectivities a -> b and b -> a of a valid gluing's ridge data
    in dimension `d`, and `even`: 1 when they are even permutations (a step
    and its inverse share a sign).  A complex's gluings share few shapes, so
    nearly every call is a cache hit.  A ridge leaves out d(d+1)/2 minus its
    sum."""
    top = d * (d + 1) // 2
    forward = [top - sum(ridge_b)] * (d + 1)
    back = [top - sum(ridge_a)] * (d + 1)
    for v, w in zip(ridge_a, mapping):
        forward[v] = w
        back[w] = v
    return tuple(forward), tuple(back), int(perm_sign(forward) == 1)


class Gluing(NamedTuple):
    """One ridge-to-ridge identification between two distinct facet copies.

    `mapping[i]` is the local vertex of `facet_b` matched with `ridge_a[i]`.
    A named tuple, as a lift builds one per copy and gluing; only hot loops
    unpack it by position.
    """

    facet_a: int
    ridge_a: tuple[int, ...]
    facet_b: int
    ridge_b: tuple[int, ...]
    mapping: tuple[int, ...]

    def validate(self, dim: int, facet_count: int) -> None:
        if self.facet_a == self.facet_b:
            raise BadGluing("a facet copy cannot be glued to itself")
        for f in (self.facet_a, self.facet_b):
            if not 0 <= f < facet_count:
                raise BadGluing(f"facet id {f} out of range")
        error = _ridge_error(dim, self.ridge_a, self.ridge_b, self.mapping)
        if error is not None:
            raise BadGluing(error)

    def other(self, facet: int) -> int:
        if facet == self.facet_a:
            return self.facet_b
        if facet == self.facet_b:
            return self.facet_a
        raise InvalidPath(f"gluing does not touch facet {facet}")


class FaceClasses:
    """Face structure of a complex, indexed by class ids, as flat arrays.

    Classes are ordered by (cardinality, smallest member reference), which
    makes ids deterministic for a fixed input.  `slot_class` holds one class
    id per slot: subset i of `nonempty_subsets(dim + 1)` in copy f is slot
    f * per + i, with per = 2^(dim+1) - 1.  `cards[cid]` is a class's
    cardinality and `first[cid]` its smallest slot (`first_ref` as a
    reference).  Hot loops read `slot_class` at a copy's offset; `class_of`
    is the same lookup by reference.  The member counts, `sizes`, and the
    class -> slot index, `by_class`, are built on first read and kept; one
    class's members come from `members_of`, and an abstract complex's
    vertex tuple of a class from `face_key`.  `facets` is None when the
    classes are glued.
    """

    def __init__(
        self,
        dim: int,
        facet_count: int,
        cards: array,
        first: array,
        slot_class: array,
        facets: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        self.dim = dim
        self.facet_count = facet_count
        self.cards = cards
        self.first = first
        self.slot_class = slot_class
        self.per = 2 ** (dim + 1) - 1
        self.facets = facets  # an AbstractComplex's facets, None when glued

    @staticmethod
    def from_abstract(facets: tuple[tuple[int, ...], ...], dim: int) -> "FaceClasses":
        # faces of each size in (facet, subset) order: a face first shows at
        # its smallest member, so insertion order is the class order
        per = 2 ** (dim + 1) - 1
        ids: dict[tuple[int, ...], int] = {}
        cards, first = array("B"), array("i")  # per class: its cardinality and smallest slot
        slot_class = [0] * (len(facets) * per)  # a list while it is filled: its stores are faster
        for k, (lo, _hi) in enumerate(_subset_spans(dim + 1), 1):
            for f, verts in enumerate(facets):
                slot = f * per + lo
                for face in combinations(verts, k):
                    cid = ids.get(face)
                    if cid is None:
                        cid = ids[face] = len(first)
                        first.append(slot)
                    slot_class[slot] = cid
                    slot += 1
            cards.extend([k] * (len(first) - len(cards)))
        return FaceClasses(dim, len(facets), cards, first, array("i", slot_class), facets)

    @staticmethod
    def from_glued(dim: int, facet_count: int, gluings: tuple[Gluing, ...]) -> "FaceClasses":
        # slot f * per + i is subset i of copy f; a gluing unites each
        # subface of its ridge with its image.  The union-find runs over the
        # slots of the copies some gluing joins, renumbered 0, 1, ... in id
        # order; each slot of a loose copy is a class of its own.
        subs = nonempty_subsets(dim + 1)
        per = len(subs)
        rank = [-1] * facet_count
        for g in gluings:
            rank[g.facet_a] = rank[g.facet_b] = 0
        joined = [f for f, r in enumerate(rank) if r == 0]
        for r, f in enumerate(joined):
            rank[f] = r
        # each maximal run of joined copies sits `shift` copies after its
        # renumbered place; a run of loose copies has shift -1
        shifts = [f - r if r >= 0 else -1 for f, r in enumerate(rank)]
        runs = []
        for shift, run in groupby(range(facet_count), shifts.__getitem__):
            fs = list(run)
            runs.append((fs[0], fs[-1] + 1, shift))

        def pairs():
            for fa, ridge_a, fb, _ridge_b, mapping in gluings:
                a, b = rank[fa] * per, rank[fb] * per
                for i, j in _subface_pairs(dim, ridge_a, mapping):
                    yield a + i, b + j

        parent = _unite(len(joined) * per, pairs())
        # each span's scan meets the roots (smallest slots) in class order,
        # each before the rest of its class, and turns them into class ids;
        # a parent is an earlier slot of the same span, so it is a class id
        # by then.  A loose copy gets a range of ids per span.
        slot_class = array("i", [0]) * (facet_count * per)
        cards, first = array("B"), array("i")  # per class: its cardinality and smallest slot
        for k, (lo, hi) in enumerate(_subset_spans(dim + 1), 1):
            for f0, end, shift in runs:
                if shift < 0:
                    for at in range(f0 * per, end * per, per):
                        c = len(first)
                        slot_class[at + lo : at + hi] = array("i", range(c, c + hi - lo))
                        first.extend(range(at + lo, at + hi))
                    continue
                for at in range((f0 - shift) * per + lo, (end - shift) * per, per):
                    for slot in range(at, at + hi - lo):
                        p = parent[slot]
                        if p == slot:
                            parent[slot] = len(first)
                            first.append(slot + shift * per)
                        else:
                            parent[slot] = parent[p]
            cards.extend([k] * (len(first) - len(cards)))
        # named: the class with the smallest root, at its first repeated copy
        repeats = _repeats(parent, per, range(len(joined)))
        bad = min(((first[c], joined[r], i, j) for c, r, i, j in repeats), default=None)
        if bad is not None:
            _root, f, i, j = bad
            raise SelfIdentification(
                f"faces {(f, subs[i])} and {(f, subs[j])} of one copy are identified"
            )
        # one conversion per run is faster than storing each id as it is found
        for f0, end, shift in runs:
            if shift >= 0:
                ids = parent[(f0 - shift) * per : (end - shift) * per]
                slot_class[f0 * per : end * per] = array("i", ids)
        return FaceClasses(dim, facet_count, cards, first, slot_class)

    @property
    def count(self) -> int:
        return len(self.first)

    @cached_property
    def sizes(self) -> array:
        """The number of members of each class."""
        sizes = array("i", [0]) * self.count
        for cid in self.slot_class:
            sizes[cid] += 1
        return sizes

    @cached_property
    def by_class(self) -> tuple[array, array]:
        """(offsets, slots): the slots of class c, ascending, are
        slots[offsets[c] : offsets[c + 1]].  One counting pass fills it."""
        offsets = array("i", accumulate(self.sizes, initial=0))
        at = offsets.tolist()  # the next free place of each class
        slots = array("i", [0]) * len(self.slot_class)
        for slot, cid in enumerate(self.slot_class):
            slots[at[cid]] = slot
            at[cid] += 1
        return offsets, slots

    def members_of(self, cid: int) -> tuple[FaceRef, ...]:
        """The sorted (copy, subset) members of class `cid`."""
        if not 0 <= cid < self.count:
            raise NotAFace(f"no face class {cid}")
        offsets, slots = self.by_class
        subs, per = nonempty_subsets(self.dim + 1), self.per
        lo, hi = offsets[cid], offsets[cid + 1]
        return tuple([(slot // per, subs[slot % per]) for slot in slots[lo:hi]])

    def first_ref(self, cid: int) -> FaceRef:
        """The smallest member of class `cid`."""
        if not 0 <= cid < self.count:
            raise NotAFace(f"no face class {cid}")
        f, i = divmod(self.first[cid], self.per)
        return f, nonempty_subsets(self.dim + 1)[i]

    def face_key(self, cid: int) -> tuple[int, ...]:
        """The global vertex tuple of class `cid` of an abstract complex,
        read off its first member."""
        if self.facets is None:
            raise BadParameter("the classes of a glued complex have no vertex tuples")
        f, sub = self.first_ref(cid)
        return tuple(map(self.facets[f].__getitem__, sub))

    def class_of(self, ref: FaceRef) -> int:
        f, sub = ref
        if not 0 <= f < self.facet_count:
            raise KeyError(ref)
        return self.slot_class[f * self.per + subset_index(self.dim + 1)[sub]]

    def classes_of_card(self, card: int) -> list[int]:
        return list(range(bisect_left(self.cards, card), bisect_right(self.cards, card)))

    def counts_by_dim(self) -> dict[int, int]:
        # every copy has a face of each cardinality 1..dim+1
        return {card - 1: len(self.classes_of_card(card)) for card in range(1, self.dim + 2)}

    def vertex_classes_of(self, cid: int) -> tuple[int, ...]:
        """Sorted class ids of the vertices of class `cid`."""
        f, sub = self.first_ref(cid)
        at = f * self.per  # vertex l of copy f is slot at + l
        return tuple(sorted(self.slot_class[at + l] for l in sub))


@dataclass(frozen=True)
class AbstractComplex:
    """A finite pure simplicial complex, stored as sorted facet tuples."""

    dim: int
    facets: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_facets(facets) -> "AbstractComplex":
        cleaned: list[tuple[int, ...]] = []
        for f in facets:
            t = tuple(sorted(f))
            if len(set(t)) != len(t):
                raise DegenerateFacet(f"facet {f} repeats a vertex")
            cleaned.append(t)
        if not cleaned:
            raise MixedDimension("a complex needs at least one facet")
        sizes = {len(t) for t in cleaned}
        if len(sizes) != 1:
            raise MixedDimension(f"facet sizes differ: {sorted(sizes)}")
        uniq = tuple(sorted(set(cleaned)))
        return AbstractComplex(dim=len(uniq[0]) - 1, facets=uniq)

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))

    def faces(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All k-dimensional faces, sorted."""
        out: set[tuple[int, ...]] = set()
        for f in self.facets:
            out.update(combinations(f, k + 1))
        return tuple(sorted(out))

    def face_count_vector(self) -> tuple[int, ...]:
        return tuple(len(self.faces(k)) for k in range(self.dim + 1))

    def has_face(self, verts) -> bool:
        t = set(verts)
        return any(t <= set(f) for f in self.facets)

    def facet_id(self, verts) -> int:
        """The position of facet `verts`, found by bisection: facets are sorted."""
        t = tuple(sorted(verts))
        i = bisect_left(self.facets, t)
        if i == len(self.facets) or self.facets[i] != t:
            raise NotAFacet(f"{t} is not a facet")
        return i

    @per_instance
    def classes(self) -> FaceClasses:
        return FaceClasses.from_abstract(self.facets, self.dim)

    @property
    def gluings(self) -> tuple[Gluing, ...]:
        """The kept `derived_gluings()`."""
        return self.derived_gluings()

    @per_instance
    def derived_gluings(self) -> tuple[Gluing, ...]:
        """One gluing per pair of facets sharing a ridge (identity on globals),
        in (i, j) order, read off the ridge slots of `classes()`.

        A ridge held by k facets gives C(k, 2) gluings, so the count is
        checked against `MAX_CLOSURE_SLOTS` before any is built; a
        pseudo-manifold has at most n(d+1)/2."""
        classes = self.classes()
        d, n, per = self.dim, self.facet_count, classes.per
        w = d + 1
        # A facet's ridges are the w subsets just before the whole facet; the
        # facets are sorted, so ridge q keeps the same positions `kept[q]` in
        # every facet, and side b's mapping is its ridge.  Entry f * w + q of
        # `ridge_class` is the class of facet f's ridge q, one of lo..hi-1;
        # in dimension 0 every point holds the one empty ridge.
        if d == 0:
            kept, ridge_class, lo, hi = ((),), array("i", [0]) * n, 0, 1
        else:
            kept = nonempty_subsets(w)[per - w - 1 : per - 1]
            lo, hi = bisect_left(classes.cards, d), bisect_right(classes.cards, d)
            ridge_class = array("i")
            for at in range(per - w - 1, n * per, per):
                ridge_class += classes.slot_class[at : at + w]
        # each holder links to the next holder of its ridge, in slot order
        later = array("i", [-1]) * len(ridge_class)
        last = array("i", [-1]) * (hi - lo)
        held = array("i", [0]) * (hi - lo)
        count = 0
        for k, c in enumerate(ridge_class):
            c -= lo
            if last[c] >= 0:
                later[last[c]] = k
            last[c] = k
            count += held[c]
            held[c] += 1
        if count > MAX_CLOSURE_SLOTS:
            raise BadParameter(f"{count} derived gluings are above the limit {MAX_CLOSURE_SLOTS}")
        # A later facet j holding ridge q of facet i agrees with i before the
        # position d - q that the ridge leaves out, and is larger there; so
        # walking i's ridges in order, each ridge's holders in slot order,
        # lists the gluings in (i, j) order.
        out: list[Gluing] = []
        for at, k in enumerate(later):
            i, q = divmod(at, w)
            while k >= 0:
                j, r = divmod(k, w)
                out.append(Gluing(i, kept[q], j, kept[r], kept[r]))
                k = later[k]
        return tuple(out)


@dataclass(frozen=True)
class PseudoComplex:
    """Facet copies glued along ridges; faces live in the generated quotient."""

    dim: int
    facet_count: int
    gluings: tuple[Gluing, ...]

    def __post_init__(self) -> None:
        if self.facet_count < 1:
            raise BadGluing("a pseudo-complex needs at least one facet copy")
        for g in self.gluings:
            g.validate(self.dim, self.facet_count)

    @classmethod
    def trusted(cls, dim: int, facet_count: int, gluings: tuple[Gluing, ...]) -> "PseudoComplex":
        """A complex whose gluings copy checked ridge data onto copies in range,
        as a lift's (a whole total's or one component's), a star's and
        `as_pseudo`'s do: not checked again."""
        x = object.__new__(cls)
        x.__dict__.update(dim=dim, facet_count=facet_count, gluings=gluings)
        return x

    @per_instance
    def classes(self) -> FaceClasses:
        return FaceClasses.from_glued(self.dim, self.facet_count, self.gluings)


Complex = AbstractComplex | PseudoComplex


def gluings_of(x: Complex) -> tuple[Gluing, ...]:
    """`x.gluings`; kept only because the benchmark's probes import it."""
    return x.gluings


@per_instance
def vertex_classes(x: PseudoComplex) -> tuple[tuple[FaceRef, ...], ...]:
    """The members of the vertex classes of `x`, in class-id order.

    Equal to `members_of` of the card-1 classes of `x.classes()`, without
    the closure over every subface: the glued closure only unions faces of
    equal size, so vertex classes come from the ridge vertex pairs alone.  Raises
    `SelfIdentification` when a copy identifies two of its own vertices,
    which is exactly when `x.classes()` raises: a chain of gluings that
    carries a face of a copy onto another face of it identifies two of the
    copy's vertices.
    """
    w = x.dim + 1
    n = x.facet_count
    pairs = (
        (a * w + va, b * w + vb)
        for a, ridge_a, b, _ridge_b, mapping in x.gluings
        for va, vb in zip(ridge_a, mapping)
    )
    roots = _roots(n * w, pairs)
    # the first vertex, in slot order, that meets an earlier one of its copy
    bad = next(_repeats(roots, w, range(n)), None)
    if bad is not None:
        _r, f, i, j = bad
        raise SelfIdentification(f"faces {(f, (i,))} and {(f, (j,))} of one copy are identified")
    # a class first shows at its root, its smallest slot, so in class-id order
    groups = {r: [] for r in dict.fromkeys(roots)}
    labels = [(l,) for l in range(w)]
    for r, ref in zip(roots, [(f, l) for f in range(n) for l in labels]):
        groups[r].append(ref)
    return tuple(map(tuple, groups.values()))


def as_pseudo(K: AbstractComplex) -> PseudoComplex:
    """Embed an abstract complex as a ridge-glued pseudo-complex.

    The embedding is faithful (face classes biject with faces) exactly when
    every face of codimension > 1 has a connected link; a complex that fails
    that condition acquires split faces, mirroring what its unfolding does.
    """
    # derived gluings join distinct facets along valid ridges by construction
    return PseudoComplex.trusted(K.dim, K.facet_count, K.derived_gluings())


def is_simplicial(P: PseudoComplex) -> tuple[bool, tuple[int, int] | None]:
    """Check that face classes are determined by their vertex classes.

    Returns (True, None) or (False, (cid_a, cid_b)) where the two classes
    are distinct faces with identical vertex class sets.
    """
    classes = P.classes()
    sc, per, subs = classes.slot_class, classes.per, nonempty_subsets(P.dim + 1)
    seen: dict[tuple[int, ...], int] = {}
    for cid, slot in enumerate(classes.first):
        # the class's first copy: its vertex l is slot at + l
        at = slot - slot % per
        key = tuple(sorted([sc[at + l] for l in subs[slot - at]]))
        if key in seen:
            return False, (seen[key], cid)
        seen[key] = cid
    return True, None


def link(K: AbstractComplex, face) -> AbstractComplex:
    """Link of a face in an abstract complex: facets are `facet - face`."""
    t = tuple(sorted(face))
    if not K.has_face(t):
        raise NotAFace(f"{t} is not a face")
    fs = set(t)
    out = [tuple(v for v in f if v not in fs) for f in K.facets if fs <= set(f)]
    if out and not out[0]:
        # link of a facet: the (-1)-dimensional empty complex
        return AbstractComplex(dim=-1, facets=((),))
    return AbstractComplex.from_facets(out)


@dataclass(frozen=True)
class DualGraph:
    """Facet adjacency, one entry per end of each gluing, as flat arrays.

    Facet f's entries are positions offsets[f] to offsets[f + 1] of
    `gluing_ids` and `others` (the facet across), in gluing-id order."""

    node_count: int
    offsets: array
    gluing_ids: array
    others: array

    def incident(self, f: int):
        """Facet f's (gluing id, neighbour) pairs, in gluing-id order."""
        lo, hi = self.offsets[f], self.offsets[f + 1]
        return zip(self.gluing_ids[lo:hi], self.others[lo:hi])

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """node -> sorted list of (edge id, neighbour)."""
        return {v: list(self.incident(v)) for v in range(self.node_count)}


@per_instance
def dual_graph(x: Complex) -> DualGraph:
    """The incidence index of `x`, built on first use and kept on `x`."""
    n = x.facet_count
    ids: list[list[int]] = [[] for _ in range(n)]
    others: list[list[int]] = [[] for _ in range(n)]
    for gid, (a, _ridge_a, b, _ridge_b, _mapping) in enumerate(x.gluings):
        ids[a].append(gid)
        others[a].append(b)
        ids[b].append(gid)
        others[b].append(a)
    return DualGraph(
        n,
        array("i", accumulate(map(len, ids), initial=0)),
        array("i", chain.from_iterable(ids)),
        array("i", chain.from_iterable(others)),
    )


def gluings_from(x: Complex, facet_ids) -> list[int]:
    """Ids, ascending, of the gluings whose side a is one of the distinct
    `facet_ids`, read off the incidence index: costs their degree sum."""
    gl = x.gluings
    dg = dual_graph(x)
    off, ids = dg.offsets, dg.gluing_ids
    return sorted(
        gid for f in facet_ids for gid in ids[off[f] : off[f + 1]] if gl[gid].facet_a == f
    )


def perspectivity(x: Complex, facet: int, gluing_id: int) -> Perm:
    """Vertex bijection V(facet) -> V(other) through one gluing.

    Ridge vertices follow the gluing's bijection; the two opposite vertices
    are matched with each other.  It is read from `_steps`, kept per shape.
    """
    gl = x.gluings
    if not 0 <= gluing_id < len(gl):
        raise InvalidPath(f"no gluing {gluing_id}")
    fa, ridge_a, fb, ridge_b, mapping = gl[gluing_id]
    if facet != fa and facet != fb:
        raise InvalidPath(f"gluing {gluing_id} does not touch facet {facet}")
    return _steps(x.dim, ridge_a, ridge_b, mapping)[facet != fa]


@dataclass(frozen=True)
class FacetPath:
    """A walk in the dual graph: a start facet and a sequence of gluing ids."""

    start: int
    steps: tuple[int, ...]

    def facet_sequence(self, x: Complex) -> tuple[int, ...]:
        gl = x.gluings
        cur = check_facet(x, self.start)
        seq = [cur]
        for gid in self.steps:
            if not 0 <= gid < len(gl):
                raise InvalidPath(f"no gluing {gid}")
            cur = gl[gid].other(cur)
            seq.append(cur)
        return tuple(seq)

    @property
    def length(self) -> int:
        return len(self.steps)

    def reversed(self, x: Complex) -> "FacetPath":
        end = self.facet_sequence(x)[-1]
        return FacetPath(end, tuple(reversed(self.steps)))


def path_from_facets(x: Complex, facet_ids) -> FacetPath:
    """Build a FacetPath from consecutive facet ids (unique gluing required)."""
    ids = list(facet_ids)
    if not ids:
        raise InvalidPath("empty facet sequence")
    dg = dual_graph(x)
    steps: list[int] = []
    for a, b in zip(ids, ids[1:]):
        hits = [gid for gid, w in dg.incident(a) if w == b] if 0 <= a < dg.node_count else []
        if not hits:
            raise InvalidPath(f"facets {a} and {b} share no gluing")
        if len(hits) > 1:
            raise InvalidPath(f"facets {a} and {b} share several gluings; give gluing ids")
        steps.append(hits[0])
    return FacetPath(check_facet(x, ids[0]), tuple(steps))


@dataclass(frozen=True)
class StarView:
    """The facet copies around one face class, with the gluings fixing it.

    A gluing fixes the class when its ridge contains the class member of the
    facet on either side; any ridge shared by two copies of the star contains
    the class automatically, so this keeps the full dual structure around it.
    Local vertex labels are unchanged; only facet ids are re-indexed.  The
    gluings come from the parent's incidence index, so only the star's own
    copies are visited.
    """

    parent_facets: tuple[int, ...]  # sorted parent copy ids; index = star facet id
    complex: PseudoComplex
    rep_in: tuple[tuple[int, ...], ...]  # star facet id -> local vertex tuple of class


def star_of_class(x: Complex, cid: int) -> StarView:
    """Star of a face class, read off the class and incidence indexes in O(|star| * (d+1))."""
    rep_by_facet = dict(x.classes().members_of(cid))
    facet_ids = tuple(sorted(rep_by_facet))
    index = {f: i for i, f in enumerate(facet_ids)}
    sub_gluings = tuple(
        Gluing(index[g.facet_a], g.ridge_a, index[g.facet_b], g.ridge_b, g.mapping)
        for g in map(x.gluings.__getitem__, gluings_from(x, facet_ids))
        if set(rep_by_facet[g.facet_a]) <= set(g.ridge_a)
    )
    star = PseudoComplex.trusted(x.dim, len(facet_ids), sub_gluings)
    reps = tuple(rep_by_facet[f] for f in facet_ids)
    return StarView(facet_ids, star, reps)


def link_of_class(x: Complex, cid: int) -> PseudoComplex:
    """Link of a face class, as the pseudo-complex generated by its star.

    Facet copy i of the link sits inside star facet i; its local labels are
    the complement of the class representative, in increasing order.
    """
    star = star_of_class(x, cid)
    d = x.dim
    card = len(star.rep_in[0])
    if card > d:
        raise NotAFace("a facet class has an empty link")
    # star facet -> {local label outside the class: its link label}
    where = [
        {v: i for i, v in enumerate(v for v in range(d + 1) if v not in rep)}
        for rep in star.rep_in
    ]
    link_gluings: list[Gluing] = []
    for g in star.complex.gluings:
        ia, ib = where[g.facet_a], where[g.facet_b]
        ra = tuple(ia[v] for v in g.ridge_a if v in ia)
        mapping = tuple(ib[w] for v, w in zip(g.ridge_a, g.mapping) if v in ia)
        link_gluings.append(Gluing(g.facet_a, ra, g.facet_b, tuple(sorted(mapping)), mapping))
    return PseudoComplex(d - card, len(star.parent_facets), tuple(link_gluings))
