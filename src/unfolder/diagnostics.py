"""Structural predicates: connectivity, balancedness, odd faces, manifold
checks, Euler characteristic, mod-2 boundary solving, isomorphism search."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as all_permutations

from .complexes import (
    AbstractComplex,
    Complex,
    PseudoComplex,
    _roots,
    _steps,
    _subface_pairs,
    link_of_class,
    nonempty_subsets,
    per_instance,
    subset_index,
)
from .errors import (
    BadParameter,
    DimensionMismatch,
    Mismatch,
    NotAFace,
    NotLocallyStronglyConnected,
)
from .permutations import Perm, perm_compose, perm_identity, perm_inverse
from .projectivities import _search, projectivity_group


def is_strongly_connected(x: Complex) -> bool:
    """Read off the kept search from facet 0: connected when it is one tree."""
    return _search(x, 0).spans


@per_instance
def is_locally_strongly_connected(x: Complex) -> tuple[bool, int | None]:
    """Every face star must be strongly connected.

    Stars of ridges and facets always are, and no star is built.  A
    `PseudoComplex` always is: each union of its glued closure goes through a
    gluing whose ridge holds the face, so a class's members are joined by the
    star's own gluings.  An `AbstractComplex` is exactly when no class of
    cardinality <= d-1 splits under the closure of its derived gluings.
    Returns (ok, witness class id of the first bad star); the pair is kept on
    `x`, so `odd_subcomplex` and `is_nice` reuse it.
    """
    classes = x.classes()
    d = x.dim
    if isinstance(x, PseudoComplex) or d < 2:
        return True, None
    # only faces of cardinality <= d-1 count; they come first among a copy's
    # subsets (m of them) and among a gluing's subface pairs (2^d - 2)
    m = 2 ** (d + 1) - d - 3
    pairs = (
        (g.facet_a * m + i, g.facet_b * m + j)
        for g in x.derived_gluings()
        for i, j in _subface_pairs(d, g.ridge_a, g.mapping)[: 2**d - 2]
    )
    roots = _roots(x.facet_count * m, pairs)
    # a class splits where one of its slots has another root than its first
    sc, per, root_of = classes.slot_class, classes.per, {}
    rows = (zip(sc[f * per : f * per + m], roots[f * m : f * m + m]) for f in range(x.facet_count))
    split = [c for row in rows for c, r in row if root_of.setdefault(c, r) != r]
    return (False, min(split)) if split else (True, None)


def balanced_coloring(x: Complex) -> dict[int, int] | None:
    """Proper (d+1)-coloring of vertex classes, or None.

    Read off the projectivity search at facet 0: facet f wears the inverse
    of the transport to f, so local label l of f gets color c with
    transports[f][c] == l.  The gluings agree on that coloring exactly when
    every generator is the identity, since a generator that fixes the d
    ridge labels fixes the last one too; so only a trivial group colors.
    Raises `NotStronglyConnected` when the dual graph is disconnected.
    """
    pg = projectivity_group(x)
    if not pg.group.is_trivial:
        return None
    # a vertex class must wear one color even where no gluing ties its
    # references together (pinched complexes fail exactly here); the scan
    # meets each class first at its smallest member, so in class-id order
    classes = x.classes()
    sc, per, w = classes.slot_class, classes.per, x.dim + 1
    out: dict[int, int] = {}
    for f, t in enumerate(pg.transports):
        for cid, color in zip(sc[f * per : f * per + w], perm_inverse(t)):
            if out.setdefault(cid, color) != color:
                return None
    return out


@dataclass(frozen=True)
class OddSubcomplex:
    """Codimension-2 face classes with non-bipartite link graphs.

    The link graph of a class has one vertex per ridge class through it, of
    degree the ridge's holder count, and one edge per member (f, s): the
    two ridges of copy f through s.  It is connected, as the star is, so
    with every ridge held twice it is one cycle, odd exactly when the class
    has an odd number of members, and with a ridge held once and none held
    three or more times it is a path.  A branched link, where some ridge is
    held three or more times, is odd exactly when the class's star group is
    not trivial: when a walk through the gluings around the class swaps the
    two vertices outside it.  That walk is followed with one bit per member
    (`_swapping_classes`), so no star is built.

    `as_complex` collects the odd faces plus all their subfaces on vertex
    class ids (original vertex ids for abstract input); None when empty.
    """

    odd_faces: tuple[int, ...]
    as_complex: AbstractComplex | None

    @property
    def is_empty(self) -> bool:
        return not self.odd_faces


@per_instance
def _ridge_marks(x: Complex) -> tuple[int, bytes]:
    """(lo, mark): mark[r - lo] is 1 when ridge class r, one of lo, lo+1,
    ..., is held by one copy (boundary), 2 when by three or more (branch),
    0 when by two.  A copy's ridges are its d+1 subsets just before the
    whole copy."""
    classes = x.classes()
    d, sc, per = classes.dim, classes.slot_class, classes.per
    lo, hi = bisect_left(classes.cards, d), bisect_right(classes.cards, d)
    held = array("i", [0]) * (hi - lo)
    for i in range(per - d - 2, per - 1) if d > 0 else ():  # a point has no ridge
        for r in sc[i::per]:
            held[r - lo] += 1
    return lo, bytes(1 if k == 1 else 2 if k > 2 else 0 for k in held)


@lru_cache(maxsize=4096)
def _ridge_members(
    d: int, ridge_a: tuple[int, ...], ridge_b: tuple[int, ...], mapping: tuple[int, ...]
) -> tuple[tuple[int, int, int], ...]:
    """For each (d-1)-subset s of a gluing's ridge: its subset index in copy
    a, that of its image in copy b, and 1 when the gluing reverses the order
    of the two vertices outside s.  Kept per gluing shape, as `_steps` is."""
    step, o = _steps(d, ridge_a, ridge_b, mapping)[0], d * (d + 1) // 2 - sum(ridge_a)
    index = subset_index(d + 1)
    return tuple(
        (index[s], index[tuple(sorted(map(step.__getitem__, s)))], (t > o) ^ (step[t] > step[o]))
        for t in ridge_a
        for s in [tuple(v for v in ridge_a if v != t)]  # t and o are outside s
    )


def _swapping_classes(x: Complex, lo: int, marks: bytearray) -> set[int]:
    """The branched codimension-2 classes (class c when marks[c - lo] & 2)
    whose star has a walk that swaps the two vertices outside the class:
    those whose star group is not trivial.  Each member (f, s) carries one
    bit, and each gluing joins the two members of every class in its ridge,
    flipping the bit when it reverses the order of their outside vertices.
    The (d-1)-subsets are consecutive from subset index k0, and member
    (f, subset k0 + k) is node k * n + f of one forest; `up` holds
    2 * a node's parent + its bit relative to it, or -1 at a root."""
    d, n = x.dim, x.facet_count
    classes = x.classes()
    sc, per, k0 = classes.slot_class, classes.per, subset_index(d + 1)[tuple(range(d - 1))]
    up = array("i", [-1]) * (d * (d + 1) // 2 * n)

    def root(e: int) -> tuple[int, int]:
        path = []
        while up[e] >= 0:
            path.append(e)
            e = up[e] >> 1
        bit = 0
        for b in reversed(path):  # point the path at the root
            bit ^= up[b] & 1
            up[b] = e << 1 | bit
        return e, bit

    swapping = set()
    for fa, ridge_a, fb, ridge_b, mapping in x.gluings:
        for i, j, flip in _ridge_members(d, ridge_a, ridge_b, mapping):
            c = sc[fa * per + i]
            if marks[c - lo] & 2:
                (a, p), (b, q) = root((i - k0) * n + fa), root((j - k0) * n + fb)
                if a != b:
                    up[a] = b << 1 | (p ^ q ^ flip)
                elif p ^ q != flip:
                    swapping.add(c)
    return swapping


def odd_subcomplex(x: Complex) -> OddSubcomplex:
    ok, witness = is_locally_strongly_connected(x)
    if not ok:
        raise NotLocallyStronglyConnected(f"star of face class {witness} is disconnected")
    d = x.dim
    classes = x.classes()
    sc, per = classes.slot_class, classes.per
    index = subset_index(d + 1)
    # each (d-1)-subset of a copy and the two ridges through it, as subset indices
    ends = [
        (index[s], *[index[tuple(sorted((*s, a)))] for a in range(d + 1) if a not in s])
        for s in nonempty_subsets(d + 1)
        if len(s) == d - 1
    ]
    # each class takes the marks of its ridges, and bit 4 flips per member
    rlo, mark = _ridge_marks(x)
    lo, hi = bisect_left(classes.cards, d - 1), bisect_right(classes.cards, d - 1)
    marks, loops = bytearray(hi - lo), []
    for i, ra, rb in ends:
        for c, u, v in zip(sc[i::per], sc[ra::per], sc[rb::per]):
            if u == v:
                loops.append(c)
            marks[c - lo] = (marks[c - lo] ^ 4) | mark[u - rlo] | mark[v - rlo]
    if loops:
        raise Mismatch(f"loop in the link graph of class {min(loops)}")
    # a branched link is odd when its star group is not trivial; a cycle is
    # odd by its length (marks exactly 4), a path never
    found = _swapping_classes(x, lo, marks) if ends and 2 in mark else set()
    at = marks.find(4)
    while at >= 0:
        found.add(lo + at)
        at = marks.find(4, at + 1)
    odd = sorted(found)
    if not odd:
        return OddSubcomplex((), None)
    if classes.facets is not None:
        facets = [classes.face_key(cid) for cid in odd]
    else:
        facets = [classes.vertex_classes_of(cid) for cid in odd]
    return OddSubcomplex(tuple(odd), AbstractComplex.from_facets(facets))


def is_pseudo_manifold(x: Complex) -> str:
    """Ridge-degree census: 'closed', 'with-boundary', or 'no'."""
    _lo, mark = _ridge_marks(x)
    if 2 in mark:
        return "no"
    return "with-boundary" if 1 in mark else "closed"


def orientable(x: Complex) -> bool:
    """Can the facets be oriented so that every gluing reverses the ridge?

    Read off the search forest from facet 0: crossing a gluing keeps the
    facet orientation exactly when its perspectivity is odd, so the search
    carries one orientation bit per facet along its trees, and the answer
    is whether every other gluing agrees with those bits.  The forest spans
    every component, so it answers for all of them at once.
    """
    return _search(x, 0).orientable


def euler_characteristic(x: Complex) -> int:
    counts = x.classes().counts_by_dim()
    return sum((-1) ** k * c for k, c in counts.items())


def mod2_boundary_check(
    K: AbstractComplex, L
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Is L the mod-2 boundary of some set Q of codimension-1 faces of K?

    L is a collection of codimension-2 faces (or an AbstractComplex whose
    facets are such). Returns (True, Q) with a witness chain, or (False, None).

    Each ridge's boundary is a bitmask over the codimension-2 faces.  The
    columns are reduced in ridge order by lowest-bit pivots, the sparse
    reduction of persistent homology; each pivot keeps the mask of the
    ridges that sum to it.  The target is reduced the same way: a missing
    pivot means no chain exists, and the XOR of the ridge masks used is Q.
    Column j becomes a pivot exactly when it is independent of the earlier
    columns, so Q is the unique sum of such ridges that bounds L.
    """
    d = K.dim
    if d < 1:
        raise DimensionMismatch(f"a complex of dimension {d} has no codimension-2 face")
    if isinstance(L, AbstractComplex):
        wanted = set(L.facets)
    else:
        wanted = {tuple(sorted(f)) for f in L}
    bit = {f: 1 << i for i, f in enumerate(K.faces(d - 2))}
    ridges = K.faces(d - 1)
    for f in wanted:
        if len(f) != d - 1:
            raise DimensionMismatch(f"{f} is not a codimension-2 face")
        if f not in bit:
            raise NotAFace(f"{f} is not a face")
    pivots: dict[int, tuple[int, int]] = {}

    def reduce(col: int, mask: int) -> tuple[int, int]:
        while col:
            hit = pivots.get(col & -col)
            if hit is None:
                break
            col ^= hit[0]
            mask ^= hit[1]
        return col, mask

    for j, rho in enumerate(ridges):
        col = 0
        for k in range(len(rho)):
            col |= bit[rho[:k] + rho[k + 1 :]]
        col, mask = reduce(col, 1 << j)
        if col:
            pivots[col & -col] = col, mask
    rest, chain = reduce(sum(bit[f] for f in wanted), 0)
    if rest:
        return False, None
    return True, tuple(rho for j, rho in enumerate(ridges) if chain >> j & 1)


@dataclass(frozen=True)
class ProjectionConstraint:
    """A simplicial projection onto a common target, facet-wise.

    `targets[f]` is the target facet under facet f; `local_maps[f]` carries
    f's local labels to the target's.
    """

    targets: tuple[int, ...]
    local_maps: tuple[Perm, ...]

    @staticmethod
    def identity_on(targets: tuple[int, ...], width: int) -> "ProjectionConstraint":
        ident = perm_identity(width)
        return ProjectionConstraint(targets, tuple(ident for _ in targets))


@dataclass(frozen=True)
class IsoWitness:
    """A complex isomorphism: facet bijection plus per-facet vertex maps."""

    facet_map: tuple[int, ...]
    vertex_maps: tuple[Perm, ...]


def isomorphic(
    p: Complex,
    q: Complex,
    constraints: tuple[ProjectionConstraint, ProjectionConstraint] | None = None,
) -> IsoWitness | None:
    """Backtracking search for a face-structure isomorphism.

    Facets of p are placed in the order of its kept search forest.  The
    first facet of a component tries every free facet of q.  A later facet,
    reached across ridge class R, tries only the free holders of the image
    of R, which its parent already fixed and its own image must hold.  The
    pool is the holders of that ridge class, not the dual-graph neighbours
    of the parent's image: a ridge of a `PseudoComplex` can hold more than
    two copies, and an isomorphism of face structure need not keep the
    gluing pattern (four edges glued as a star around one copy are
    isomorphic to the same four glued as a chain).  In dimension 0 the
    ridges are empty, so every facet takes the full pool.  Unconstrained,
    every label map is tried, and a wrong one fails at its first vertex;
    with projection constraints the image must project to the same target,
    and the label map is forced by the two local maps.
    """
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
    index = subset_index(d + 1)
    sp, sq, per = cp.slot_class, cq.slot_class, cp.per

    # the search order, and the ridge class each non-root facet is reached across
    search = _search(p, 0)
    order = search.reached
    via: list[int | None] = [None] * n
    if d > 0:
        tree = map(p.gluings.__getitem__, search.tree_gluings)
        for f in order:
            if search.roots[f] != f:
                g = next(tree)
                via[f] = sp[f * per + index[g.ridge_a if g.facet_a == f else g.ridge_b]]

    # q's copies by ridge class; a copy's d+1 ridges sit just before the whole
    # copy, and no two of its slots share a class, so each holder shows once
    holders: dict[int, list[int]] = {}
    if d > 0:
        for t in range(n):
            at = t * per + per - d - 2
            for c in sq[at : at + d + 1]:
                holders.setdefault(c, []).append(t)

    lambdas = tuple(all_permutations(range(d + 1)))

    def candidates(f: int, used: list[bool]):
        r = via[f]
        for t in range(n) if r is None else holders[class_map[r]]:
            if used[t]:
                continue
            if constraints is not None:
                want, have = constraints[0], constraints[1]
                if have.targets[t] != want.targets[f]:
                    continue
                lam = perm_compose(want.local_maps[f], perm_inverse(have.local_maps[t]))
                yield t, lam
            else:
                for lam in lambdas:
                    yield t, lam

    facet_map = [-1] * n
    vertex_maps: list[Perm | None] = [None] * n
    used = [False] * n
    class_map: dict[int, int] = {}
    class_rev: dict[int, int] = {}

    images: dict[Perm, tuple[int, ...]] = {}  # lam -> the subset index of each image

    def try_assign(f: int, t: int, lam: Perm) -> list[tuple[int, int]] | None:
        image = images.get(lam)
        if image is None:
            image = images[lam] = tuple(index[tuple(sorted(lam[v] for v in s))] for s in subs)
        added: list[tuple[int, int]] = []
        for i, j in enumerate(image):
            a = sp[f * per + i]
            b = sq[t * per + j]
            have = class_map.get(a)
            if have is not None:
                if have != b:
                    break
                continue
            if class_rev.get(b) is not None:
                break
            if cp.sizes[a] != cq.sizes[b]:
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

    stack: list = []
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


def is_nice(x: Complex, assume_high_dim: bool | None = None) -> bool:
    """Locally strongly connected with simply connected codim > 2 links.

    Decidable here for dim <= 3: the only codimension-3 faces are vertices,
    whose links must be spheres (closed, connected, Euler 2) or disks
    (boundary, connected, Euler 1).  Higher dimensions need the caller's
    assertion via `assume_high_dim`.
    """
    ok, _w = is_locally_strongly_connected(x)
    if not ok:
        return False
    d = x.dim
    if d <= 2:
        return True
    if d > 3:
        if assume_high_dim is None:
            raise BadParameter(
                "simple connectivity of links is undecided for dim > 3; "
                "pass assume_high_dim"
            )
        return assume_high_dim
    classes = x.classes()
    for cid in classes.classes_of_card(1):
        lk = link_of_class(x, cid)
        status = is_pseudo_manifold(lk)
        chi = euler_characteristic(lk)
        if status == "closed" and chi == 2:
            continue
        if status == "with-boundary" and chi == 1:
            continue
        return False
    return True
