"""Subdivision operators: barycentric, stellar, anti-prismatic.

The anti-prismatic subdivision is built from its abstract description:
vertices are pairs (face class, vertex class of that face); a set of d+1
distinct pairs spans a facet when the faces form a nested chain (repetitions
allowed) and a pair's vertex avoids every strictly smaller face in the chain.
Within one copy such a set is an ordered partition B1, ..., Bk of the labels
0..d, as the pairs (B1 + ... + Bj, w) for w in Bj.  These facet shapes are
generated once per dimension and instantiated per copy with global class ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from itertools import permutations as all_permutations
from math import comb, factorial

from .complexes import AbstractComplex, Complex, check_facet, check_size, subset_index
from .errors import BadParameter, Mismatch, NotAFacet
from .permutations import Perm, PermutationGroup, perm_compose
from .projectivities import projectivity_group

LocalPair = tuple[tuple[int, ...], int]  # (sorted local subset, local vertex)


@lru_cache(maxsize=None)
def antiprism_facet_shapes(dim: int) -> tuple[tuple[LocalPair, ...], ...]:
    """All facets of the anti-prismatic subdivision of one standard simplex.

    Blocks are tried by size, then lexicographically; for blocks of one size
    tau + B orders as B does, so chains come out in (cardinality, lex) order.
    """

    def extend(pairs: tuple[LocalPair, ...], tau: tuple[int, ...], rest: tuple[int, ...]):
        if not rest:
            yield pairs
        for k in range(1, len(rest) + 1):
            for block in combinations(rest, k):
                chain = tuple(sorted(tau + block))
                left = tuple(v for v in rest if v not in block)
                yield from extend(pairs + tuple((chain, w) for w in block), chain, left)

    return tuple(extend((), (), tuple(range(dim + 1))))


def antiprism_facet_count(dim: int) -> int:
    """`len(antiprism_facet_shapes(dim))` without the enumeration (545835 shapes
    at dim 7): the ordered partitions of dim+1 points, a(m) = sum C(m, k) a(m-k)."""
    a = [1]
    for m in range(1, dim + 2):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[-1]


@dataclass
class SubdivisionRecord:
    """A subdivision together with its vertex and facet provenance.

    vertex_provenance: result vertex -> originating face class id for the
    barycentric case, (face class id, vertex class id) for the anti-prismatic
    case.  facet_provenance: result facet -> (source facet copy, shape index).
    """

    kind: str
    source: Complex
    result: AbstractComplex
    vertex_provenance: dict
    facet_provenance: tuple[tuple[int, int], ...]

    def central_shape_index(self) -> int:
        """The one-block shape: its first subset is the largest, so it is last."""
        if self.kind != "antiprismatic":
            raise BadParameter(f"no central facets in a {self.kind} subdivision")
        return len(antiprism_facet_shapes(self.source.dim)) - 1

    @cached_property
    def _facet_by_provenance(self) -> dict[tuple[int, int], int]:
        return {pv: i for i, pv in enumerate(self.facet_provenance)}

    def facet_of_copy(self, copy: int, shape_index: int) -> int:
        facet = self._facet_by_provenance.get((copy, shape_index))
        if facet is None:
            raise NotAFacet(f"no facet of shape {shape_index} in copy {copy}")
        return facet

    def central_facet(self, copy: int) -> int:
        return self.facet_of_copy(copy, self.central_shape_index())


def _record(kind: str, x: Complex, raw, provenance, vertex_prov: dict) -> SubdivisionRecord:
    """The subdivision whose facet `raw[i]` came from (copy, shape)
    `provenance[i]`, with the provenance re-sorted to the sorted facets."""
    result = AbstractComplex.from_facets(raw)
    if result.facet_count != len(raw):
        raise Mismatch(f"{kind} facets collided; the face classes are inconsistent")
    where = {facet: provenance[i] for i, facet in enumerate(raw)}
    facet_prov = tuple(where[facet] for facet in result.facets)
    return SubdivisionRecord(kind, x, result, vertex_prov, facet_prov)


def barycentric(x: Complex) -> SubdivisionRecord:
    """Facets are the maximal flags of face classes within each facet copy.

    A flag corresponds to an ordering of the copy's local vertices; its k-th
    member is the class of the first k+1 of them.  Vertex ids of the result
    are the face class ids themselves.
    """
    d = x.dim
    check_size(d, x.facet_count * factorial(d + 1))
    classes = x.classes()
    sc, per, index = classes.slot_class, classes.per, subset_index(d + 1)
    # each ordering's flag as subset indices, read at every copy's offset
    flags = [
        tuple(index[tuple(sorted(ordering[: i + 1]))] for i in range(d + 1))
        for ordering in all_permutations(range(d + 1))
    ]
    raw: list[tuple[int, ...]] = []
    provenance: list[tuple[int, int]] = []
    for f in range(x.facet_count):
        at = f * per
        for k, flag in enumerate(flags):
            raw.append(tuple(sorted([sc[at + i] for i in flag])))
            provenance.append((f, k))
    # every class lies in a flag of a copy that holds it
    return _record("barycentric", x, raw, provenance, {cid: cid for cid in range(classes.count)})


def stellar(K: AbstractComplex, facet: int) -> AbstractComplex:
    """Replace one facet by the cone over its boundary from a new vertex."""
    check_facet(K, facet)
    apex = max(K.vertices()) + 1
    target = K.facets[facet]
    out = [f for i, f in enumerate(K.facets) if i != facet]
    for v in target:
        out.append(tuple(sorted([w for w in target if w != v] + [apex])))
    return AbstractComplex.from_facets(out)


def antiprismatic(x: Complex) -> SubdivisionRecord:
    """Subdivision on (face class, vertex class) pairs.

    Every facet of the result contains a pair whose face is the full facet
    class of its copy, so facets never collide across copies; the facet count
    is always (number of shapes) x (number of copies).
    """
    d = x.dim
    check_size(d, x.facet_count * antiprism_facet_count(d))
    classes = x.classes()
    sc, per, index = classes.slot_class, classes.per, subset_index(d + 1)
    # each shape's pairs as subset indices; vertex w is subset w
    shapes = [tuple((index[tau], w) for tau, w in shape) for shape in antiprism_facet_shapes(d)]
    pair_set: set[tuple[int, int]] = set()
    per_copy: list[list[tuple[tuple[int, int], ...]]] = []
    for f in range(x.facet_count):
        at = f * per
        rows: list[tuple[tuple[int, int], ...]] = []
        for shape in shapes:
            pairs = tuple((sc[at + i], sc[at + w]) for i, w in shape)
            rows.append(pairs)
            pair_set.update(pairs)
        per_copy.append(rows)
    vertex_id = {pair: i for i, pair in enumerate(sorted(pair_set))}
    raw: list[tuple[int, ...]] = []
    provenance: list[tuple[int, int]] = []
    for f, rows in enumerate(per_copy):
        for k, pairs in enumerate(rows):
            raw.append(tuple(sorted(vertex_id[p] for p in pairs)))
            provenance.append((f, k))
    return _record("antiprismatic", x, raw, provenance, {i: p for p, i in vertex_id.items()})


def crumpling_map(rec: SubdivisionRecord) -> dict[int, int]:
    """Vertex map of the subdivision onto its source: (face, vertex) -> vertex.

    Values are vertices of an abstract source, vertex class ids otherwise."""
    if rec.kind != "antiprismatic":
        raise BadParameter("the crumpling map belongs to the anti-prismatic subdivision")
    classes = rec.source.classes()
    if classes.facets is not None:
        return {v: classes.face_key(pair[1])[0] for v, pair in rec.vertex_provenance.items()}
    return {v: pair[1] for v, pair in rec.vertex_provenance.items()}


def crumpling_group_pair(rec: SubdivisionRecord) -> tuple[PermutationGroup, PermutationGroup]:
    """Projectivity groups of subdivision and source, on the source's labels.

    The subdivision's group at facet 0 is conjugated by the tree transport
    to the central facet of copy 0, a change of base with no second search,
    and then by mu, the crumpling identification of that facet's vertices
    with copy 0's labels.  So both groups act on one label set, and the
    lifted generators are the subdivision's loops at facet 0, carried over.
    """
    x = rec.source
    central = rec.central_facet(0)
    pg = projectivity_group(rec.result)
    # the copy-0 label of each vertex of the central facet: vertex l of copy 0 is slot l
    copy0 = x.classes().slot_class[: x.dim + 1]
    mu = tuple(copy0.index(rec.vertex_provenance[vid][1]) for vid in rec.result.facets[central])
    lifted = pg.group.conjugated(perm_compose(pg.transport_to(central), mu))
    return lifted, projectivity_group(x).group


def iterate(op, x: Complex, n: int) -> Complex:
    """Apply a subdivision operator n times; accepts records or complexes."""
    if n < 0:
        raise BadParameter("iteration count must be >= 0")
    cur = x
    for _ in range(n):
        out = op(cur)
        cur = out.result if isinstance(out, SubdivisionRecord) else out
    return cur


def unfold_commutes_with_antiprismatic(x: Complex, mode: str = "complete"):
    """Witness that unfolding then subdividing equals subdividing then
    unfolding, compatibly with the two projections onto the subdivided base.

    Returns the isomorphism witness or None.  The left side unfolds the
    subdivision; the right side subdivides the unfolding, and each of its
    facets is matched to the base subdivision facet with the same shape in
    the projected copy, with the vertex alignment read off shape-wise.
    """
    from .diagnostics import ProjectionConstraint, isomorphic
    from .unfoldings import complete_unfolding, partial_unfolding

    if mode not in ("complete", "partial"):
        raise BadParameter(f"unknown mode {mode!r}")
    rec = antiprismatic(x)
    if mode == "complete":
        left = complete_unfolding(rec.result)
        up = complete_unfolding(x)
    else:
        left = partial_unfolding(rec.result)
        up = partial_unfolding(x)
    rec_up = antiprismatic(up.total)

    d = x.dim
    shapes = antiprism_facet_shapes(d)
    cls_up = up.total.classes()
    cls_dn = x.classes()
    vid_up = {pair: v for v, pair in rec_up.vertex_provenance.items()}
    vid_dn = {pair: v for v, pair in rec.vertex_provenance.items()}

    targets: list[int] = []
    lmaps: list[Perm] = []
    for j in range(rec_up.result.facet_count):
        F, s = rec_up.facet_provenance[j]
        pF = up.projection[F]
        t = rec.facet_of_copy(pF, s)
        jv = rec_up.result.facets[j]
        tv = rec.result.facets[t]
        lam = [0] * (d + 1)
        for tau, w in shapes[s]:
            uvid = vid_up[(cls_up.class_of((F, tau)), cls_up.class_of((F, (w,))))]
            dvid = vid_dn[(cls_dn.class_of((pF, tau)), cls_dn.class_of((pF, (w,))))]
            lam[jv.index(uvid)] = tv.index(dvid)
        targets.append(t)
        lmaps.append(tuple(lam))

    want = ProjectionConstraint.identity_on(left.projection, d + 1)
    have = ProjectionConstraint(tuple(targets), tuple(lmaps))
    return isomorphic(left.total, rec_up.result, constraints=(want, have))
