"""Complete and partial unfoldings, their components, and the tower.

Both unfoldings are one construction, `_lift`: a branched covering built from
an action of the projectivity group on a fibre of `width` points.  Copy
f * width + i lies over facet f, and a base gluing from a to b lifts to
(a, i) -> (b, image[i]) with its ridge data unchanged, one gluing per point.
The complete unfolding's fibre is the group itself, sorted, and a gluing
acts by its holonomy from the right, so copy (f, g) carries the coloring
(g * transport_f)^-1.  The partial unfolding's fibre is the d+1 local vertex
labels, and a gluing acts by its perspectivity step.  Its components are
the orbits of the group on the labels, one union over the gluings' steps
(`_orbit_parts`), and each is the lift over one orbit: `_lift` builds only
the copies it is given, so `components` never slices the total and
`composition_tower` never builds a stage's whole total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Complex,
    Gluing,
    PseudoComplex,
    _roots,
    _steps,
    check_facet,
    check_size,
    gluings_from,
    max_copies,
    perspectivity,
)
from .errors import (
    BadParameter,
    BaseNotNice,
    IsomorphismNotFound,
    Mismatch,
)
from .permutations import Perm, perm_compose, perm_inverse
from .projectivities import ProjectivityGroup, projectivity_group


@dataclass(frozen=True)
class UnfoldingResult:
    """An unfolded complex together with its projection to the base.

    `projection[c]` is the base facet under copy c; local vertex labels are
    shared between a copy and its base facet, so the projection is always
    facet-onto-facet and non-degenerate.  `labels[c]` records what
    distinguishes the copy: the admissible coloring (complete) or the
    distinguished local vertex (partial).  Partial results also carry the
    partition of copies into dual-graph components, one per orbit of the
    group on the labels; `component_of` lifts each over the base.
    """

    kind: str
    base: Complex
    total: PseudoComplex
    projection: tuple[int, ...]
    labels: tuple[tuple[int, Perm | int], ...]
    group: ProjectivityGroup | None = None
    component_partition: tuple[tuple[int, ...], ...] | None = None

    @property
    def width(self) -> int:
        # copies per base facet: |group| for complete, d+1 for partial
        return len(self.projection) // self.base.facet_count


def _lift(
    x: Complex, width: int, image, members: tuple[int, ...] | None = None
) -> tuple[PseudoComplex, tuple[int, ...]]:
    """The copies `members` (default: all) of the `width`-fold lift of `x`,
    as their own complex, and the base facet under each.

    Copy f * width + i lies over facet f; gluing gid, from a to b, lifts to
    (a, i) -> (b, image(gid)[i]) with unchanged ridge data.  `members` must
    be sorted and closed under the lifted gluings; copy `members[k]` becomes
    copy k.  Only the gluings of the base facets under `members` are read,
    off the base's incidence index, and only after the part passes
    `check_size`.
    """
    if members is None:
        members = range(x.facet_count * width)
    check_size(x.dim, len(members))
    where = {c: k for k, c in enumerate(members)}
    projection = tuple(c // width for c in members)
    gl = x.gluings
    lifted = tuple(
        Gluing(k, ridge_a, where[b * width + j], ridge_b, mapping)
        for gid in gluings_from(x, dict.fromkeys(projection))
        for (a, ridge_a, b, ridge_b, mapping), fibre in [(gl[gid], image(gid))]
        for i, j in enumerate(fibre)
        if (k := where.get(a * width + i)) is not None  # copy (a, i) is a member
    )
    return PseudoComplex.trusted(x.dim, len(members), lifted), projection


def _steps_of(x: Complex):
    """The partial lift's image: gluing id -> its perspectivity step from side a."""
    return lambda gid: perspectivity(x, x.gluings[gid].facet_a, gid)


def complete_unfolding(x: Complex, base: int = 0) -> UnfoldingResult:
    """Unfold so that every facet acquires all of its admissible colorings.

    The fibre is the sorted group; copy (f, i) carries the coloring of the
    i-th element g, the inverse of g composed after the tree transport to f.
    A gluing from a to b with holonomy h moves g to g h.  The total has no
    holonomy of its own: its group is trivial (checks `proj-06` and `unf-02`
    of `unfolder verify`).  A group with more elements than `max_copies`
    is refused as soon as its closure passes that many.
    """
    pg = projectivity_group(x, base)
    most = max_copies(x.dim, x.facet_count)
    group = pg.group_within(most)
    if group is None:
        check_size(x.dim, x.facet_count * (most + 1), at_least=True)  # always refuses
    elements = group.sorted_elements()
    index = {g: i for i, g in enumerate(elements)}
    t = pg.transports
    by_holonomy: dict[Perm, list[int]] = {}  # at most |G| fibre images

    def image(gid: int) -> list[int]:
        fa, fb = x.gluings[gid].facet_a, x.gluings[gid].facet_b
        hol = perm_compose(perm_compose(t[fa], perspectivity(x, fa, gid)), perm_inverse(t[fb]))
        if hol not in by_holonomy:
            by_holonomy[hol] = [index[perm_compose(elt, hol)] for elt in elements]
        return by_holonomy[hol]

    total, projection = _lift(x, len(elements), image)
    labels = tuple(
        (f, perm_inverse(perm_compose(elt, t[f]))) for f in range(x.facet_count) for elt in elements
    )
    return UnfoldingResult("complete", x, total, projection, labels, group=pg)


def _orbit_parts(x: Complex) -> tuple[tuple[int, ...], ...]:
    """The sorted copies of each component of the partial unfolding of `x`,
    by smallest copy: one union, over the gluings of `x`, of copy (a, i)
    with copy (b, s(i)) for each gluing from a to b with step s.  No search
    runs and no total is built."""
    n, d = x.facet_count, x.dim
    width = d + 1
    pairs = (
        (a * width + i, b * width + j)
        for a, ridge_a, b, ridge_b, mapping in x.gluings
        for i, j in enumerate(_steps(d, ridge_a, ridge_b, mapping)[0])
    )
    parts: dict[int, list[int]] = {}
    for c, root in enumerate(_roots(n * width, pairs)):
        parts.setdefault(root, []).append(c)
    return tuple(map(tuple, parts.values()))


def partial_unfolding(x: Complex) -> UnfoldingResult:
    """Unfold so that every facet acquires a distinguished vertex.

    The fibre is the d+1 local vertex labels, and a gluing from a to b moves
    v to its perspectivity step s(v).  Works on disconnected inputs; the
    components are `_orbit_parts(x)`.
    """
    width = x.dim + 1
    total, projection = _lift(x, width, _steps_of(x))
    labels = tuple((f, v) for f in range(x.facet_count) for v in range(width))
    parts = _orbit_parts(x)
    return UnfoldingResult("partial", x, total, projection, labels, component_partition=parts)


@dataclass(frozen=True)
class Component:
    """One dual-graph component of an unfolding, as its own complex, in which
    copy `member_copies[k]` of the total is copy k.  A partial unfolding's
    component is the lift over one orbit of the group on the labels."""

    complex: PseudoComplex
    member_copies: tuple[int, ...]
    projection: tuple[int, ...]
    labels: tuple[tuple[int, Perm | int], ...]


def component_parts(u: UnfoldingResult) -> tuple[tuple[int, ...], ...]:
    """The sorted copy ids of each dual-graph component of an unfolding; a
    complete unfolding has one, as the lift of a connected base by its whole
    group is connected."""
    return u.component_partition or (tuple(range(u.total.facet_count)),)


def component_of(u: UnfoldingResult, members: tuple[int, ...]) -> Component:
    """The component made of the sorted copies `members`, as its own complex:
    the total itself when `members` holds every copy, else their lift over
    the base, which reads neither the total nor its incidence index."""
    if len(members) == u.total.facet_count:
        part = u.total
    elif u.kind == "partial":
        part = _lift(u.base, u.width, _steps_of(u.base), members)[0]
    else:
        raise BadParameter("a complete unfolding has one component")
    return Component(
        complex=part,
        member_copies=members,
        projection=tuple(u.projection[c] for c in members),
        labels=tuple(u.labels[c] for c in members),
    )


def components(u: UnfoldingResult) -> tuple[Component, ...]:
    """Split an unfolding along its dual-graph components."""
    return tuple(component_of(u, members) for members in component_parts(u))


@dataclass(frozen=True)
class TowerStage:
    """One round: the chosen component and its projections."""

    complex: PseudoComplex
    seed: int
    to_previous: tuple[int, ...]
    to_root: tuple[int, ...]


@dataclass(frozen=True)
class Tower:
    """Iterated one-vertex unfoldings ending in the complete unfolding.

    `stages` has d+1 entries; `complexes` lists the root followed by each
    stage, and the last one is isomorphic to the complete unfolding by
    `witness`, compatibly with both projections to the root.
    """

    root: Complex
    base: int
    vertex_order: tuple[int, ...]
    stages: tuple[TowerStage, ...]
    complete: UnfoldingResult
    witness: "IsoWitness"

    @property
    def complexes(self) -> tuple[Complex, ...]:
        return (self.root,) + tuple(s.complex for s in self.stages)

    @property
    def final(self) -> PseudoComplex:
        return self.stages[-1].complex

    @property
    def final_to_root(self) -> tuple[int, ...]:
        return self.stages[-1].to_root


def composition_tower(
    x: Complex, base: int = 0, vertex_order: tuple[int, ...] | None = None
) -> Tower:
    """Run d+1 one-vertex unfoldings.  Each stage is the lift, over the
    previous one, of the orbit holding the seed facet with its next
    distinguished vertex; no stage's whole partial unfolding is built.

    The final stage is checked against the complete unfolding by a
    projection-compatible isomorphism search; its absence is an error
    worth surfacing loudly.
    """
    from .diagnostics import ProjectionConstraint, isomorphic

    d = x.dim
    width = d + 1
    if vertex_order is None:
        vertex_order = tuple(range(width))
    if sorted(vertex_order) != list(range(width)):
        raise BadParameter(f"vertex order {vertex_order!r} is not a permutation")
    check_facet(x, base)

    current: Complex = x
    seed = base
    stages: list[TowerStage] = []
    to_root = tuple(range(x.facet_count))
    for v in vertex_order:
        copy = seed * width + v
        members = next(part for part in _orbit_parts(current) if copy in part)
        current, to_previous = _lift(current, width, _steps_of(current), members)
        seed = members.index(copy)
        to_root = tuple(to_root[f] for f in to_previous)
        stages.append(TowerStage(current, seed, to_previous, to_root))

    hat = complete_unfolding(x, base)
    want = ProjectionConstraint.identity_on(stages[-1].to_root, width)
    have = ProjectionConstraint.identity_on(hat.projection, width)
    witness = isomorphic(stages[-1].complex, hat.total, constraints=(want, have))
    if witness is None:
        raise IsomorphismNotFound(
            "the final tower stage does not match the complete unfolding"
        )
    return Tower(
        root=x,
        base=base,
        vertex_order=tuple(vertex_order),
        stages=tuple(stages),
        complete=hat,
        witness=witness,
    )


def fibers_over(u: UnfoldingResult) -> dict[int, tuple[int, ...]]:
    """Face classes of the total complex grouped by their base class."""
    base_classes = u.base.classes()
    sc, per = base_classes.slot_class, base_classes.per
    fibers: dict[int, list[int]] = {cid: [] for cid in range(base_classes.count)}
    for cid, slot in enumerate(u.total.classes().first):
        f, i = divmod(slot, per)  # the total's copies share the base's slot layout
        fibers[sc[u.projection[f] * per + i]].append(cid)
    return {cid: tuple(v) for cid, v in fibers.items()}


def branching_index(u: UnfoldingResult, cover_cid: int) -> int:
    """How many copies of each incident base facet reference the class.

    The count must be the same for every base-facet reference of the
    underlying base class; a spread signals an implementation bug.
    """
    base_classes = u.base.classes()
    seen: dict[tuple[int, tuple[int, ...]], int] = {}
    base_cid = None
    for f, sub in u.total.classes().members_of(cover_cid):
        ref = (u.projection[f], sub)
        seen[ref] = seen.get(ref, 0) + 1
        here = base_classes.class_of(ref)
        if base_cid is None:
            base_cid = here
        elif base_cid != here:
            raise Mismatch("cover class projects to two distinct base classes")
    counts = set(seen.values())
    if len(counts) != 1 or len(seen) != base_classes.sizes[base_cid]:
        raise Mismatch(
            f"cover class {cover_cid} does not spread evenly over base "
            f"class {base_cid}"
        )
    return counts.pop()


def branch_locus_counts(
    u: UnfoldingResult,
) -> dict[int, tuple[tuple[int, int], ...]]:
    """Census of the fibers over the odd codimension-2 classes.

    Maps each odd base class to its fiber classes with their branching
    indices; fibers over the even codimension-2 classes are checked to
    have uniform index 1.
    """
    from .diagnostics import is_nice, odd_subcomplex

    if not is_nice(u.base):
        raise BaseNotNice("the base complex is not nice enough to talk about branching")
    odd = set(odd_subcomplex(u.base).odd_faces)
    fibers = fibers_over(u)
    base_classes = u.base.classes()
    census: dict[int, tuple[tuple[int, int], ...]] = {}
    for cid in base_classes.classes_of_card(u.base.dim - 1):
        indexed = tuple((cc, branching_index(u, cc)) for cc in fibers[cid])
        if cid in odd:
            census[cid] = indexed
        elif any(k != 1 for _, k in indexed):
            raise Mismatch(f"branching over the even class {cid}")
    return census


def projects_isomorphically(cover: Complex, base: Complex) -> bool:
    """True when a cover (an unfolding's total or one of its components)
    maps facet-bijectively onto the base without splitting any face class:
    one copy per base facet and equal face counts.  For a strongly connected
    base the projection is onto, so equal counts settle it."""
    if cover.facet_count != base.facet_count:
        return False
    return cover.classes().counts_by_dim() == base.classes().counts_by_dim()
