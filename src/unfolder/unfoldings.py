"""Complete and partial unfoldings, their components, and the tower.

Both unfoldings are one construction, `_lift`: a branched covering built from
an action of the projectivity group on a fibre of `width` points.  Copy
f * width + i lies over facet f, and a base gluing from a to b lifts to
(a, i) -> (b, image[i]) with its ridge data unchanged, one gluing per point.
The complete unfolding's fibre is the group itself, sorted, and a gluing
acts by its holonomy from the right, so copy (f, g) carries the coloring
(g * transport_f)^-1.  The partial unfolding's fibre is the d+1 local vertex
labels, and a gluing acts by its perspectivity step; the orbits of the
group on the labels are its components, read off the search of the base
(see `partial_unfolding`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Complex,
    Gluing,
    PseudoComplex,
    _roots,
    _steps,
    check_size,
    component_complex,
)
from .errors import (
    BadParameter,
    BaseNotNice,
    IsomorphismNotFound,
    Mismatch,
    NotAFacet,
)
from .permutations import Perm, perm_compose, perm_inverse
from .projectivities import ProjectivityGroup, _search, projectivity_group


@dataclass(frozen=True)
class UnfoldingResult:
    """An unfolded complex together with its projection to the base.

    `projection[c]` is the base facet under copy c; local vertex labels are
    shared between a copy and its base facet, so the projection is always
    facet-onto-facet and non-degenerate.  `labels[c]` records what
    distinguishes the copy: the admissible coloring (complete) or the
    distinguished local vertex (partial).  Partial results also carry the
    partition of copies into dual-graph components.
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


def _lift(x: Complex, width: int, images) -> tuple[PseudoComplex, tuple[int, ...]]:
    """The total of `width` copies per facet of `x`, and its projection.

    Copy f * width + i lies over facet f; gluing gid, from a to b, lifts to
    (a, i) -> (b, images[gid][i]) with unchanged ridge data.  `images` may
    be a generator: it is read only after the total passes `check_size`.
    """
    n = x.facet_count
    check_size(x.dim, n * width)
    lifted = tuple(
        Gluing(g.facet_a * width + i, g.ridge_a, g.facet_b * width + j, g.ridge_b, g.mapping)
        for g, image in zip(x.gluings, images)
        for i, j in enumerate(image)
    )
    total = PseudoComplex.trusted(x.dim, n * width, lifted)
    return total, tuple(f for f in range(n) for _ in range(width))


def complete_unfolding(x: Complex, base: int = 0) -> UnfoldingResult:
    """Unfold so that every facet acquires all of its admissible colorings.

    The fibre is the sorted group; copy (f, i) carries the coloring of the
    i-th element g, the inverse of g composed after the tree transport to f.
    A gluing from a to b with holonomy h moves g to g h.  The total has no
    holonomy of its own: its group is trivial (checks `proj-06` and `unf-02`
    of `unfolder verify`).
    """
    pg = projectivity_group(x, base)
    elements = pg.group.sorted_elements()
    index = {g: i for i, g in enumerate(elements)}
    t = pg.transports

    def images():
        by_holonomy: dict[Perm, list[int]] = {}  # at most |G| fibre images
        for fa, ridge_a, fb, ridge_b, mapping in x.gluings:
            step = _steps(x.dim, ridge_a, ridge_b, mapping)[0]
            hol = perm_compose(perm_compose(t[fa], step), perm_inverse(t[fb]))
            if hol not in by_holonomy:
                by_holonomy[hol] = [index[perm_compose(elt, hol)] for elt in elements]
            yield by_holonomy[hol]

    total, projection = _lift(x, len(elements), images())
    labels = tuple(
        (f, perm_inverse(perm_compose(elt, t[f]))) for f in range(x.facet_count) for elt in elements
    )
    return UnfoldingResult("complete", x, total, projection, labels, group=pg)


def partial_unfolding(x: Complex) -> UnfoldingResult:
    """Unfold so that every facet acquires a distinguished vertex.

    The fibre is the d+1 local vertex labels, and a gluing from a to b moves
    v to its perspectivity step s(v).  Works on disconnected inputs.

    The components come from the search forest of `x`, not from the total:
    copy (f, i) lies over the tree path from f's root r, so it joins copy
    (r, t_f^-1(i)), and the copies over r are joined exactly by the loops
    at r.  So each component is an orbit of those loops on r's labels,
    listed by smallest copy.
    """
    n, width = x.facet_count, x.dim + 1
    steps = (_steps(x.dim, g.ridge_a, g.ridge_b, g.mapping)[0] for g in x.gluings)
    total, projection = _lift(x, width, steps)
    labels = tuple((f, v) for f in range(n) for v in range(width))
    pg = _search(x, 0)
    # label slot r * width + l stands for copy (r, l) of a root r
    pairs = ((r * width + l, r * width + p[l]) for p, _gid, r in pg.loops for l in range(width))
    orbit = _roots(n * width, pairs)
    key = [0] * (n * width)
    for f, (t, r) in enumerate(zip(pg.transports, pg.roots)):
        at, o = f * width, r * width
        for l, i in enumerate(t):
            key[at + i] = orbit[o + l]
    parts: dict[int, list[int]] = {}
    for c, k in enumerate(key):
        parts.setdefault(k, []).append(c)
    partition = tuple(map(tuple, parts.values()))
    return UnfoldingResult("partial", x, total, projection, labels, component_partition=partition)


@dataclass(frozen=True)
class Component:
    """One dual-graph component of an unfolding, as its own complex."""

    complex: PseudoComplex
    member_copies: tuple[int, ...]
    projection: tuple[int, ...]
    labels: tuple[tuple[int, Perm | int], ...]

    def new_id(self, copy: int) -> int:
        return self.member_copies.index(copy)


def component_parts(u: UnfoldingResult) -> tuple[tuple[int, ...], ...]:
    """The sorted copy ids of each dual-graph component of an unfolding; a
    complete unfolding has one, as the lift of a connected base by its whole
    group is connected."""
    return u.component_partition or (tuple(range(u.total.facet_count)),)


def component_of(u: UnfoldingResult, members: tuple[int, ...]) -> Component:
    """The component made of the copies `members`, as its own complex."""
    return Component(
        complex=component_complex(u.total, members),
        member_copies=members,
        projection=tuple(u.projection[c] for c in members),
        labels=tuple(u.labels[c] for c in members),
    )


def components(u: UnfoldingResult) -> tuple[Component, ...]:
    """Split an unfolding along its dual-graph components."""
    return tuple(component_of(u, members) for members in component_parts(u))


def component_containing(u: UnfoldingResult, copy: int) -> Component:
    for members in component_parts(u):
        if copy in members:
            return component_of(u, members)
    raise BadParameter(f"no copy {copy} in the unfolding")


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
    """Run d+1 partial unfoldings, each time keeping the component that
    contains the current seed facet with its next distinguished vertex.

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
    if not 0 <= base < x.facet_count:
        raise NotAFacet(f"no facet {base}")

    current: Complex = x
    seed = base
    stages: list[TowerStage] = []
    to_root_prev = tuple(range(x.facet_count))
    for v in vertex_order:
        u = partial_unfolding(current)
        comp = component_containing(u, seed * width + v)
        to_previous = comp.projection
        to_root = tuple(to_root_prev[f] for f in to_previous)
        stages.append(
            TowerStage(
                complex=comp.complex,
                seed=comp.new_id(seed * width + v),
                to_previous=to_previous,
                to_root=to_root,
            )
        )
        current = comp.complex
        seed = stages[-1].seed
        to_root_prev = to_root

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
    total_classes = u.total.classes()
    base_classes = u.base.classes()
    seen: dict[tuple[int, tuple[int, ...]], int] = {}
    base_cid = None
    for f, sub in total_classes.members[cover_cid]:
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
