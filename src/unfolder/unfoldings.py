"""Complete and partial unfoldings, their components, and the tower.

The complete unfolding takes one facet copy per admissible coloring; the
copy (f, g) for a group element g carries the coloring (g * transport_f)^-1
and two copies glue along a base gluing exactly when their colorings agree
on the shared ridge.  The partial unfolding takes one copy per (facet,
local vertex) and glues respecting the perspectivity step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Complex,
    Gluing,
    PseudoComplex,
    dual_graph,
    gluings_within,
    perspectivity,
)
from .errors import (
    BadParameter,
    BaseNotNice,
    IsomorphismNotFound,
    Mismatch,
    NotAFacet,
)
from .permutations import (
    Perm,
    perm_compose,
    perm_identity,
    perm_inverse,
)
from .projectivities import ProjectivityGroup, projectivity_group


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

    def copies_of(self, base_facet: int) -> range:
        w = self.width
        return range(base_facet * w, (base_facet + 1) * w)


def complete_unfolding(x: Complex, base: int = 0) -> UnfoldingResult:
    """Unfold so that every facet acquires all of its admissible colorings.

    Copy (f, i) is f * |group| + i, for the i-th sorted group element g;
    its coloring is the inverse of g composed after the tree transport to
    f.  A base gluing from a to b with holonomy h lifts to the gluings
    (a, g) -> (b, g h), one per element, with unchanged ridge data.  The
    total has no holonomy of its own: its group is trivial (checks `proj-06`
    and `unf-02` of `unfolder verify`).
    """
    pg = projectivity_group(x, base)
    elements = pg.group.sorted_elements()
    index = {g: i for i, g in enumerate(elements)}
    m = len(elements)
    n = x.facet_count

    lifted: list[Gluing] = []
    for gid, g in enumerate(x.gluings):
        step = perspectivity(x, g.facet_a, gid)
        hol = perm_compose(
            perm_compose(pg.transports[g.facet_a], step),
            perm_inverse(pg.transports[g.facet_b]),
        )
        for i, elt in enumerate(elements):
            j = index[perm_compose(elt, hol)]
            lifted.append(
                Gluing(
                    g.facet_a * m + i,
                    g.ridge_a,
                    g.facet_b * m + j,
                    g.ridge_b,
                    g.mapping,
                )
            )

    total = PseudoComplex(x.dim, n * m, tuple(lifted))
    labels = tuple(
        (f, perm_inverse(perm_compose(elt, pg.transports[f])))
        for f in range(n)
        for elt in elements
    )
    projection = tuple(f for f in range(n) for _ in elements)
    return UnfoldingResult(
        kind="complete",
        base=x,
        total=total,
        projection=projection,
        labels=labels,
        group=pg,
    )


def partial_unfolding(x: Complex) -> UnfoldingResult:
    """Unfold so that every facet acquires a distinguished vertex.

    Copy (f, v) is f * (d+1) + v; a base gluing from a to b with
    perspectivity step s lifts to (a, v) -> (b, s(v)) for each local
    vertex v.  Works on disconnected inputs.
    """
    d = x.dim
    width = d + 1
    n = x.facet_count

    lifted: list[Gluing] = []
    for gid, g in enumerate(x.gluings):
        step = perspectivity(x, g.facet_a, gid)
        for v in range(width):
            lifted.append(
                Gluing(
                    g.facet_a * width + v,
                    g.ridge_a,
                    g.facet_b * width + step[v],
                    g.ridge_b,
                    g.mapping,
                )
            )

    total = PseudoComplex(d, n * width, tuple(lifted))
    return UnfoldingResult(
        kind="partial",
        base=x,
        total=total,
        projection=tuple(f for f in range(n) for _ in range(width)),
        labels=tuple((f, v) for f in range(n) for v in range(width)),
        component_partition=dual_graph(total).components(),
    )


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
    """The sorted copy ids of each dual-graph component of an unfolding."""
    return u.component_partition or dual_graph(u.total).components()


def component_of(u: UnfoldingResult, members: tuple[int, ...]) -> Component:
    """The component made of the copies `members`, as its own complex."""
    _kept, sub = gluings_within(u.total, members)
    return Component(
        complex=PseudoComplex(u.total.dim, len(members), sub),
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


def component_count(x: Complex, base: int = 0) -> int:
    """Number of partial-unfolding components, cross-checked against the
    orbit count of the projectivity group on local vertex labels."""
    u = partial_unfolding(x)
    got = len(u.component_partition)
    pg = projectivity_group(x, base)
    expected = len(pg.group.orbits())
    if got != expected:
        raise Mismatch(
            f"partial unfolding has {got} components but the group has "
            f"{expected} vertex orbits"
        )
    return got


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
    total_classes = u.total.classes()
    fibers: dict[int, list[int]] = {cid: [] for cid in range(base_classes.count)}
    for cid in range(total_classes.count):
        f, sub = total_classes.members[cid][0]
        fibers[base_classes.class_of((u.projection[f], sub))].append(cid)
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
    if len(counts) != 1 or len(seen) != len(base_classes.members[base_cid]):
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
