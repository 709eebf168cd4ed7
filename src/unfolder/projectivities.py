"""Projectivities: vertex bijections carried along walks in the dual graph.

Crossing one gluing matches ridge vertices through the gluing bijection and
the two opposite vertices with each other.  Composing those steps along a
closed walk based at a fixed facet permutes that facet's vertex labels; all
such permutations form the group of projectivities of the complex.

A step depends only on the gluing's ridge data, and a complex has few
distinct shapes, so `complexes._steps` keeps both directions of each shape
and a crossing is one lookup and one index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import (
    AbstractComplex,
    Complex,
    FacetPath,
    StarView,
    _steps,
    dual_graph,
    perspectivity,
    star_of_class,
)
from .errors import DegenerateMap, InvalidPath, Mismatch, NotAFacet, NotStronglyConnected
from .permutations import (
    Perm,
    PermutationGroup,
    perm_compose,
    perm_identity,
    perm_inverse,
)


def path_projectivity(x: Complex, path: FacetPath) -> Perm:
    """Vertex bijection V(start) -> V(end) along a facet path."""
    g = perm_identity(x.dim + 1)
    cur = path.start
    for gid in path.steps:
        step = perspectivity(x, cur, gid)
        g = perm_compose(g, step)
        cur = x.gluings[gid].other(cur)
    return g


def loop_projectivity(x: Complex, loop: FacetPath) -> Perm:
    seq = loop.facet_sequence(x)
    if seq[0] != seq[-1]:
        raise InvalidPath(f"walk ends at facet {seq[-1]}, not back at {seq[0]}")
    return path_projectivity(x, loop)


@dataclass(frozen=True)
class ProjectivityGroup:
    """The one search of the dual graph, from a base facet, with its group.

    The search is a breadth-first forest: the base's component first, then
    each facet not yet reached, in id order, as the root of its own tree.
    `roots[f]` is the root of f's tree, `transports[f]` the projectivity
    along the tree path from that root to f, and `depths[f]` that path's
    length.  Each non-tree gluing closes one loop at its tree's root, of
    length depths[a] + depths[b] + 1; `loops` holds each as (projectivity,
    gluing id, root), in search order.  The group is generated by the loops
    at the base, and closed on first read.  Connectivity, `balanced_coloring`,
    `orientable`, the partial unfolding's components and the isomorphism
    search's facet order are all read off this one search.
    """

    base: int
    transports: tuple[Perm, ...]
    tree_gluings: tuple[int, ...]
    reached: tuple[int, ...]  # facets in search order, tree by tree
    depths: tuple[int, ...]
    roots: tuple[int, ...]
    loops: tuple[tuple[Perm, int, int], ...]

    @cached_property
    def group(self) -> PermutationGroup:
        gens = [(p, f"gluing {gid}") for p, gid, root in self.loops if root == self.base]
        return PermutationGroup.generated(gens, len(self.transports[self.base]))

    @property
    def spans(self) -> bool:
        """Whether the base reaches every facet: a forest of one tree."""
        return len(self.tree_gluings) == len(self.reached) - 1

    def transport_to(self, facet: int) -> Perm:
        if not 0 <= facet < len(self.transports):
            raise NotAFacet(f"no facet {facet}")
        return self.transports[facet]

    @property
    def order(self) -> int:
        return self.group.order


def projectivity_group(x: Complex, base: int = 0) -> ProjectivityGroup:
    """Breadth-first generators for the projectivity group at `base`.

    The dual graph must be connected.  The search runs once per base and is
    kept on `x`; the connectivity check runs per call.
    """
    n = x.facet_count
    if not 0 <= base < n:
        raise InvalidPath(f"no facet {base}")
    pg = _search(x, base)
    if not pg.spans:
        missing = [f for f, root in enumerate(pg.roots) if root != base]
        raise NotStronglyConnected(f"facets {missing} are not reachable from {base}")
    return pg


def _search(x: Complex, base: int) -> ProjectivityGroup:
    """The search forest from `base`, kept on `x` per base.  Each gluing is
    crossed once, as a tree step or as a loop."""
    memo = x.__dict__.setdefault("_memo_projectivity_group", {})
    if base in memo:
        return memo[base]
    n = x.facet_count
    d = x.dim
    gl = x.gluings
    dg = dual_graph(x)
    offsets, gluing_ids, others = dg.offsets, dg.gluing_ids, dg.others
    ident = perm_identity(d + 1)
    transports: list[Perm | None] = [None] * n
    depths = [0] * n
    roots = [0] * n
    order: list[int] = []
    tree: list[int] = []
    loops: list[tuple[Perm, int, int]] = []
    crossed = bytearray(len(gl))
    for root in (base, *range(n)):
        if transports[root] is not None:
            continue
        transports[root] = ident
        roots[root] = root
        head = len(order)
        order.append(root)
        while head < len(order):
            f = order[head]
            head += 1
            t_f = transports[f]
            for k in range(offsets[f], offsets[f + 1]):
                gid = gluing_ids[k]
                if crossed[gid]:
                    continue
                crossed[gid] = 1
                w = others[k]
                fa, ridge_a, _fb, ridge_b, mapping = gl[gid]
                step = _steps(d, ridge_a, ridge_b, mapping)[f != fa]
                moved = tuple(map(step.__getitem__, t_f))
                t_w = transports[w]
                if t_w is None:
                    transports[w] = moved
                    depths[w] = depths[f] + 1
                    roots[w] = root
                    tree.append(gid)
                    order.append(w)
                elif moved == t_w:
                    loops.append((ident, gid, root))
                else:
                    # the loop is moved, then back along the tree
                    loops.append((tuple(map(perm_inverse(t_w).__getitem__, moved)), gid, root))
    memo[base] = pg = ProjectivityGroup(
        base=base,
        transports=tuple(transports),
        tree_gluings=tuple(tree),
        reached=tuple(order),
        depths=tuple(depths),
        roots=tuple(roots),
        loops=tuple(loops),
    )
    return pg


@dataclass(frozen=True)
class StarGroup:
    """Projectivities around one face class, based at a star facet."""

    star: StarView
    base_parent_facet: int
    group: PermutationGroup

    @property
    def order(self) -> int:
        return self.group.order


def star_group(x: Complex, cid: int, base_parent_facet: int | None = None) -> StarGroup:
    """Group of projectivities of the star of a face class.

    Walks stay inside the star (every crossed ridge contains the class), so
    each element fixes the class representative of the base facet pointwise.
    If the star's dual graph is disconnected, only the base's component acts:
    the group is generated by the loops at the base alone.  The search is
    kept on the star, which is fresh, so it is freed with it.
    """
    star = star_of_class(x, cid)
    if base_parent_facet is None:
        base_parent_facet = star.parent_facets[0]
    base = star.parent_facets.index(base_parent_facet)
    group = _search(star.complex, base).group
    # generators suffice: the pointwise stabiliser of the class is a subgroup
    rep = star.rep_in[base]
    for p, tag in group.generators:
        if any(p[v] != v for v in rep):
            raise Mismatch(f"a star projectivity of class {cid} moved the class ({tag})")
    return StarGroup(star=star, base_parent_facet=base_parent_facet, group=group)


def odd_generated_subgroup(x: Complex) -> PermutationGroup:
    """Subgroup generated by loops around the odd codimension-2 faces.

    Each odd face class contributes the generators of its star group,
    conjugated back to facet 0 along the spanning-tree transport.
    """
    from .diagnostics import odd_subcomplex  # import cycle with diagnostics

    odd = odd_subcomplex(x).odd_faces
    pg = projectivity_group(x)
    gens: list[tuple[Perm, str]] = []
    for cid in odd:
        sg = star_group(x, cid)
        t = pg.transport_to(sg.base_parent_facet)
        t_inv = perm_inverse(t)
        for p, _tag in sg.group.generators:
            elt = perm_compose(perm_compose(t, p), t_inv)
            gens.append((elt, f"around class {cid}"))
    return PermutationGroup.generated(gens, x.dim + 1)


def induced_homomorphism_check(K, L, vertex_map: dict[int, int]) -> bool:
    """Check that a non-degenerate map embeds one projectivity group in another.

    Both sides must be simplicial, and `vertex_map` must send every facet
    of K onto a facet of L without collapsing vertices.  Conjugating by the
    induced label bijection from facet 0 of K to its image must send each
    generator into the target group.  That is enough: conjugation by a fixed
    bijection is an injective homomorphism, and the images of generators
    generate the image of the group.
    """
    if not (isinstance(K, AbstractComplex) and isinstance(L, AbstractComplex)):
        raise DegenerateMap("both sides of the map must be simplicial complexes")
    d = K.dim
    if L.dim != d:
        raise DegenerateMap(f"dimensions differ: {d} vs {L.dim}")
    for f in K.facets:
        image = [vertex_map[v] for v in f]
        if len(set(image)) != d + 1:
            raise DegenerateMap(f"facet {f} collapses under the vertex map")
        if tuple(sorted(image)) not in L.facets:
            raise DegenerateMap(f"facet {f} does not land on a facet")
    verts_k = K.facets[0]
    base_l = L.facet_id(tuple(sorted(vertex_map[v] for v in verts_k)))
    verts_l = L.facets[base_l]
    phi = tuple(verts_l.index(vertex_map[v]) for v in verts_k)
    phi_inv = perm_inverse(phi)
    gk = projectivity_group(K).group
    gl = projectivity_group(L, base_l).group
    return all(
        perm_compose(perm_compose(phi_inv, g), phi) in gl for g, _tag in gk.generators
    )
