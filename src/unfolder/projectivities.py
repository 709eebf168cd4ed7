"""Projectivities: vertex bijections carried along walks in the dual graph.

Crossing one gluing matches ridge vertices through the gluing bijection and
the two opposite vertices with each other.  Composing those steps along a
closed walk based at a fixed facet permutes that facet's vertex labels; all
such permutations form the group of projectivities of the complex.

A step depends only on the gluing's ridge data, and a complex has few
distinct shapes, so `complexes._steps` keeps both directions of each shape
with their parity, and a crossing is one lookup and one index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import (
    AbstractComplex,
    Complex,
    FacetPath,
    _steps,
    check_facet,
    dual_graph,
    perspectivity,
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
    cur = check_facet(x, path.start)
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
    `roots[f]` is the root of f's tree and `transports[f]` the projectivity
    along the tree path from that root to f.  Each non-tree gluing of the
    base's tree closes one loop at the base; `loops` holds each as
    (projectivity, gluing id), in search order, so the search alone knows
    which gluing closed which loop.  On first read, `group` is built from
    the loops' projectivities; like any `PermutationGroup` it is closed
    only where its order, a membership or its elements are read.
    `orientable` says whether every non-tree gluing of the forest agrees
    with the facet orientations carried along its tree.  Connectivity,
    `balanced_coloring`, `orientable` and the isomorphism search's facet
    order are all read off this one search.
    """

    base: int
    transports: tuple[Perm, ...]
    tree_gluings: tuple[int, ...]
    reached: tuple[int, ...]  # facets in search order, tree by tree
    roots: tuple[int, ...]
    loops: tuple[tuple[Perm, int], ...]
    orientable: bool

    @cached_property
    def group(self) -> PermutationGroup:
        return PermutationGroup(len(self.transports[self.base]), tuple(p for p, _gid in self.loops))

    @property
    def spans(self) -> bool:
        """Whether the base reaches every facet: a forest of one tree."""
        return len(self.tree_gluings) == len(self.reached) - 1

    def transport_to(self, facet: int) -> Perm:
        if not 0 <= facet < len(self.transports):
            raise NotAFacet(f"no facet {facet}")
        return self.transports[facet]


def projectivity_group(x: Complex, base: int = 0) -> ProjectivityGroup:
    """Breadth-first generators for the projectivity group at `base`.

    The dual graph must be connected.  The search runs once per base and is
    kept on `x`; the connectivity check runs per call.
    """
    pg = _search(x, check_facet(x, base))
    if not pg.spans:
        missing = [f for f, root in enumerate(pg.roots) if root != base]
        raise NotStronglyConnected(f"facets {missing} are not reachable from {base}")
    return pg


def _search(x: Complex, base: int) -> ProjectivityGroup:
    """The search forest from `base`, kept on `x` per base.  Each gluing is
    crossed once, as a tree step or as a loop.  A crossing keeps a facet
    orientation exactly when its step is odd, so `flip[f]`, the parity of
    the even steps on f's tree path, must agree across every other gluing.
    Only a loop at the base gets its projectivity built."""
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
    flip = bytearray(n)
    roots = [0] * n
    order: list[int] = []
    tree: list[int] = []
    loops: list[tuple[Perm, int]] = []
    disagree = 0  # becomes 1 at a gluing that disagrees with `flip`
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
                steps = _steps(d, ridge_a, ridge_b, mapping)
                step = steps[f != fa]
                t_w = transports[w]
                if t_w is None:
                    transports[w] = tuple(map(step.__getitem__, t_f))
                    flip[w] = flip[f] ^ steps[2]
                    roots[w] = root
                    tree.append(gid)
                    order.append(w)
                    continue
                disagree |= flip[w] ^ flip[f] ^ steps[2]
                if root == base:
                    # the loop is moved, then back along the tree
                    moved = tuple(map(step.__getitem__, t_f))
                    loop = ident if moved == t_w else perm_compose(moved, perm_inverse(t_w))
                    loops.append((loop, gid))
    memo[base] = pg = ProjectivityGroup(
        base=base,
        transports=tuple(transports),
        tree_gluings=tuple(tree),
        reached=tuple(order),
        roots=tuple(roots),
        loops=tuple(loops),
        orientable=not disagree,
    )
    return pg


def star_group(x: Complex, cid: int) -> PermutationGroup:
    """Group of projectivities of the star of a face class, at the facet of
    its first member: a breadth-first walk on `dual_graph(x)` that crosses
    only gluings whose ridge holds the current facet's member, carried across
    by each step.  Each element fixes the base's member pointwise, a
    disconnected star acts through its base component alone, and each gluing
    crossed outside the tree closes one loop, as in `_search`."""
    base, rep = x.classes().first_ref(cid)
    d = x.dim
    top = d * (d + 1) // 2  # a ridge leaves out top minus its sum
    gl, dg = x.gluings, dual_graph(x)
    offsets, gluing_ids, others = dg.offsets, dg.gluing_ids, dg.others
    ident = perm_identity(d + 1)
    transports = {base: ident}
    members = {base: rep}
    crossed: set[int] = set()
    order = [base]
    loops: list[Perm] = []
    for f in order:  # grows while it is read
        t_f, member = transports[f], members[f]
        for k in range(offsets[f], offsets[f + 1]):
            gid = gluing_ids[k]
            fa, ridge_a, _fb, ridge_b, mapping = gl[gid]
            if gid in crossed or top - sum(ridge_a if f == fa else ridge_b) in member:
                continue
            crossed.add(gid)
            step = _steps(d, ridge_a, ridge_b, mapping)[f != fa]
            w = others[k]
            moved = tuple(map(step.__getitem__, t_f))
            t_w = transports.get(w)
            if t_w is None:
                transports[w] = moved
                members[w] = tuple(map(step.__getitem__, member))
                order.append(w)
            else:  # the loop is moved, then back along the tree
                loop = ident if moved == t_w else perm_compose(moved, perm_inverse(t_w))
                if any(loop[v] != v for v in rep):
                    raise Mismatch(
                        f"a star projectivity of class {cid} moved the class (gluing {gid})"
                    )
                loops.append(loop)
    return PermutationGroup(d + 1, tuple(loops))


def odd_generated_subgroup(x: Complex) -> PermutationGroup:
    """Subgroup generated by loops around the odd codimension-2 faces.

    Each odd face class contributes the generators of its star group,
    conjugated back to facet 0 along the spanning-tree transport from the
    facet of the class's first member, where the star group is based.
    """
    from .diagnostics import odd_subcomplex  # import cycle with diagnostics

    odd = odd_subcomplex(x).odd_faces
    pg = projectivity_group(x)
    classes = x.classes()
    gens: list[Perm] = []
    for cid in odd:
        to_base = perm_inverse(pg.transport_to(classes.first_ref(cid)[0]))
        gens.extend(star_group(x, cid).conjugated(to_base).generators)
    return PermutationGroup(x.dim + 1, tuple(gens))


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
    targets = set(L.facets)
    for f in K.facets:
        image = [vertex_map[v] for v in f]
        if len(set(image)) != d + 1:
            raise DegenerateMap(f"facet {f} collapses under the vertex map")
        if tuple(sorted(image)) not in targets:
            raise DegenerateMap(f"facet {f} does not land on a facet")
    verts_k = K.facets[0]
    base_l = L.facet_id(tuple(sorted(vertex_map[v] for v in verts_k)))
    verts_l = L.facets[base_l]
    phi = tuple(verts_l.index(vertex_map[v]) for v in verts_k)
    gl = projectivity_group(L, base_l).group
    return all(g in gl for g in projectivity_group(K).group.conjugated(phi).generators)
