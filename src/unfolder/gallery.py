"""Named example complexes with their frozen invariants.

Every entry records the invariants expected of it (group order, odd faces,
unfolding sizes, Euler characteristics, component counts); the verification
suite recomputes each of them from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import (
    AbstractComplex,
    Complex,
    FacetPath,
    Gluing,
    PseudoComplex,
    as_pseudo,
    check_size,
    path_from_facets,
)
from .errors import BadParameter


def boundary_simplex(n: int) -> AbstractComplex:
    """Boundary of the n-simplex: all n-subsets of its n+1 vertices."""
    if n < 1:
        raise BadParameter("the simplex needs dimension >= 1")
    return AbstractComplex.from_facets(combinations(range(n + 1), n))


def starred_triangle() -> AbstractComplex:
    """A triangle with an interior apex: three triangles around vertex 3."""
    return AbstractComplex.from_facets([(0, 1, 3), (0, 2, 3), (1, 2, 3)])


def hexagon_cone() -> AbstractComplex:
    """Cone over a hexagon: rim 0..5, apex 6."""
    return AbstractComplex.from_facets(
        [(i, (i + 1) % 6, 6) for i in range(6)]
    )


def cycle_graph(n: int):
    """The n-cycle as a 1-complex; n = 2 needs parallel edges, so it comes
    back as a pseudo-complex of two copies glued at both endpoints."""
    if n < 2:
        raise BadParameter("a cycle needs at least 2 edges")
    if n == 2:
        return PseudoComplex(
            1,
            2,
            (
                Gluing(0, (0,), 1, (0,), (0,)),
                Gluing(0, (1,), 1, (1,), (1,)),
            ),
        )
    return AbstractComplex.from_facets([(i, (i + 1) % n) for i in range(n)])


def pinched_strip() -> AbstractComplex:
    """A strip of six triangles whose two ends share vertex 0.

    Strongly connected with a tree dual graph, so projectivities are
    trivial; the star of vertex 0 is disconnected, so the complex is not
    locally strongly connected and its unfolding pulls vertex 0 apart.
    """
    return AbstractComplex.from_facets(
        [(0, 1, 2), (0, 2, 3), (1, 2, 4), (2, 4, 5), (0, 4, 5), (0, 5, 6)]
    )


def torus_z3() -> AbstractComplex:
    """A 7-vertex torus whose projectivities are cyclic of order three.

    Facets are {i, i+1, i+3} and {i, i+2, i+3} modulo 7; all vertex links
    are hexagons, so the complex has no odd faces.
    """
    facets = []
    for i in range(7):
        facets.append(tuple((i + k) % 7 for k in (0, 1, 3)))
        facets.append(tuple((i + k) % 7 for k in (0, 2, 3)))
    return AbstractComplex.from_facets(facets)


def nonsimplicial_unfolding_example() -> AbstractComplex:
    """Eight tetrahedra around a doubly pinched edge.

    The two tetrahedra {0,1,2,3} and {0,1,4,5} share the edge {0,1} but no
    ridge; the chains A-B-C and A'-B'-C' pad the complex into an 8-cycle in
    the dual graph.  Vertex colorings exist, the group of projectivities is
    trivial, yet the star of {0,1} is disconnected, so the complete
    unfolding doubles that edge and stops being simplicial.
    """
    return AbstractComplex.from_facets(
        [
            (0, 1, 2, 3),
            (0, 1, 4, 5),
            (0, 2, 3, 6),
            (0, 3, 4, 6),
            (0, 4, 5, 6),
            (1, 2, 3, 7),
            (1, 3, 4, 7),
            (1, 4, 5, 7),
        ]
    )


def doubled_triangle_sphere() -> PseudoComplex:
    """Two triangle copies glued along all three edges: the 2-facet sphere."""
    return PseudoComplex(
        2,
        2,
        (
            Gluing(0, (0, 1), 1, (0, 1), (0, 1)),
            Gluing(0, (0, 2), 1, (0, 2), (0, 2)),
            Gluing(0, (1, 2), 1, (1, 2), (1, 2)),
        ),
    )


@dataclass(frozen=True)
class KnotNeighborhood:
    """Triangulated regular neighborhood of a circle in a 3-manifold.

    `abstract` lists the 15n tetrahedra; `complex` is its ridge-glued view,
    which keeps the n core arcs apart even when their vertex pairs repeat
    (that happens for n = 2).  The base facet is {x0, y0, v0, v1} and its
    global vertex ids are chosen so that local labels read x0=0, y0=1,
    v0=2, v1=3.  The longitudinal loop runs once around the blocks through
    the x-y prisms without crossing the spanning annulus between the core
    and the x-edge path, so its winding around the core is zero; the
    meridional loop circles the first core edge.

    Transport along the longitude: in block k the four steps
    (v_lo, v_hi, x_lo, y_lo) -> ... -> (v_hi, v_next, x_hi, y_hi) swap the
    two core labels (local 2, 3) and the two boundary labels (local 0, 1),
    and the Klein wrap swaps x and y once more.  So the longitudinal
    projectivity is (0 1)^([n odd] xor klein) * (2 3)^[n odd]: its core part
    alternates with n, and it is even exactly for the orientable variant
    (the loop has 4n steps, so its sign is the orientation character).
    """

    variant: str
    blocks: int
    abstract: AbstractComplex
    complex: PseudoComplex
    vertex_names: tuple[str, ...]
    base_facet: int
    core_edges: tuple[tuple[int, int], ...]
    longitudinal_loop: FacetPath
    meridian_loop: FacetPath

    def facet_id(self, names: tuple[str, ...]) -> int:
        index = {name: i for i, name in enumerate(self.vertex_names)}
        return self.abstract.facet_id(index[n] for n in names)


def knot_neighborhood(n: int, variant: str = "orientable") -> KnotNeighborhood:
    """Solid torus (or solid Klein bottle) made of n blocks of 15 tetrahedra.

    Block k (1-based) joins level k-1 to level k; each of its three prisms
    around the core edge {v_{k-1}, v_k} splits into a bottom tetrahedron and
    four tetrahedra coning a boundary apex over a quadrilateral.  Level n
    wraps to level 0; the Klein variant swaps x and y while wrapping.
    """
    if n < 2:
        raise BadParameter("need at least 2 blocks")
    if variant not in ("orientable", "klein"):
        raise BadParameter(f"unknown variant {variant!r}")

    names = ["x0", "y0", "v0", "v1", "z0"]
    names += [f"{s}{k}" for k in range(1, n) for s in ("x", "y", "z")]
    names += [f"v{k}" for k in range(2, n)]
    names += [f"{s}{k}" for k in range(1, n + 1) for s in ("r", "s", "t")]
    vid = {name: i for i, name in enumerate(names)}

    def level(sym: str, k: int) -> int:
        if k == n:
            if variant == "klein" and sym in ("x", "y"):
                sym = "y" if sym == "x" else "x"
            k = 0
        return vid[f"{sym}{k}"]

    tets: list[tuple[int, ...]] = []
    for k in range(1, n + 1):
        vlo, vhi = level("v", k - 1), level("v", k)
        for a, b, apex in (("x", "y", "r"), ("y", "z", "s"), ("z", "x", "t")):
            alo, ahi = level(a, k - 1), level(a, k)
            blo, bhi = level(b, k - 1), level(b, k)
            u = vid[f"{apex}{k}"]
            tets.append((vlo, vhi, alo, blo))
            for edge in ((alo, blo), (blo, bhi), (bhi, ahi), (ahi, alo)):
                tets.append((vhi, u) + edge)

    K = AbstractComplex.from_facets(tets)
    P = as_pseudo(K)

    def tid(*vs: int) -> int:
        return K.facet_id(vs)

    longitudinal = [tid(level("v", 0), level("v", 1), vid["x0"], vid["y0"])]
    for k in range(1, n + 1):
        vlo, vhi = level("v", k - 1), level("v", k)
        xlo, xhi = level("x", k - 1), level("x", k)
        ylo, yhi = level("y", k - 1), level("y", k)
        u = vid[f"r{k}"]
        longitudinal += [
            tid(vhi, u, xlo, ylo),
            tid(vhi, u, ylo, yhi),
            tid(vhi, u, yhi, xhi),
            tid(level("v", k), level("v", k + 1) if k < n else level("v", 1), xhi, yhi),
        ]
    base = longitudinal[0]
    meridian = path_from_facets(
        P,
        [
            base,
            tid(vid["v0"], vid["v1"], vid["y0"], vid["z0"]),
            tid(vid["v0"], vid["v1"], vid["z0"], vid["x0"]),
            base,
        ],
    )
    core = tuple(
        tuple(sorted((level("v", k - 1), level("v", k)))) for k in range(1, n + 1)
    )
    return KnotNeighborhood(
        variant=variant,
        blocks=n,
        abstract=K,
        complex=P,
        vertex_names=tuple(names),
        base_facet=base,
        core_edges=core,
        longitudinal_loop=path_from_facets(P, longitudinal),
        meridian_loop=meridian,
    )


def surface_sphere(g: int) -> AbstractComplex:
    """The 2(g+1)-facet sphere: boundary tetrahedron plus g-1 stellar moves,
    always at the lexicographically first facet.

    The moves run on a heap of facets, built into a complex once: a move pops
    the least facet and pushes its three cones to a new, largest vertex."""
    from heapq import heappop, heappush  # only this builder needs it

    if g < 1:
        raise BadParameter("spheres in this family need g >= 1")
    heap = list(boundary_simplex(3).facets)  # sorted, so already a heap
    for apex in range(4, g + 3):
        target = heappop(heap)
        for v in target:
            heappush(heap, tuple(w for w in target if w != v) + (apex,))
    return AbstractComplex.from_facets(heap)


def surface_family(g: int) -> AbstractComplex:
    """Spheres with every facet starred; their unfoldings are genus-g
    surfaces.  g = 0 is the bipyramid over the triangle."""
    if g < 0:
        raise BadParameter("genus must be >= 0")
    if g == 0:
        return AbstractComplex.from_facets(
            [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)]
        )
    Q = surface_sphere(g)
    apex = max(Q.vertices()) + 1
    out = []
    for i, facet in enumerate(Q.facets):
        for v in facet:
            out.append(tuple(sorted([w for w in facet if w != v] + [apex + i])))
    return AbstractComplex.from_facets(out)


@dataclass(frozen=True)
class Expected:
    """Invariants frozen for one gallery entry; None fields are skipped."""

    group_order: int | None = None
    odd_face_count: int | None = None
    unfolding_facet_count: int | None = None
    unfolding_euler: int | None = None
    component_count: int | None = None


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    complex: Complex
    expected: Expected


def gallery_complex(name: str):
    """Resolve a gallery name, including the parameterized families, whose
    dimension and facet count pass `check_size` before anything is built."""
    fixed = {
        "starred-triangle": starred_triangle,
        "hexagon-cone": hexagon_cone,
        "figure3": pinched_strip,
        "torus-z3": torus_z3,
        "nonsimplicial": nonsimplicial_unfolding_example,
    }
    if name in fixed:
        return fixed[name]()
    if name.startswith("boundary-simplex-"):
        n = _int_part(name.rsplit("-", 1)[1])
        check_size(n - 1, n + 1)
        return boundary_simplex(n)
    if name.startswith("cycle-"):
        n = _int_part(name.split("-", 1)[1])
        check_size(1, n)
        return cycle_graph(n)
    if name.startswith("knot-nbhd:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise BadParameter(f"expected knot-nbhd:<n>:<variant>, got {name!r}")
        n = _int_part(parts[1])
        check_size(3, 15 * n)
        return knot_neighborhood(n, parts[2]).complex
    if name.startswith("surface:"):
        g = _int_part(name.split(":", 1)[1])
        check_size(2, 6 * (g + 1))
        return surface_family(g)
    raise BadParameter(f"unknown gallery name {name!r}")


def _int_part(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadParameter(f"expected an integer, got {text!r}") from None


def gallery_entries() -> tuple[GalleryEntry, ...]:
    """The fixed registry used by the verification and reproduction suites."""
    entries = [
        GalleryEntry(
            "boundary-simplex-2",
            boundary_simplex(2),
            Expected(2, 0, 6, 0, 1),
        ),
        GalleryEntry(
            "boundary-simplex-3",
            boundary_simplex(3),
            Expected(6, 4, 24, 0, 1),
        ),
        GalleryEntry("starred-triangle", starred_triangle(), Expected(2, 1, 6, 1, 2)),
        GalleryEntry("hexagon-cone", hexagon_cone(), Expected(1, 0, 6, 1, 3)),
        GalleryEntry("cycle-3", cycle_graph(3), Expected(2, 0, 6, 0, 1)),
        GalleryEntry("cycle-4", cycle_graph(4), Expected(1, 0, 4, 0, 2)),
        GalleryEntry("cycle-5", cycle_graph(5), Expected(2, 0, 10, 0, 1)),
        GalleryEntry("cycle-6", cycle_graph(6), Expected(1, 0, 6, 0, 2)),
        GalleryEntry("figure3", pinched_strip(), Expected(1, None, 6, 1, 3)),
        GalleryEntry("torus-z3", torus_z3(), Expected(3, 0, 42, 0, 1)),
        GalleryEntry(
            "nonsimplicial",
            nonsimplicial_unfolding_example(),
            Expected(1, None, 8, 0, 4),
        ),
        GalleryEntry(
            "knot-nbhd:2:orientable",
            knot_neighborhood(2, "orientable").complex,
            Expected(2, 2, 60, 0, 3),
        ),
        GalleryEntry(
            "knot-nbhd:3:orientable",
            knot_neighborhood(3, "orientable").complex,
            Expected(4, 3, 180, 0, 2),
        ),
        GalleryEntry(
            "knot-nbhd:2:klein",
            knot_neighborhood(2, "klein").complex,
            Expected(2, 2, 60, 0, 3),
        ),
        GalleryEntry(
            "knot-nbhd:3:klein",
            knot_neighborhood(3, "klein").complex,
            Expected(4, 3, 180, 0, 2),
        ),
        GalleryEntry("surface:0", surface_family(0), Expected(2, 2, 12, 2, 2)),
        GalleryEntry("surface:1", surface_family(1), Expected(2, 4, 24, 0, 2)),
        GalleryEntry("surface:2", surface_family(2), Expected(2, 6, 36, -2, 2)),
        GalleryEntry("surface:3", surface_family(3), Expected(2, 8, 48, -4, 2)),
    ]
    return tuple(entries)
