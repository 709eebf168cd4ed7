"""A guided tour from a complex to its unfoldings.

Run with:  python3 demos/unfold_walkthrough.py
"""

from unfolder.diagnostics import (
    balanced_coloring,
    euler_characteristic,
    is_pseudo_manifold,
    isomorphic,
    orientable,
)
from unfolder.gallery import boundary_simplex, hexagon_cone, starred_triangle
from unfolder.permutations import perm_cycle_string
from unfolder.projectivities import projectivity_group
from unfolder.unfoldings import (
    branch_locus_counts,
    complete_unfolding,
    components,
    partial_unfolding,
)


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    section("The boundary of a tetrahedron")
    K = boundary_simplex(3)
    print(f"facets: {K.facets}")

    pg = projectivity_group(K)
    print(f"group of projectivities at facet {pg.base}:")
    for p in sorted(pg.group.elements):
        print(f"  {perm_cycle_string(p)}")
    print("every permutation of a facet's three vertices shows up,")
    print("so no consistent vertex coloring can exist:")
    print(f"  balanced_coloring -> {balanced_coloring(K)}")

    section("Complete unfolding")
    u = complete_unfolding(K)
    print(f"one copy of each facet per group element: {u.total.facet_count} copies")
    print(f"closed pseudo-manifold: {is_pseudo_manifold(u.total)}")
    print(f"orientable: {orientable(u.total)}, Euler characteristic: "
          f"{euler_characteristic(u.total)}  (a torus)")
    print("branching over the four original vertices:")
    for cid, fibers in sorted(branch_locus_counts(u).items()):
        pretty = ", ".join(f"index {i}" for _, i in fibers)
        print(f"  vertex class {cid}: {len(fibers)} fibers ({pretty})")

    section("Partial unfolding")
    t = partial_unfolding(K)
    print(f"one copy per facet vertex: {t.total.facet_count} copies")
    classes = t.total.classes()
    degrees = sorted(classes.sizes[c] for c in classes.classes_of_card(1))
    print(f"vertex degrees upstairs: {degrees}")
    print(f"Euler characteristic: {euler_characteristic(t.total)}  (a sphere)")

    section("A complex with a reflection symmetry")
    T = starred_triangle()
    print(f"facets: {T.facets}  (a triangle with one starred corner)")
    pg = projectivity_group(T)
    print(f"group order: {pg.group.order}")
    comps = components(partial_unfolding(T))
    sizes = sorted(c.complex.facet_count for c in comps)
    print(f"partial unfolding has {len(comps)} components, sizes {sizes}")
    for c in comps:
        if c.complex.facet_count == 3:
            witness = isomorphic(c.complex, T)
            print(f"  size 3 piece is a copy of the input: {witness is not None}")
        else:
            witness = isomorphic(c.complex, hexagon_cone())
            print(f"  size 6 piece is the cone over a hexagon: {witness is not None}")


if __name__ == "__main__":
    main()
