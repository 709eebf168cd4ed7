"""Solid torus neighborhoods of a knotted cycle, and what their loops transport.

Run with:  python3 demos/knot_tour.py
"""

from unfolder.diagnostics import odd_subcomplex, orientable
from unfolder.gallery import knot_neighborhood
from unfolder.permutations import perm_cycle_string
from unfolder.projectivities import loop_projectivity, projectivity_group


def main() -> None:
    print("Each block glues fifteen tetrahedra around one edge of an n-cycle.")
    print()
    header = f"{'n':>2} {'variant':<10} {'facets':>6} {'|Pi|':>4} {'odd faces':>9} {'orientable':>10}"
    print(header)
    print("-" * len(header))
    for n in range(2, 6):
        for variant in ("orientable", "klein"):
            kn = knot_neighborhood(n, variant)
            pg = projectivity_group(kn.complex)
            odd = odd_subcomplex(kn.complex)
            print(
                f"{n:>2} {variant:<10} {kn.complex.facet_count:>6} "
                f"{pg.group.order:>4} {len(odd.odd_faces):>9} "
                f"{str(orientable(kn.complex)):>10}"
            )

    print()
    print("The odd faces are exactly the edges of the core cycle:")
    kn = knot_neighborhood(3)
    classes = kn.complex.classes()
    for cid in odd_subcomplex(kn.complex).odd_faces:
        f, sub = classes.first_ref(cid)
        names = tuple(kn.vertex_names[kn.abstract.facets[f][pos]] for pos in sub)
        print(f"  class {cid}: edge {names}")

    print()
    print("Transport around the two natural loops, by length and variant:")
    for variant in ("orientable", "klein"):
        for n in range(2, 6):
            kn = knot_neighborhood(n, variant)
            lon = loop_projectivity(kn.complex, kn.longitudinal_loop)
            mer = loop_projectivity(kn.complex, kn.meridian_loop)
            print(
                f"  {variant:<10} n={n}: longitude {perm_cycle_string(lon):<10} "
                f"meridian {perm_cycle_string(mer)}"
            )
    print()
    print(
        "The longitude's core part alternates with n and its sign follows the"
        " variant; the meridian never depends on either."
    )


if __name__ == "__main__":
    main()
