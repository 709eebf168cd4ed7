"""Thirteen end-to-end gates over the whole library, one line of output each.

Each gate prints `criterion NN: PASS` or `criterion NN: FAIL (reason)` and
then reports the same verdict to pytest.  Gate 10 checks that the longitude's
parity follows the variant (even exactly on the orientable solid torus) while
its core swap follows the parity of n.
"""

import itertools

from corpus import seeded_pseudo
from oracles import dual_components, structure_law_failures

from unfolder.complexes import (
    PseudoComplex,
    as_pseudo,
    is_simplicial,
)
from unfolder.diagnostics import (
    balanced_coloring,
    euler_characteristic,
    is_locally_strongly_connected,
    is_pseudo_manifold,
    is_strongly_connected,
    isomorphic,
    odd_subcomplex,
    orientable,
)
from unfolder.gallery import (
    boundary_simplex,
    cycle_graph,
    doubled_triangle_sphere,
    gallery_entries,
    hexagon_cone,
    knot_neighborhood,
    nonsimplicial_unfolding_example,
    pinched_strip,
    starred_triangle,
    surface_family,
    torus_z3,
)
from unfolder.permutations import perm_cycle_string
from unfolder.projectivities import loop_projectivity, projectivity_group
from unfolder.subdivisions import (
    antiprismatic,
    crumpling_group_pair,
    unfold_commutes_with_antiprismatic,
)
from unfolder.unfoldings import (
    branch_locus_counts,
    complete_unfolding,
    components,
    composition_tower,
    fibers_over,
    partial_unfolding,
    projects_isomorphically,
)


def _n(x) -> int:
    return x.facet_count if isinstance(x, PseudoComplex) else len(x.facets)


def _gate(num: int, body) -> None:
    try:
        note = body()
        ok = True
    except Exception as e:
        ok, note = False, f"{e}" or type(e).__name__
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if not ok:
        line += f" ({' '.join(str(note).split())[:140]})"
    print(line, flush=True)
    assert ok, note


def test_criterion_01_tetrahedron_group_is_full_symmetric():
    def body():
        pg = projectivity_group(boundary_simplex(3))
        assert pg.group.order == 6
        everything = sorted(itertools.permutations(range(3)))
        assert list(pg.group.sorted_elements()) == everything

    _gate(1, body)


def test_criterion_02_tetrahedron_complete_unfolding():
    def body():
        u = complete_unfolding(boundary_simplex(3))
        assert _n(u.total) == 24
        assert is_pseudo_manifold(u.total) == "closed"
        assert orientable(u.total)
        assert euler_characteristic(u.total) == 0
        assert is_strongly_connected(u.total)
        census = branch_locus_counts(u)
        assert len(census) == 4
        for fibers in census.values():
            assert len(fibers) == 3
            assert all(index == 2 for _, index in fibers)

    _gate(2, body)


def test_criterion_03_tetrahedron_partial_unfolding():
    def body():
        u = partial_unfolding(boundary_simplex(3))
        assert _n(u.total) == 12
        assert len(components(u)) == 1
        classes = u.total.classes()
        degrees = sorted(
            len(classes.members_of(cid)) for cid in classes.classes_of_card(1)
        )
        assert degrees == [3, 3, 3, 3, 6, 6, 6, 6]
        assert euler_characteristic(u.total) == 2
        assert is_pseudo_manifold(u.total) == "closed"
        assert orientable(u.total)
        census = branch_locus_counts(u)
        assert len(census) == 4
        for fibers in census.values():
            assert sorted(index for _, index in fibers) == [1, 2]

    _gate(3, body)


def test_criterion_04_starred_triangle_unfoldings():
    def body():
        T = starred_triangle()
        assert projectivity_group(T).group.order == 2
        uc = complete_unfolding(T)
        assert isomorphic(uc.total, hexagon_cone()) is not None
        comps = components(partial_unfolding(T))
        sizes = sorted(_n(c.complex) for c in comps)
        assert sizes == [3, 6]
        small = next(c for c in comps if _n(c.complex) == 3)
        big = next(c for c in comps if _n(c.complex) == 6)
        assert isomorphic(small.complex, T) is not None
        assert isomorphic(big.complex, hexagon_cone()) is not None

    _gate(4, body)


def test_criterion_05_cycle_parity():
    def body():
        for n in range(3, 9):
            C = cycle_graph(n)
            pg = projectivity_group(C)
            if n % 2 == 0:
                assert pg.group.is_trivial, n
                comps = components(partial_unfolding(C))
                assert len(comps) == 2, n
                for c in comps:
                    assert isomorphic(c.complex, C) is not None, n
            else:
                assert pg.group.order == 2, n
                uc = complete_unfolding(C)
                assert _n(uc.total) == 2 * n, n
                assert len(components(uc)) == 1, n

    _gate(5, body)


def test_criterion_06_facet_count_laws_across_the_gallery():
    def body():
        for e in gallery_entries():
            x = e.complex
            n = _n(x)
            pg = projectivity_group(x)
            assert _n(complete_unfolding(x).total) == pg.group.order * n, e.name
            total = partial_unfolding(x).total
            assert _n(total) == (x.dim + 1) * n, e.name
            assert len(dual_components(total)) == len(pg.group.orbits()), e.name

    _gate(6, body)


def test_criterion_07_four_equivalent_conditions_and_the_pinched_strip():
    def body():
        for e in gallery_entries():
            x = e.complex
            if not is_locally_strongly_connected(x)[0]:
                continue
            flags = (
                projectivity_group(x).group.is_trivial,
                balanced_coloring(x) is not None,
                projects_isomorphically(complete_unfolding(x).total, x),
                all(
                    projects_isomorphically(c.complex, x)
                    for c in components(partial_unfolding(x))
                ),
            )
            assert len(set(flags)) == 1, (e.name, flags)
        K = pinched_strip()
        assert projectivity_group(K).group.is_trivial
        assert balanced_coloring(K) is None
        assert not projects_isomorphically(complete_unfolding(K).total, K)

    _gate(7, body)


def test_criterion_08_composition_tower_reaches_the_complete_unfolding():
    def body():
        for K, stages, final_size in (
            (boundary_simplex(3), 3, 24),
            (cycle_graph(5), 2, 10),
        ):
            tower = composition_tower(K)
            assert len(tower.stages) == stages
            assert _n(tower.final) == final_size
            assert tower.witness is not None
            hat = tower.complete
            for f, t in enumerate(tower.witness.facet_map):
                assert tower.final_to_root[f] == hat.projection[t]

    _gate(8, body)


def test_criterion_09_antiprismatic_subdivision_properties():
    def body():
        specials = [doubled_triangle_sphere(), as_pseudo(nonsimplicial_unfolding_example())]
        small = [e.complex for e in gallery_entries() if _n(e.complex) <= 50]
        for x in specials + small:
            rec = antiprismatic(x)
            ok, witness = is_simplicial(as_pseudo(rec.result))
            assert ok, witness
        for x in (starred_triangle(), boundary_simplex(3), torus_z3()):
            rec = antiprismatic(x)
            assert (
                projectivity_group(rec.result).group.order
                == projectivity_group(x).group.order
            )
            lifted, ground = crumpling_group_pair(rec)
            assert lifted.order == ground.order
            assert lifted.orbits() == ground.orbits()
        for x in (starred_triangle(), boundary_simplex(3)):
            for mode in ("complete", "partial"):
                assert unfold_commutes_with_antiprismatic(x, mode=mode) is not None

    _gate(9, body)


def test_criterion_10_knot_core_and_longitude_parity():
    def body():
        identity = (0, 1, 2, 3)
        even_allowed = {identity, (1, 0, 3, 2)}
        odd_allowed = {(1, 0, 2, 3), (0, 1, 3, 2)}
        for n in range(2, 6):
            for variant in ("orientable", "klein"):
                kn = knot_neighborhood(n, variant)
                classes = kn.complex.classes()
                odd = odd_subcomplex(kn.complex).odd_faces
                core = sorted(
                    tuple(sorted(kn.abstract.facets[f][pos] for pos in sub))
                    for cid in odd
                    for f, sub in [classes.members_of(cid)[0]]
                )
                assert core == sorted(kn.core_edges), f"{variant} n={n}"
                is_orientable = orientable(kn.complex)
                assert is_orientable == (variant == "orientable"), (
                    f"{variant} n={n}: orientable() is {is_orientable}"
                )
                lp = loop_projectivity(kn.complex, kn.longitudinal_loop)
                allowed = even_allowed if is_orientable else odd_allowed
                assert lp in allowed, (
                    f"{variant} n={n}: longitude is {perm_cycle_string(lp)}, "
                    f"outside the claimed parity set"
                )
                core_swapped = lp[2:] == (3, 2)
                assert core_swapped == (n % 2 == 1), (
                    f"{variant} n={n}: longitude is {perm_cycle_string(lp)}, "
                    f"core labels 2 and 3 should swap exactly for odd n"
                )

    _gate(10, body)


def test_criterion_11_pinched_surface_family():
    def body():
        for g in range(4):
            P = surface_family(g)
            assert projectivity_group(P).group.order == 2, g
            assert len(odd_subcomplex(P).odd_faces) == 2 * (g + 1), g
            u = complete_unfolding(P)
            assert euler_characteristic(u.total) == 2 - 2 * g, g

    _gate(11, body)


def test_criterion_12_torus_with_cyclic_group():
    def body():
        K = torus_z3()
        pg = projectivity_group(K)
        assert pg.group.order == 3
        assert odd_subcomplex(K).is_empty
        u = complete_unfolding(K)
        assert _n(u.total) == 42
        assert len(components(u)) == 1
        assert euler_characteristic(u.total) == 0
        assert branch_locus_counts(u) == {}
        for fibers in fibers_over(u).values():
            assert len(fibers) == 3  # a genuine unbranched threefold cover

    _gate(12, body)


def test_criterion_13_random_corpus_obeys_every_law():
    def body():
        drafts = seeded_pseudo(20261020, (1, 2, 3, 4))
        corpus = list(itertools.islice(filter(is_strongly_connected, drafts), 100))
        failures = structure_law_failures(corpus)
        assert not failures, failures[:5]

    _gate(13, body)
