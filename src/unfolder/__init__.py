"""Groups of projectivities, unfoldings, and subdivisions of complexes.

Every public name of the package is importable from it, and each is loaded
on first use (PEP 562): `import unfolder` imports no submodule, and reading
`unfolder.parse_document` imports `unfolder.io` and what it needs, no more.
Without a bytecode cache every submodule a process loads is compiled from
source, which is most of what a one-question command such as
`unfolder analyze` spends before it reads its document.  The submodules
themselves (`unfolder.cli`, `unfolder.verify`, ...) load on first use too.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule with the public names it defines
_SOURCES = {
    "complexes": """AbstractComplex Complex DualGraph FaceClasses FacetPath Gluing
        PseudoComplex StarView as_pseudo dual_graph gluings_of is_simplicial link
        link_of_class path_from_facets perspectivity star_of_class""",
    "diagnostics": """IsoWitness OddSubcomplex ProjectionConstraint balanced_coloring
        euler_characteristic is_locally_strongly_connected is_nice is_pseudo_manifold
        is_strongly_connected isomorphic mod2_boundary_check odd_subcomplex orientable""",
    "errors": """BadGluing BadParameter BaseNotNice DegenerateFacet DegenerateMap
        DimensionMismatch InvalidPath IsomorphismNotFound MixedDimension Mismatch NotAFace
        NotAFacet NotLocallyStronglyConnected NotStronglyConnected
        ParseError SelfIdentification UnfolderError""",
    "gallery": """Expected GalleryEntry KnotNeighborhood boundary_simplex cycle_graph
        doubled_triangle_sphere gallery_complex gallery_entries hexagon_cone
        knot_neighborhood nonsimplicial_unfolding_example pinched_strip starred_triangle
        surface_family surface_sphere torus_z3""",
    "io": "ParsedDocument emit emit_component emit_unfolding parse parse_document",
    "permutations": """Perm PermutationGroup perm_compose perm_cycle_string perm_identity
        perm_inverse perm_sign""",
    "projectivities": """ProjectivityGroup induced_homomorphism_check loop_projectivity
        odd_generated_subgroup path_projectivity projectivity_group star_group""",
    "subdivisions": """SubdivisionRecord antiprism_facet_shapes antiprismatic barycentric
        crumpling_group_pair crumpling_map iterate stellar
        unfold_commutes_with_antiprismatic""",
    "unfoldings": """Component Tower UnfoldingResult branch_locus_counts branching_index
        complete_unfolding component_of component_parts components composition_tower
        fibers_over partial_unfolding projects_isomorphically""",
    "verify": "CheckResult run_suite",
}
_ORIGIN = {name: module for module, names in _SOURCES.items() for name in names.split()}
__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """Import the submodule that defines `name` and keep the name here, so
    that a second read is an ordinary global lookup."""
    if name in _ORIGIN:
        value = globals()[name] = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
        return value
    if name in _SOURCES or name == "cli":
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
