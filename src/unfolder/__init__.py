"""Groups of projectivities, unfoldings, and subdivisions of complexes."""

from .complexes import (
    AbstractComplex,
    Complex,
    DualGraph,
    FaceClasses,
    FacetPath,
    Gluing,
    PseudoComplex,
    StarView,
    as_pseudo,
    dual_graph,
    gluings_of,
    is_connected_complex,
    is_simplicial,
    link,
    link_of_class,
    path_from_facets,
    perspectivity,
    star_of_class,
    to_abstract_with_maps,
)
from .diagnostics import (
    IsoWitness,
    OddSubcomplex,
    ProjectionConstraint,
    balanced_coloring,
    euler_characteristic,
    is_locally_strongly_connected,
    is_nice,
    is_pseudo_manifold,
    is_strongly_connected,
    isomorphic,
    mod2_boundary_check,
    odd_subcomplex,
    orientable,
)
from .errors import (
    BadGluing,
    BadParameter,
    BaseNotNice,
    DegenerateFacet,
    DegenerateMap,
    DimensionMismatch,
    InvalidPath,
    IsomorphismNotFound,
    MixedDimension,
    Mismatch,
    NotAFace,
    NotAFacet,
    NotLocallyStronglyConnected,
    NotSimplicial,
    NotStronglyConnected,
    ParseError,
    SelfIdentification,
    UnfolderError,
)
from .gallery import (
    Expected,
    GalleryEntry,
    KnotNeighborhood,
    boundary_simplex,
    cycle_graph,
    doubled_triangle_sphere,
    gallery_complex,
    gallery_entries,
    hexagon_cone,
    knot_neighborhood,
    nonsimplicial_unfolding_example,
    pinched_strip,
    starred_triangle,
    surface_family,
    surface_sphere,
    torus_z3,
)
from .io import (
    ParsedDocument,
    emit,
    emit_component,
    emit_unfolding,
    parse,
    parse_document,
)
from .permutations import (
    Perm,
    PermutationGroup,
    perm_compose,
    perm_cycle_string,
    perm_identity,
    perm_inverse,
    perm_sign,
)
from .projectivities import (
    ProjectivityGroup,
    StarGroup,
    induced_homomorphism_check,
    loop_projectivity,
    odd_generated_subgroup,
    path_projectivity,
    projectivity_group,
    star_group,
)
from .subdivisions import (
    SubdivisionRecord,
    antiprism_facet_shapes,
    antiprismatic,
    barycentric,
    crumpling_group_pair,
    crumpling_map,
    iterate,
    stellar,
    unfold_commutes_with_antiprismatic,
)
from .unfoldings import (
    Component,
    Tower,
    UnfoldingResult,
    branch_locus_counts,
    branching_index,
    complete_unfolding,
    component_of,
    component_parts,
    components,
    composition_tower,
    fibers_over,
    partial_unfolding,
    projects_isomorphically,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """`CheckResult` and `run_suite`, imported on first use: `verify` is the
    largest module and only `unfolder verify` runs it, so no other command
    pays for compiling and loading it."""
    if name in ("CheckResult", "run_suite"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
