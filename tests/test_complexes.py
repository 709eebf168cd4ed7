"""Face bookkeeping for simplicial and ridge-glued complexes."""

import pytest

from unfolder.complexes import (
    AbstractComplex,
    FacetPath,
    Gluing,
    PseudoComplex,
    as_pseudo,
    dual_graph,
    is_simplicial,
    link,
    path_from_facets,
    perspectivity,
    star_of_class,
)
from unfolder.errors import (
    BadGluing,
    DegenerateFacet,
    InvalidPath,
    MixedDimension,
    NotAFacet,
    SelfIdentification,
)
from unfolder.gallery import (
    boundary_simplex,
    doubled_triangle_sphere,
    gallery_entries,
    knot_neighborhood,
    pinched_strip,
    starred_triangle,
)


@pytest.fixture
def tetra():
    return boundary_simplex(3)


def test_from_facets_sorts_and_validates():
    K = AbstractComplex.from_facets([(2, 1), (0, 1)])
    assert K.facets == ((0, 1), (1, 2))
    assert K.dim == 1


def test_from_facets_rejects_repeats_and_mixed_sizes():
    with pytest.raises(DegenerateFacet):
        AbstractComplex.from_facets([(0, 0, 1)])
    with pytest.raises(MixedDimension):
        AbstractComplex.from_facets([(0, 1), (0, 1, 2)])


def test_face_enumeration(tetra):
    assert tetra.face_count_vector() == (4, 6, 4)
    assert tetra.faces(0) == ((0,), (1,), (2,), (3,))
    assert len(tetra.faces(1)) == 6
    assert tetra.has_face((1, 3))
    assert not tetra.has_face((0, 4))
    assert tetra.facet_id((1, 2, 3)) == 3


def test_facet_id_finds_every_facet_and_nothing_else():
    K = knot_neighborhood(12, "klein").abstract
    for i, f in enumerate(K.facets):
        assert K.facet_id(f) == i
        assert K.facet_id(reversed(f)) == i
    low, high = min(K.vertices()) - 1, max(K.vertices()) + 1
    first = K.facets[0]
    for verts in ((low,) * len(first), (high,) * len(first), first[:-1], (*first[:-1], high)):
        with pytest.raises(NotAFacet, match="is not a facet"):
            K.facet_id(verts)


def test_link_of_vertex(tetra):
    lk = link(tetra, (0,))
    assert lk.dim == 1
    assert lk.facet_count == 3  # the opposite triangle's edges


def test_derived_gluings_pair_facets_along_shared_ridges(tetra):
    gl = tetra.derived_gluings()
    assert len(gl) == 6  # one per edge
    for g in gl:
        fa, fb = tetra.facets[g.facet_a], tetra.facets[g.facet_b]
        shared_a = tuple(fa[i] for i in g.ridge_a)
        shared_b = tuple(fb[i] for i in g.ridge_b)
        assert shared_a == shared_b  # global vertices agree pointwise


@pytest.mark.parametrize(
    "K",
    [e.complex for e in gallery_entries() if isinstance(e.complex, AbstractComplex)],
    ids=[e.name for e in gallery_entries() if isinstance(e.complex, AbstractComplex)],
)
def test_both_types_answer_the_same_surface(K):
    assert K.gluings is K.derived_gluings()
    P = as_pseudo(K)
    assert K.gluings == P.gluings
    assert (K.dim, K.facet_count) == (P.dim, P.facet_count)


def test_as_pseudo_faithful_for_good_links(tetra):
    P = as_pseudo(tetra)
    counts = P.classes().counts_by_dim()
    assert tuple(counts[k] for k in range(3)) == (4, 6, 4)
    ok, witness = is_simplicial(P)
    assert ok and witness is None


def test_as_pseudo_splits_the_pinch_vertex():
    K = pinched_strip()
    counts = as_pseudo(K).classes().counts_by_dim()
    # one more vertex class than vertices: the waist comes apart
    assert counts[0] == len(K.vertices()) + 1


def test_doubled_triangle_is_not_simplicial():
    P = doubled_triangle_sphere()
    ok, witness = is_simplicial(P)
    assert not ok
    a, b = witness
    assert a != b


def test_gluing_validation_catches_bad_data():
    with pytest.raises(BadGluing):
        Gluing(0, (0, 1), 0, (0, 1), (0, 1)).validate(2, 2)  # self-gluing
    with pytest.raises(BadGluing):
        Gluing(0, (1, 0), 1, (0, 1), (0, 1)).validate(2, 2)  # unsorted ridge
    with pytest.raises(BadGluing):
        Gluing(0, (0, 1), 1, (0, 1), (0, 2)).validate(2, 2)  # not onto ridge_b
    with pytest.raises(BadGluing):
        Gluing(0, (0, 1), 5, (0, 1), (0, 1)).validate(2, 2)  # facet out of range


def test_self_identification_is_refused():
    bad = PseudoComplex(
        2,
        2,
        (
            Gluing(0, (0, 1), 1, (0, 1), (0, 1)),
            Gluing(0, (1, 2), 1, (0, 1), (0, 1)),
        ),
    )
    with pytest.raises(SelfIdentification):
        bad.classes()


def test_dual_graph_structure(tetra):
    dg = dual_graph(tetra)
    assert dg.node_count == 4
    adj = dg.adjacency()
    assert adj == {
        f: [(gid, g.other(f)) for gid, g in enumerate(tetra.gluings) if f in (g.facet_a, g.facet_b)]
        for f in range(4)
    }
    assert all(len(adj[f]) == 3 for f in range(4))


def test_facet_path_walks_and_reverses(tetra):
    path = path_from_facets(tetra, (0, 1, 3))
    assert path.facet_sequence(tetra) == (0, 1, 3)
    back = path.reversed(tetra)
    assert back.facet_sequence(tetra) == (3, 1, 0)
    assert path.length == 2


def test_path_from_facets_rejects_non_neighbors(tetra):
    with pytest.raises(InvalidPath):
        path_from_facets(tetra, (0, 0))


def test_perspectivity_matches_shared_vertices(tetra):
    gl = tetra.gluings
    g = gl[0]
    p = perspectivity(tetra, g.facet_a, 0)
    fa, fb = tetra.facets[g.facet_a], tetra.facets[g.facet_b]
    for i in g.ridge_a:
        assert fb[p[i]] == fa[i]  # shared vertices map to themselves


def test_star_of_class_collects_incident_facets(tetra):
    classes = tetra.classes()
    vid = classes.class_of((0, (0,)))
    star = star_of_class(tetra, vid)
    assert len(star.parent_facets) == 3  # three triangles at a vertex
