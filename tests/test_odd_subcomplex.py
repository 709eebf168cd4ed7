"""Local strong connectivity and the odd subcomplex, read off the face classes.

The reference functions below are the star- and link-based versions the
library used before: every class of cardinality <= d-1 builds its star and
tests the star's dual graph, and every codimension-2 class builds its link
and two-colours the link's vertex classes.  The library must give the same
outcome, witness, odd faces and errors, building no star and no link.  A
class whose link is branched, with a ridge held three or more times, is
decided by its star group, not by parity, so the corpus holds such classes.
"""

import pytest
from hypothesis import given, settings
from test_closure import shuffled, shuffled_pseudo
from test_emit import pseudo_complexes
from test_incidence import dual_components

from unfolder.complexes import (
    AbstractComplex,
    as_pseudo,
    link_of_class,
    star_of_class,
    vertex_classes,
)
from unfolder.diagnostics import is_locally_strongly_connected, odd_subcomplex
from unfolder.errors import (
    DimensionMismatch,
    Mismatch,
    NotLocallyStronglyConnected,
    UnfolderError,
)
from unfolder.gallery import boundary_simplex, gallery_entries, knot_neighborhood, pinched_strip
from unfolder.projectivities import star_group
from unfolder.subdivisions import antiprismatic, barycentric, iterate
from unfolder.unfoldings import complete_unfolding


def reference_lsc(x):
    d = x.dim
    classes = x.classes()
    for cid in range(classes.count):
        if classes.cards[cid] > d - 1:
            continue
        if len(dual_components(star_of_class(x, cid).complex)) > 1:
            return False, cid
    return True, None


def reference_link_graph_is_bipartite(x, cid):
    lk = link_of_class(x, cid)
    if lk.dim != 1:
        raise DimensionMismatch(f"link graph needs a codimension-2 class, not class {cid}")
    vertex_of = {ref: v for v, refs in enumerate(vertex_classes(lk)) for ref in refs}
    adj = {}
    for i in range(lk.facet_count):
        a = vertex_of[i, (0,)]
        b = vertex_of[i, (1,)]
        if a == b:
            raise Mismatch(f"loop in the link graph of class {cid}")
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    color = {}
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def reference_odd_subcomplex(x):
    ok, witness = reference_lsc(x)
    if not ok:
        raise NotLocallyStronglyConnected(f"star of face class {witness} is disconnected")
    classes = x.classes()
    odd = tuple(
        cid
        for cid in classes.classes_of_card(x.dim - 1)
        if not reference_link_graph_is_bipartite(x, cid)
    )
    if not odd:
        return odd, None
    if classes.facets is not None:
        facets = [classes.face_key(cid) for cid in odd]
    else:
        facets = [classes.vertex_classes_of(cid) for cid in odd]
    return odd, AbstractComplex.from_facets(facets)


def outcome(fn, x):
    """The result of `fn(x)`, or the type and message of its error."""
    try:
        result = fn(x)
    except UnfolderError as e:
        return type(e), str(e)
    if fn is odd_subcomplex:
        return result.odd_faces, result.as_complex
    return result


def fresh(x):
    """A copy of `x` with nothing cached on it."""
    if isinstance(x, AbstractComplex):
        return AbstractComplex(x.dim, x.facets)
    return type(x)(x.dim, x.facet_count, x.gluings)


def _cases():
    cases = []
    for e in gallery_entries():
        cases.append((e.name, e.complex))
        if e.complex.facet_count <= 60:
            for op in (barycentric, antiprismatic):
                cases.append((f"{op.__name__}({e.name})", iterate(op, e.complex, 1)))
        cases.append((f"complete({e.name})", complete_unfolding(e.complex).total))
    cases.append(("pinched strip", pinched_strip()))
    cases.append(("as_pseudo(pinched strip)", as_pseudo(pinched_strip())))
    klein = knot_neighborhood(7, "klein")
    cases.append(("knot-nbhd:7:klein", klein.complex))
    cases.append(("knot-nbhd:7:klein abstract", klein.abstract))
    for k in range(1, 5):
        cases.append((f"bary{k}(d3)", iterate(barycentric, boundary_simplex(3), k)))
    bary2 = shuffled(iterate(barycentric, boundary_simplex(3), 2), 20261018)
    cases.append(("shuffled bary2(d3)", bary2))
    cases.append(("shuffled as_pseudo(bary2(d3))", shuffled_pseudo(as_pseudo(bary2), 7)))
    return cases + branched_cases()


def branched_cases():
    """The boundaries of the 3- and 4-simplex with one to four extra simplices
    glued onto ridges, so that some ridge is held three or more times: in
    abstract form, as pseudo-complexes, and barycentrically subdivided, which
    makes them balanced, so their branched links are even.  A vertex shared
    by two extra simplices and nothing else has a disconnected star."""
    d3, d4 = list(boundary_simplex(3).facets), list(boundary_simplex(4).facets)
    extras = {
        "d3+1": d3 + [(0, 1, 4)],
        "d3+2 on one ridge": d3 + [(0, 1, 4), (0, 1, 5)],
        "d3+2": d3 + [(0, 1, 4), (2, 3, 5)],
        "d3+4": d3 + [(0, 1, 4), (0, 2, 5), (1, 3, 6), (2, 3, 4)],
        "d4+1": d4 + [(0, 1, 2, 5)],
        "d4+2": d4 + [(0, 1, 2, 5), (2, 3, 4, 6)],
        "d4+3": d4 + [(0, 1, 2, 5), (2, 3, 4, 6), (0, 1, 3, 6)],
        "d4+4": d4 + [(0, 1, 2, 5), (2, 3, 4, 6), (0, 1, 3, 6), (1, 2, 5, 7)],
    }
    cases = []
    for name, facets in extras.items():
        K = AbstractComplex.from_facets(facets)
        cases.append((f"branched {name}", K))
        cases.append((f"branched as_pseudo({name})", as_pseudo(K)))
        if K.facet_count <= 6:
            cases.append((f"branched barycentric({name})", barycentric(K).result))
    return cases


def branched_classes(x):
    """The codimension-2 classes with a link vertex of degree three or more."""
    return [
        cid
        for cid in x.classes().classes_of_card(x.dim - 1)
        if max(map(len, vertex_classes(link_of_class(x, cid)))) >= 3
    ]


CASES = _cases()
IDS = [name for name, _x in CASES]


@pytest.mark.parametrize("x", [x for _name, x in CASES], ids=IDS)
def test_lsc_and_odd_faces_match_the_star_and_link_reference(x):
    assert outcome(is_locally_strongly_connected, fresh(x)) == outcome(reference_lsc, x)
    assert outcome(odd_subcomplex, fresh(x)) == outcome(reference_odd_subcomplex, x)


def test_the_corpus_has_negative_and_odd_cases():
    lsc = [is_locally_strongly_connected(x)[0] for _name, x in CASES]
    assert lsc.count(False) >= 5
    assert sum(ok and not odd_subcomplex(x).is_empty for (_n, x), ok in zip(CASES, lsc)) >= 20
    # a branched link is decided by its star group, not by parity: the corpus
    # must hold branched classes that are odd and branched classes that are not
    odd_branched = even_branched = 0
    for (_n, x), ok in zip(CASES, lsc):
        if ok:
            branched = set(branched_classes(x))
            odd = branched.intersection(odd_subcomplex(x).odd_faces)
            assert odd == {c for c in branched if star_group(x, c).order > 1}
            odd_branched += bool(odd)
            even_branched += bool(branched - odd)
    assert odd_branched >= 8
    assert even_branched >= 3


@settings(max_examples=300, deadline=None)
@given(pseudo_complexes())
def test_random_pseudo_complexes_match_the_reference(P):
    assert outcome(is_locally_strongly_connected, fresh(P)) == outcome(reference_lsc, P)
    assert outcome(odd_subcomplex, fresh(P)) == outcome(reference_odd_subcomplex, P)


@settings(max_examples=300, deadline=None)
@given(pseudo_complexes())
def test_every_valid_pseudo_complex_is_locally_strongly_connected(P):
    try:
        P.classes()
    except UnfolderError:
        return
    assert reference_lsc(P) == (True, None)
