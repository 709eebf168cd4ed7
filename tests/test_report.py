"""The whole `analyze` report against `oracle_analyze`, over a generated corpus.

`oracle_analyze` in `oracles` rebuilds every line of the report from the
references alone: the face classes by enumeration, connectivity and link
graphs by networkx, the group's order and orbits by sympy.  The corpus is
every gallery entry and each abstract one as a pseudo-complex, seeded
pseudo-complexes of dims 1 to 4, seeded abstract complexes, shuffled
variants, and the emit -> parse round trip of each document whose labels
are canonical, which must keep its report.  A locally strongly connected
abstract complex must keep its report as a pseudo-complex, but for the
lines that name vertices.
"""

import json
import re
from functools import lru_cache
from itertools import islice

import pytest
from corpus import seeded_abstract, seeded_pseudo, shuffled, shuffled_bary2, shuffled_pseudo
from oracles import oracle_analyze, reference_lsc_witness

from unfolder.cli import main
from unfolder.complexes import AbstractComplex, as_pseudo
from unfolder.gallery import gallery_entries
from unfolder.io import emit, parse_document
from unfolder.subdivisions import barycentric

SEED = 20261020


def _written(x):
    """`x` as a hand-written document: abstract facet rows reversed, in
    reverse order, or gluings without the vertex-class table."""
    if isinstance(x, AbstractComplex):
        return json.dumps({"facets": [f[::-1] for f in x.facets[::-1]]})
    keys = ("a", "ridge_a", "b", "ridge_b", "mapping")
    gluings = [dict(zip(keys, g)) for g in x.gluings]
    doc = {"kind": "pseudo", "dim": x.dim, "facet_count": x.facet_count, "gluings": gluings}
    return json.dumps(doc)


def _documents():
    """(name, text, the text whose report it must keep, or None)."""
    docs = []
    for e in gallery_entries():
        docs.append((e.name, emit(e.complex)))
        if isinstance(e.complex, AbstractComplex):
            docs.append((f"as_pseudo({e.name})", emit(as_pseudo(e.complex))))
            docs.append((f"shuffled({e.name})", emit(shuffled(e.complex, SEED))))
        else:
            docs.append((f"shuffled_pseudo({e.name})", emit(shuffled_pseudo(e.complex, SEED))))
    docs += [(name, emit(x)) for name, x in shuffled_bary2()]
    for i, P in enumerate(islice(seeded_pseudo(SEED, (1, 2, 3, 4)), 120)):
        docs.append((f"seeded pseudo {i} (dim {P.dim})", _written(P)))
    for i, K in enumerate(seeded_abstract(SEED, 40)):
        docs.append((f"seeded abstract {i} (dim {K.dim})", _written(K)))
    out = [(name, text, None) for name, text in docs]
    for name, text in docs:
        doc = parse_document(text)
        labels = doc.vertex_labels
        canonical = labels is None or labels == tuple(map(str, range(len(labels))))
        again = emit(doc.complex)
        if canonical and again != text:
            out.append((f"emit(parse({name}))", again, text))
    return out


DOCUMENTS = _documents()
report = lru_cache(maxsize=None)(oracle_analyze)


def _analyze(text, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


@pytest.mark.parametrize("text, source", [d[1:] for d in DOCUMENTS], ids=[d[0] for d in DOCUMENTS])
def test_analyze_prints_the_oracle_report(text, source, capsys, tmp_path):
    assert _analyze(text, capsys, tmp_path) == report(text)
    if source is not None:
        assert report(text) == report(source)


def _abstract_lsc_documents():
    """(name, text) of each abstract document of the corpus, and of the
    barycentric subdivision of each abstract gallery entry, that is locally
    strongly connected by the reference."""
    docs = [(name, text) for name, text, _source in DOCUMENTS]
    docs += [
        (f"barycentric({e.name})", emit(barycentric(e.complex).result))
        for e in gallery_entries()
        if isinstance(e.complex, AbstractComplex)
    ]
    return [
        (name, text)
        for name, text in docs
        if isinstance(K := parse_document(text).complex, AbstractComplex)
        and reference_lsc_witness(K)[0]
    ]


ABSTRACT_LSC = _abstract_lsc_documents()


@pytest.mark.parametrize("text", [d[1] for d in ABSTRACT_LSC], ids=[d[0] for d in ABSTRACT_LSC])
def test_as_pseudo_changes_only_the_kind_and_the_vertex_names(text, capsys, tmp_path):
    """K's classes keep their ids in as_pseudo(K): its report is K's, with
    the kind changed and each odd class printed without its vertices."""
    mine = _analyze(text, capsys, tmp_path)
    want = re.sub(r"^kind: simplicial$", "kind: pseudo", mine, flags=re.M)
    want = re.sub(r"^(  class \d+) = vertices \(.*\)$", r"\1", want, flags=re.M)
    pseudo = emit(as_pseudo(parse_document(text).complex))
    assert _analyze(pseudo, capsys, tmp_path) == want


def test_the_corpus_holds_every_kind_of_report():
    seen = {line for _name, text, _source in DOCUMENTS for line in report(text).splitlines()}
    for line in (
        "strongly connected: no",
        "locally strongly connected: no",
        "orientable: no",
        "pseudo-manifold: no",
    ):
        assert line in seen, line
    assert any(line.startswith("Pi orbits: {") and line.count("{") >= 2 for line in seen)
    assert any(line.endswith("classes of codimension 2") for line in seen)
    # printed only for an abstract, locally strongly connected document
    assert any(line.startswith("  class ") and " = vertices (" in line for line in seen)
