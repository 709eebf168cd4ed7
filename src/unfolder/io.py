"""JSON documents for complexes: parsing with positions, deterministic emit.

A document is one JSON object.  Simplicial form:

    {"format_version": 1, "kind": "simplicial", "dim": 2,
     "facets": [["a", "b", "c"], ["a", "b", "d"]]}

Glued form replaces the facet rows by a copy count plus gluing records and
carries a derived vertex-class table for human readers:

    {"format_version": 1, "kind": "pseudo", "dim": 1, "facet_count": 2,
     "gluings": [{"a": 0, "ridge_a": [0], "b": 1, "ridge_b": [0],
                  "mapping": [0]}, ...],
     "vertex_classes": [[[0, 0], [1, 0]], ...]}

`kind` and `format_version` may be omitted; the gluings block decides the
kind.  Labels are strings externally and dense integers internally; the
label table is kept as a sidecar next to the parsed complex.  Vertex ids
follow the labels sorted integers first, by value and then by text ("+1",
"01", "1", "2"), then the rest by text: so the canonical emit (labels "0",
"1", ...) round-trips to the identical complex, whatever the hash seed.
Unknown keys are ignored, which lets annotated documents (projection tables
and the like) feed back into parse.
Both parsers refuse a dimension above `MAX_DIM` or a face closure above
`MAX_CLOSURE_SLOTS` with `BadParameter` before they build anything (through
`complexes.check_size`, which the gallery, subdivisions and unfoldings share).

The emit writes the indent-1 layout of `json.dumps(doc, indent=1)` itself,
filling one template per record shape, and takes the vertex-class table from
`vertex_classes`, the vertex-only closure, or for a total written with its
components from theirs; the format is unchanged by any of these.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Mapping

from .complexes import MAX_CLOSURE_SLOTS as MAX_CLOSURE_SLOTS, MAX_DIM as MAX_DIM  # re-exported
from .complexes import AbstractComplex, Complex, Gluing, PseudoComplex, check_size, vertex_classes
from .errors import BadGluing, BadParameter, DegenerateFacet, MixedDimension, ParseError, SelfIdentification

if TYPE_CHECKING:  # annotations only: parsing and emitting a complex need no unfolding
    from .unfoldings import Component, UnfoldingResult

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ParsedDocument:
    """A parsed complex plus the label sidecar the document carried."""

    complex: Complex
    kind: str
    vertex_labels: tuple[str, ...] | None = None  # simplicial: index = vertex id
    copy_labels: tuple[tuple[str, ...], ...] | None = None  # pseudo: per copy


def parse(text: str) -> Complex:
    return parse_document(text).complex


def parse_document(text: str) -> ParsedDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:
        # an integer literal above Python's digit limit, or nesting too deep
        raise ParseError(str(e)) from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"format_version {version!r} is not supported")
    kind = doc.get("kind")
    if kind is None:
        kind = "pseudo" if "gluings" in doc else "simplicial"
    if kind == "simplicial":
        return _parse_simplicial(doc)
    if kind == "pseudo":
        return _parse_pseudo(doc)
    raise ParseError(f"kind must be 'simplicial' or 'pseudo', not {kind!r}")


def _label_rows(doc: dict) -> list[list[str]] | None:
    """The facet rows as label strings, or None when the document has none."""
    rows = doc.get("facets")
    if rows is None:
        return None
    if not isinstance(rows, list) or not rows:
        raise ParseError("facets: a non-empty list is required")
    out: list[list[str]] = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ParseError(f"facets[{i}]: each facet is a non-empty list")
        labels: list[str] = []
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (str, int)):
                raise ParseError(
                    f"facets[{i}][{j}]: labels must be strings or integers"
                )
            labels.append(str(entry))
        out.append(labels)
    try:
        "".join(map("".join, out)).encode("utf-8")
    except UnicodeEncodeError as e:
        raise ParseError(f"facets: labels must be UTF-8 text ({e.reason})") from None
    sizes = {len(r) for r in out}
    if len(sizes) != 1:
        raise MixedDimension(f"facet sizes differ: {sorted(sizes)}")
    for i, row in enumerate(out):
        if len(set(row)) != len(row):
            raise DegenerateFacet(f"facets[{i}]: {row} repeats a vertex")
    return out


def _parse_simplicial(doc: dict) -> ParsedDocument:
    rows = _label_rows(doc)
    if rows is None:
        raise ParseError("facets: a non-empty list is required")
    check_size(len(rows[0]) - 1, len(rows))
    labels = sorted({lab for row in rows for lab in row}, key=_label_key)
    index = {lab: i for i, lab in enumerate(labels)}
    K = AbstractComplex.from_facets([[index[lab] for lab in row] for row in rows])
    stated = doc.get("dim")
    if stated is not None and stated != K.dim:
        raise ParseError(f"dim says {stated} but the facets have dimension {K.dim}")
    return ParsedDocument(K, "simplicial", vertex_labels=tuple(labels))


def _label_key(label: str):
    # integers by value ("10" follows "9") and then by text; then the rest
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def _positions(item: dict, key: str, k: int) -> tuple[int, ...]:
    val = item.get(key)
    # one pass over the element types; a JSON bool is not of type int
    if not isinstance(val, list) or not set(map(type, val)) <= {int}:
        raise ParseError(f"gluings[{k}].{key}: need a list of integer positions")
    return tuple(val)


def _parse_pseudo(doc: dict) -> ParsedDocument:
    rows = _label_rows(doc)
    n = doc.get("facet_count", len(rows) if rows is not None else None)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("facet_count: a positive integer (or facet rows) is required")
    dim = doc.get("dim", len(rows[0]) - 1 if rows else None)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError("dim: a non-negative integer is required")
    if rows is not None:  # copy_labels holds one row of dim + 1 labels per copy
        if len(rows) != n:
            raise ParseError(f"facet_count says {n} but facets has {len(rows)} rows")
        if len(rows[0]) != dim + 1:
            raise ParseError(f"dim says {dim} but the facet rows have dimension {len(rows[0]) - 1}")
    check_size(dim, n)
    raw = doc.get("gluings", [])
    if not isinstance(raw, list):
        raise ParseError("gluings: need a list of gluing records")
    gluings: list[Gluing] = []
    for k, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"gluings[{k}]: each gluing is an object")
        a, b = item.get("a"), item.get("b")
        for side, val in (("a", a), ("b", b)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ParseError(f"gluings[{k}].{side}: need a facet index")
        g = Gluing(
            a,
            _positions(item, "ridge_a", k),
            b,
            _positions(item, "ridge_b", k),
            _positions(item, "mapping", k),
        )
        gluings.append(g)
    try:
        P = PseudoComplex(dim, n, tuple(gluings))
    except BadGluing as e:
        raise ParseError(f"gluings: {e}") from None
    copy_labels = tuple(tuple(row) for row in rows) if rows is not None else None
    return ParsedDocument(P, "pseudo", copy_labels=copy_labels)


def emit(x: Complex, vertex_labels: Mapping[int, str] | None = None) -> str:
    """Deterministic document for a complex; round-trips through parse."""
    return _object(0, _fields(x, vertex_labels), "\n")


def emit_unfolding(u: UnfoldingResult, comps: tuple[Component, ...] = ()) -> str:
    """Unfolding document: the glued total complex plus the projection table.

    Given `components(u)`, the total's vertex classes are merged from
    theirs, each class on its first slot, instead of closed again; any
    other set of components raises `BadParameter`."""
    extra = []
    if u.component_partition is not None:
        extra = [("components", _list(2, [_ints(3, c) for c in u.component_partition]))]
    merged = _merged_vertex_classes(u.total, comps) if comps else None
    return _unfolding_document(u.total, u.kind, u.projection, u.labels, extra, merged)


def emit_component(comp: Component, kind: str) -> str:
    """Document for one unfolding component, projection table included."""
    extra = [("source_copies", _ints(2, comp.member_copies))]
    return _unfolding_document(comp.complex, kind, comp.projection, comp.labels, extra)


def _merged_vertex_classes(P: PseudoComplex, comps) -> list:
    if sorted(chain.from_iterable(c.member_copies for c in comps)) != list(range(P.facet_count)):
        raise BadParameter(f"the components do not cover the {P.facet_count} copies once each")
    try:
        closed = [vertex_classes(c.complex) for c in comps]
    except SelfIdentification:
        vertex_classes(P)  # raises, naming the copy by its id in the total
        raise
    pairs = zip(comps, closed)
    merged = [tuple((c.member_copies[f], s) for f, s in refs) for c, cs in pairs for refs in cs]
    return sorted(merged, key=lambda refs: refs[0])  # by first member, as one closure orders


def _fields(x: Complex, vertex_labels: Mapping[int, str] | None = None, members=None) -> list:
    """(key, written value) pairs of a complex's document; each record shape
    is one `%s` template, built once per document.  A glued document's
    vertex class `members` are `vertex_classes(x)` unless given."""
    kind = "pseudo" if isinstance(x, PseudoComplex) else "simplicial"
    head = [("format_version", str(FORMAT_VERSION)), ("kind", f'"{kind}"'), ("dim", str(x.dim))]
    if kind == "simplicial":
        labels = vertex_labels or {}
        text = {v: json.dumps(str(labels.get(v, v))) for v in x.vertices()}
        row = _list(2, ["%s"] * (x.dim + 1))
        return head + [("facets", _list(1, [row % tuple(map(text.get, f)) for f in x.facets]))]
    ridge = _list(3, ["%s"] * x.dim)
    keys = ("a", "ridge_a", "b", "ridge_b", "mapping")
    gluing = _object(2, zip(keys, ("%s", ridge, "%s", ridge, ridge)))
    gluings = _list(
        1, [gluing % (g.facet_a, *g.ridge_a, g.facet_b, *g.ridge_b, *g.mapping) for g in x.gluings]
    )
    pair = _list(3, ["%s", "%s"])
    classes = _list(
        1, [_list(2, [pair % (f, l) for f, (l,) in refs]) for refs in members or vertex_classes(x)]
    )
    size = [("facet_count", str(x.facet_count)), ("gluings", gluings)]
    return head + size + [("vertex_classes", classes)]


def _unfolding_document(P: PseudoComplex, kind: str, projection, labels, extra, members=None) -> str:
    if kind == "complete":
        tag = _object(3, [("facet", "%s"), ("coloring", '"%s"')])
        labels = [(f, "".join(map(str, c))) for f, c in labels]
    else:
        tag = _object(3, [("facet", "%s"), ("vertex", "%s")])
    copies = _list(2, [tag % label for label in labels])
    table = [("mode", json.dumps(kind)), ("projection", _ints(2, projection)), ("copies", copies)]
    return _object(0, _fields(P, members=members) + [("unfolding", _object(1, table + extra))], "\n")


def _list(depth: int, items) -> str:
    """An indent-1 JSON list at nesting `depth` of already written items.

    `_list` and `_object` join their parts once: a document can take several
    MB, and each further concatenation would copy all of it."""
    items = list(items)
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "".join(("[", pad, ("," + pad).join(items), "\n", " " * depth, "]"))


def _object(depth: int, fields, end: str = "") -> str:
    pad = "\n" + " " * (depth + 1)
    parts = ["{"]
    for key, value in fields:
        parts += (pad, f'"{key}": ', value, ",")
    parts[-1] = "\n" + " " * depth + "}" + end
    return "".join(parts)


def _ints(depth: int, xs) -> str:
    return _list(depth, map(str, xs))
