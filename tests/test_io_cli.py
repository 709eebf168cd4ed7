"""Document round-trips and the command line front end."""

import ast
import io as _io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracles import reference_emit_component, reference_emit_unfolding

from unfolder.cli import main
from unfolder.complexes import AbstractComplex, PseudoComplex
from unfolder.errors import BadParameter, ParseError, UnfolderError
from unfolder.gallery import boundary_simplex, doubled_triangle_sphere, starred_triangle
from unfolder import complexes, gallery, io, subdivisions
from unfolder.io import (
    MAX_CLOSURE_SLOTS,
    MAX_DIM,
    emit,
    emit_unfolding,
    parse,
    parse_document,
)
from unfolder.unfoldings import component_of, components, partial_unfolding


def test_simplicial_round_trip_is_byte_stable():
    K = boundary_simplex(3)
    text = emit(K)
    again = parse(text)
    assert isinstance(again, AbstractComplex)
    assert again.facets == K.facets
    assert emit(again) == text


def test_pseudo_round_trip():
    P = doubled_triangle_sphere()
    text = emit(P)
    again = parse(text)
    assert isinstance(again, PseudoComplex)
    assert again.facet_count == P.facet_count
    assert emit(again) == text


def test_vertex_labels_survive():
    K = starred_triangle()
    text = emit(K, vertex_labels={0: "a", 1: "b", 2: "c", 3: "center"})
    doc = parse_document(text)
    assert doc.kind == "simplicial"
    assert doc.vertex_labels is not None
    assert doc.vertex_labels[3] == "center"


# the boundary of a tetrahedron on four labels of one integer value: only
# their text may order them, not set iteration, which follows the hash seed
TIED = {"facets": [["1", "01", "+1"], ["1", "01", " 1"], ["1", "+1", " 1"], ["01", "+1", " 1"]]}


def test_labels_of_one_value_are_ordered_by_their_text():
    labels = ["1", " 1", "+1", "01", "2", "10", "b", "a"]
    want = [" 1", "+1", "01", "1", "2", "10", "a", "b"]
    for given in (labels, labels[::-1]):
        assert sorted(given, key=io._label_key) == want
    assert parse_document(json.dumps(TIED)).vertex_labels == (" 1", "+1", "01", "1")


def test_analyze_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(TIED))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for seed in ("0", "1", "5", "8"):
        run = subprocess.run(
            [sys.executable, "-m", "unfolder.cli", "analyze", str(path)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        )
        outs.add(run.stdout)
    assert len(outs) == 1
    lines = [f"  class {v} = vertices ({label})" for v, label in enumerate((" 1", "+1", "01", "1"))]
    assert outs.pop().splitlines()[-4:] == lines


def test_unfolding_document_carries_copy_tags():
    u = partial_unfolding(starred_triangle())
    text = emit_unfolding(u)
    doc = parse_document(text)
    assert doc.kind == "pseudo"
    assert doc.complex.facet_count == u.total.facet_count
    raw = json.loads(text)
    assert raw["unfolding"]["mode"] == "partial"
    assert raw["unfolding"]["projection"] == list(u.projection)
    assert len(raw["unfolding"]["copies"]) == u.total.facet_count
    assert [sorted(c) for c in raw["unfolding"]["components"]]


def test_pseudo_label_rows_become_copy_labels():
    text = json.dumps(
        {
            "kind": "pseudo",
            "facets": [["p", "q"], ["p", "q"]],
            "gluings": [
                {"a": 0, "ridge_a": [0], "b": 1, "ridge_b": [0], "mapping": [0]},
                {"a": 0, "ridge_a": [1], "b": 1, "ridge_b": [1], "mapping": [1]},
            ],
        }
    )
    doc = parse_document(text)
    assert doc.kind == "pseudo"
    assert doc.complex.facet_count == 2
    assert doc.copy_labels == (("p", "q"), ("p", "q"))


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {
                "kind": "pseudo",
                "dim": 1,
                "facet_count": 2,
                "gluings": [
                    {"a": 0, "ridge_a": [0], "b": 1, "ridge_b": [0], "mapping": [0]},
                    {"a": 0, "ridge_a": [1], "b": 1, "ridge_b": [1], "mapping": [1]},
                ],
                "facets": [["x"]],
            },
            "facet_count says 2 but facets has 1 rows",
        ),
        (
            {"kind": "pseudo", "dim": 2, "facet_count": 1, "facets": [["a", "b"], ["b", "c"], ["a", "c"]]},
            "facet_count says 1 but facets has 3 rows",
        ),
        (
            {"kind": "pseudo", "dim": 2, "facets": [["a", "b"], ["b", "c"], ["a", "c"]]},
            "dim says 2 but the facet rows have dimension 1",
        ),
    ],
    ids=["one-row-for-two-copies", "three-rows-for-one-copy", "rows-of-another-dimension"],
)
def test_pseudo_label_rows_must_match_the_stated_size(doc, message, capsys, tmp_path):
    text = json.dumps(doc)
    with pytest.raises(ParseError, match=message):
        parse_document(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = _run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert message in err


def test_parse_tolerates_missing_version_and_extra_keys():
    K = parse('{"facets": [[0, 1], [1, 2], [0, 2]], "note": "hello"}')
    assert K.facets == ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"format_version": 99, "facets": [[0, 1]]}',
        '{"kind": "mystery"}',
        '{"facets": [[0, 1], [0, 1, 2]]}',
        '{"facets": [[0, 0, 1]]}',
        '{"kind": "pseudo", "dim": 1, "copies": 2, "gluings": [{"a": 5, "ridge_a": [0], "b": 1, "ridge_b": [0], "map": [0]}]}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(UnfolderError):
        parse(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"facets": [["\\ud800", "1"]]}',
        '{"facets": [[' + "9" * 5000 + ", 1]]}",
        '{"facets": ' + "[" * 100000 + "]" * 100000 + "}",
    ],
    ids=["lone-surrogate-label", "integer-above-the-digit-limit", "nesting-above-the-recursion-limit"],
)
def test_parse_refuses_json_that_python_cannot_hold_or_print(text):
    with pytest.raises(ParseError):
        parse(text)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_analyze_reads_stdin(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdin", _io.StringIO(emit(boundary_simplex(3))))
    code, out, err = _run(capsys, "analyze", "-")
    assert code == 0
    assert "Pi order: 6" in out
    assert "4 6 4" in out


def test_cli_gallery_pipe_via_file(capsys, tmp_path):
    path = tmp_path / "t.json"
    code, out, _ = _run(capsys, "gallery", "starred-triangle")
    assert code == 0
    path.write_text(out)
    code, out, _ = _run(capsys, "unfold", "--mode", "partial", str(path))
    assert code == 0
    assert "2 components, sizes 3 and 6" in out


def test_cli_unfold_writes_component_sidecars(capsys, tmp_path):
    src = tmp_path / "t.json"
    src.write_text(emit(starred_triangle()))
    out_path = tmp_path / "unf.json"
    code, out, _ = _run(
        capsys, "unfold", "--mode", "partial", "-o", str(out_path), str(src)
    )
    assert code == 0
    assert out_path.exists()
    sidecars = sorted(p.name for p in tmp_path.glob("unf.component*.json"))
    assert sidecars == ["unf.component0.json", "unf.component1.json"]
    comp = parse_document((tmp_path / "unf.component0.json").read_text())
    assert comp.kind == "pseudo"
    u = partial_unfolding(starred_triangle())
    assert out_path.read_text() == reference_emit_unfolding(u)
    for name, c in zip(sidecars, components(u)):
        assert (tmp_path / name).read_text() == reference_emit_component(c, "partial")


def test_cli_unfold_single_component_selection(capsys, tmp_path):
    src = tmp_path / "t.json"
    src.write_text(emit(starred_triangle()))
    code, out, _ = _run(
        capsys, "unfold", "--mode", "partial", "--component", "0", str(src)
    )
    assert code == 0
    doc = parse_document(out)
    assert doc.kind == "pseudo"
    assert doc.complex.facet_count in (3, 6)


def test_cli_subdivide_then_analyze(capsys, tmp_path):
    src = tmp_path / "t.json"
    src.write_text(emit(starred_triangle()))
    code, out, _ = _run(capsys, "subdivide", "--kind", "antiprismatic", str(src))
    assert code == 0
    piped = tmp_path / "sub.json"
    piped.write_text(out)
    code, out, _ = _run(capsys, "analyze", str(piped))
    assert code == 0
    assert "facets: 39" in out


def test_cli_subdivide_stellar_takes_a_facet(capsys, tmp_path):
    src = tmp_path / "t.json"
    src.write_text(emit(boundary_simplex(3)))
    code, out, _ = _run(capsys, "subdivide", "--kind", "stellar:0", "-n", "2", str(src))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["facets"]) == 8  # two moves, each trading one facet for three


def test_cli_gallery_rejects_a_non_integer_knot_length(capsys):
    code, out, err = _run(capsys, "gallery", "knot-nbhd:x:klein")
    assert (code, out) == (2, "")
    assert err == "error: expected an integer, got 'x'\n"  # one line, no traceback


GALLERY_TOO_LARGE = [
    ("boundary-simplex-10", f"dim 9 is above the largest supported dimension {MAX_DIM}"),
    ("cycle-400000", "face closure of 1200000 slots is above the limit 1048576"),
    ("knot-nbhd:5000:klein", "face closure of 1125000 slots is above the limit 1048576"),
    ("surface:30000", "face closure of 1260042 slots is above the limit 1048576"),
]


@pytest.mark.parametrize("name, text", GALLERY_TOO_LARGE, ids=[n for n, _t in GALLERY_TOO_LARGE])
def test_cli_gallery_refuses_a_family_above_the_limits_before_building(
    name, text, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("a gallery complex was built")

    for builder in ("boundary_simplex", "cycle_graph", "knot_neighborhood", "surface_family"):
        monkeypatch.setattr(gallery, builder, refuse)
    code, out, err = _run(capsys, "gallery", name)
    assert (code, out, err) == (2, "", f"error: {text}\n")


def test_cli_gallery_accepts_the_largest_dimension(capsys):
    code, out, _ = _run(capsys, "gallery", f"boundary-simplex-{MAX_DIM + 1}")
    assert code == 0
    assert parse(out).dim == MAX_DIM


SUBDIVIDE_TOO_LARGE = [
    # bary^5 of the tetrahedron's boundary has 31104 facets, bary^6 six times as many
    (3, ("--kind", "barycentric", "-n", "6"), 4 * 6**6 * 7),
    # 4683 and 545835 anti-prismatic facets per copy at dims 5 and 7
    (6, ("--kind", "antiprismatic"), 7 * 4683 * 63),
    (8, ("--kind", "antiprismatic"), 9 * 545835 * 255),
]


@pytest.mark.parametrize("n, args, slots", SUBDIVIDE_TOO_LARGE, ids=["bary6", "anti-d5", "anti-d7"])
def test_cli_subdivide_refuses_a_result_above_the_closure_bound(
    n, args, slots, capsys, monkeypatch, tmp_path
):
    src = tmp_path / "d.json"
    src.write_text(emit(boundary_simplex(n)))
    if args[1] == "antiprismatic":
        # the shapes are not enumerated: 545835 of them at dim 7
        monkeypatch.setattr(subdivisions, "antiprism_facet_shapes", None)
    code, out, err = _run(capsys, "subdivide", *args, str(src))
    assert (code, out) == (2, "")
    assert err == f"error: face closure of {slots} slots is above the limit {MAX_CLOSURE_SLOTS}\n"


def test_cli_subdivide_rejects_a_non_integer_stellar_facet(capsys, tmp_path):
    src = tmp_path / "t.json"
    src.write_text(emit(boundary_simplex(3)))
    code, out, err = _run(capsys, "subdivide", "--kind", "stellar:x", str(src))
    assert (code, out) == (2, "")
    assert err == "error: expected an integer, got 'x'\n"  # one line, no traceback


def test_cli_unfold_refuses_a_base_that_is_no_facet(capsys, tmp_path):
    src = tmp_path / "t.json"
    src.write_text(emit(boundary_simplex(3)))
    code, out, err = _run(capsys, "unfold", "--mode", "complete", "--base", "99", str(src))
    assert (code, out, err) == (2, "", "error: no facet 99\n")


def test_cli_gallery_unknown_name(capsys):
    code, _, err = _run(capsys, "gallery", "nope")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("data", [b"{oops", b"\xff\xfe{}"], ids=["not-json", "not-utf-8"])
def test_cli_parse_error_exit_code(data, capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    # a strict UTF-8 stdin, as a terminal's may be
    strict = _io.TextIOWrapper(_io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", strict)
    for command in (["analyze"], ["unfold", "--mode", "partial"], ["subdivide", "--kind", "barycentric"]):
        for path in (str(bad), "-"):
            strict.seek(0)
            code, out, err = _run(capsys, *command, path)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_verify_paper_suite_is_green(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "paper")
    assert code == 0
    assert "checks passed" in out


def test_cli_verify_rejects_unknown_suite(capsys):
    code, _, err = _run(capsys, "verify", "--suite", "everything")
    assert code == 2


def test_cli_unfold_component_builds_only_that_component(capsys, monkeypatch, tmp_path):
    import unfolder.cli as cli
    from unfolder import complexes

    src = tmp_path / "t.json"
    src.write_text(emit(starred_triangle()))
    u = partial_unfolding(starred_triangle())
    want = [reference_emit_component(comp, "partial") for comp in components(u)]
    built, closed = [], []

    def one(u, members):
        built.append(members)
        return component_of(u, members)

    def roots(size, pairs):  # every vertex closure runs through it, one slot per vertex
        closed.append(size // 3)
        return complexes_roots(size, pairs)

    complexes_roots = complexes._roots
    monkeypatch.setattr(cli, "component_of", one)
    monkeypatch.setattr(complexes, "_roots", roots)
    for k, text in enumerate(want):
        built.clear()
        closed.clear()
        code, out, _ = _run(capsys, "unfold", "--mode", "partial", "--component", str(k), str(src))
        assert code == 0
        assert out == text
        members = u.component_partition[k]
        assert built == [members]
        assert closed == [len(members)]
    built.clear()
    closed.clear()
    code, out, err = _run(capsys, "unfold", "--mode", "partial", "--component", "2", str(src))
    assert (code, out, built, closed) == (2, "", [], [])
    assert err == "error: component 2 of 2 does not exist\n"
    code, out, _ = _run(capsys, "unfold", "--mode", "partial", str(src))
    assert code == 0
    assert "2 components, sizes 3 and 6" in out
    assert (built, closed) == ([], [])
    # -o closes each copy once, component by component, and never the total
    code, _, _ = _run(capsys, "unfold", "--mode", "partial", "-o", str(tmp_path / "u.json"), str(src))
    assert code == 0
    assert closed == [len(m) for m in u.component_partition]


MAX_DIM_DOCUMENTS = [
    json.dumps({"kind": "pseudo", "dim": MAX_DIM + 1, "facet_count": 1}),
    json.dumps({"kind": "pseudo", "dim": 40, "facet_count": 2, "gluings": []}),
    json.dumps({"facets": [list(range(MAX_DIM + 2))]}),
]


@pytest.mark.parametrize("text", MAX_DIM_DOCUMENTS)
def test_parse_refuses_dimensions_above_max_dim(text, capsys, tmp_path):
    with pytest.raises(BadParameter, match=f"largest supported dimension {MAX_DIM}"):
        parse_document(text)
    path = tmp_path / "big.json"
    path.write_text(text)
    code, out, err = _run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: dim ")


def test_parse_accepts_max_dim():
    P = parse(json.dumps({"kind": "pseudo", "dim": MAX_DIM, "facet_count": 1}))
    assert P.dim == MAX_DIM
    K = parse(json.dumps({"facets": [list(range(MAX_DIM + 1))]}))
    assert K.dim == MAX_DIM


CLOSURE_DOCUMENTS = [
    '{"kind":"pseudo","dim":8,"facet_count":1000000}',
    json.dumps({"kind": "pseudo", "dim": 2, "facet_count": MAX_CLOSURE_SLOTS // 7 + 1}),
    # dim 8 keeps 511 slots per facet
    json.dumps(
        {"facets": [list(range(9 * i, 9 * i + 9)) for i in range(MAX_CLOSURE_SLOTS // 511 + 1)]}
    ),
]


@pytest.mark.parametrize("text", CLOSURE_DOCUMENTS)
def test_parse_refuses_a_closure_above_the_bound_before_building(
    text, capsys, monkeypatch, tmp_path
):
    def refuse(*args):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(io, "PseudoComplex", refuse)
    monkeypatch.setattr(io.AbstractComplex, "from_facets", refuse)
    with pytest.raises(BadParameter, match=f"above the limit {MAX_CLOSURE_SLOTS}"):
        parse_document(text)
    path = tmp_path / "big.json"
    path.write_text(text)
    code, out, err = _run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "slots" in err


def test_parse_accepts_a_closure_at_the_bound():
    P = parse(json.dumps({"kind": "pseudo", "dim": 2, "facet_count": MAX_CLOSURE_SLOTS // 7}))
    assert P.facet_count * 7 <= MAX_CLOSURE_SLOTS


DERIVED_GLUING_DOCUMENTS = {
    # one ridge held by k facets gives C(k, 2) gluings, 1999000 for k = 2000
    "star-graph": json.dumps({"facets": [[0, i] for i in range(1, 2001)]}),
    "isolated-points": json.dumps({"facets": [[i] for i in range(2000)]}),
}


@pytest.mark.parametrize("name", sorted(DERIVED_GLUING_DOCUMENTS))
def test_analyze_refuses_too_many_derived_gluings_at_once(name, capsys, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(DERIVED_GLUING_DOCUMENTS[name])
    start = time.process_time()
    code, out, err = _run(capsys, "analyze", str(path))
    assert time.process_time() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: 1999000 derived gluings are above the limit {MAX_CLOSURE_SLOTS}\n"


def test_derived_gluings_are_counted_before_they_are_built(monkeypatch):
    monkeypatch.setattr(complexes, "MAX_CLOSURE_SLOTS", 10)
    # five facets on one ridge give C(5, 2) = 10 gluings, six give 15
    K = AbstractComplex.from_facets([[0, i] for i in range(1, 6)])
    assert len(K.derived_gluings()) == 10
    K = AbstractComplex.from_facets([[0, i] for i in range(1, 7)])
    with pytest.raises(BadParameter, match="^15 derived gluings are above the limit 10$"):
        K.derived_gluings()


def test_no_assert_statements_in_the_library():
    src = Path(__file__).resolve().parents[1] / "src" / "unfolder"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _annotation_names(tree):
    """Names in string annotations such as `witness: "IsoWitness"`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            annotations = [node.returns] + [x.annotation for x in args if x is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    found |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return found


def test_no_unused_imports_in_the_library():
    # `__init__` imports to re-export; elsewhere `import X as X` marks a re-export
    src = Path(__file__).resolve().parents[1] / "src" / "unfolder"
    modules = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 5
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _annotation_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if alias.asname != alias.name and name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_library_code_calls_gluings_of():
    # `gluings_of` stays only for the benchmark's probes; the library asks `x.gluings`
    src = Path(__file__).resolve().parents[1] / "src" / "unfolder"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "gluings_of"
    ]
    assert found == []
