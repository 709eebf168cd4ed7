"""Command line front end.

Subcommands: analyze, unfold, subdivide, gallery, verify.  Documents are
read from a file argument or from stdin when the argument is "-" (the
default), so the commands compose as pipes:

    unfolder gallery boundary-simplex-3 | unfolder analyze

Exit codes: 0 on success, 1 when a verification check fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .complexes import AbstractComplex
from .diagnostics import (
    balanced_coloring,
    euler_characteristic,
    is_locally_strongly_connected,
    is_pseudo_manifold,
    is_strongly_connected,
    odd_subcomplex,
    orientable,
)
from .errors import BadParameter, ParseError, UnfolderError
from .io import ParsedDocument, emit, emit_component, emit_unfolding, parse_document
from .permutations import perm_cycle_string
from .projectivities import projectivity_group
from .subdivisions import antiprismatic, barycentric, iterate, stellar
from .unfoldings import complete_unfolding, component_of, component_parts, components, partial_unfolding

GALLERY_NAMES = (
    "boundary-simplex-<n>",
    "starred-triangle",
    "hexagon-cone",
    "cycle-<n>",
    "figure3",
    "torus-z3",
    "nonsimplicial",
    "knot-nbhd:<n>:orientable|klein",
    "surface:<g>",
)


def _read_document(path: str) -> ParsedDocument:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except UnicodeDecodeError as e:
        raise ParseError(f"the document is not text: {e}") from None
    return parse_document(text)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        print(f"wrote {out}")


def _fmt_sizes(sizes: list[int]) -> str:
    parts = [str(s) for s in sizes]
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def cmd_analyze(ns: argparse.Namespace) -> int:
    doc = _read_document(ns.path)
    x = doc.complex
    counts = x.classes().counts_by_dim()
    sc = is_strongly_connected(x)  # reads the gluings, before anything is printed
    print(f"kind: {doc.kind}")
    print(f"dim: {x.dim}")
    print(f"facets: {x.facet_count}")
    vector = " ".join(str(counts.get(k, 0)) for k in range(x.dim + 1))
    print(f"face counts by dimension: {vector}")
    lsc, _witness = is_locally_strongly_connected(x)
    print(f"strongly connected: {'yes' if sc else 'no'}")
    print(f"locally strongly connected: {'yes' if lsc else 'no'}")
    print(f"pseudo-manifold: {is_pseudo_manifold(x)}")
    print(f"orientable: {'yes' if orientable(x) else 'no'}")
    print(f"euler characteristic: {euler_characteristic(x)}")
    if not sc:
        print("balanced: n/a (dual graph disconnected)")
        print("Pi order: n/a (dual graph disconnected)")
    else:
        print(f"balanced: {'yes' if balanced_coloring(x) is not None else 'no'}")
        pg = projectivity_group(x)
        print(f"Pi order: {pg.group.order}")
        if pg.group.generators:
            print("Pi generators:")
            for p, tag in pg.group.generators:
                print(f"  {perm_cycle_string(p)} from {tag}")
        else:
            print("Pi generators: none")
        orbits = " ".join(
            "{" + ",".join(map(str, orb)) + "}" for orb in pg.group.orbits()
        )
        print(f"Pi orbits: {orbits}")
    if not lsc:
        print("odd subcomplex: n/a (not locally strongly connected)")
    else:
        odd = odd_subcomplex(x)
        if odd.is_empty:
            print("odd subcomplex: empty")
        else:
            print(f"odd subcomplex: {len(odd.odd_faces)} classes of codimension 2")
            classes = x.classes()
            for cid in odd.odd_faces:
                if classes.facets is not None:
                    verts = classes.face_key(cid)
                    if doc.vertex_labels is not None:
                        shown = ",".join(doc.vertex_labels[v] for v in verts)
                    else:
                        shown = ",".join(map(str, verts))
                    print(f"  class {cid} = vertices ({shown})")
                else:
                    print(f"  class {cid}")
    return 0


def cmd_unfold(ns: argparse.Namespace) -> int:
    doc = _read_document(ns.path)
    x = doc.complex
    if ns.mode == "complete":
        u = complete_unfolding(x, base=ns.base)
    else:
        u = partial_unfolding(x)
    if ns.component is not None:
        parts = component_parts(u)
        if not 0 <= ns.component < len(parts):
            raise BadParameter(f"component {ns.component} of {len(parts)} does not exist")
        _write_or_print(emit_component(component_of(u, parts[ns.component]), u.kind), ns.output)
        return 0
    if ns.output is not None:
        comps = components(u) if u.kind == "partial" and len(component_parts(u)) > 1 else ()
        _write_or_print(emit_unfolding(u, comps), ns.output)
        stem = Path(ns.output)
        for k, comp in enumerate(comps):
            side = stem.with_name(f"{stem.stem}.component{k}{stem.suffix}")
            side.write_text(emit_component(comp, u.kind))
            print(f"wrote {side}")
        return 0
    parts = component_parts(u)
    sizes = sorted(map(len, parts))
    print(f"mode: {u.kind}")
    print(f"base facets: {x.facet_count}")
    print(f"total facets: {u.total.facet_count}")
    print(f"{len(parts)} components, sizes {_fmt_sizes(sizes)}")
    print("projection:")
    for i in range(u.total.facet_count):
        tag = u.labels[i]
        if u.kind == "complete":
            extra = "coloring " + "".join(map(str, tag[1]))
        else:
            extra = f"vertex {tag[1]}"
        print(f"  copy {i} -> base facet {u.projection[i]} ({extra})")
    return 0


def cmd_subdivide(ns: argparse.Namespace) -> int:
    doc = _read_document(ns.path)
    x = doc.complex
    kind, _, arg = ns.kind.partition(":")
    if kind == "barycentric":
        op = barycentric
    elif kind == "antiprismatic":
        op = antiprismatic
    elif kind == "stellar":
        from .gallery import _int_part

        facet = _int_part(arg) if arg else 0

        def op(c):
            if not isinstance(c, AbstractComplex):
                raise BadParameter("stellar subdivision needs a simplicial complex")
            return stellar(c, facet)

    else:
        raise BadParameter(f"unknown subdivision kind {ns.kind!r}")
    result = iterate(op, x, ns.iterations)
    _write_or_print(emit(result), ns.output)
    return 0


def cmd_gallery(ns: argparse.Namespace) -> int:
    from .gallery import gallery_complex

    _write_or_print(emit(gallery_complex(ns.name)), ns.output)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    from .verify import run_suite

    results = run_suite(ns.suite)
    width = max(len(r.check_id) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        failed += 0 if r.ok else 1
        print(f"{r.check_id:<{width}}  {mark}  {r.detail}")
    total = len(results)
    print(f"{total - failed} of {total} checks passed ({ns.suite} suite)")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unfolder",
        description="Projectivity groups, unfoldings and subdivisions "
        "of simplicial and pseudo-simplicial complexes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print the invariants of a complex")
    p.add_argument("path", nargs="?", default="-", help="document file or - for stdin")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("unfold", help="complete or partial unfolding")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--mode", choices=("complete", "partial"), required=True)
    p.add_argument("--base", type=int, default=0, help="base facet (complete mode)")
    p.add_argument("--component", type=int, default=None, help="emit one component")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("subdivide", help="apply a subdivision operator")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument(
        "--kind",
        required=True,
        help="barycentric | antiprismatic | stellar[:facet]",
    )
    p.add_argument("-n", "--iterations", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("gallery", help="emit a named example complex")
    p.add_argument("name", help="one of: " + ", ".join(GALLERY_NAMES))
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("verify", help="run the invariant and reproduction suites")
    p.add_argument("--suite", choices=("all", "props", "paper"), default="all")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return ns.func(ns)
    except UnfolderError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
