"""Per-layer probes for the traced run.

Each probe times one public function on a freshly parsed instance, so that the
package's id-keyed caches cannot hand back a stored result.  What the function
needs from other layers (face classes, gluings) is computed on that instance
first, outside the span, so the span holds the function's own work.  Probes
that build new complexes run only when the result stays under `CAP` facets.

The benchmark never reads or clears the package's caches.  Because those
caches keep every instance alive, each job's probes run in a process of their
own, which ends when they are done:

    python3 perfbench/probes.py --job 1:analyze:bary4-d3 --input DOC.json
    python3 perfbench/probes.py --job 0:verify:all --gallery
    python3 perfbench/probes.py --job registry --registry

The last stdout line is a JSON object with the spans, the exact counts and,
for the registry, the rows of the verify table.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from common import BenchError, import_unfolder, peak_rss_mb
from tracing import Tracer, timed

CAP = 20000  # facets of a complex a probe may build

TIMED = (
    "io.parse_document",
    "io.emit",
    "complexes.face_classes_abstract",
    "complexes.face_classes_glued",
    "complexes.derived_gluings",
    "complexes.dual_graph",
    "complexes.star_of_class",
    "complexes.link_of_class",
    "diagnostics.is_locally_strongly_connected",
    "diagnostics.odd_subcomplex",
    "diagnostics.balanced_coloring",
    "diagnostics.orientable",
    "diagnostics.euler_characteristic",
    "projectivities.projectivity_group",
    "projectivities.projectivity_group_total",
    "permutations.closure",
    "permutations.orbits",
    "unfoldings.complete_unfolding",
    "unfoldings.partial_unfolding",
    "unfoldings.components",
    "subdivisions.barycentric",
    "subdivisions.antiprismatic",
)
COUNTS = (
    "facets",
    "gluings",
    "classes",
    "group_order",
    "generators",
    "copies",
    "components",
    "odd_faces",
)


def probe_document(tr: Tracer, text: str, counts: dict) -> None:
    """Run every probe that applies to one input document."""
    from unfolder import (
        AbstractComplex,
        PermutationGroup,
        antiprism_facet_shapes,
        antiprismatic,
        balanced_coloring,
        barycentric,
        complete_unfolding,
        dual_graph,
        emit,
        emit_unfolding,
        euler_characteristic,
        gluings_of,
        is_locally_strongly_connected,
        is_strongly_connected,
        link_of_class,
        odd_subcomplex,
        orientable,
        parse_document,
        partial_unfolding,
        projectivity_group,
        star_of_class,
    )

    def fresh(*, classes=False, gluings=False):
        x = parse_document(text).complex
        if classes:
            x.classes()
        if gluings:
            gluings_of(x)
        return x

    with tr.span("io.parse_document"):
        x = parse_document(text).complex
    abstract = isinstance(x, AbstractComplex)
    n, d = x.facet_count, x.dim
    kind = "abstract" if abstract else "glued"
    with tr.span(f"complexes.face_classes_{kind}"):
        classes = x.classes()
    if abstract:
        x = fresh()
        with tr.span("complexes.derived_gluings"):
            x.derived_gluings()
    counts["facets"] += n
    counts["gluings"] += len(gluings_of(x))
    counts["classes"] += classes.count

    x = fresh(gluings=True)
    with tr.span("complexes.dual_graph"):
        dual_graph(x).adjacency()
    low = [cid for cid in range(classes.count) if classes.cards[cid] <= d - 1]
    x = fresh(classes=True, gluings=True)
    with tr.span("complexes.star_of_class"):
        for cid in low:
            star_of_class(x, cid)
    x = fresh(classes=True, gluings=True)
    with tr.span("complexes.link_of_class"):
        for cid in low:
            link_of_class(x, cid)
    x = fresh(classes=True, gluings=True)
    with tr.span("diagnostics.is_locally_strongly_connected"):
        lsc, _witness = is_locally_strongly_connected(x)
    if lsc:
        x = fresh(classes=True, gluings=True)
        with tr.span("diagnostics.odd_subcomplex"):
            counts["odd_faces"] += len(odd_subcomplex(x).odd_faces)
    x = fresh(gluings=True)
    with tr.span("diagnostics.orientable"):
        orientable(x)
    x = fresh(classes=True)
    with tr.span("diagnostics.euler_characteristic"):
        euler_characteristic(x)
    x = fresh(classes=not abstract)
    with tr.span("io.emit"):
        emit(x)

    if not is_strongly_connected(x):
        return
    x = fresh(classes=True, gluings=True)
    with tr.span("diagnostics.balanced_coloring"):
        balanced_coloring(x)
    x = fresh(gluings=True)
    with tr.span("projectivities.projectivity_group"):
        pg = projectivity_group(x)
    group = pg.group
    counts["group_order"] += group.order
    counts["generators"] += len(group.generators)
    with tr.span("permutations.closure"):
        PermutationGroup.generated(list(group.generators), group.degree)
    with tr.span("permutations.orbits"):
        group.orbits()

    if n * group.order <= CAP:
        x = fresh(gluings=True)
        with tr.span("unfoldings.complete_unfolding"):
            u = complete_unfolding(x)
        _probe_total(tr, u, counts)
        with tr.span("projectivities.projectivity_group_total"):
            projectivity_group(u.total)
    if n * (d + 1) <= CAP:
        x = fresh(gluings=True)
        with tr.span("unfoldings.partial_unfolding"):
            u = partial_unfolding(x)
        counts["components"] += len(_probe_total(tr, u, counts))
    if n * math.factorial(d + 1) <= CAP:
        x = fresh(classes=True)
        with tr.span("subdivisions.barycentric"):
            barycentric(x)
    if n * len(antiprism_facet_shapes(d)) <= CAP:
        x = fresh(classes=True)
        with tr.span("subdivisions.antiprismatic"):
            antiprismatic(x)


def _probe_total(tr: Tracer, u, counts: dict):
    """Components, glued face classes and emit of an unfolding's total."""
    from unfolder import components, emit_unfolding

    counts["copies"] += u.total.facet_count
    with tr.span("unfoldings.components"):
        comps = components(u)
    with tr.span("complexes.face_classes_glued"):
        u.total.classes()
    with tr.span("io.emit"):
        emit_unfolding(u)
    return comps


def probe_registry(tr: Tracer) -> list[list[str]]:
    """Run `run_suite("all")` with each registry check inside a span
    `verify.<check-id>`; returns the rows of the verify table."""
    from unfolder import verify

    saved = verify.CHECKS
    verify.CHECKS = tuple(
        (check_id, suite, timed(tr, f"verify.{check_id}", fn)) for check_id, suite, fn in saved
    )
    try:
        results = verify.run_suite("all")
    finally:
        verify.CHECKS = saved
    return [[r.check_id, "PASS" if r.ok else "FAIL", r.detail] for r in results]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--job", required=True, help="job id the spans belong to")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--input", help="document of the job")
    what.add_argument("--gallery", action="store_true", help="the gallery complexes")
    what.add_argument("--registry", action="store_true", help="the verify checks")
    ns = ap.parse_args(argv)
    try:
        import_unfolder()
    except BenchError as e:
        print(f"probes: {e}", file=sys.stderr)
        return 2
    tr = Tracer(ns.job)
    counts = dict.fromkeys(COUNTS, 0)
    rows = None
    with tr.span("bench.probes"):
        if ns.registry:
            rows = probe_registry(tr)
        elif ns.gallery:
            from unfolder import emit, gallery_entries

            for entry in gallery_entries():
                probe_document(tr, emit(entry.complex), counts)
        else:
            with open(ns.input) as fh:
                probe_document(tr, fh.read(), counts)
    print(
        json.dumps(
            {
                "spans": tr.spans,
                "counts": counts,
                "rows": rows,
                "peak_rss_mb": peak_rss_mb(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
