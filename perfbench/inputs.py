"""Seeded input documents for the benchmark workloads, and their checks.

Each input is built through the public API (`boundary_simplex`,
`barycentric`, `antiprismatic`, `knot_neighborhood`, `emit`) and then
relabelled from the seed: simplicial documents get a random vertex relabelling
and shuffled facet rows, pseudo documents get their facet copies renumbered and
their gluings shuffled.  The program only ever sees the resulting JSON text.

Before any job is timed, every document is parsed back and its facet count and
face vector are compared with the values in `expected.json`; those do not
depend on the seed.

Run as a script this is the benchmark's set-up step:

    python3 perfbench/inputs.py --workload analyze-ladder --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from common import EXPECTED, BenchError, import_unfolder

WORKLOAD_INPUTS = {
    "analyze-ladder": ("bary3-d3", "bary4-d3", "bary2-d4", "knot-60-klein"),
    "unfold-build": ("d4", "anti-d4", "anti2-d3", "knot-120-klein"),
    "verify-all": (),
}


def build(name: str):
    """The complex behind one input name, from the public API."""
    from unfolder import antiprismatic, barycentric, boundary_simplex, knot_neighborhood

    def repeat(op, x, k):
        for _ in range(k):
            x = op(x).result
        return x

    if name == "bary3-d3":
        return repeat(barycentric, boundary_simplex(3), 3)
    if name == "bary4-d3":
        return repeat(barycentric, boundary_simplex(3), 4)
    if name == "bary2-d4":
        return repeat(barycentric, boundary_simplex(4), 2)
    if name == "d4":
        return boundary_simplex(4)
    if name == "anti-d4":
        return repeat(antiprismatic, boundary_simplex(4), 1)
    if name == "anti2-d3":
        return repeat(antiprismatic, boundary_simplex(3), 2)
    if name.startswith("knot-"):
        _, blocks, variant = name.split("-")
        return knot_neighborhood(int(blocks), variant).complex
    raise BenchError(f"unknown input {name!r}")


def relabel(doc: dict, rng: random.Random) -> dict:
    """Apply the seed's relabelling to an emitted document."""
    if doc["kind"] == "simplicial":
        labels = sorted({lab for row in doc["facets"] for lab in row}, key=int)
        images = list(range(len(labels)))
        rng.shuffle(images)
        new = dict(zip(labels, map(str, images)))
        rows = [[new[lab] for lab in row] for row in doc["facets"]]
        for row in rows:
            rng.shuffle(row)
        rng.shuffle(rows)
        return {**doc, "facets": rows}
    perm = list(range(doc["facet_count"]))
    rng.shuffle(perm)
    gluings = [{**g, "a": perm[g["a"]], "b": perm[g["b"]]} for g in doc["gluings"]]
    rng.shuffle(gluings)
    classes = [sorted([perm[f], l] for f, l in refs) for refs in doc["vertex_classes"]]
    classes.sort()
    return {**doc, "gluings": gluings, "vertex_classes": classes}


def make_document(name: str, seed: int) -> str:
    from unfolder import emit

    doc = json.loads(emit(build(name)))
    return json.dumps(relabel(doc, random.Random(f"{seed}:{name}")), indent=1) + "\n"


def check_document(name: str, text: str) -> None:
    """Parse a generated document back and compare it with the record."""
    from unfolder import AbstractComplex, parse_document

    x = parse_document(text).complex
    if isinstance(x, AbstractComplex):
        vector = list(x.face_count_vector())
    else:
        counts = x.classes().counts_by_dim()
        vector = [counts.get(k, 0) for k in range(x.dim + 1)]
    got = {"facets": x.facet_count, "face_vector": vector}
    want = EXPECTED["inputs"][name]
    if got != want:
        raise BenchError(f"input {name}: generated {got}, recorded {want}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the documents")
    ns = ap.parse_args(argv)
    try:
        import_unfolder()
        sizes = {}
        for name in WORKLOAD_INPUTS[ns.workload]:
            text = make_document(name, ns.seed)
            check_document(name, text)
            Path(ns.out, f"{name}.json").write_text(text)
            sizes[name] = len(text)
    except BenchError as e:
        print(f"inputs: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"bytes": sizes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
