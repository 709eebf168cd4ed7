"""The three workloads: their job lists, how each job is run through the CLI,
and how its output is checked against the seed-invariant record.

A job is a `(command, input)` pair.  Its key `command:input` indexes
`expected.json`; the outcome fields compared there are the ones that do not
depend on the seed's relabelling.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter
from pathlib import Path

from common import EXPECTED

JOBS = {
    # read path on large inputs: stars, links, local strong connectivity, the
    # odd subcomplex and the projectivity BFS
    "analyze-ladder": (
        ("analyze", "bary3-d3"),
        ("analyze", "bary4-d3"),
        ("analyze", "bary2-d4"),
        ("analyze", "knot-60-klein"),
    ),
    # write path: unfolding lifts, glued face classes of large totals, group
    # closure with non-trivial groups and the emitted documents
    "unfold-build": (
        ("subdivide-antiprismatic", "d4"),
        ("unfold-complete", "anti-d4"),
        ("unfold-complete", "anti2-d3"),
        ("unfold-partial", "knot-120-klein"),
        ("subdivide-barycentric", "anti2-d3"),
    ),
    # many small complexes: per-call fixed costs, subdivisions, crumpling
    # groups and the isomorphism search
    "verify-all": (("verify", "all"),),
}

KNOWN_FINDING = "gen-02-knot-core-parity"


def job_key(job) -> str:
    return f"{job[0]}:{job[1]}"


def job_id(index: int, job) -> str:
    """Identifier shared by a job's spans: its position and its key."""
    return f"{index}:{job_key(job)}"


def output_path(work: Path, index: int) -> Path:
    return work / f"out{index}.json"


def argv_for(job, index: int, work: Path) -> list[str]:
    command, name = job
    doc = str(work / f"{name}.json")
    if command == "analyze":
        return ["analyze", doc]
    if command.startswith("subdivide-"):
        return ["subdivide", "--kind", command.split("-", 1)[1], doc]
    if command.startswith("unfold-"):
        mode = command.split("-", 1)[1]
        return ["unfold", "--mode", mode, "-o", str(output_path(work, index)), doc]
    return ["verify", "--suite", name]


def clear_outputs(work: Path, index: int) -> None:
    """Delete the files an earlier pass of job `index` wrote, so that its
    check reads only what this pass writes."""
    path = output_path(work, index)
    for old in path.parent.glob(f"{path.stem}.component*{path.suffix}"):
        old.unlink()
    path.unlink(missing_ok=True)


def run_cli_job(main, job, index: int, work: Path) -> tuple[int, str, str, float]:
    """Call `unfolder.cli.main` in-process; returns (exit, stdout, stderr, s)."""
    clear_outputs(work, index)
    out, err = io.StringIO(), io.StringIO()
    argv = argv_for(job, index, work)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


# ------------------------------------------------------------ outcome fields


def analyze_fields_from_text(text: str) -> dict:
    lines = dict(
        line.split(": ", 1) for line in text.splitlines() if ": " in line and not line.startswith(" ")
    )
    odd = lines["odd subcomplex"]
    orbits = lines.get("Pi orbits")
    return {
        "dim": int(lines["dim"]),
        "facets": int(lines["facets"]),
        "face_counts": [int(c) for c in lines["face counts by dimension"].split()],
        "strongly_connected": lines["strongly connected"],
        "locally_strongly_connected": lines["locally strongly connected"],
        "pseudo_manifold": lines["pseudo-manifold"],
        "orientable": lines["orientable"],
        "euler": int(lines["euler characteristic"]),
        "balanced": lines["balanced"],
        "pi_order": lines["Pi order"],
        "orbit_sizes": None if orbits is None else orbit_sizes(orbits),
        "odd_classes": 0 if odd == "empty" else int(odd.split()[0]),
    }


def orbit_sizes(text: str) -> list[int]:
    return sorted(len(part.strip("{}").split(",")) for part in text.split())


def unfold_fields(path: Path) -> tuple[dict, int]:
    """Counts read back from an unfolding document and its component files."""
    text = path.read_text()
    doc = json.loads(text)
    nbytes = len(text)
    unf = doc["unfolding"]
    fields = {
        "mode": unf["mode"],
        "facet_count": doc["facet_count"],
        "gluings": len(doc["gluings"]),
        "vertex_classes": len(doc["vertex_classes"]),
        "projection": len(unf["projection"]),
        "copies_per_base_facet": sorted(set(Counter(unf["projection"]).values())),
        "components": sorted(map(len, unf["components"])) if "components" in unf else None,
    }
    sizes = []
    for side in sorted(path.parent.glob(f"{path.stem}.component*{path.suffix}")):
        side_text = side.read_text()
        nbytes += len(side_text)
        sizes.append(json.loads(side_text)["facet_count"])
    fields["component_files"] = sorted(sizes)
    return fields, nbytes


def subdivide_fields(text: str) -> dict:
    doc = json.loads(text)
    return {
        "dim": doc["dim"],
        "facets": len(doc["facets"]),
        "vertices": len({lab for row in doc["facets"] for lab in row}),
    }


def verify_fields_from_text(text: str) -> dict:
    lines = text.splitlines()
    rows = []
    for line in lines[:-1]:
        check_id, mark, detail = line.split(None, 2)
        rows.append([check_id, mark, detail])
    return {"rows": rows, "summary": lines[-1] if lines else ""}


def cli_fields(job, index: int, work: Path, rc: int, stdout: str) -> tuple[dict, int]:
    """Outcome fields of one CLI run, with the bytes it produced."""
    command = job[0]
    fields: dict = {"exit": rc}
    nbytes = len(stdout)
    if rc not in (0, 1):
        return fields, nbytes
    try:
        if command == "analyze":
            fields.update(analyze_fields_from_text(stdout))
        elif command.startswith("subdivide-"):
            fields.update(subdivide_fields(stdout))
        elif command.startswith("unfold-"):
            got, written = unfold_fields(output_path(work, index))
            fields.update(got)
            nbytes += written
        else:
            fields.update(verify_fields_from_text(stdout))
    except (OSError, ValueError, KeyError, TypeError) as e:
        fields["unreadable"] = f"{type(e).__name__}: {e}"
    return fields, nbytes


# ---------------------------------------------------------------- comparison


def compare(job, fields: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of one job outcome against the record.

    A verify job counts one attempt per registry row.  Its record keeps the
    known finding `gen-02` as FAIL: matching it is the expected outcome, not a
    pass.
    """
    want = EXPECTED["jobs"][job_key(job)]
    if job[0] != "verify":
        bad = [
            f"{job_key(job)}: {k} is {fields.get(k)!r}, expected {v!r}"
            for k, v in want.items()
            if fields.get(k) != v
        ]
        return 1, 1 if bad else 0, bad
    attempted, rows_bad, bad = compare_rows(fields.get("rows", []))
    for k in ("exit", "summary"):
        if fields.get(k) != want[k]:
            bad.append(f"verify: {k} is {fields.get(k)!r}, expected {want[k]!r}")
    failed = rows_bad if rows_bad else (1 if bad else 0)
    return attempted, failed, bad


def compare_rows(rows: list[list[str]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of verify rows `[check id, PASS|FAIL,
    detail]` against the recorded table, one attempt per recorded row."""
    want = EXPECTED["jobs"]["verify:all"]["rows"]
    got = {r[0]: r for r in rows}
    bad = [
        f"verify row {row[0]}: got {got.get(row[0])!r}, expected {row!r}"
        for row in want
        if got.get(row[0]) != row
    ]
    extra = sorted(set(got) - {row[0] for row in want})
    bad += [f"verify row {cid}: not in the record" for cid in extra]
    return len(want), len(bad), bad


def compare_counts(workload: str, counts: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of a traced run's exact counts against
    the record, one attempt per count."""
    want = EXPECTED["counts"][workload]
    bad = [
        f"{workload}: counts.{k} is {counts.get(k)!r}, expected {v!r}"
        for k, v in want.items()
        if counts.get(k) != v
    ]
    return len(want), len(bad), bad


def known_findings(fields: dict) -> list[str]:
    return [
        f"known finding, reported as recorded: {' '.join(row)}"
        for row in fields.get("rows", [])
        if row[0] == KNOWN_FINDING and row[1] == "FAIL"
    ]
