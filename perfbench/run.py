"""Benchmark of the `unfolder` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; it measures that checkout's `src/`.  One job
runs at a time, in this process: each job is `unfolder.cli.main([...])` with
its standard output captured, and every output is checked against
`expected.json` (see `workloads.py`).

With `--trace 0` the job list is repeated while another pass still fits in
`--seconds` (at least once) and the end-to-end metrics are reported:

* setup_s: median wall time of several set-up processes, each starting the
  interpreter, importing the package, generating the seeded inputs and
  checking them (`inputs.py`);
* run_s: median over passes of the wall time of the whole job list;
* peak_rss_mb: peak resident memory of this process after the first pass.

With `--trace 1` the job list runs once untraced and once more through the
same `cli.main` with the package functions it calls inside spans
(`tracing.py`), and each job's per-layer probes run in processes of their own
(`probes.py`).  The per-layer metrics are reported, and all spans with the
self time of each layer are written to
`perfbench/out/trace-<workload>-seed<seed>.json`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; details and mismatches go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import HERE, OUT, ROOT, BenchError, import_unfolder, peak_rss_mb
from workloads import (
    JOBS,
    cli_fields,
    compare,
    compare_counts,
    compare_rows,
    job_id,
    known_findings,
    run_cli_job,
)

SETUP_REPS = 5
CHILD_TIMEOUT = 150


def child(args: list[str]) -> tuple[dict, float]:
    """Run a benchmark script in a new interpreter; (its JSON line, wall s)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)} printed nothing")
    return json.loads(lines[-1]), seconds


def set_up(workload: str, seed: int, work: Path, reps: int) -> list[float]:
    args = [str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)]
    return [child(args)[1] for _ in range(reps)]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        for m in messages:
            print(f"mismatch: {m}", file=sys.stderr)


def cli_pass(main, jobs, work: Path, tally: Tally, tr=None) -> tuple[float, int]:
    """One pass of the job list; (seconds in the CLI, bytes out).  With a
    tracer, the spans of each job carry its id."""
    total = 0.0
    nbytes = 0
    for index, job in enumerate(jobs):
        if tr is not None:
            tr.job = job_id(index, job)
        rc, out, err, seconds = run_cli_job(main, job, index, work)
        total += seconds
        fields, produced = cli_fields(job, index, work, rc, out)
        nbytes += produced
        attempted, failed, messages = compare(job, fields)
        if failed and err:
            messages.append(f"stderr: {err.strip()}")
        tally.add(attempted, failed, messages)
        for note in known_findings(fields):
            print(note, file=sys.stderr)
    return total, nbytes


def untraced(workload: str, seed: int, seconds: int, work: Path) -> tuple[Tally, dict]:
    setups = set_up(workload, seed, work, SETUP_REPS)
    from unfolder.cli import main

    tally = Tally()
    passes: list[float] = []
    peak_mb = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        run_s, _bytes = cli_pass(main, JOBS[workload], work, tally)
        passes.append(run_s)
        if peak_mb is None:
            peak_mb = peak_rss_mb()
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            break
    print(f"{workload}: {len(setups)} set-ups, {len(passes)} passes {passes}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return tally, metrics


def traced(workload: str, seed: int, work: Path) -> tuple[Tally, dict]:
    from probes import COUNTS, TIMED
    from tracing import Tracer, duration, layer_self_times, self_times, traced_functions

    set_up(workload, seed, work, 1)
    from unfolder import cli, verify

    jobs = JOBS[workload]
    tally = Tally()
    untraced_s, nbytes = cli_pass(cli.main, jobs, work, tally)

    # The same jobs through the same `cli.main`, with the package functions
    # it calls (and the `run_suite` that `unfolder verify` imports) in spans.
    tr = Tracer()
    with traced_functions(tr, cli), traced_functions(tr, verify, {"run_suite"}):
        cli_pass(cli.main, jobs, work, tally, tr)
    job_spans = list(tr.spans)
    traced_s = sum(duration(s) for s in job_spans if s["parent"] is None)

    counts = dict.fromkeys(COUNTS, 0)
    probe_runs = [["--job", "registry", "--registry"]]
    for index, (command, name) in enumerate(jobs):
        jid = job_id(index, (command, name))
        if command == "verify":
            probe_runs.append(["--job", jid, "--gallery"])
        else:
            probe_runs.append(["--job", jid, "--input", str(work / f"{name}.json")])
    for args in probe_runs:
        got, seconds = child([str(HERE / "probes.py"), *args])
        print(
            f"probes {args[1]}: {seconds:.2f} s, peak {got['peak_rss_mb']:.0f} MB",
            file=sys.stderr,
        )
        tr.adopt(got["spans"])
        for k in COUNTS:
            counts[k] += got["counts"][k]
        if got["rows"] is not None:
            tally.add(*compare_rows(got["rows"]))
    tally.add(*compare_counts(workload, counts))
    probe_spans = tr.spans[len(job_spans) :]

    own = self_times(probe_spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        metrics[f"{name}_s"] = (own.get(name, 0.0), "s")
    metrics["projectivities.gluings_per_s"] = (
        counts["gluings"] / own["projectivities.projectivity_group"],
        "1/s",
    )
    metrics["unfoldings.copies_per_s"] = (
        counts["copies"]
        / (own["unfoldings.complete_unfolding"] + own["unfoldings.partial_unfolding"]),
        "1/s",
    )
    for name, seconds in own.items():
        if name.startswith("verify."):
            metrics[f"{name}_s"] = (seconds, "s")
    for k in COUNTS:
        metrics[f"counts.{k}"] = (counts[k], "count")
    metrics["counts.output_bytes"] = (nbytes, "count")
    metrics["trace.untraced_run_s"] = (untraced_s, "s")
    metrics["trace.traced_total_s"] = (traced_s, "s")

    job_layers = layer_self_times(job_spans)
    probe_layers = layer_self_times(probe_spans)
    report = {
        "workload": workload,
        "seed": seed,
        "environment": environment(),
        "untraced_run_s": untraced_s,
        "traced_total_s": traced_s,
        "job_layer_self_s": job_layers,
        "probe_layer_self_s": probe_layers,
        "counts": counts,
        "spans": tr.spans,
    }
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; spans in {path}", file=sys.stderr)
    for layer, seconds in sorted(job_layers.items(), key=lambda kv: -kv[1]):
        print(f"  job self time {layer:<16} {seconds:10.4f} s", file=sys.stderr)
    return tally, metrics


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(JOBS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        import_unfolder()
        OUT.mkdir(exist_ok=True)
        work = OUT / f"work-{os.getpid()}"
        work.mkdir()
        try:
            if ns.trace:
                tally, metrics = traced(ns.workload, ns.seed, work)
            else:
                tally, metrics = untraced(ns.workload, ns.seed, ns.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
