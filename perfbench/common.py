"""Paths and program loading shared by the benchmark scripts.

The benchmark always runs the `unfolder` sources of the checkout it sits in
(`<root>/src`), never an installed copy, so a checkout is measured exactly as
it is.  Every scratch file goes under `<root>/perfbench/out/`.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = json.loads((HERE / "expected.json").read_text())


class BenchError(Exception):
    """The benchmark cannot run here; the message says why."""


def import_unfolder():
    """Import `unfolder` from this checkout's `src/` and return the package."""
    if not (SRC / "unfolder" / "__init__.py").is_file():
        raise BenchError(f"no unfolder sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("unfolder")
    where = Path(pkg.__file__).resolve()
    if SRC not in where.parents:
        raise BenchError(f"imported unfolder from {where}, not from {SRC}")
    return pkg


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB.

    Reads VmHWM, which starts afresh at exec; `ru_maxrss` would also count
    the memory of the process this one was forked from.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
