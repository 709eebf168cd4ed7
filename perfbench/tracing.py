"""Spans for the traced run.

A span records a name `<module>.<function>`, its start and end on the
monotonic clock, the span that encloses it and the job it belongs to.  Spans
stay in memory and are written out once, when the run ends.  The layer of a
span is the module part of its name; a layer's self time is the time of its
spans minus the time of the spans directly inside them.

`traced_functions` puts a span around every package function that a module
calls through its own globals, for as long as it is active.  With it around
`unfolder.cli`, the real `cli.main` runs each job and its calls into the other
layers show as spans; nothing in the package changes.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, job: str | None = None) -> None:
        self.spans: list[dict] = []
        self.job = job  # the job that new spans belong to
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded elsewhere (a probe process), re-numbered."""
        base = len(self.spans)
        for rec in spans:
            inner = rec["parent"]
            self.spans.append(
                {**rec, "id": base + rec["id"], "parent": None if inner is None else base + inner}
            )


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name."""
    inner: dict[int, float] = {}
    for rec in spans:
        if rec["parent"] is not None:
            inner[rec["parent"]] = inner.get(rec["parent"], 0.0) + duration(rec)
    out: dict[str, float] = {}
    for rec in spans:
        own = duration(rec) - inner.get(rec["id"], 0.0)
        out[rec["name"]] = out.get(rec["name"], 0.0) + own
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, seconds in self_times(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


# ------------------------------------------------------- package functions


def span_name(fn) -> str:
    """`<module>.<function>` of a package function, e.g. `io.emit`."""
    return f"{fn.__module__.removeprefix('unfolder.')}.{fn.__name__}"


def timed(tr: Tracer, name: str, fn):
    """`fn` with a span `name` around each call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def traced_functions(tr: Tracer, module, names=None):
    """Wrap the package functions among `module`'s globals (only `names`, if
    given) in spans; restore the originals on exit."""
    saved = {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__.startswith("unfolder.")
        and (names is None or name in names)
    }
    for name, fn in saved.items():
        setattr(module, name, timed(tr, span_name(fn), fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
