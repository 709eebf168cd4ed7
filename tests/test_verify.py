"""The `verify` runner's subdivision facts: built once per entry, failing
with the text a fresh build would give, and not keeping the subdivision;
the package, which imports `verify` only when asked for it; and the table
itself, which must be the benchmark's record of it."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from unfolder import cli, verify
from unfolder.errors import Mismatch
from unfolder.gallery import gallery_entries
from unfolder.verify import _Context, run_suite

SRC = Path(__file__).resolve().parents[1] / "src"
TORUS = next(e.complex for e in gallery_entries() if e.name == "torus-z3")


def _rows(results):
    return [(r.check_id, r.ok, r.detail) for r in results]


@pytest.fixture(scope="module")
def counted_run():
    """The rows of one unpatched `run_suite('all')` and how often it called
    each subdivision."""
    calls = {"antiprismatic": 0, "barycentric": 0}

    def counting(name):
        real = getattr(verify, name)

        def wrapper(x):
            calls[name] += 1
            return real(x)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(verify, name, counting(name))
        rows = _rows(run_suite("all"))
    return rows, calls


def test_each_gallery_subdivision_is_built_once(counted_run):
    _rows, calls = counted_run
    # 19 entries plus sub-02's two one-off targets; sub-05 subdivides inside
    # `subdivisions`, which these counts do not see
    assert calls == {"antiprismatic": 21, "barycentric": 19}


def test_the_props_suite_gives_the_props_rows_of_the_whole_suite(counted_run):
    rows, _calls = counted_run
    props = {check_id for check_id, suite, _fn in verify.CHECKS if suite == "props"}
    assert _rows(run_suite("props")) == [row for row in rows if row[0] in props]


@pytest.mark.parametrize(
    "name, failing",
    [
        ("antiprismatic", {"sub-02", "sub-03", "sub-04", "sub-06", "diag-05"}),
        ("barycentric", {"sub-01", "diag-05"}),
    ],
)
def test_a_failed_build_fails_every_check_that_reads_it(monkeypatch, counted_run, name, failing):
    plain, _calls = counted_run
    real = getattr(verify, name)

    def flaky(x):
        if x == TORUS:
            raise RuntimeError("injected")
        return real(x)

    monkeypatch.setattr(verify, name, flaky)
    rows = _rows(run_suite("all"))
    assert len(rows) == len(plain) == 34
    for got, want in zip(rows, plain):
        if "-".join(got[0].split("-")[:2]) in failing:
            assert got == (want[0], False, "RuntimeError: injected")
        else:
            assert got == want


def _tracked(monkeypatch, refs):
    """Wrap both subdivisions so that each result is weakly referenced."""
    for name in ("antiprismatic", "barycentric"):
        real = getattr(verify, name)

        def tracking(x, real=real):
            rec = real(x)
            refs.append(weakref.ref(rec.result))
            return rec

        monkeypatch.setattr(verify, name, tracking)


@pytest.mark.parametrize("entry", ["torus-z3", "knot-nbhd:3:klein"])
def test_the_facts_do_not_keep_the_subdivision(monkeypatch, entry):
    # on the knot entries `hom` raises, since their source is not simplicial
    refs: list = []
    _tracked(monkeypatch, refs)
    ctx = _Context()
    e = next(e for e in ctx.entries if e.name == entry)
    anti, bary = ctx.anti(e), ctx.bary(e)
    gc.collect()
    assert len(refs) == 2
    assert all(ref() is None for ref in refs)
    assert anti["euler"] == bary["euler"]


def test_a_fact_that_raised_does_not_keep_the_subdivision(monkeypatch):
    refs: list = []
    _tracked(monkeypatch, refs)

    def refuse(x):
        # this frame holds the subdivision, so a kept traceback would too
        raise Mismatch(f"injected on {x.facet_count} facets")

    monkeypatch.setattr(verify, "balanced_coloring", refuse)
    ctx = _Context()
    e = next(e for e in ctx.entries if e.name == "torus-z3")
    anti = ctx.anti(e)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    with pytest.raises(Mismatch, match="injected on"):
        anti["balanced"]
    assert anti["simplicial"] == (True, None)


def test_the_package_imports_verify_only_when_asked():
    program = (
        "import sys, unfolder\n"
        "print('unfolder.verify' in sys.modules)\n"
        "from unfolder import CheckResult, run_suite\n"
        "print(run_suite is sys.modules['unfolder.verify'].run_suite)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["False", "True"]


def test_the_verify_table_is_the_recorded_one(counted_run, capsys):
    # the benchmark's record of `unfolder verify --suite all`, read only;
    # gen-02 is recorded as the known FAIL, so the record says exit 1
    record = json.loads((SRC.parent / "perfbench" / "expected.json").read_text())
    want = record["jobs"]["verify:all"]
    rows, _calls = counted_run
    assert [[cid, "PASS" if ok else "FAIL", detail] for cid, ok, detail in rows] == want["rows"]
    assert cli.main(["verify", "--suite", "all"]) == want["exit"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(None, 2) for line in lines[:-1]] == want["rows"]
    assert lines[-1] == want["summary"]
