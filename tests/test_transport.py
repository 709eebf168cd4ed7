"""Orientability and balancedness are read off the projectivity search.

The reference functions below are the propagation versions of `orientable`
and `balanced_coloring`: each walks the dual graph on its own, one with a
sign per gluing from the ridge data, the other with a coloring per facet
and a final scan of every gluing.  The library must give the same result,
exception type and message.  This keeps check `diag-01`'s "balanced <=>
trivial group" tied to a computation that does not use the group.
"""

import pytest
from hypothesis import given, settings
from test_emit import pseudo_complexes
from test_incidence import CASES, dual_components
from test_odd_subcomplex import fresh, outcome

from unfolder import cli, complexes, diagnostics, projectivities, unfoldings
from unfolder.complexes import (
    Gluing,
    PseudoComplex,
    as_pseudo,
    dual_graph,
    perspectivity,
)
from unfolder.diagnostics import balanced_coloring, orientable
from unfolder.errors import NotStronglyConnected
from unfolder.gallery import boundary_simplex, gallery_entries, knot_neighborhood
from unfolder.io import emit
from unfolder.permutations import (
    PermutationGroup,
    perm_compose,
    perm_identity,
    perm_inverse,
    perm_sign,
)
from unfolder.projectivities import projectivity_group
from unfolder.unfoldings import complete_unfolding, partial_unfolding


def _crossing_sign(x, gid):
    g = x.gluings[gid]
    order = tuple(g.ridge_b.index(m) for m in g.mapping)
    # the opposite labels are d(d+1)/2 minus the ridge sums, and d(d+1) is even
    return -perm_sign(order) * (-1) ** (sum(g.ridge_a) + sum(g.ridge_b))


def reference_orientable(x):
    """Propagate facet orientations; True when all loops close with sign +1."""
    n = x.facet_count
    adj = dual_graph(x).adjacency()
    sign = [0] * n
    for start in range(n):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            f = stack.pop()
            for gid, w in adj[f]:
                s = sign[f] * _crossing_sign(x, gid)
                if sign[w] == 0:
                    sign[w] = s
                    stack.append(w)
                elif sign[w] != s:
                    return False
    return True


def reference_balanced_coloring(x, base=0):
    """Colors spread over a spanning tree, then every gluing is checked."""
    n = x.facet_count
    adj = dual_graph(x).adjacency()
    coloring = [None] * n
    coloring[base] = perm_identity(x.dim + 1)
    queue = [base]
    head = 0
    while head < len(queue):
        f = queue[head]
        head += 1
        for gid, w in adj[f]:
            if coloring[w] is None:
                step = perspectivity(x, f, gid)
                coloring[w] = perm_compose(perm_inverse(step), coloring[f])
                queue.append(w)
    if len(queue) < n:
        missing = sorted(f for f in range(n) if coloring[f] is None)
        raise NotStronglyConnected(f"facets {missing} are not reachable from {base}")
    for g in x.gluings:
        ca, cb = coloring[g.facet_a], coloring[g.facet_b]
        if any(ca[v] != cb[g.mapping[i]] for i, v in enumerate(g.ridge_a)):
            return None
    classes = x.classes()
    out = {}
    for cid in classes.classes_of_card(1):
        seen = {coloring[f][l] for f, (l,) in classes.members_of(cid)}
        if len(seen) > 1:
            return None
        out[cid] = seen.pop()
    return out


def assert_agrees(x):
    """Result, exception type and message equal the references', on fresh
    instances and with both calls on one instance."""
    want_o = outcome(reference_orientable, x)
    want_b = outcome(reference_balanced_coloring, x)
    assert outcome(orientable, fresh(x)) == want_o
    assert outcome(balanced_coloring, fresh(x)) == want_b
    # both orders on one instance, so a kept search answers the second
    y = fresh(x)
    assert (outcome(balanced_coloring, y), outcome(orientable, y)) == (want_b, want_o)


def negatives(x):
    return not reference_orientable(x), len(dual_components(x)) > 1


def _cases():
    cases = list(CASES)
    for e in gallery_entries():
        cases.append((f"complete({e.name})", complete_unfolding(e.complex).total))
        cases.append((f"partial({e.name})", partial_unfolding(e.complex).total))
    for n in range(2, 7):
        for variant in ("orientable", "klein"):
            cases.append((f"knot-nbhd:{n}:{variant}", knot_neighborhood(n, variant).complex))
    return cases


TRANSPORT_CASES = _cases()


@pytest.mark.parametrize("name, x", TRANSPORT_CASES, ids=[n for n, _x in TRANSPORT_CASES])
def test_orientable_and_balanced_match_the_propagation_reference(name, x):
    assert_agrees(x)


def test_random_pseudo_complexes_match_the_propagation_reference():
    tally = [negatives(x) for _name, x in TRANSPORT_CASES]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pseudo_complexes())
    def check(P):
        assert_agrees(P)
        tally.append(negatives(P))

    check()
    # the corpus, fixed cases and random ones, must exercise both negatives
    assert sum(n for n, _d in tally) >= 10
    assert sum(d for _n, d in tally) >= 10


def _count_crossings(monkeypatch):
    """Record every read of a gluing's steps, the one seam a crossing passes:
    `perspectivity` reads `_steps` too, so it is counted through it."""
    calls = []
    real = complexes._steps

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, complexes, diagnostics, projectivities, unfoldings):
        if hasattr(module, "_steps"):
            monkeypatch.setattr(module, "_steps", counted)
    return calls


def two_copies(P):
    n = P.facet_count
    shifted = tuple(
        Gluing(g.facet_a + n, g.ridge_a, g.facet_b + n, g.ridge_b, g.mapping) for g in P.gluings
    )
    return PseudoComplex(P.dim, 2 * n, P.gluings + shifted)


@pytest.mark.parametrize("kind", ["abstract", "pseudo", "disconnected"])
def test_analyze_crosses_each_gluing_once(kind, monkeypatch, capsys, tmp_path):
    x = boundary_simplex(3)
    if kind != "abstract":
        x = as_pseudo(x)
    if kind == "disconnected":
        x = two_copies(x)
    doc = tmp_path / "x.json"
    doc.write_text(emit(x))
    calls = _count_crossings(monkeypatch)
    assert cli.main(["analyze", str(doc)]) == 0
    out = capsys.readouterr().out
    assert "orientable: yes" in out
    assert ("balanced: n/a" if kind == "disconnected" else "balanced: no") in out
    assert len(calls) == len(x.gluings)


def test_the_search_is_kept_per_base():
    x = boundary_simplex(3)
    for base in (0, 2):
        assert projectivity_group(x, base) is projectivity_group(x, base)
    assert projectivity_group(x, 0) is not projectivity_group(x, 2)


def test_a_kept_search_refuses_a_disconnected_complex_on_every_call():
    x = PseudoComplex(1, 4, (Gluing(0, (0,), 2, (1,), (1,)),))
    message = r"^facets \[1, 3\] are not reachable from 0$"
    kept = []
    for _ in range(3):
        with pytest.raises(NotStronglyConnected, match=message):
            projectivity_group(x)
        kept.append(x.__dict__["_memo_projectivity_group"][0])
    # one search forest, kept and read again by each refusing call
    assert kept[0].reached == (0, 2, 1, 3)
    assert kept[0].roots == (0, 1, 0, 3)
    assert kept[1] is kept[0] and kept[2] is kept[0]


def test_no_group_is_closed_where_none_is_read(monkeypatch, capsys, tmp_path):
    """The search closes its group on first read only: `analyze` on a
    disconnected complex and a partial unfolding read none."""

    def refuse(*args):
        raise AssertionError("a group was closed")

    monkeypatch.setattr(PermutationGroup, "generated", staticmethod(refuse))
    doc = tmp_path / "x.json"
    doc.write_text(emit(two_copies(as_pseudo(boundary_simplex(3)))))
    assert cli.main(["analyze", str(doc)]) == 0
    assert "Pi order: n/a (dual graph disconnected)" in capsys.readouterr().out
    u = partial_unfolding(boundary_simplex(8))
    assert len(u.component_partition) == 1
    with pytest.raises(AssertionError, match="a group was closed"):
        projectivity_group(boundary_simplex(3)).group
