"""Executable check registry behind `unfolder verify`.

Each check carries a stable id of the form `<module>-<nn>-<slug>`; the
numbered part walks the documented invariant list of that module, so the
table printed by the CLI is traceable line by line.  The `props` suite runs
the invariant laws, the `paper` suite re-derives the frozen records of the
example gallery, and `all` runs both.  Checks either return a short detail
string or raise; the runner turns raises into FAIL rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import (
    AbstractComplex,
    FacetPath,
    Gluing,
    PseudoComplex,
    as_pseudo,
    dual_graph,
    is_simplicial,
    link,
)
from .diagnostics import (
    balanced_coloring,
    euler_characteristic,
    is_locally_strongly_connected,
    is_nice,
    is_pseudo_manifold,
    is_strongly_connected,
    mod2_boundary_check,
    odd_subcomplex,
    orientable,
)
from .errors import (
    NotLocallyStronglyConnected,
    SelfIdentification,
    UnfolderError,
)
from .gallery import (
    boundary_simplex,
    doubled_triangle_sphere,
    gallery_entries,
    knot_neighborhood,
    pinched_strip,
    starred_triangle,
    surface_family,
    surface_sphere,
)
from .io import emit, parse
from .permutations import (
    perm_compose,
    perm_cycle_string,
    perm_identity,
    perm_inverse,
    perm_is_transposition,
)
from .projectivities import (
    induced_homomorphism_check,
    loop_projectivity,
    odd_generated_subgroup,
    path_projectivity,
    projectivity_group,
    star_group,
)
from .subdivisions import (
    antiprismatic,
    barycentric,
    crumpling_group_pair,
    crumpling_map,
    unfold_commutes_with_antiprismatic,
)
from .unfoldings import (
    complete_unfolding,
    components,
    fibers_over,
    partial_unfolding,
    projects_isomorphically,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    detail: str


class _Facts:
    """What the checks read of one subdivision, worked out once.

    `build()` makes the subdivision record; each named fact is then worked
    out from it in the given order, each in its own `try`.  A fact that
    raises is stored as its exception, and reading it re-raises that, so a
    check fails with the text it would have failed with on a fresh build; a
    build that raises stands for every fact.  Exceptions are kept without
    traceback or chained exceptions: their frames would keep the subdivision
    alive.  The subdivision record itself is dropped once the facts are in.
    """

    def __init__(self, build, **facts) -> None:
        self._values: dict[str, object] = {}
        try:
            rec = build()
        except Exception as err:  # noqa: BLE001 - re-raised by every read
            self._values = dict.fromkeys(facts, _bare(err))
            return
        for name, fact in facts.items():
            try:
                self._values[name] = fact(rec)
            except Exception as err:  # noqa: BLE001 - re-raised by the read
                self._values[name] = _bare(err)

    def __getitem__(self, name: str):
        value = self._values[name]
        if isinstance(value, Exception):
            raise value
        return value


def _bare(err: Exception) -> Exception:
    """`err` without the traceback and chained exceptions that hold frames."""
    err.__context__ = err.__cause__ = None
    return err.with_traceback(None)


def _simplicial(rec) -> tuple[bool, tuple[int, int] | None]:
    return is_simplicial(as_pseudo(rec.result))


def _crumpling_agreement(rec) -> tuple[bool, bool, bool]:
    """Whether the crumpling group pair agrees in order, orbits and elements."""
    lifted, ground = crumpling_group_pair(rec)
    return (
        lifted.order == ground.order,
        lifted.orbits() == ground.orbits(),
        set(lifted.elements) == set(ground.elements),
    )


def _unfolds(rec) -> tuple[bool, bool] | None:
    """Whether the complete unfolding of a barycentric subdivision keeps its
    facet count and projects isomorphically; None for a source that is not
    locally strongly connected or a subdivision above 1500 facets."""
    b = rec.result
    if not (is_locally_strongly_connected(rec.source)[0] and b.facet_count <= 1500):
        return None
    u = complete_unfolding(b)
    same = u.total.facet_count == b.facet_count
    return same, same and projects_isomorphically(u.total, b)


class _Context:
    """Gallery entries with memoized unfoldings and subdivision facts.

    `anti(e)` and `bary(e)` build an entry's anti-prismatic and barycentric
    subdivision on first use, keep the facts that the checks read, and drop
    the subdivision: kept whole, the subdivisions of the four knot-nbhd
    entries (2250-3375 facets each) with their face classes, gluings and
    searches raised the suite's peak resident memory from 33 to 90 MB.  The anti-prismatic facts
    are `simplicial`, the `(ok, witness)` of `is_simplicial` on its ridge-glued
    embedding (worked out first, so that transient closure does not sit on
    top of the subdivision's own face classes); `hom` and `order`, the
    crumpling homomorphism check and the group order; `crumpling`, the
    crumpling group pair's agreement in order, orbits and elements;
    `balanced`; and `euler`.  The barycentric facts are `balanced`;
    `unfolds`, for a locally strongly connected entry with a subdivision of
    at most 1500 facets, whether the complete unfolding keeps the facet
    count and projects isomorphically (else None); and `euler`.
    """

    def __init__(self) -> None:
        self.entries = gallery_entries()
        self._uc: dict[str, object] = {}
        self._up: dict[str, object] = {}
        self._anti: dict[str, _Facts] = {}
        self._bary: dict[str, _Facts] = {}
        self._lsc: list | None = None

    def uc(self, e):
        if e.name not in self._uc:
            self._uc[e.name] = complete_unfolding(e.complex)
        return self._uc[e.name]

    def up(self, e):
        if e.name not in self._up:
            self._up[e.name] = partial_unfolding(e.complex)
        return self._up[e.name]

    def anti(self, e) -> _Facts:
        if e.name not in self._anti:
            self._anti[e.name] = _Facts(
                lambda: antiprismatic(e.complex),
                simplicial=_simplicial,
                hom=lambda rec: induced_homomorphism_check(
                    rec.result, rec.source, crumpling_map(rec)
                ),
                order=lambda rec: projectivity_group(rec.result).group.order,
                crumpling=_crumpling_agreement,
                balanced=lambda rec: balanced_coloring(rec.result) is not None,
                euler=lambda rec: euler_characteristic(rec.result),
            )
        return self._anti[e.name]

    def bary(self, e) -> _Facts:
        if e.name not in self._bary:
            self._bary[e.name] = _Facts(
                lambda: barycentric(e.complex),
                balanced=lambda rec: balanced_coloring(rec.result) is not None,
                unfolds=_unfolds,
                euler=lambda rec: euler_characteristic(rec.result),
            )
        return self._bary[e.name]

    def lsc_entries(self):
        if self._lsc is None:
            self._lsc = [
                e for e in self.entries if is_locally_strongly_connected(e.complex)[0]
            ]
        return self._lsc

    def abstract_entries(self):
        return [e for e in self.entries if isinstance(e.complex, AbstractComplex)]


def _require(ok: bool, message: str = "") -> None:
    """The checks' assert: raises AssertionError(message), also under -O."""
    if not ok:
        raise AssertionError(message)


def _ident(d: int):
    return perm_identity(d + 1)


# ---------------------------------------------------------------- complex-core


def check_core_01(ctx: _Context) -> str:
    n = split = 0
    for e in ctx.abstract_entries():
        K = e.complex
        by_dim = as_pseudo(K).classes().counts_by_dim()
        got = tuple(by_dim.get(k, 0) for k in range(K.dim + 1))
        want = K.face_count_vector()
        if is_locally_strongly_connected(K)[0]:
            _require(got == want, f"{e.name}: {got} != {want}")
            n += 1
        else:
            _require(got != want, f"{e.name}: no face split despite a disconnected link")
            split += 1
    return f"face counts agree on {n} complexes, split on {split} with bad links"


def check_core_02(ctx: _Context) -> str:
    n = 0
    for e in ctx.abstract_entries():
        if not is_locally_strongly_connected(e.complex)[0]:
            continue
        ok, witness = is_simplicial(as_pseudo(e.complex))
        _require(ok, f"{e.name}: {witness}")
        n += 1
    bad = next(e.complex for e in ctx.entries if e.name == "nonsimplicial")
    ok, witness = is_simplicial(as_pseudo(bad))
    _require(not ok, "the doubled example became simplicial when embedded")
    return f"{n} ridge-glued embeddings simplicial, the doubled example is not"


def check_core_03(ctx: _Context) -> str:
    for e in ctx.entries:
        e.complex.classes()  # must not raise
    bad = PseudoComplex(
        2,
        2,
        (
            Gluing(0, (0, 1), 1, (0, 1), (0, 1)),
            Gluing(0, (1, 2), 1, (0, 1), (0, 1)),
        ),
    )
    try:
        bad.classes()
    except SelfIdentification:
        return f"{len(ctx.entries)} legal complexes pass, the violator is caught"
    raise AssertionError("a self-identifying gluing pair went unnoticed")


def check_core_04(ctx: _Context) -> str:
    m = 0
    for e in ctx.entries:
        for g in e.complex.gluings:
            _require(g.facet_a != g.facet_b, f"{e.name}: loop at facet {g.facet_a}")
            m += 1
    return f"{m} dual edges, none a loop"


def check_core_05(ctx: _Context) -> str:
    n = 0
    for e in ctx.abstract_entries():
        K = e.complex
        for k in range(K.dim):
            for face in K.faces(k):
                lk = link(K, face)
                _require(lk.dim == K.dim - len(face), f"{e.name}: link of {face}")
                n += 1
    return f"{n} links, all pure of the complementary dimension"


# ---------------------------------------------------------------- projectivity


def _sample_paths(x) -> list[FacetPath]:
    """A few deterministic dual walks: follow the lowest unused gluing."""
    gl = x.gluings
    dg = dual_graph(x)
    out = []
    for start in (0, x.facet_count - 1):
        steps = []
        cur = start
        used: set[int] = set()
        for _ in range(6):
            gid = next((gid for gid, _w in dg.incident(cur) if gid not in used), None)
            if gid is None:
                break
            used.add(gid)
            steps.append(gid)
            cur = gl[gid].other(cur)
        if steps:
            out.append(FacetPath(start, tuple(steps)))
    return out


def check_proj_01(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        for path in _sample_paths(e.complex):
            fwd = path_projectivity(e.complex, path)
            back = path_projectivity(e.complex, path.reversed(e.complex))
            _require(back == perm_inverse(fwd), f"{e.name}: reversal")
            n += 1
    return f"{n} walks invert cleanly"


def check_proj_02(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        for path in _sample_paths(e.complex):
            if path.length < 2:
                continue
            cut = path.length // 2
            first = FacetPath(path.start, path.steps[:cut])
            mid = first.facet_sequence(e.complex)[-1]
            second = FacetPath(mid, path.steps[cut:])
            whole = path_projectivity(e.complex, path)
            glued = perm_compose(
                path_projectivity(e.complex, first),
                path_projectivity(e.complex, second),
            )
            _require(glued == whole, f"{e.name}: concatenation")
            n += 1
    return f"{n} concatenations multiply"


def check_proj_03(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        x = e.complex
        last = x.facet_count - 1
        pg0 = projectivity_group(x)
        pg1 = projectivity_group(x, last)
        _require(pg0.group.order == pg1.group.order, f"{e.name}: orders differ")
        conj = pg0.group.conjugated(pg0.transport_to(last))
        _require(conj.elements == pg1.group.elements, f"{e.name}: transport conjugation")
        n += 1
    return f"{n} base changes conjugate by the tree transport"


def check_proj_04(ctx: _Context) -> str:
    simply_connected = {"boundary-simplex-3", "starred-triangle", "hexagon-cone", "surface:0"}
    n = 0
    for e in ctx.lsc_entries():
        sub = odd_generated_subgroup(e.complex)
        pg = projectivity_group(e.complex)
        # G is closed under products, so H <= G when every generator of H is in G
        _require(all(p in pg.group for p, _tag in sub.generators), f"{e.name}: not a subgroup")
        if e.name in simply_connected:
            _require(sub.order == pg.group.order, f"{e.name}: odd loops fail to generate")
        n += 1
    for maker in (pinched_strip,):
        try:
            odd_generated_subgroup(maker())
        except NotLocallyStronglyConnected:
            pass
        else:
            raise AssertionError("a disconnected star went unnoticed")
    return f"{n} subgroups contained, equality on the simply connected ones"


def check_proj_05(ctx: _Context) -> str:
    n = 0
    for e in ctx.lsc_entries():
        sub = odd_generated_subgroup(e.complex)
        ident = _ident(e.complex.dim)
        for p, _tag in sub.generators:
            _require(p == ident or perm_is_transposition(p), f"{e.name}: {p}")
            n += 1
    return f"{n} odd generators, each a transposition or the identity"


def check_proj_06(ctx: _Context) -> str:
    for e in ctx.entries:
        u = ctx.uc(e)
        _require(projectivity_group(u.total).group.is_trivial, e.name)
    return f"{len(ctx.entries)} complete unfoldings have trivial groups"


# ------------------------------------------------------------------- unfolding


def check_unf_01(ctx: _Context) -> str:
    for e in ctx.entries:
        x = e.complex
        n = x.facet_count
        uc, up = ctx.uc(e), ctx.up(e)
        _require(uc.total.facet_count == projectivity_group(x).group.order * n, e.name)
        _require(up.total.facet_count == (x.dim + 1) * n, e.name)
    return f"facet-count laws hold on {len(ctx.entries)} complexes"


def check_unf_02(ctx: _Context) -> str:
    return check_proj_06(ctx)


def check_unf_03(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        if is_pseudo_manifold(e.complex) != "closed":
            continue
        _require(is_pseudo_manifold(ctx.uc(e).total) == "closed", e.name)
        for comp in components(ctx.up(e)):
            _require(is_pseudo_manifold(comp.complex) == "closed", e.name)
        n += 1
    return f"{n} closed pseudo-manifolds stay closed when unfolded"


def check_unf_04(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        if not orientable(e.complex):
            continue
        _require(orientable(ctx.uc(e).total), e.name)
        _require(orientable(ctx.up(e).total), e.name)
        n += 1
    return f"{n} orientable complexes stay orientable when unfolded"


def check_unf_05(ctx: _Context) -> str:
    for e in ctx.entries:
        _require(is_strongly_connected(ctx.uc(e).total), e.name)
        for comp in components(ctx.up(e)):
            _require(is_strongly_connected(comp.complex), e.name)
    return f"{len(ctx.entries)} unfoldings are strongly connected"


def check_unf_06(ctx: _Context) -> str:
    from .diagnostics import isomorphic

    n = skipped = 0
    for e in ctx.entries:
        if ctx.uc(e).total.facet_count > 60:
            skipped += 1
            continue
        last = e.complex.facet_count - 1
        other = complete_unfolding(e.complex, base=last)
        _require(isomorphic(ctx.uc(e).total, other.total) is not None, e.name)
        n += 1
    return f"{n} base changes give isomorphic unfoldings ({skipped} large ones skipped)"


def check_unf_07(ctx: _Context) -> str:
    n = 0
    for e in ctx.lsc_entries():
        x = e.complex
        pg = projectivity_group(x)
        fibers = fibers_over(ctx.uc(e))
        classes = x.classes()
        for cid in range(classes.count):
            to_base = perm_inverse(pg.transport_to(classes.first_ref(cid)[0]))
            emb = star_group(x, cid).conjugated(to_base)
            _require(all(p in pg.group for p, _tag in emb.generators), f"{e.name}: class {cid}")
            index, rest = divmod(pg.group.order, emb.order)
            _require(rest == 0)
            _require(
                len(fibers[cid]) == index,
                f"{e.name}: class {cid} has {len(fibers[cid])} fibers, index says {index}",
            )
            n += 1
    return f"{n} face classes match the coset count of their star group"


# ----------------------------------------------------------------- subdivision


def check_sub_01(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        b = ctx.bary(e)
        _require(b["balanced"], f"{e.name}: not balanced")
        if b["unfolds"] is not None:
            same_count, isomorphic = b["unfolds"]
            _require(same_count, e.name)
            _require(isomorphic, e.name)
        n += 1
    return f"{n} barycentric subdivisions balanced; unfolding fixes the l.s.c. ones"


def check_sub_02(ctx: _Context) -> str:
    targets = [(e.name, ctx.anti(e)) for e in ctx.entries if e.complex.facet_count <= 50]
    for name, x in (
        ("doubled-triangle", doubled_triangle_sphere()),
        ("boundary-simplex-4", boundary_simplex(4)),
    ):
        targets.append((name, _Facts(lambda: antiprismatic(x), simplicial=_simplicial)))
    for name, facts in targets:
        ok, witness = facts["simplicial"]
        _require(ok, f"{name}: {witness}")
    return f"{len(targets)} anti-prismatic subdivisions are simplicial"


def check_sub_03(ctx: _Context) -> str:
    names = {"boundary-simplex-2", "boundary-simplex-3", "starred-triangle", "hexagon-cone", "torus-z3", "surface:0"}
    n = 0
    for e in ctx.entries:
        if e.name not in names:
            continue
        a = ctx.anti(e)
        _require(a["hom"], e.name)
        _require(
            a["order"] == projectivity_group(e.complex).group.order,
            f"{e.name}: image misses part of the group",
        )
        n += 1
    return f"{n} crumpling maps induce bijective homomorphisms"


def check_sub_04(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        if e.complex.facet_count > 50:
            continue
        orders, orbits, elements = ctx.anti(e)["crumpling"]
        _require(orders, e.name)
        _require(orbits, e.name)
        _require(elements, e.name)
        n += 1
    return f"{n} crumpling group pairs agree in order and orbits"


def check_sub_05(ctx: _Context) -> str:
    n = 0
    for maker in (starred_triangle, lambda: boundary_simplex(3)):
        for mode in ("complete", "partial"):
            witness = unfold_commutes_with_antiprismatic(maker(), mode=mode)
            _require(witness is not None)
            n += 1
    return f"{n} unfold/subdivide squares commute with witnesses"


def check_sub_06(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        if e.complex.facet_count > 50:
            continue
        before = balanced_coloring(e.complex) is not None
        after = ctx.anti(e)["balanced"]
        _require(before == after, f"{e.name}: balancedness changed")
        n += 1
    return f"balancedness preserved both ways on {n} complexes"


# ----------------------------------------------------------------- diagnostics


def check_diag_01(ctx: _Context) -> str:
    n = 0
    for e in ctx.lsc_entries():
        x = e.complex
        flags = (
            projectivity_group(x).group.is_trivial,
            balanced_coloring(x) is not None,
            projects_isomorphically(ctx.uc(e).total, x),
            all(projects_isomorphically(c.complex, x) for c in components(ctx.up(e))),
        )
        _require(len(set(flags)) == 1, f"{e.name}: {flags}")
        n += 1
    return f"four equivalent conditions agree on {n} complexes"


def check_diag_02(ctx: _Context) -> str:
    n = 0
    for e in ctx.lsc_entries():
        x = e.complex
        if not is_nice(x):
            continue
        classes = x.classes()
        odd = set(odd_subcomplex(x).odd_faces)
        closure = set(odd)
        for cid in odd:
            for f, sub in classes.members_of(cid):
                for k in range(1, len(sub)):
                    for small in combinations(sub, k):
                        closure.add(classes.class_of((f, small)))
        for cid in range(classes.count):
            nontrivial = not star_group(x, cid).is_trivial
            _require((cid in closure) == nontrivial, f"{e.name}: class {cid}")
            n += 1
    return f"{n} star groups agree with odd-subcomplex membership"


def check_diag_03(ctx: _Context) -> str:
    x = pinched_strip()
    _require(projectivity_group(x).group.is_trivial)
    _require(balanced_coloring(x) is None)
    _require(not projects_isomorphically(complete_unfolding(x).total, x))
    return "trivial group, no balanced coloring, unfolding still moves"


def check_diag_04(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        x = e.complex
        if x.dim < 2 or is_pseudo_manifold(x) != "closed":
            continue
        if not isinstance(x, AbstractComplex):
            continue
        odd = odd_subcomplex(x)
        faces = () if odd.as_complex is None else odd.as_complex
        ok, _chain = mod2_boundary_check(x, faces)
        _require(ok, f"{e.name}: odd subcomplex is not a mod-2 boundary")
        n += 1
    return f"{n} closed complexes, each odd subcomplex bounds mod 2"


def check_diag_05(ctx: _Context) -> str:
    A = starred_triangle()
    B = boundary_simplex(3)
    offset = max(A.vertices()) + 1
    both = AbstractComplex.from_facets(
        list(A.facets) + [tuple(v + offset for v in f) for f in B.facets]
    )
    chi_a, chi_b = euler_characteristic(A), euler_characteristic(B)
    _require(euler_characteristic(both) == chi_a + chi_b)
    n = 0
    for e in ctx.entries:
        if e.complex.facet_count > 50:
            continue
        chi = euler_characteristic(e.complex)
        _require(ctx.bary(e)["euler"] == chi, e.name)
        _require(ctx.anti(e)["euler"] == chi, e.name)
        n += 1
    return f"additive on disjoint unions, preserved by both subdivisions ({n} complexes)"


# ------------------------------------------------------------------ generators


def check_gen_01(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        x, want = e.complex, e.expected
        if want.group_order is not None:
            order = projectivity_group(x).group.order
            _require(order == want.group_order, f"{e.name}: group order")
        if want.odd_face_count is not None:
            got = len(odd_subcomplex(x).odd_faces)
            _require(got == want.odd_face_count, f"{e.name}: odd faces {got}")
        if want.unfolding_facet_count is not None:
            got = ctx.uc(e).total.facet_count
            _require(got == want.unfolding_facet_count, f"{e.name}: unfolding size {got}")
        if want.unfolding_euler is not None:
            got = euler_characteristic(ctx.uc(e).total)
            _require(got == want.unfolding_euler, f"{e.name}: unfolding euler {got}")
        if want.component_count is not None:
            got = len(components(ctx.up(e)))
            _require(got == want.component_count, f"{e.name}: components {got}")
        n += 1
    return f"{n} gallery records re-derived exactly"


# Claims the old n-keyed parity (a known FAIL); see KnotNeighborhood for the corrected claim.
def check_gen_02(ctx: _Context) -> str:
    ident = _ident(3)
    double = (1, 0, 3, 2)  # the two boundary pairs swapped at once
    singles = {(1, 0, 2, 3), (0, 1, 3, 2)}
    pairs = [(n, v) for n in range(2, 7) for v in ("orientable", "klein")]
    for n, variant in pairs:
        kn = knot_neighborhood(n, variant)
        classes = kn.complex.classes()
        odd = odd_subcomplex(kn.complex).odd_faces
        got = sorted(
            tuple(sorted(kn.abstract.facets[f][l] for l in sub))
            for f, sub in map(classes.first_ref, odd)
        )
        _require(
            got == sorted(kn.core_edges), f"{variant} n={n}: odd faces are not the core"
        )
    for n, variant in pairs:
        kn = knot_neighborhood(n, variant)
        lp = loop_projectivity(kn.complex, kn.longitudinal_loop)
        allowed = (ident, double) if n % 2 == 0 else singles
        _require(
            lp in allowed,
            f"{variant} n={n}: longitude is {perm_cycle_string(lp)}, "
            f"outside the claimed parity set",
        )
    return "core cycle and longitude parity verified for n in 2..6, both variants"


def check_gen_03(ctx: _Context) -> str:
    for g in range(4):
        if g >= 1:
            _require(surface_sphere(g).facet_count == 2 * (g + 1), f"sphere g={g}")
        P = surface_family(g)
        _require(P.facet_count == 6 * (g + 1), f"family g={g}")
        u = complete_unfolding(P)
        _require(u.total.facet_count == 12 * (g + 1), f"unfolding g={g}")
    return "sphere, family and unfolding sizes match for g in 0..3"


# ------------------------------------------------------------------------- cli


def check_cli_01(ctx: _Context) -> str:
    n = 0
    for e in ctx.entries:
        text = emit(e.complex)
        _require(emit(e.complex) == text, f"{e.name}: emit is unstable")
        back = parse(text)
        _require(back == e.complex, f"{e.name}: round trip changed the complex")
        _require(emit(back) == text, f"{e.name}: second emit differs")
        n += 1
    return f"{n} documents round-trip byte for byte"


def check_cli_02(ctx: _Context) -> str:
    bullets = {"core": 5, "proj": 6, "unf": 7, "sub": 6, "diag": 5, "gen": 3, "cli": 2}
    seen: dict[str, set[int]] = {m: set() for m in bullets}
    for check_id, _suite, _fn in CHECKS:
        module, num, _slug = check_id.split("-", 2)
        seen[module].add(int(num))
    for module, count in bullets.items():
        _require(
            seen[module] == set(range(1, count + 1)), f"{module}: {sorted(seen[module])}"
        )
    return f"{len(CHECKS)} checks cover all {sum(bullets.values())} documented invariants"


CHECKS: tuple[tuple[str, str, object], ...] = (
    ("core-01-face-count-roundtrip", "props", check_core_01),
    ("core-02-embedding-simplicial", "props", check_core_02),
    ("core-03-self-identification", "props", check_core_03),
    ("core-04-dual-graph-loopless", "props", check_core_04),
    ("core-05-link-purity", "props", check_core_05),
    ("proj-01-walk-inverse", "props", check_proj_01),
    ("proj-02-walk-concatenation", "props", check_proj_02),
    ("proj-03-base-conjugacy", "props", check_proj_03),
    ("proj-04-odd-subgroup", "props", check_proj_04),
    ("proj-05-odd-generator-shape", "props", check_proj_05),
    ("proj-06-unfolded-group-trivial", "props", check_proj_06),
    ("unf-01-facet-count-laws", "props", check_unf_01),
    ("unf-02-unfolded-group-trivial", "props", check_unf_02),
    ("unf-03-pseudo-manifold-kept", "props", check_unf_03),
    ("unf-04-orientability-kept", "props", check_unf_04),
    ("unf-05-connectivity", "props", check_unf_05),
    ("unf-06-base-independence", "props", check_unf_06),
    ("unf-07-star-coset-count", "props", check_unf_07),
    ("sub-01-barycentric-balanced", "props", check_sub_01),
    ("sub-02-antiprismatic-simplicial", "props", check_sub_02),
    ("sub-03-crumpling-injective", "props", check_sub_03),
    ("sub-04-crumpling-group-match", "props", check_sub_04),
    ("sub-05-unfold-commutes", "props", check_sub_05),
    ("sub-06-balanced-both-ways", "props", check_sub_06),
    ("diag-01-four-equivalences", "props", check_diag_01),
    ("diag-02-odd-star-agreement", "props", check_diag_02),
    ("diag-03-pinched-regression", "paper", check_diag_03),
    ("diag-04-odd-bounds-mod2", "props", check_diag_04),
    ("diag-05-euler-behaviour", "props", check_diag_05),
    ("gen-01-gallery-records", "paper", check_gen_01),
    ("gen-02-knot-core-parity", "props", check_gen_02),
    ("gen-03-surface-counts", "paper", check_gen_03),
    ("cli-01-round-trip", "props", check_cli_01),
    ("cli-02-coverage", "props", check_cli_02),
)


def run_suite(suite: str = "all") -> list[CheckResult]:
    """Run the selected checks in id order and collect results."""
    if suite not in ("all", "props", "paper"):
        raise UnfolderError(f"unknown suite {suite!r}")
    ctx = _Context()
    results = []
    for check_id, tag, fn in CHECKS:
        if suite != "all" and tag != suite:
            continue
        try:
            detail = fn(ctx)
            results.append(CheckResult(check_id, True, detail))
        except Exception as e:  # noqa: BLE001 - every failure becomes a row
            text = f"{type(e).__name__}: {e}"
            if len(text) > 140:
                text = text[:137] + "..."
            results.append(CheckResult(check_id, False, text))
    return results
