"""Verification harness: statistic distributions, gamma censuses, and the
identity suite tying the whole library together.

Every check compares exact polynomials or exact counts; there is no
tolerance anywhere.  Failures come back as reports carrying a replayable
witness in canonical text form, never as exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bimap, gfs, pipeline
from .forest import (
    Forest,
    enumerate_forests,
    enumerate_trees,
    forest_profile,
    forest_stats,
    in_bar,
    node_classes,
    serialize_forest,
    serialize_tree,
    validate_forest,
)
from .gfs import MarkedForest
from .polyx import (
    GammaExpansion,
    IntPolynomial,
    egf_one_over_k_eulerian,
    gamma_compose,
    symmetric_decompose,
)
from .stirling import (
    DEFAULT_MAX_OBJECTS,
    Word,
    count_k_stirling,
    descent_polynomial,
    enumerate_k_stirling,
    exc_cyc_polynomial,
    stat_ap,
    stat_lap,
    word_class,
    word_to_text,
)

FAMILIES = ("Q", "Qbar", "Qhat", "Qtilde", "F", "Fbar", "Fhat", "T")
STATISTICS = ("ap", "lap", "lleaf", "lleaf-si")
SUITES = ("polynomials", "bijections", "gfs", "pipeline", "theorems")

# Exhaustive-suite ranges: censuses run to 7 for k <= 2 and 6 for k = 3
# (about 2 * 10^6 objects); the action and pipeline suites, which touch each
# object many times, stop at 5.
_SUITE_N_CAP = {
    "polynomials": lambda k: 7 if k <= 2 else 6,
    "bijections": lambda k: 6,
    "gfs": lambda k: 5,
    "pipeline": lambda k: 5,
    "theorems": lambda k: 7 if k <= 2 else 6,
}

_WORD_CACHE: dict[tuple[int, int], list[Word]] = {}


def _words(n: int, k: int, max_objects: int) -> list[Word]:
    key = (n, k)
    if key not in _WORD_CACHE:
        _WORD_CACHE[key] = list(enumerate_k_stirling(n, k, max_objects))
    return _WORD_CACHE[key]


@dataclass
class IdentityReport:
    identity: str
    n: int
    k: int
    left: object
    right: object
    passed: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "n": self.n,
            "k": self.k,
            "pass": self.passed,
            "left": _jsonable(self.left),
            "right": _jsonable(self.right),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _jsonable(value):
    if isinstance(value, IntPolynomial):
        return list(value.coeffs)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def distribution(
    family: str, statistic: str, n: int, k: int, max_objects: int = DEFAULT_MAX_OBJECTS
) -> IntPolynomial:
    """Exact generating polynomial of a statistic over an enumerable family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    coeffs: list[int] = []

    def bump(value: int) -> None:
        while len(coeffs) <= value:
            coeffs.append(0)
        coeffs[value] += 1

    if family in ("Q", "Qbar", "Qhat", "Qtilde"):
        if statistic not in ("ap", "lap"):
            raise ValueError(f"statistic {statistic!r} undefined on words")
        stat = stat_ap if statistic == "ap" else stat_lap
        for w in _words(n, k, max_objects):
            cls = word_class(w, k)
            if family == "Qbar" and not cls["in_bar"]:
                continue
            if family == "Qhat" and cls["in_bar"]:
                continue
            if family == "Qtilde" and not cls["in_tilde"]:
                continue
            bump(stat(w, k))
    elif family == "T":
        if statistic != "lleaf":
            raise ValueError(f"statistic {statistic!r} undefined on trees")
        for t in enumerate_trees(range(1, n + 1), k, max_objects):
            bump(forest_stats(Forest(k, (t,))).lleaf)
    else:
        if statistic not in ("lleaf", "lleaf-si"):
            raise ValueError(f"statistic {statistic!r} undefined on forests")
        for f in enumerate_forests(range(1, n + 1), k, max_objects):
            if family == "Fbar" and not in_bar(f):
                continue
            if family == "Fhat" and in_bar(f):
                continue
            st = forest_stats(f)
            bump(st.lleaf if statistic == "lleaf" else st.lleaf - st.si)
    return IntPolynomial(coeffs)


def _trim(hist: list[int]) -> list[int]:
    while hist and hist[-1] == 0:
        hist.pop()
    return hist


def gamma_census_bar_hat(
    n: int, k: int, max_objects: int = DEFAULT_MAX_OBJECTS
) -> dict:
    """Histograms, by old-leaf count, of bar/hat forests free of young
    leaves and removable leaves (trailing zeros trimmed)."""
    bar: list[int] = []
    hat: list[int] = []
    for f in enumerate_forests(range(1, n + 1), k, max_objects):
        p = forest_profile(f)
        if not p.in_star:
            continue
        st = p.stats
        hist = bar if p.in_bar else hat
        while len(hist) <= st.oleaf:
            hist.append(0)
        hist[st.oleaf] += 1
    return {"gamma_bar": _trim(bar), "gamma_hat": _trim(hat)}


def gamma_census_tilde(
    n: int, k: int, max_objects: int = DEFAULT_MAX_OBJECTS
) -> list[int]:
    """Histogram, by labeled-leaf count, of young-leaf-free trees on 1..n."""
    if n < 2:
        raise ValueError("the tree census needs n >= 2")
    hist: list[int] = []
    for t in enumerate_trees(range(1, n + 1), k, max_objects):
        st = forest_stats(Forest(k, (t,)))
        if st.yleaf:
            continue
        while len(hist) <= st.lleaf:
            hist.append(0)
        hist[st.lleaf] += 1
    return _trim(hist)


# ---------------------------------------------------------------------------
# identity suite


def run_suite(
    n_max: int,
    k_max: int,
    suites=SUITES,
    max_objects: int = DEFAULT_MAX_OBJECTS,
) -> list[IdentityReport]:
    """One report per (identity, n, k) cell, sorted by identity, n, k."""
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    reports: list[IdentityReport] = []
    for suite in suites:
        cap = _SUITE_N_CAP[suite]
        runner = _SUITE_RUNNERS[suite]
        for k in range(1, k_max + 1):
            for n in range(0, min(n_max, cap(k)) + 1):
                reports.extend(runner(n, k, max_objects))
    reports.sort(key=lambda r: (r.identity, r.n, r.k))
    return reports


def _eq_report(identity, n, k, left, right, witness=None) -> IdentityReport:
    passed = left == right
    return IdentityReport(
        identity, n, k, left, right, passed, witness if not passed else None
    )


def _count_report(identity, n, k, violations: list[str]) -> IdentityReport:
    return IdentityReport(
        identity,
        n,
        k,
        len(violations),
        0,
        not violations,
        violations[0] if violations else None,
    )


def _suite_polynomials(n, k, max_objects):
    A_egf = egf_one_over_k_eulerian(k, n)[n]
    A_exc = exc_cyc_polynomial(n, k)
    A_ap = distribution("Q", "ap", n, k, max_objects)
    lap_poly = distribution("Q", "lap", n, k, max_objects)
    yield _eq_report("poly.egf=exc-cyc", n, k, A_egf, A_exc)
    yield _eq_report("poly.egf=ap", n, k, A_egf, A_ap)
    yield _eq_report("poly.total=rising-product", n, k,
                     A_egf.evaluate(1), count_k_stirling(n, k))
    yield _eq_report("poly.lap=reversed-ap", n, k, lap_poly, A_ap.reversal(n))
    if k == 1:
        yield _eq_report("poly.descent-symmetric", n, k,
                         descent_polynomial(n),
                         descent_polynomial(n).reversal(max(n - 1, 0)))


def _suite_bijections(n, k, max_objects):
    bad_xi, bad_chi, bad_zeta, bad_class = [], [], [], []
    xi_images: set[Forest] = set()
    zeta_images: set[Forest] = set()
    for w in _words(n, k, max_objects):
        fx = bimap.xi(w, k)
        if bimap.xi_inv(fx) != w or forest_stats(fx).lleaf != stat_lap(w, k):
            bad_xi.append(word_to_text(w))
        xi_images.add(fx)
        fz = bimap.zeta(w, k)
        sz = forest_stats(fz)
        if bimap.zeta_inv(fz) != w or sz.lleaf - sz.si != stat_ap(w, k):
            bad_zeta.append(word_to_text(w))
        if word_class(w, k)["in_bar"] != in_bar(fz):
            bad_class.append(word_to_text(w))
        zeta_images.add(fz)
        if n and word_class(w, k)["in_tilde"]:
            t = bimap.chi(w, k)
            st = forest_stats(Forest(k, (t,)))
            plateau_slots = t.slots is None or all(not s for s in t.slots[: k - 1])
            if (
                bimap.chi_inv(t, k) != w
                or (n >= 2 and st.lleaf != stat_ap(w, k))
                or word_class(w, k)["starts_with_plateau"] != plateau_slots
            ):
                bad_chi.append(word_to_text(w))
    all_forests = set(enumerate_forests(range(1, n + 1), k, max_objects))
    yield _count_report("bij.xi.roundtrip+lap", n, k, bad_xi)
    yield _count_report("bij.chi.roundtrip+ap", n, k, bad_chi)
    yield _count_report("bij.zeta.roundtrip+ap", n, k, bad_zeta)
    yield _count_report("bij.zeta.bar-class", n, k, bad_class)
    yield _eq_report("bij.xi.image=forests", n, k,
                     len(xi_images & all_forests), len(all_forests))
    yield _eq_report("bij.zeta.image=forests", n, k,
                     len(zeta_images & all_forests), len(all_forests))


def _toggled(before, after) -> bool:
    from .forest import NodeClass

    return {before, after} == {NodeClass.OLD_INTERNAL, NodeClass.YOUNG_LEAF}


def _suite_gfs(n, k, max_objects):
    labels = list(range(1, n + 1))
    bad_inv, bad_comm, bad_type, bad_orbit = [], [], [], []
    orbit_total = IntPolynomial()
    for t in enumerate_trees(labels, k, max_objects):
        before = node_classes(Forest(k, (t,)))
        images = {x: gfs.phi(t, x) for x in labels}
        for x in labels:
            tx = images[x]
            if gfs.phi(tx, x) != t:
                bad_inv.append(f"{serialize_tree(t)} @ {x}")
            after = node_classes(Forest(k, (tx,)))
            for z in labels:
                ok = before[z] == after[z] if z != x else (
                    before[z] == after[z] or _toggled(before[z], after[z])
                )
                if not ok:
                    bad_type.append(f"{serialize_tree(t)} @ {x}/{z}")
            for y in labels:
                if y >= x:
                    break
                if gfs.phi(images[x], y) != gfs.phi(images[y], x):
                    bad_comm.append(f"{serialize_tree(t)} @ {x},{y}")
        rep = gfs.orbit_representative(t)
        if rep == t:
            members = gfs.orbit(t)
            young_free = sum(
                1 for s in members if forest_stats(Forest(k, (s,))).yleaf == 0
            )
            st = forest_stats(Forest(k, (rep,)))
            if young_free != 1 or len(members) != 2**st.oint:
                bad_orbit.append(serialize_tree(t))
            orbit_total = orbit_total + gamma_compose(
                GammaExpansion(center=2 * st.oleaf + st.oint,
                               gamma=(0,) * st.oleaf + (1,))
            )
    yield _count_report("gfs.phi.involution", n, k, bad_inv)
    yield _count_report("gfs.phi.commutation", n, k, bad_comm)
    yield _count_report("gfs.phi.type-preservation", n, k, bad_type)
    yield _count_report("gfs.orbit.unique-representative", n, k, bad_orbit)
    if n >= 2:
        # the closed form for an orbit's leaf generating function needs at
        # least two labels (a lone singleton has a leaf but no old leaf)
        yield _eq_report("gfs.orbit.census=lleaf-distribution", n, k,
                         orbit_total, distribution("T", "lleaf", n, k, max_objects))
    # round-trip on the unrestricted marked domain
    bad_theta = []
    for f in enumerate_forests(labels, k, max_objects):
        p = forest_profile(f)
        if p.stats.yleaf:
            continue
        pool = sorted(p.oint | p.si_star)
        for mask in range(1 << len(pool)):
            marks = frozenset(x for i, x in enumerate(pool) if mask >> i & 1)
            mf = MarkedForest(f, marks)
            if gfs.theta_prime(gfs.theta(mf)) != mf:
                bad_theta.append(mf.text())
    yield _count_report("gfs.theta.roundtrip", n, k, bad_theta)
    # restricted to the bar/hat marked domains: image equality plus the
    # statistic shift and invariance facts
    for bar in (True, False):
        bad_shift: list[str] = []
        image: dict[MarkedForest, int] = {}
        members = 0
        for f in enumerate_forests(labels, k, max_objects):
            p = forest_profile(f)
            if p.in_bar != bar or not p.in_star:
                continue
            pool = sorted((p.oint_star if bar else p.oint) | p.si_star)
            base = p.stats
            for mask in range(1 << len(pool)):
                marks = frozenset(x for i, x in enumerate(pool) if mask >> i & 1)
                mf = MarkedForest(f, marks)
                s1 = marks & p.oint
                out = gfs.theta(mf)
                outp = forest_profile(out.forest)
                outst = outp.stats
                if (
                    outst.lleaf - outst.si != base.lleaf - base.si + len(s1)
                    or outst.rleaf != 0
                    or outp.si_star != p.si_star
                    or outp.in_bar != bar
                ):
                    bad_shift.append(mf.text())
                image[out] = image.get(out, 0) + 1
                members += 1
        target = []
        for g in enumerate_forests(labels, k, max_objects):
            pg = forest_profile(g)
            if pg.in_bar != bar or pg.stats.rleaf != 0:
                continue
            pool_g = sorted(pg.si_star)
            for mask in range(1 << len(pool_g)):
                marks = frozenset(x for i, x in enumerate(pool_g) if mask >> i & 1)
                target.append(MarkedForest(g, marks))
        bijective = members == len(target) and all(
            image.get(mf, 0) == 1 for mf in target
        )
        side = "bar" if bar else "hat"
        yield IdentityReport(f"gfs.theta.{side}-bijection", n, k, members,
                             len(target), bijective and not bad_shift,
                             bad_shift[0] if bad_shift else
                             None if bijective else "image mismatch")


def _suite_pipeline(n, k, max_objects):
    labels = range(1, n + 1)
    bad_shift, bad_class, bad_round, bad_obs, bad_ab_traj = [], [], [], [], []
    for f in enumerate_forests(labels, k, max_objects):
        p = forest_profile(f)
        base_stat = p.stats.lleaf - p.stats.si
        for x in labels:
            g = pipeline.psi(f, x, p)
            gp = forest_profile(g)
            idx = next(
                (i for i, t in enumerate(f.trees) if t.slots is None and t.label == x),
                None,
            )
            if idx is not None and idx < len(f.trees) - 1:
                expect = base_stat + 1
            elif x in p.removable_old:
                expect = base_stat - 1
            elif x in p.removable_young:
                # ejected leaf subtrees turn into singletons; there are none
                # exactly when x is the least removable label, the only one
                # the beta step ever selects
                slot = f.trees[-1].slots[-1]
                q = next(pos for pos, s in enumerate(slot) if s.label == x)
                ejected_leaves = sum(1 for s in slot[:q] if s.slots is None)
                expect = base_stat - 1 - ejected_leaves
                if x == min(p.removable_old | p.removable_young) and ejected_leaves:
                    bad_shift.append(f"{serialize_forest(f)} @ {x}")
            else:
                expect = base_stat
            if gp.stats.lleaf - gp.stats.si != expect or validate_forest(g):
                bad_shift.append(f"{serialize_forest(f)} @ {x}")
            if gp.in_bar != p.in_bar:
                bad_class.append(f"{serialize_forest(f)} @ {x}")
        mf, states, steps = pipeline.gamma_prime_map(f, with_trajectory=True)
        for (prev, cur), (x, y) in zip(zip(states, states[1:]), steps):
            if pipeline.alpha_step(cur) != prev:
                bad_ab_traj.append(f"{prev.text()} -> {cur.text()}")
            y_pos = next(
                i
                for i, t in enumerate(cur.forest.trees)
                if t.slots is None and t.label == y
            )
            after = forest_profile(cur.forest)
            for r in after.removable_old | after.removable_young:
                if cur.forest.tree_index_of(r) < y_pos:
                    bad_obs.append(f"{serialize_forest(cur.forest)} @ {r}")
        if pipeline.gamma_map(mf) != f:
            bad_round.append(serialize_forest(f))
    yield _count_report("pipe.psi.shift", n, k, bad_shift)
    yield _count_report("pipe.psi.bar-preserved", n, k, bad_class)
    yield _count_report("pipe.gamma.gamma-prime.roundtrip", n, k, bad_round)
    yield _count_report("pipe.alpha-after-beta.inversion", n, k, bad_ab_traj)
    yield _count_report("pipe.beta.left-clean", n, k, bad_obs)
    # gamma on marked pairs, with beta-after-alpha inversion along the way
    bad_pairs, bad_ba = [], []
    for f in enumerate_forests(labels, k, max_objects):
        p = forest_profile(f)
        if p.stats.rleaf:
            continue
        pool = sorted(p.si_star)
        for mask in range(1 << len(pool)):
            marks = frozenset(x for i, x in enumerate(pool) if mask >> i & 1)
            mf = MarkedForest(f, marks)
            state = mf
            while state.marks:
                nxt = pipeline.alpha_step(state)
                if pipeline.beta_step(nxt) != state:
                    bad_ba.append(state.text())
                state = nxt
            if pipeline.gamma_prime_map(pipeline.gamma_map(mf)) != mf:
                bad_pairs.append(mf.text())
    yield _count_report("pipe.beta-after-alpha.inversion", n, k, bad_ba)
    yield _count_report("pipe.gamma-prime.gamma.roundtrip", n, k, bad_pairs)
    # the composite bijection onto each class, with the mark-count shift
    for bar in (True, False):
        image: dict[Forest, int] = {}
        ok_shift = True
        members = 0
        for f in enumerate_forests(labels, k, max_objects):
            p = forest_profile(f)
            if p.in_bar != bar or not p.in_star:
                continue
            pool = sorted((p.oint_star if bar else p.oint) | p.si_star)
            base = p.stats
            for mask in range(1 << len(pool)):
                marks = frozenset(x for i, x in enumerate(pool) if mask >> i & 1)
                members += 1
                g = pipeline.main_bijection(MarkedForest(f, marks))
                gs = forest_stats(g)
                if gs.lleaf - gs.si != base.lleaf - base.si + len(marks):
                    ok_shift = False
                image[g] = image.get(g, 0) + 1
        target = [
            g for g in enumerate_forests(labels, k, max_objects) if in_bar(g) == bar
        ]
        bijective = (
            members == len(target)
            and all(image.get(g, 0) == 1 for g in target)
            and ok_shift
        )
        side = "bar" if bar else "hat"
        yield IdentityReport(f"pipe.main.{side}-bijection", n, k, members,
                             len(target), bijective,
                             None if bijective else "image mismatch")


def _suite_theorems(n, k, max_objects):
    A = egf_one_over_k_eulerian(k, n)[n]
    if n >= 1:
        dec = symmetric_decompose(A, n - 1)
        a_part, xb_part = dec.a, dec.b.shift(1)
        yield _eq_report("thm.classwise.bar=a", n, k,
                         distribution("Qbar", "ap", n, k, max_objects), a_part)
        yield _eq_report("thm.classwise.hat=xb", n, k,
                         distribution("Qhat", "ap", n, k, max_objects), xb_part)
        census = gamma_census_bar_hat(n, k, max_objects)
        composed_bar = gamma_compose(
            GammaExpansion(center=n - 1, gamma=tuple(census["gamma_bar"]))
        )
        composed_hat = gamma_compose(
            GammaExpansion(center=n, gamma=tuple(census["gamma_hat"]))
        )
        yield _eq_report("thm.bar.census=distribution", n, k, composed_bar,
                         distribution("Fbar", "lleaf-si", n, k, max_objects))
        yield _eq_report("thm.hat.census=distribution", n, k, composed_hat,
                         distribution("Fhat", "lleaf-si", n, k, max_objects))
        yield _eq_report("thm.bar.census=decomposition", n, k, composed_bar, a_part)
        yield _eq_report("thm.hat.census=decomposition", n, k, composed_hat, xb_part)
        yield _eq_report(
            "thm.count.forests", n, k,
            sum(1 for _ in enumerate_forests(range(1, n + 1), k, max_objects)),
            count_k_stirling(n, k),
        )
    if n >= 2:
        tilde = gamma_census_tilde(n, k, max_objects)
        composed = gamma_compose(GammaExpansion(center=n, gamma=tuple(tilde)))
        tree_dist = distribution("T", "lleaf", n, k, max_objects)
        yield _eq_report("thm.tilde.census=tree-distribution", n, k,
                         composed, tree_dist)
        yield _eq_report("thm.tilde.trees=words", n, k, tree_dist,
                         distribution("Qtilde", "ap", n, k, max_objects))
        if k == 1:
            yield _eq_report("thm.k1.reduction", n, k,
                             distribution("Qtilde", "ap", n, 1, max_objects),
                             descent_polynomial(n - 1).shift(1))
    # structural relations over every forest in range
    if n >= 1:
        bad_oys, bad_bar_rel, bad_hat_rel = [], [], []
        for f in enumerate_forests(range(1, n + 1), k, max_objects):
            p = forest_profile(f)
            st = p.stats
            if st.oleaf + st.yleaf + st.si != st.lleaf or validate_forest(f):
                bad_oys.append(serialize_forest(f))
            if p.in_star:
                if p.in_bar:
                    if len(p.oint_star) + len(p.si_star) != n - 1 - 2 * st.oleaf:
                        bad_bar_rel.append(serialize_forest(f))
                elif st.oint + st.si != n - 2 * st.oleaf:
                    bad_hat_rel.append(serialize_forest(f))
        yield _count_report("thm.relation.leaf-split", n, k, bad_oys)
        yield _count_report("thm.relation.bar-star", n, k, bad_bar_rel)
        yield _count_report("thm.relation.hat-star", n, k, bad_hat_rel)


_SUITE_RUNNERS = {
    "polynomials": _suite_polynomials,
    "bijections": _suite_bijections,
    "gfs": _suite_gfs,
    "pipeline": _suite_pipeline,
    "theorems": _suite_theorems,
}
