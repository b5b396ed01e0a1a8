"""Verification harness: statistic distributions, gamma censuses, and the
identity suite tying the whole library together.

Every check compares exact polynomials or exact counts; there is no
tolerance anywhere.  Failures come back as reports carrying a replayable
witness in canonical text form, never as exceptions.

Each suite makes one pass over each family per (n, k) cell; a ``run_suite``
call folds each cell's words once, for all its suites.  Two folds do the
census work, each counting one signature per object and filling the
histograms once per signature, from a representative object:

* the word fold takes ap, lap and ``word_class`` once per word and fills the
  ap and lap histograms of Q, Qbar, Qhat and Qtilde: the ``poly.*`` routes,
  the classwise splits A = a + x*b, ``thm.tilde.trees=words`` and
  ``thm.k1.reduction``;
* the forest fold builds one ``forest_profile`` per forest and fills the
  lleaf and lleaf - si histograms of F, Fbar and Fhat, the bar/hat gamma
  censuses, the forest count and, per forest, the ``thm.relation.*`` checks,
  and from the one-tree forests the T lleaf histogram and the tilde gamma
  census: every other ``thm.*`` report.

``distribution``, ``gamma_census_bar_hat`` and ``gamma_census_tilde`` are
views of these folds; the objects folded pick the family: words, forests,
or trees wrapped as one-tree forests.  Only the theorem suite's fold runs
``validate_forest``, for ``thm.relation.leaf-split``.

The map suites analyse each object once.  Enumerated words are k-Stirling,
so the bijection suite runs the unchecked passes (``bimap._xi_trees``,
``_zeta``, ``_chi_tree``) and takes ap once per word.  The gfs and pipeline
suites hand each forest's profile to the maps' private twins (``_theta``,
``_alpha``, ``_gamma_prime`` ...), and reuse it when a map returns its input;
they mark each forest over the pools of ``gfs.DOMAINS``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import bimap, gfs, pipeline
from .forest import (
    Forest,
    NodeClass,
    enumerate_forests,
    enumerate_trees,
    forest_profile,
    forest_stats,
    node_classes,
    serialize_forest,
    serialize_tree,
    validate_forest,
)
from .gfs import DOMAINS, MarkedForest
from .polyx import (
    GammaExpansion,
    IntPolynomial,
    _egf_last,
    gamma_compose,
    symmetric_decompose,
)
from .stirling import (
    DEFAULT_MAX_OBJECTS,
    count_k_stirling,
    descent_polynomial,
    enumerate_k_stirling,
    exc_cyc_polynomial,
    stat_ap,
    word_class,
    word_to_text,
)

# The one table of families: membership of an object given its class record
# (``word_class`` for a word, ``forest_profile`` for a forest).  A family
# named Q* holds words, T one-tree forests, the others forests.
FAMILY_TESTS = {
    "Q": lambda w, cls: True,
    "Qbar": lambda w, cls: cls["in_bar"],
    "Qhat": lambda w, cls: not cls["in_bar"],
    "Qtilde": lambda w, cls: cls["in_tilde"],
    "F": lambda f, p: True,
    "Fbar": lambda f, p: p.in_bar,
    "Fhat": lambda f, p: not p.in_bar,
    "T": lambda f, p: len(f.trees) == 1,
}
FAMILIES = tuple(FAMILY_TESTS)
STATISTICS = ("ap", "lap", "lleaf", "lleaf-si")
SUITES = ("polynomials", "bijections", "gfs", "pipeline", "theorems")

_WORD_FAMILIES = tuple(f for f in FAMILIES if f.startswith("Q"))
_FOREST_FAMILIES = tuple(f for f in FAMILIES if not f.startswith("Q"))
_RELATIONS = ("thm.relation.leaf-split", "thm.relation.bar-star", "thm.relation.hat-star")

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


# ---------------------------------------------------------------------------
# the two folds and their views


@dataclass
class _Census:
    """What one fold feeds: histograms keyed by (family, statistic) or by
    census name ("gamma_bar", "gamma_hat", "tilde"), the object count, and
    the witnesses of each structural relation that fails."""

    hist: dict = field(default_factory=dict)
    count: int = 0
    bad: dict = field(default_factory=lambda: {name: [] for name in _RELATIONS})

    def bump(self, key, value: int, times: int = 1) -> None:
        counts = self.hist.setdefault(key, [])
        if len(counts) <= value:
            counts.extend([0] * (value + 1 - len(counts)))
        counts[value] += times

    def counts(self, key) -> list[int]:
        return list(self.hist.get(key, ()))

    def poly(self, key) -> IntPolynomial:
        return IntPolynomial(self.hist.get(key, ()))

    def composed(self, key, center: int) -> IntPolynomial:
        """The polynomial with the census ``key`` as its gamma vector."""
        return gamma_compose(GammaExpansion(center=center, gamma=tuple(self.counts(key))))


def _fold_words(n: int, k: int, max_objects: int, folds: dict) -> _Census:
    """The word fold of cell (n, k), kept in ``folds`` for the caller's later suites."""
    if (n, k) in folds:
        return folds[n, k]
    census = _Census()
    tally, reps = Counter(), {}
    for w in enumerate_k_stirling(n, k, max_objects):
        cls = word_class(w, k)
        ap = stat_ap(w, k)
        lap = ap + (bool(w) and cls["in_bar"])  # = stat_lap(w, k)
        sig = (ap, lap, cls["in_bar"], cls["in_tilde"])  # () is in Qbar with lap = ap
        tally[sig] += 1
        reps.setdefault(sig, (w, cls))
    for sig, times in tally.items():
        w, cls = reps[sig]
        for family in _WORD_FAMILIES:
            if FAMILY_TESTS[family](w, cls):
                census.bump((family, "ap"), sig[0], times)
                census.bump((family, "lap"), sig[1], times)
    return folds.setdefault((n, k), census)


def _fold_forests(forests: Iterable[Forest], validate: bool = False) -> _Census:
    """The forest fold; ``validate`` for the ``thm.relation.leaf-split`` report."""
    census = _Census()
    tally, reps = Counter(), {}
    for f in forests:
        p = forest_profile(f)
        st = p.stats
        sig = (st.lleaf, st.si, st.oleaf, st.yleaf, len(f.trees) == 1, p.in_bar, p.in_star)
        tally[sig] += 1
        reps.setdefault(sig, (f, p))
        n = len(p.classes)  # every node is internal or a labeled leaf
        if st.lleaf != n - st.lint or validate and validate_forest(f):
            census.bad["thm.relation.leaf-split"].append(serialize_forest(f))
        if p.in_star and p.in_bar and len(p.oint_star) + len(p.si_star) != n - 1 - 2 * st.oleaf:
            census.bad["thm.relation.bar-star"].append(serialize_forest(f))
        if p.in_star and not p.in_bar and st.oint + st.si != n - 2 * st.oleaf:
            census.bad["thm.relation.hat-star"].append(serialize_forest(f))
    for sig, times in tally.items():
        f, p = reps[sig]
        st = p.stats
        census.count += times
        for family in _FOREST_FAMILIES:
            if FAMILY_TESTS[family](f, p):
                census.bump((family, "lleaf"), st.lleaf, times)
                census.bump((family, "lleaf-si"), st.lleaf - st.si, times)
        if FAMILY_TESTS["T"](f, p) and not st.yleaf:
            census.bump("tilde", st.lleaf, times)
        if p.in_star:
            census.bump("gamma_bar" if p.in_bar else "gamma_hat", st.oleaf, times)
    return census


def _forests(n: int, k: int, max_objects: int) -> Iterator[Forest]:
    return enumerate_forests(range(1, n + 1), k, max_objects)


def _trees(n: int, k: int, max_objects: int) -> Iterator[Forest]:
    """The trees on 1..n, each wrapped as a one-tree forest."""
    return (Forest(k, (t,)) for t in enumerate_trees(range(1, n + 1), k, max_objects))


def distribution(
    family: str, statistic: str, n: int, k: int, max_objects: int = DEFAULT_MAX_OBJECTS
) -> IntPolynomial:
    """Exact generating polynomial of a statistic over an enumerable family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if family in _WORD_FAMILIES:
        if statistic not in ("ap", "lap"):
            raise ValueError(f"statistic {statistic!r} undefined on words")
        census = _fold_words(n, k, max_objects, {})
    elif family == "T":
        if statistic != "lleaf":
            raise ValueError(f"statistic {statistic!r} undefined on trees")
        census = _fold_forests(_trees(n, k, max_objects))
    else:
        if statistic not in ("lleaf", "lleaf-si"):
            raise ValueError(f"statistic {statistic!r} undefined on forests")
        census = _fold_forests(_forests(n, k, max_objects))
    return census.poly((family, statistic))


def gamma_census_bar_hat(
    n: int, k: int, max_objects: int = DEFAULT_MAX_OBJECTS
) -> dict:
    """Histograms, by old-leaf count, of bar/hat forests free of young
    leaves and removable leaves (trailing zeros trimmed)."""
    census = _fold_forests(_forests(n, k, max_objects))
    return {"gamma_bar": census.counts("gamma_bar"), "gamma_hat": census.counts("gamma_hat")}


def gamma_census_tilde(
    n: int, k: int, max_objects: int = DEFAULT_MAX_OBJECTS
) -> list[int]:
    """Histogram, by labeled-leaf count, of young-leaf-free trees on 1..n."""
    if n < 2:
        raise ValueError("the tree census needs n >= 2")
    return _fold_forests(_trees(n, k, max_objects)).counts("tilde")


def _marked(f: Forest, pool) -> Iterator[MarkedForest]:
    """f marked by each subset of pool, in binary-counter order; nothing
    when pool is None, a domain's pool for a forest outside it."""
    if pool is None:
        return
    pool = sorted(pool)
    for mask in range(1 << len(pool)):
        yield MarkedForest(f, frozenset(x for i, x in enumerate(pool) if mask >> i & 1))


def _class_domain(name: str, p) -> frozenset[int] | None:
    """The pool of the class version (bar or hat, by p's class) of the
    marked domain ``name`` ("X" or "Y"), from ``gfs.DOMAINS``."""
    return DOMAINS[name + ("bar" if p.in_bar else "hat")](p)


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
    if n_max < 0 or k_max < 1:
        raise ValueError("need n_max >= 0 and k_max >= 1")
    reports: list[IdentityReport] = []
    folds: dict = {}  # the word fold of each (n, k) cell, for this call only
    for suite in suites:
        cap = _SUITE_N_CAP[suite]
        runner = _SUITE_RUNNERS[suite]
        for k in range(1, k_max + 1):
            for n in range(0, min(n_max, cap(k)) + 1):
                reports.extend(runner(n, k, max_objects, folds))
    reports.sort(key=lambda r: (r.identity, r.n, r.k))
    return reports


def _eq_report(identity, n, k, left, right, witness=None) -> IdentityReport:
    passed = left == right
    return IdentityReport(
        identity, n, k, left, right, passed, witness if not passed else None
    )


def _count_report(identity, n, k, violations: list[str]) -> IdentityReport:
    return IdentityReport(identity, n, k, len(violations), 0, not violations,
                          violations[0] if violations else None)


def _suite_polynomials(n, k, max_objects, folds):
    words = _fold_words(n, k, max_objects, folds)
    A_egf = _egf_last(k, n)
    A_exc = exc_cyc_polynomial(n, k)
    A_ap = words.poly(("Q", "ap"))
    yield _eq_report("poly.egf=exc-cyc", n, k, A_egf, A_exc)
    yield _eq_report("poly.egf=ap", n, k, A_egf, A_ap)
    yield _eq_report("poly.total=rising-product", n, k,
                     A_egf.evaluate(1), count_k_stirling(n, k))
    yield _eq_report("poly.lap=reversed-ap", n, k, words.poly(("Q", "lap")),
                     A_ap.reversal(n))
    if k == 1:
        yield _eq_report("poly.descent-symmetric", n, k,
                         descent_polynomial(n),
                         descent_polynomial(n).reversal(max(n - 1, 0)))


def _suite_bijections(n, k, max_objects, folds):
    bad_xi, bad_chi, bad_zeta, bad_class = [], [], [], []
    xi_images, zeta_images = set(), set()
    # the enumerated words are k-Stirling: the unchecked passes take them
    for w in enumerate_k_stirling(n, k, max_objects):
        cls = word_class(w, k)
        ap = stat_ap(w, k)
        fx = Forest(k, bimap._xi_trees(w, k))
        if bimap.xi_inv(fx) != w or forest_stats(fx).lleaf != ap + (bool(w) and cls["in_bar"]):
            bad_xi.append(word_to_text(w))
        xi_images.add(fx)
        fz = bimap._zeta(w, k)
        pz = forest_profile(fz)
        if bimap.zeta_inv(fz) != w or pz.stats.lleaf - pz.stats.si != ap:
            bad_zeta.append(word_to_text(w))
        if cls["in_bar"] != pz.in_bar:
            bad_class.append(word_to_text(w))
        zeta_images.add(fz)
        if n and cls["in_tilde"]:
            t = bimap._chi_tree(w, k)
            st = forest_stats(Forest(k, (t,)))
            plateau_slots = t.slots is None or all(not s for s in t.slots[: k - 1])
            if (
                bimap.chi_inv(t, k) != w
                or (n >= 2 and st.lleaf != ap)
                or cls["in_bar"] != plateau_slots
            ):
                bad_chi.append(word_to_text(w))
    all_forests = set(_forests(n, k, max_objects))
    yield _count_report("bij.xi.roundtrip+lap", n, k, bad_xi)
    yield _count_report("bij.chi.roundtrip+ap", n, k, bad_chi)
    yield _count_report("bij.zeta.roundtrip+ap", n, k, bad_zeta)
    yield _count_report("bij.zeta.bar-class", n, k, bad_class)
    yield _eq_report("bij.xi.image=forests", n, k,
                     len(xi_images & all_forests), len(all_forests))
    yield _eq_report("bij.zeta.image=forests", n, k,
                     len(zeta_images & all_forests), len(all_forests))


def _toggled(before, after) -> bool:
    return {before, after} == {NodeClass.OLD_INTERNAL, NodeClass.YOUNG_LEAF}


def _bijection_report(identity, n, k, image: dict, target: list, bad: list):
    """Every target hit exactly once by the image counts, and no witness of
    a broken side condition."""
    members = sum(image.values())
    bijective = members == len(target) and all(image.get(t, 0) == 1 for t in target)
    witness = bad[0] if bad else None if bijective else "image mismatch"
    return IdentityReport(identity, n, k, members, len(target),
                          bijective and not bad, witness)


def _suite_gfs(n, k, max_objects, folds):
    labels = list(range(1, n + 1))
    bad_inv, bad_comm, bad_type, bad_orbit = [], [], [], []
    orbit_total = IntPolynomial()
    trees = _Census()  # the T lleaf histogram, from the profiles taken here
    for t in enumerate_trees(labels, k, max_objects):
        f = Forest(k, (t,))
        p = forest_profile(f)
        trees.bump("lleaf", p.stats.lleaf)
        before = p.classes
        images = {x: gfs.phi(t, x) for x in labels}
        for x in labels:
            tx = images[x]
            if gfs.phi(tx, x) != t:
                bad_inv.append(f"{serialize_tree(t)} @ {x}")
            after = before if tx is t else node_classes(Forest(k, (tx,)))
            for z in labels:
                ok = before[z] == after[z] or z == x and _toggled(before[z], after[z])
                if not ok:
                    bad_type.append(f"{serialize_tree(t)} @ {x}/{z}")
            for y in labels:
                if y >= x:
                    break
                if gfs.phi(images[x], y) != gfs.phi(images[y], x):
                    bad_comm.append(f"{serialize_tree(t)} @ {x},{y}")
        rep = gfs._representative(f, p)
        if rep == t:
            members = gfs.orbit(t)
            young_free = sum(
                1 for s in members if forest_stats(Forest(k, (s,))).yleaf == 0
            )
            st = p.stats
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
                         orbit_total, trees.poly("lleaf"))
    # theta round trip on X; on X-bar and X-hat (keyed by in_bar) also image
    # equality onto Y-bar and Y-hat, plus the statistic shift and invariance
    # facts
    bad_theta: list[str] = []
    bad_shift: dict[bool, list[str]] = {True: [], False: []}
    image: dict[bool, dict[MarkedForest, int]] = {True: {}, False: {}}
    target: dict[bool, list[MarkedForest]] = {True: [], False: []}
    for f in _forests(n, k, max_objects):
        p = forest_profile(f)
        base = p.stats
        target[p.in_bar].extend(_marked(f, _class_domain("Y", p)))
        pool = _class_domain("X", p)
        for mf in _marked(f, DOMAINS["X"](p)):
            out = gfs._theta(mf, p)
            # theta toggles only the old-internal marks; without any it is f
            outp = forest_profile(out.forest) if mf.marks & p.oint else p
            if gfs._theta_prime(out, outp) != mf:
                bad_theta.append(mf.text())
            if pool is None or not mf.marks <= pool:
                continue
            outst = outp.stats
            if (
                outst.lleaf - outst.si != base.lleaf - base.si + len(mf.marks & p.oint)
                or outst.rleaf != 0
                or outp.si_star != p.si_star
                or outp.in_bar != p.in_bar
            ):
                bad_shift[p.in_bar].append(mf.text())
            image[p.in_bar][out] = image[p.in_bar].get(out, 0) + 1
    yield _count_report("gfs.theta.roundtrip", n, k, bad_theta)
    for bar, side in ((True, "bar"), (False, "hat")):
        yield _bijection_report(f"gfs.theta.{side}-bijection", n, k,
                                image[bar], target[bar], bad_shift[bar])


def _suite_pipeline(n, k, max_objects, folds):
    labels = range(1, n + 1)
    bad_shift, bad_class, bad_round, bad_obs, bad_ab_traj = [], [], [], [], []
    bad_pairs, bad_ba = [], []
    # the composite bijection onto each class (keyed by in_bar), with the
    # mark-count shift
    image: dict[bool, dict[Forest, int]] = {True: {}, False: {}}
    target: dict[bool, list[Forest]] = {True: [], False: []}
    bad_main: dict[bool, list[str]] = {True: [], False: []}
    for f in _forests(n, k, max_objects):
        p = forest_profile(f)
        base_stat = p.stats.lleaf - p.stats.si
        target[p.in_bar].append(f)
        f_bad = validate_forest(f)
        for x in labels:
            g = pipeline.psi(f, x, p)
            gp, g_bad = (p, f_bad) if g is f else (forest_profile(g), validate_forest(g))
            idx = pipeline._singleton_index(f, x)
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
            if gp.stats.lleaf - gp.stats.si != expect or g_bad:
                bad_shift.append(f"{serialize_forest(f)} @ {x}")
            if gp.in_bar != p.in_bar:
                bad_class.append(f"{serialize_forest(f)} @ {x}")
        mf, states, steps, profiles = pipeline._gamma_prime(f, p)
        for prev, cur, after, (x, y) in zip(states, states[1:], profiles[1:], steps):
            if pipeline._alpha(cur, after) != prev:
                bad_ab_traj.append(f"{prev.text()} -> {cur.text()}")
            y_pos = pipeline._singleton_index(cur.forest, y)
            for r in after.removable_old | after.removable_young:
                if cur.forest.tree_index_of(r) < y_pos:
                    bad_obs.append(f"{serialize_forest(cur.forest)} @ {r}")
        if pipeline._gamma(mf, profiles[-1]) != f:
            bad_round.append(serialize_forest(f))
        # gamma on marked pairs, with beta-after-alpha inversion along the way
        for mf in _marked(f, _class_domain("Y", p)):
            state, sp = mf, p
            while state.marks:
                nxt = pipeline._alpha(state, sp)
                sp = forest_profile(nxt.forest)
                if pipeline._beta(nxt, sp)[0] != state:
                    bad_ba.append(state.text())
                state = nxt
            # the chain is gamma's: state.forest is gamma(mf), sp its profile
            if pipeline._gamma_prime(state.forest, sp)[0] != mf:
                bad_pairs.append(mf.text())
        for mf in _marked(f, _class_domain("X", p)):
            g = pipeline._main(mf, p)
            gs = forest_stats(g)
            if gs.lleaf - gs.si != base_stat + len(mf.marks):
                bad_main[p.in_bar].append(mf.text())
            image[p.in_bar][g] = image[p.in_bar].get(g, 0) + 1
    yield _count_report("pipe.psi.shift", n, k, bad_shift)
    yield _count_report("pipe.psi.bar-preserved", n, k, bad_class)
    yield _count_report("pipe.gamma.gamma-prime.roundtrip", n, k, bad_round)
    yield _count_report("pipe.alpha-after-beta.inversion", n, k, bad_ab_traj)
    yield _count_report("pipe.beta.left-clean", n, k, bad_obs)
    yield _count_report("pipe.beta-after-alpha.inversion", n, k, bad_ba)
    yield _count_report("pipe.gamma-prime.gamma.roundtrip", n, k, bad_pairs)
    for bar, side in ((True, "bar"), (False, "hat")):
        yield _bijection_report(f"pipe.main.{side}-bijection", n, k,
                                image[bar], target[bar], bad_main[bar])


def _suite_theorems(n, k, max_objects, folds):
    if n < 1:
        return
    words = _fold_words(n, k, max_objects, folds)
    forests = _fold_forests(_forests(n, k, max_objects), validate=True)
    A = _egf_last(k, n)
    dec = symmetric_decompose(A, n - 1)
    a_part, xb_part = dec.a, dec.b.shift(1)
    yield _eq_report("thm.classwise.bar=a", n, k, words.poly(("Qbar", "ap")), a_part)
    yield _eq_report("thm.classwise.hat=xb", n, k, words.poly(("Qhat", "ap")), xb_part)
    composed_bar = forests.composed("gamma_bar", n - 1)
    composed_hat = forests.composed("gamma_hat", n)
    yield _eq_report("thm.bar.census=distribution", n, k, composed_bar,
                     forests.poly(("Fbar", "lleaf-si")))
    yield _eq_report("thm.hat.census=distribution", n, k, composed_hat,
                     forests.poly(("Fhat", "lleaf-si")))
    yield _eq_report("thm.bar.census=decomposition", n, k, composed_bar, a_part)
    yield _eq_report("thm.hat.census=decomposition", n, k, composed_hat, xb_part)
    yield _eq_report("thm.count.forests", n, k, forests.count, count_k_stirling(n, k))
    if n >= 2:
        tree_dist = forests.poly(("T", "lleaf"))
        tilde_words = words.poly(("Qtilde", "ap"))
        yield _eq_report("thm.tilde.census=tree-distribution", n, k,
                         forests.composed("tilde", n), tree_dist)
        yield _eq_report("thm.tilde.trees=words", n, k, tree_dist, tilde_words)
        if k == 1:
            yield _eq_report("thm.k1.reduction", n, k, tilde_words,
                             descent_polynomial(n - 1).shift(1))
    for name in _RELATIONS:
        yield _count_report(name, n, k, forests.bad[name])


_SUITE_RUNNERS = {
    "polynomials": _suite_polynomials,
    "bijections": _suite_bijections,
    "gfs": _suite_gfs,
    "pipeline": _suite_pipeline,
    "theorems": _suite_theorems,
}
