"""Verification harness: statistic distributions, gamma censuses, and the
identity suite tying the whole library together.

Every check compares exact polynomials or exact counts; there is no
tolerance anywhere.  Failures come back as reports carrying a replayable
witness in canonical text form, never as exceptions.

``run_suite`` goes cell by cell, and the suites of a cell, run in ``SUITES``
order whatever order they are named in, share what they make of it, dropped
before the next cell: the word fold, made once per cell for all its suites,
and for the map suites one forest table.  Two folds do the census work, each
counting one signature per object and filling the histograms once per
signature, from one record:

* the word fold takes each word's ``word_class`` record (ap, lap and the
  bar and tilde classes) and fills the ap and lap histograms of Q, Qbar,
  Qhat and Qtilde: the ``poly.*`` routes, the classwise splits A = a + x*b,
  ``thm.tilde.trees=words`` and ``thm.k1.reduction``;
* the forest fold reads each forest's ``forest_stats`` record, the counts
  of the one forest walk, which also validates it; it freezes no label
  set.  From the record it fills the lleaf and lleaf - si histograms of F,
  Fbar and Fhat, the bar/hat gamma censuses, the forest count and,
  per forest, the ``thm.relation.*`` checks (an invalid forest fails
  ``thm.relation.leaf-split``), and from the one-tree forests the T lleaf
  histogram and the tilde gamma census: every other ``thm.*`` report.

``distribution``, ``gamma_census_bar_hat`` and ``gamma_census_tilde`` are
views of these folds; the objects folded pick the family: words, forests,
or trees wrapped as one-tree forests.

The map suites analyse each forest once, through the cell's forest table:
one ``enumerate_forests`` pass, kept in its order, each forest the one object
of its value, with its census record and, once a suite asks, its profile,
which the forest stores.  Records are read by ``forest_stats``, so the
bijection suite, run after the suites that profile every table forest,
reads their profiles' ``stats``.  Lookups go by value.  A miss, an image
that equals no forest of the cell, is made only by a faulty map: it is
walked fresh, never stored in the table, and fails its identity; a miss
whose profile is asked for (``_Table.held``) must be valid, as
``forest_profile`` refuses it otherwise.  The theorem census streams its
forests and keeps no table.

Enumerated words are k-Stirling, so the bijection suite runs the unchecked
passes (``bimap._xi_trees``, ``_zeta``, ``_chi_tree``), takes each word's
``word_class`` record once and checks it against each image's census
record, read from the table; ``image=forests`` counts the table places its
images take.  The gfs and pipeline suites call the public maps on the
table's objects, so each map finds its input's profile stored:
``_Table.held`` swaps theta's images and the alpha steps for the table's
objects of their values, and the psi and main-bijection images take their
records from the table.  The image counts are keyed by table place, with
theta's marks.  The suites replay gamma_prime's states with
``pipeline._beta_chain`` and mark each forest over ``gfs.DOMAINS``.

The gfs suite walks each orbit of the toggles once, breadth first from the
first tree that no earlier orbit reached, over the table's one-tree forests
(in ``enumerate_trees`` order, so no tree enumeration is made), and keeps one
table per orbit: every member's image at every label, from one ``gfs.phi``
call per (tree, label) and held as the cell's one object of its value, and
every member's profile.  The involution, commutation, type-preservation and
orbit checks are read off that table, which is dropped before the next
orbit.  The walk stays inside the cell's trees: an image outside them, or in
an earlier orbit, is not walked and fails ``gfs.phi.involution``, so a
faulty toggle ends in failing reports.  ``gfs.orbit`` is not called.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from . import bimap, gfs, pipeline
from .forest import (
    Forest,
    ForestProfile,
    ForestStats,
    NodeClass,
    enumerate_forests,
    enumerate_trees,
    forest_profile,
    forest_stats,
    serialize_forest,
)
from .gfs import DOMAINS, MarkedForest
from .polyx import (
    GammaExpansion,
    IntPolynomial,
    _egf_last,
    check_order,
    gamma_compose,
    symmetric_decompose,
)
from .stirling import (
    count_k_stirling,
    descent_polynomial,
    enumerate_k_stirling,
    exc_cyc_polynomial,
    word_class,
    word_to_text,
)

# The one table of families: membership of an object read off its record
# alone (``word_class`` for a word, ``forest_stats`` for a forest).  A family
# named Q* holds words, T one-tree forests, the others forests.
FAMILY_TESTS = {
    "Q": lambda w: True,
    "Qbar": lambda w: w.in_bar,
    "Qhat": lambda w: not w.in_bar,
    "Qtilde": lambda w: w.in_tilde,
    "F": lambda w: True,
    "Fbar": lambda w: w.in_bar,
    "Fhat": lambda w: not w.in_bar,
    "T": lambda w: w.one_tree,
}
FAMILIES = tuple(FAMILY_TESTS)
STATISTICS = ("ap", "lap", "lleaf", "lleaf-si")

_WORD_FAMILIES = tuple(f for f in FAMILIES if f.startswith("Q"))
_FOREST_FAMILIES = tuple(f for f in FAMILIES if not f.startswith("Q"))
_RELATIONS = ("thm.relation.leaf-split", "thm.relation.bar-star", "thm.relation.hat-star")


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

    def composed(self, key, center: int) -> IntPolynomial | list[int]:
        """The polynomial with the census ``key`` as its gamma vector, or the
        raw vector when it does not fit the center: a miscounted census
        fails its reports instead of raising."""
        gamma = self.counts(key)
        try:
            return gamma_compose(GammaExpansion(center=center, gamma=tuple(gamma)))
        except ValueError:
            return gamma


def _fold_words(n: int, k: int) -> _Census:
    """The word fold of cell (n, k): one ``word_class`` record per word,
    tallied as it is (() is in Qbar with lap = ap)."""
    census = _Census()
    tally = Counter(word_class(w, k) for w in enumerate_k_stirling(n, k))
    for w, times in tally.items():
        for family in _WORD_FAMILIES:
            if FAMILY_TESTS[family](w):
                census.bump((family, "ap"), w.ap, times)
                census.bump((family, "lap"), w.lap, times)
    return census


def _fold_forests(forests: Iterable[Forest]) -> _Census:
    """The forest fold: one ``forest_stats`` per forest, which also validates it."""
    census = _Census()
    tally, reps = Counter(), {}
    for f in forests:
        w = forest_stats(f)
        sig = w[:7]  # lleaf, si, oleaf, yleaf, one tree, in_bar, in_star
        tally[sig] += 1
        reps.setdefault(sig, w)
        if w.lleaf != w.nodes - w.lint or w.violations:
            census.bad["thm.relation.leaf-split"].append(serialize_forest(f))
        if w.in_star and w.in_bar and w.oint_star + w.si_star != w.nodes - 1 - 2 * w.oleaf:
            census.bad["thm.relation.bar-star"].append(serialize_forest(f))
        if w.in_star and not w.in_bar and w.oint + w.si != w.nodes - 2 * w.oleaf:
            census.bad["thm.relation.hat-star"].append(serialize_forest(f))
    for sig, times in tally.items():
        w = reps[sig]
        census.count += times
        for family in _FOREST_FAMILIES:
            if FAMILY_TESTS[family](w):
                census.bump((family, "lleaf"), w.lleaf, times)
                census.bump((family, "lleaf-si"), w.lleaf - w.si, times)
        if FAMILY_TESTS["T"](w) and not w.yleaf:
            census.bump("tilde", w.lleaf, times)
        if w.in_star:
            census.bump("gamma_bar" if w.in_bar else "gamma_hat", w.oleaf, times)
    return census


def _forests(n: int, k: int) -> Iterator[Forest]:
    check_order(k, n)
    return enumerate_forests(range(1, n + 1), k)


def _trees(n: int, k: int) -> Iterator[Forest]:
    """The trees on 1..n, each wrapped as a one-tree forest."""
    check_order(k, n)
    return (Forest(k, (t,)) for t in enumerate_trees(range(1, n + 1), k))


def distribution(family: str, statistic: str, n: int, k: int) -> IntPolynomial:
    """Exact generating polynomial of a statistic over an enumerable family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if family in _WORD_FAMILIES:
        if statistic not in ("ap", "lap"):
            raise ValueError(f"statistic {statistic!r} undefined on words")
        census = _fold_words(n, k)
    elif family == "T":
        if statistic != "lleaf":
            raise ValueError(f"statistic {statistic!r} undefined on trees")
        census = _fold_forests(_trees(n, k))
    else:
        if statistic not in ("lleaf", "lleaf-si"):
            raise ValueError(f"statistic {statistic!r} undefined on forests")
        census = _fold_forests(_forests(n, k))
    return census.poly((family, statistic))


def gamma_census_bar_hat(n: int, k: int) -> dict:
    """Histograms, by old-leaf count, of bar/hat forests free of young
    leaves and removable leaves (trailing zeros trimmed)."""
    census = _fold_forests(_forests(n, k))
    return {"gamma_bar": census.counts("gamma_bar"), "gamma_hat": census.counts("gamma_hat")}


def gamma_census_tilde(n: int, k: int) -> list[int]:
    """Histogram, by labeled-leaf count, of young-leaf-free trees on 1..n."""
    trees = _trees(n, k)
    if n < 2:
        raise ValueError("the tree census needs n >= 2")
    return _fold_forests(trees).counts("tilde")


# ---------------------------------------------------------------------------
# the cell: what the suites of one (n, k) cell share in one run_suite call


class _Table:
    """The forests of one (n, k) cell for the map suites: one
    ``enumerate_forests`` pass, kept in its order, each forest the one object
    of its value.  A forest's census record is taken when a suite first asks
    for it, through ``forest_stats``, and so is its profile, which the forest
    stores; a record asked for after the profile is the profile's ``stats``.

    Lookups go by value; the table's own objects are found by identity,
    without hashing.  A miss is an image that equals no forest of the cell,
    which only a faulty map makes: it is walked fresh and never stored."""

    def __init__(self, n: int, k: int):
        self.forests = list(_forests(n, k))
        self._places = {f: i for i, f in enumerate(self.forests)}
        self._ids = {id(f): i for i, f in enumerate(self.forests)}
        # a forest stores no bare record: a bijection-only cell's stay here
        self._records: list[ForestStats | None] = [None] * len(self.forests)

    def place(self, f: Forest) -> int | None:
        """The index of f's value in ``forests``, or None for a miss."""
        i = self._ids.get(id(f))
        return self._places.get(f) if i is None else i

    def record(self, f: Forest) -> tuple[int | None, ForestStats]:
        """f's place and its census record."""
        i = self.place(f)
        if i is None:
            return None, forest_stats(f)
        if self._records[i] is None:
            self._records[i] = forest_stats(self.forests[i])
        return i, self._records[i]

    def held(self, f: Forest) -> tuple[int | None, Forest, ForestProfile]:
        """f's place, the table's object of f's value (f itself for a miss)
        and that object's profile."""
        i = self.place(f)
        if i is not None:
            f = self.forests[i]
        return i, f, forest_profile(f)


class _Cell:
    """The word fold and the forest table of one (n, k) cell, each made when
    a suite first asks for it and dropped with the cell."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k

    @cached_property
    def words(self) -> _Census:
        return _fold_words(self.n, self.k)

    @cached_property
    def forests(self) -> _Table:
        return _Table(self.n, self.k)


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
    return DOMAINS[name + ("bar" if p.stats.in_bar else "hat")](p)


# ---------------------------------------------------------------------------
# identity suite


def _eq_report(identity, n, k, left, right, witness=None) -> IdentityReport:
    passed = left == right
    return IdentityReport(
        identity, n, k, left, right, passed, witness if not passed else None
    )


def _count_report(identity, n, k, violations: list[str]) -> IdentityReport:
    return IdentityReport(identity, n, k, len(violations), 0, not violations,
                          violations[0] if violations else None)


def _suite_polynomials(n, k, cell):
    words = cell.words
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


def _suite_bijections(n, k, cell):
    table = cell.forests
    bad_xi, bad_chi, bad_zeta, bad_class = [], [], [], []
    xi_hits, zeta_hits = set(), set()  # the table places the images take
    # the enumerated words are k-Stirling: the unchecked passes take them
    for w in enumerate_k_stirling(n, k):
        ws = word_class(w, k)
        fx = Forest(k, bimap._xi_trees(w, k))
        i, wx = table.record(fx)
        if bimap.xi_inv(fx) != w or wx.lleaf != ws.lap:
            bad_xi.append(word_to_text(w))
        xi_hits.add(i)
        fz = bimap._zeta(w, k)
        i, wz = table.record(fz)
        if bimap.zeta_inv(fz) != w or wz.lleaf - wz.si != ws.ap:
            bad_zeta.append(word_to_text(w))
        if ws.in_bar != wz.in_bar:
            bad_class.append(word_to_text(w))
        zeta_hits.add(i)
        if n and ws.in_tilde:
            t = bimap._chi_tree(w, k)
            _, wt = table.record(Forest(k, (t,)))
            plateau_slots = t.slots is None or all(not s for s in t.slots[: k - 1])
            if (
                bimap.chi_inv(t, k) != w
                or (n >= 2 and wt.lleaf != ws.ap)
                or ws.in_bar != plateau_slots
            ):
                bad_chi.append(word_to_text(w))
    xi_hits.discard(None)  # a miss takes no place
    zeta_hits.discard(None)
    yield _count_report("bij.xi.roundtrip+lap", n, k, bad_xi)
    yield _count_report("bij.chi.roundtrip+ap", n, k, bad_chi)
    yield _count_report("bij.zeta.roundtrip+ap", n, k, bad_zeta)
    yield _count_report("bij.zeta.bar-class", n, k, bad_class)
    yield _eq_report("bij.xi.image=forests", n, k, len(xi_hits), len(table.forests))
    yield _eq_report("bij.zeta.image=forests", n, k, len(zeta_hits), len(table.forests))


def _toggled(before, after) -> bool:
    return {before, after} == {NodeClass.OLD_INTERNAL, NodeClass.YOUNG_LEAF}


def _bijection_report(identity, n, k, image: dict, target: list, bad: list):
    """Every target key hit exactly once by the image counts, keyed alike by
    table place (a miss's place is None), and no witness of a broken side
    condition."""
    members = sum(image.values())
    bijective = members == len(target) and all(image.get(t, 0) == 1 for t in target)
    witness = bad[0] if bad else None if bijective else "image mismatch"
    return IdentityReport(identity, n, k, members, len(target),
                          bijective and not bad, witness)


def _orbit_table(start, labels, trees: dict, walked: set):
    """The orbit of the one-tree forest ``start`` under the toggles, walked
    breadth first inside the cell's trees: its members and, per member, the
    image at each label, each from one ``gfs.phi`` call.  ``trees`` maps
    each tree of the cell to the table's one-tree forest of it, so an image
    is that forest (and images compare with ``is``), or None when it is no
    tree of the cell; an image in an orbit walked before is not walked
    again.  The members' ids join ``walked``."""
    members, rows = [start], []
    walked.add(id(start))
    for s in members:  # the walk appends the members it reaches
        row = []
        t = s.trees[0]
        for x in labels:
            image = gfs.phi(t, x)
            c = s if image is t else trees.get(image)
            if c is not None and id(c) not in walked:
                walked.add(id(c))
                members.append(c)
            row.append(c)
        rows.append(row)
    return members, rows


def _suite_gfs(n, k, cell):
    table = cell.forests
    labels = range(1, n + 1)
    bad_inv, bad_comm, bad_type, bad_orbit = [], [], [], []
    orbit_total = IntPolynomial()
    tree_lleaf = _Census()  # the T lleaf histogram, from the profiles taken here
    # the table's one-tree forests, in enumerate_trees order, by their tree
    trees = {f.trees[0]: f for f in table.forests if len(f.trees) == 1}
    walked: set[int] = set()
    for start in trees.values():
        if id(start) in walked:
            continue
        # one table per orbit: each member's toggle images and profile
        members, rows = _orbit_table(start, labels, trees, walked)
        profiles = [table.held(s)[2] for s in members]
        pos = {id(s): i for i, s in enumerate(members)}
        for s, row, p in zip(members, rows, profiles):
            tree_lleaf.bump("lleaf", p.stats.lleaf)
            at = [pos.get(id(c)) for c in row]  # each image's place in the table
            for i, x in enumerate(labels):
                if row[i] is s:  # the identity: nothing moves, so nothing can fail
                    continue
                # an image in an earlier orbit cannot toggle back to s, or
                # that orbit's walk would have reached s
                if at[i] is None or rows[at[i]][i] is not s:
                    bad_inv.append(f"{serialize_forest(s)} @ {x}")
                if at[i] is None:
                    continue
                before, after = p.classes, profiles[at[i]].classes
                for z in labels:
                    ok = before[z] == after[z] or z == x and _toggled(before[z], after[z])
                    if not ok:
                        bad_type.append(f"{serialize_forest(s)} @ {x}/{z}")
            # phi(phi(s, x), y) against phi(phi(s, y), x), where both first
            # images are in the table
            for i, x in enumerate(labels):
                for j in range(i):  # y = labels[j] < x
                    if (at[i] is not None and at[j] is not None
                            and rows[at[i]][j] is not rows[at[j]][i]):
                        bad_comm.append(f"{serialize_forest(s)} @ {x},{labels[j]}")
        # the orbit holds 2^oint trees, exactly one of them young-leaf free,
        # and that one is every member's representative
        young_free = [(s, p.stats) for s, p in zip(members, profiles) if not p.yleaf]
        reps = [gfs.orbit_representative(s) for s in members]
        if len(young_free) != 1:
            bad_orbit.append(serialize_forest(start))
        else:
            rep, st = young_free[0]
            if len(members) != 2**st.oint or any(r != rep for r in reps):
                bad_orbit.append(serialize_forest(rep))
        for _, st in young_free:
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
                         orbit_total, tree_lleaf.poly("lleaf"))
    # theta round trip on X; on X-bar and X-hat (keyed by in_bar) also image
    # equality onto Y-bar and Y-hat, plus the statistic shift and invariance
    # facts; a marked forest is keyed by (table place, marks)
    bad_theta: list[str] = []
    bad_shift: dict[bool, list[str]] = {True: [], False: []}
    image: dict[bool, dict[tuple, int]] = {True: {}, False: {}}
    target: dict[bool, list[tuple]] = {True: [], False: []}
    for i, f in enumerate(table.forests):
        p = table.held(f)[2]
        base = p.stats
        target[base.in_bar].extend((i, mf.marks) for mf in _marked(f, _class_domain("Y", p)))
        pool = _class_domain("X", p)
        for mf in _marked(f, DOMAINS["X"](p)):
            out = gfs.theta(mf)
            j, g, outp = table.held(out.forest)  # g is f unless an old internal is marked
            if gfs.theta_prime(MarkedForest(g, out.marks)) != mf:
                bad_theta.append(mf.text())
            if pool is None or not mf.marks <= pool:
                continue
            outst = outp.stats
            if (
                outst.lleaf - outst.si != base.lleaf - base.si + len(mf.marks & p.oint)
                or outst.rleaf != 0
                or outp.si_star != p.si_star
                or outst.in_bar != base.in_bar
            ):
                bad_shift[base.in_bar].append(mf.text())
            key = j, out.marks
            image[base.in_bar][key] = image[base.in_bar].get(key, 0) + 1
    yield _count_report("gfs.theta.roundtrip", n, k, bad_theta)
    for bar, side in ((True, "bar"), (False, "hat")):
        yield _bijection_report(f"gfs.theta.{side}-bijection", n, k,
                                image[bar], target[bar], bad_shift[bar])


def _suite_pipeline(n, k, cell):
    table = cell.forests
    labels = range(1, n + 1)
    bad_shift, bad_class, bad_round, bad_obs, bad_ab_traj = [], [], [], [], []
    bad_pairs, bad_ba = [], []
    # the composite bijection onto each class (keyed by in_bar), with the
    # mark-count shift; a forest is keyed by its table place
    image: dict[bool, dict[int | None, int]] = {True: {}, False: {}}
    target: dict[bool, list[int]] = {True: [], False: []}
    bad_main: dict[bool, list[str]] = {True: [], False: []}
    for i, f in enumerate(table.forests):
        p = table.held(f)[2]
        base_stat, bar = p.stats.lleaf - p.stats.si, p.stats.in_bar
        target[bar].append(i)
        for x in labels:
            g = pipeline.psi(f, x)
            gs = p.stats if g is f else table.record(g)[1]
            if x in p.si_star:  # a non-final singleton
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
            if gs.lleaf - gs.si != expect or gs.violations:
                bad_shift.append(f"{serialize_forest(f)} @ {x}")
            if gs.in_bar != bar:
                bad_class.append(f"{serialize_forest(f)} @ {x}")
        chain = list(pipeline._beta_chain(f))
        for prev, cur in zip(chain, chain[1:]):
            if pipeline.alpha_step(cur) != prev:
                bad_ab_traj.append(f"{prev.text()} -> {cur.text()}")
            for y in cur.marks - prev.marks:  # the root label beta marked
                y_pos = pipeline._singleton_index(cur.forest, y)
                after = forest_profile(cur.forest)
                for r in after.removable_old | after.removable_young:
                    if cur.forest.tree_index_of(r) < y_pos:
                        bad_obs.append(f"{serialize_forest(cur.forest)} @ {r}")
        if pipeline.gamma_map(chain[-1]) != f:
            bad_round.append(serialize_forest(f))
        # gamma on marked pairs, with beta-after-alpha inversion along the way
        for mf in _marked(f, _class_domain("Y", p)):
            state = mf
            while state.marks:
                nxt = pipeline.alpha_step(state)
                nxt = MarkedForest(table.held(nxt.forest)[1], nxt.marks)
                if pipeline.beta_step(nxt) != state:
                    bad_ba.append(state.text())
                state = nxt
            # the chain is gamma's: state.forest is gamma(mf)
            if pipeline.gamma_prime_map(state.forest) != mf:
                bad_pairs.append(mf.text())
        for mf in _marked(f, _class_domain("X", p)):
            j, gs = table.record(pipeline.main_bijection(mf))
            if gs.lleaf - gs.si != base_stat + len(mf.marks):
                bad_main[bar].append(mf.text())
            image[bar][j] = image[bar].get(j, 0) + 1
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


def _suite_theorems(n, k, cell):
    if n < 1:
        return
    words = cell.words
    forests = _fold_forests(_forests(n, k))
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


# The suites in run order, each with its runner and its exhaustive range, the
# largest n per k: censuses run to 7 for k <= 2 and 6 for k = 3 (about 2 * 10^6
# objects); the action and pipeline suites, which touch each object many
# times, stop at 5 and profile the forest table before the bijection suite.
_SUITE_TABLE = {
    "polynomials": (_suite_polynomials, lambda k: 7 if k <= 2 else 6),
    "gfs": (_suite_gfs, lambda k: 5),
    "pipeline": (_suite_pipeline, lambda k: 5),
    "bijections": (_suite_bijections, lambda k: 6),
    "theorems": (_suite_theorems, lambda k: 7 if k <= 2 else 6),
}
SUITES = tuple(_SUITE_TABLE)


def run_suite(n_max: int, k_max: int, suites=SUITES) -> list[IdentityReport]:
    """One report per (identity, n, k) cell, sorted by identity, n, k; a
    suite named twice runs once.

    The cells run in turn, k then n, each through every named suite whose
    range holds it, in ``SUITES`` order; a cell's word fold and forest table
    are made when a suite first asks for them and dropped with the cell."""
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if n_max < 0 or k_max < 1:
        raise ValueError("need n_max >= 0 and k_max >= 1")
    reports: list[IdentityReport] = []
    runs = [run for suite, run in _SUITE_TABLE.items() if suite in suites]
    for k in range(1, k_max + 1):
        for n in range(0, min(n_max, max((cap(k) for _, cap in runs), default=-1)) + 1):
            cell = _Cell(n, k)  # the suites of this cell share it, and drop it after
            for runner, cap in runs:
                if n <= cap(k):
                    reports.extend(runner(n, k, cell))
    reports.sort(key=lambda r: (r.identity, r.n, r.k))
    return reports
