import itertools
import sys
import tracemalloc
from collections import Counter

import pytest

import stirling_forests.forest as forest_module
import stirling_forests.stirling as stirling_module
from stirling_forests import bimap, gfs, oracle, pipeline
from stirling_forests.cli import main
from stirling_forests.forest import (
    Forest,
    LabeledTree,
    NodeClass,
    enumerate_forests,
    enumerate_trees,
    forest_profile,
    forest_stats,
    node_classes,
    parse_forest,
)
from stirling_forests.oracle import (
    distribution,
    gamma_census_bar_hat,
    gamma_census_tilde,
    run_suite,
)
from stirling_forests.polyx import (
    GammaExpansion,
    IntPolynomial,
    egf_one_over_k_eulerian,
    gamma_compose,
)
from stirling_forests.stirling import count_k_stirling, enumerate_k_stirling, stat_ap, stat_lap


def _counted(calls, name, real):
    """real, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return wrapper


def _count_walks(monkeypatch) -> Counter:
    """Count the calls of the one forest walk, of the census record at the
    oracle and of forest_profile at each module that calls it."""
    calls = Counter()
    monkeypatch.setattr(forest_module, "_walk", _counted(calls, "_walk", forest_module._walk))
    monkeypatch.setattr(oracle, "forest_stats",
                        _counted(calls, "forest_stats", oracle.forest_stats))
    profile = _counted(calls, "forest_profile", forest_module.forest_profile)
    for module in (forest_module, gfs, pipeline, oracle):
        monkeypatch.setattr(module, "forest_profile", profile)
    return calls


def _bare_root(real, t, x):
    """A toggle mutant: the bare root in place of every image that moves,
    which is no tree of the cell."""
    return t if real(t, x) is t else LabeledTree(t.label)


def _stuck_at_old_internals(real, t, x):
    """A toggle mutant: the identity at an old internal label, so a young
    leaf's toggle does not come back."""
    k = len(t.slots) if t.slots is not None else 1
    old = node_classes(Forest(k, (t,)))[x] is NodeClass.OLD_INTERNAL
    return t if old else real(t, x)


def _swapped_roots(real, word, k):
    """An xi mutant: the first two roots of the image swapped."""
    trees = real(word, k)
    return trees[1::-1] + trees[2:] if len(trees) > 1 else trees


def _duplicated_label(real, f, x):
    """A psi mutant: where psi returns its forest, x duplicated as a final
    singleton, which is no forest of the cell."""
    g = real(f, x)
    return Forest(f.k, f.trees + (LabeledTree(x),)) if g is f else g


class TestDistribution:
    @pytest.mark.parametrize(
        "family,stat,n,k,coeffs",
        [
            ("Qtilde", "ap", 3, 3, [0, 9, 9]),
            ("Qbar", "ap", 3, 2, [1, 7, 1]),
            ("Q", "ap", 2, 2, [1, 2]),
            ("Q", "lap", 2, 2, [0, 2, 1]),
            ("Fbar", "lleaf-si", 3, 2, [1, 7, 1]),
            ("Fhat", "lleaf-si", 3, 2, [0, 3, 3]),
            ("T", "lleaf", 3, 3, [0, 9, 9]),
        ],
    )
    def test_values(self, family, stat, n, k, coeffs):
        assert distribution(family, stat, n, k) == IntPolynomial(coeffs)

    def test_incompatible_pairs(self):
        with pytest.raises(ValueError):
            distribution("Q", "lleaf", 2, 2)
        with pytest.raises(ValueError):
            distribution("F", "ap", 2, 2)
        with pytest.raises(ValueError):
            distribution("T", "lleaf-si", 2, 2)
        with pytest.raises(ValueError):
            distribution("Qx", "ap", 2, 2)

    def test_forest_families_need_positive_k(self):
        for family in ("F", "T"):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                distribution(family, "lleaf", 3, 0)

    # a negative order is refused on the forest side as on the word side,
    # not counted as the empty forest
    @pytest.mark.parametrize("view,args", [
        (distribution, ("F", "lleaf", -1, 2)),
        (distribution, ("Fbar", "lleaf-si", -1, 2)),
        (distribution, ("Fhat", "lleaf", -1, 2)),
        (distribution, ("T", "lleaf", -1, 2)),
        (distribution, ("Q", "ap", -1, 2)),
        (gamma_census_bar_hat, (-2, 2)),
        (gamma_census_tilde, (-1, 2)),
    ], ids=["F", "Fbar", "Fhat", "T", "Q", "bar-hat", "tilde"])
    def test_negative_order_refused(self, view, args):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            view(*args)


class TestCensuses:
    def test_bar_hat_3_2(self):
        assert gamma_census_bar_hat(3, 2) == {"gamma_bar": [1, 5], "gamma_hat": [0, 3]}

    def test_order_one(self):
        assert gamma_census_bar_hat(1, 2) == {"gamma_bar": [1], "gamma_hat": []}

    def test_composition_sums_to_full_polynomial(self):
        census = gamma_census_bar_hat(4, 3)
        total = gamma_compose(
            GammaExpansion(3, tuple(census["gamma_bar"]))
        ) + gamma_compose(GammaExpansion(4, tuple(census["gamma_hat"])))
        assert total == egf_one_over_k_eulerian(3, 4)[4]

    @pytest.mark.parametrize(
        "n,k,expected", [(3, 3, [0, 9]), (4, 3, [0, 27, 54]), (2, 3, [0, 3])]
    )
    def test_tilde(self, n, k, expected):
        assert gamma_census_tilde(n, k) == expected

    def test_tilde_needs_two_labels(self):
        with pytest.raises(ValueError):
            gamma_census_tilde(1, 2)

    def test_census_entries_are_nonnegative_by_construction(self):
        for k in (1, 2, 3):
            for n in range(1, 5):
                census = gamma_census_bar_hat(n, k)
                assert all(g >= 0 for g in census["gamma_bar"])
                assert all(g >= 0 for g in census["gamma_hat"])


class TestRunSuite:
    def test_theorem_suite_small(self):
        reports = run_suite(3, 2, suites=("theorems",))
        assert reports and all(r.passed for r in reports)
        by_name = {
            (r.identity, r.n, r.k): r for r in reports
        }
        bar = by_name[("thm.bar.census=distribution", 3, 2)]
        assert bar.left == bar.right == IntPolynomial([1, 7, 1])
        hat = by_name[("thm.hat.census=distribution", 3, 2)]
        assert hat.left == hat.right == IntPolynomial([0, 3, 3])

    def test_polynomials_triple_route(self):
        reports = run_suite(4, 3, suites=("polynomials",))
        assert reports and all(r.passed for r in reports)

    def test_vacuous_bijections(self):
        reports = run_suite(0, 2, suites=("bijections",))
        assert reports and all(r.passed for r in reports)

    def test_reports_sorted_and_jsonable(self):
        reports = run_suite(2, 2, suites=("gfs", "pipeline"))
        keys = [(r.identity, r.n, r.k) for r in reports]
        assert keys == sorted(keys)
        for r in reports:
            d = r.as_dict()
            assert {"identity", "n", "k", "pass", "left", "right"} <= set(d)

    def test_gfs_suite_passes_trees_once(self, monkeypatch):
        # the orbit trees are the one-tree forests of the cell's table: one
        # forest enumeration per cell and no tree enumeration; their profiles
        # also give the T lleaf histogram, and every forest walk is a
        # profile's, so the trees are not validated again: 191 walks at
        # n <= 4, k <= 2, the 159 forests of the cells and 32 orbit
        # representatives checked young-leaf free
        calls = _count_walks(monkeypatch)
        for name in ("enumerate_forests", "enumerate_trees"):
            monkeypatch.setattr(oracle, name, _counted(calls, name, getattr(oracle, name)))
        assert all(r.passed for r in run_suite(4, 2, suites=("gfs",)))
        assert calls["enumerate_forests"] == 10
        assert calls["enumerate_trees"] == 0
        assert (calls["_walk"], calls["forest_stats"]) == (191, 0)

    # Each forest walk of these suites is that of a record they read: the
    # bijection suite reads census records, one per forest of the cells, and
    # builds no profile, and the gfs suite reads profiles only
    @pytest.mark.parametrize("suite,walks", [("bijections", 473), ("gfs", 595)],
                             ids=["bijections", "gfs"])
    def test_map_suites_walk_only_for_their_records(self, monkeypatch, suite, walks):
        calls = _count_walks(monkeypatch)
        assert all(r.passed for r in run_suite(4, 3, suites=(suite,)))
        assert calls["_walk"] == walks
        if suite == "bijections":
            assert calls["forest_stats"] == walks and calls["forest_profile"] == 0
        else:
            assert calls["forest_stats"] == 0

    def test_map_suites_share_one_forest_table_per_cell(self, monkeypatch):
        # the three map suites share one table per (n, k) cell: one forest
        # enumeration per cell, no tree enumeration, the oracle's own census
        # walks see every forest of a cell once, and each table object is
        # walked once, for the profile it stores, whose record the bijection
        # suite then reads: 473 of the 1 007 walks, the rest the maps' walks
        # of the states they make
        cells, seen = Counter(), {"forest_stats": Counter()}
        walked, tables = [], []  # the walked forests stay alive, so their ids stay theirs
        real_enumerate, real_walk = oracle.enumerate_forests, forest_module._walk

        def enumerate_forests(labels, k):
            cells[len(labels), k] += 1
            return real_enumerate(labels, k)

        def enumerate_trees(labels, k):
            raise AssertionError("trees enumerated")

        def seeing(name, real):
            def wrapper(f):
                seen[name][f] += 1
                return real(f)
            return wrapper

        def walk(f):
            walked.append(f)
            return real_walk(f)

        class Recorded(oracle._Table):
            def __init__(self, n, k):
                super().__init__(n, k)
                tables.append(self)

        monkeypatch.setattr(oracle, "enumerate_forests", enumerate_forests)
        monkeypatch.setattr(oracle, "enumerate_trees", enumerate_trees)
        monkeypatch.setattr(forest_module, "_walk", walk)
        monkeypatch.setattr(oracle, "_Table", Recorded)
        for name in seen:
            monkeypatch.setattr(oracle, name, seeing(name, getattr(oracle, name)))
        reports = run_suite(4, 3, ("bijections", "gfs", "pipeline"))
        assert reports and all(r.passed for r in reports)
        assert cells == Counter({(n, k): 1 for n in range(5) for k in range(1, 4)})
        forests = sum(count_k_stirling(n, k) for n in range(5) for k in range(1, 4))
        for name, counts in seen.items():
            assert len(counts) == forests and set(counts.values()) == {1}, name
        walks = Counter(map(id, walked))
        held = [f for table in tables for f in table.forests]
        assert len(held) == forests == 473
        assert [walks[id(f)] for f in held] == [1] * forests
        assert len(walked) == 1_007

    def test_census_suites_share_one_word_fold_per_cell(self, monkeypatch):
        # theorems and polynomials fold each cell's words once per call; the
        # theorem suite walks (and so validates) each forest once; each call
        # folds its own
        cells, walked = [], [0]
        real_enumerate, real_walk = oracle.enumerate_k_stirling, oracle.forest_stats

        def enumerate_words(n, k, *args):
            cells.append((n, k))
            return real_enumerate(n, k, *args)

        def walk(f):
            walked[0] += 1
            return real_walk(f)

        monkeypatch.setattr(oracle, "enumerate_k_stirling", enumerate_words)
        monkeypatch.setattr(oracle, "forest_stats", walk)
        both = run_suite(4, 3, suites=("theorems", "polynomials"))
        expected = sorted((n, k) for n in range(5) for k in range(1, 4))
        assert sorted(cells) == expected
        assert walked[0] == sum(
            count_k_stirling(n, k) for n in range(1, 5) for k in range(1, 4)
        )
        cells.clear()
        alone = run_suite(4, 3, suites=("theorems",)) + run_suite(4, 3, suites=("polynomials",))
        assert sorted(cells) == sorted(expected + [(n, k) for n, k in expected if n])
        alone.sort(key=lambda r: (r.identity, r.n, r.k))
        assert [r.as_dict() for r in both] == [r.as_dict() for r in alone]
        assert all(r.passed for r in both)

    def test_map_suites_run_in_one_order(self, monkeypatch):
        # a cell runs its suites in SUITES order, whatever order they are
        # named in: every order of the three map suites gives the same
        # reports from the same 1 007 walks at n <= 4, k <= 3
        calls = _count_walks(monkeypatch)
        outcomes = set()
        for suites in itertools.permutations(("bijections", "gfs", "pipeline")):
            calls.clear()
            reports = tuple(repr(r.as_dict()) for r in run_suite(4, 3, suites))
            outcomes.add((reports, calls["_walk"]))
        assert len(outcomes) == 1
        assert outcomes.pop()[1] == 1_007

    def test_repeated_suite_runs_once(self):
        once = [r.as_dict() for r in run_suite(3, 2, ("gfs",))]
        assert len(once) == 60
        assert [r.as_dict() for r in run_suite(3, 2, ("gfs", "gfs"))] == once

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite(2, 2, suites=("nope",))

    @pytest.mark.parametrize("n_max,k_max", [(2, 0), (-3, 2)])
    def test_empty_range_rejected(self, n_max, k_max):
        with pytest.raises(ValueError):
            run_suite(n_max, k_max)

    # Each suite analyses an object once: forest walks at n <= 5, k <= 3.
    # The oracle walks each of the 5 178 forests of the cells once for the
    # suite's record or profile, in the cell's table, which the forest then
    # stores (the pipeline suite also walks for 1 586 census records, of the
    # psi and main-bijection images it has not profiled yet; with the gfs
    # suite, which runs first, it profiles them all, and the bijection suite
    # reads their records); the rest are the maps' walks of the states they
    # make (of the beta chains and of gamma's alpha steps, and each orbit
    # representative checked young-leaf free).  Counted as
    # forest_profile calls, the pipeline and gfs bounds were 9 870 and 6 770
    # while the oracle threaded profiles through the maps; all three made
    # 16 640 walks while they ran in the order named; before the table
    # 17 792 and 12 353, before the gfs orbit tables gfs 19 194, before
    # main_bijection handed its profile on pipeline 20 566, and when the
    # profiles were first threaded through the maps 75 663 and 45 883.
    @pytest.mark.parametrize("suites,walks", [
        ("bijections", 5_178), ("gfs", 6_770), ("pipeline", 11_456),
        ("bijections+gfs+pipeline", 11_462)])
    def test_map_suites_profile_each_object_once(self, monkeypatch, suites, walks):
        calls = _count_walks(monkeypatch)
        assert all(r.passed for r in run_suite(5, 3, suites=suites.split("+")))
        assert calls["_walk"] == walks

    # The suites call each map by its public name, so a wrapper put on it
    # (the benchmark's tracer, a mutant) sees their calls.
    def test_map_suites_reach_every_public_map(self, monkeypatch):
        maps = (gfs.theta, gfs.theta_prime, pipeline.alpha_step, pipeline.beta_step,
                pipeline.gamma_map, pipeline.gamma_prime_map, pipeline.main_bijection)
        counted = Counter()

        def counting(fn):
            def wrapper(*args, **kwargs):
                counted[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        wrappers = {id(fn): counting(fn) for fn in maps}
        aliases = [
            (module, name, wrappers[id(value)])
            for module_name, module in sys.modules.items()
            if module_name.split(".")[0] == "stirling_forests"
            for name, value in vars(module).items()
            if id(value) in wrappers
        ]
        for module, name, wrapper in aliases:
            monkeypatch.setattr(module, name, wrapper)
        assert all(r.passed for r in run_suite(4, 2, ("gfs", "pipeline")))
        assert set(counted) == {fn.__name__ for fn in maps}

    # The gfs suite toggles each (tree, label) once, in its orbit's table:
    # 12 723 gfs.phi calls at n <= 5, k <= 3 (87 981 when every composite
    # was toggled afresh, 46 282 when each tree's images were toggled again
    # by the commutation loop and by gfs.orbit).
    def test_gfs_suite_toggles_each_image_once(self, monkeypatch):
        counted = [0]
        real = gfs.phi

        def phi(t, x):
            counted[0] += 1
            return real(t, x)

        monkeypatch.setattr(gfs, "phi", phi)
        assert all(r.passed for r in run_suite(5, 3, suites=("gfs",)))
        pairs = sum(n * sum(1 for _ in enumerate_trees(range(1, n + 1), k))
                    for n in range(6) for k in range(1, 4))
        assert counted[0] == pairs == 12_723

    # Faulty toggles: the gfs suite walks no orbit outside the cell's trees,
    # returns, and fails the involution and orbit checks at the cell.
    @pytest.mark.parametrize("mutant", [_bare_root, _stuck_at_old_internals],
                             ids=lambda mutant: mutant.__name__.strip("_"))
    def test_faulty_toggle_fails_its_reports(self, monkeypatch, mutant):
        real = gfs.phi
        monkeypatch.setattr(gfs, "phi", lambda t, x: mutant(real, t, x))
        reports = {(r.identity, r.n, r.k): r for r in run_suite(4, 2, suites=("gfs",))}
        for identity in ("gfs.phi.involution", "gfs.orbit.unique-representative"):
            assert not reports[identity, 4, 2].passed, identity

    # Faulty maps whose image equals no forest of the cell: the image is
    # walked fresh and fails its identity, run_suite returns, and the cell's
    # table keeps exactly its enumerated forests.
    @pytest.mark.parametrize("module,name,mutant,suite,failing", [
        # xi with its first two roots swapped: the roots no longer increase
        (bimap, "_xi_trees", _swapped_roots, "bijections",
         ("bij.xi.roundtrip+lap", "bij.xi.image=forests")),
        # psi duplicating x where it should return its forest, as a final
        # singleton, which also puts a hat forest in the bar class
        (pipeline, "psi", _duplicated_label, "pipeline",
         ("pipe.psi.shift", "pipe.psi.bar-preserved")),
    ], ids=["xi-swapped-roots", "psi-duplicated-label"])
    def test_missed_image_fails_and_is_not_stored(self, monkeypatch, module, name, mutant,
                                                  suite, failing):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: mutant(real, *args))
        tables = []

        class Recorded(oracle._Table):
            def __init__(self, n, k):
                super().__init__(n, k)
                tables.append((n, k, self))

        monkeypatch.setattr(oracle, "_Table", Recorded)
        reports = {(r.identity, r.n, r.k): r for r in run_suite(4, 2, suites=(suite,))}
        for identity in failing:
            assert not reports[identity, 4, 2].passed, identity
        image = reports.get(("bij.xi.image=forests", 4, 2))
        if image is not None:
            assert image.left < image.right
        assert len(tables) == 10  # n = 0..4, k = 1, 2
        for n, k, table in tables:
            forests = list(enumerate_forests(range(1, n + 1), k))
            assert table.forests == forests
            assert len(table._places) == len(table._ids) == len(forests)

    def test_partial_representative_fails_the_orbit_check(self, monkeypatch):
        # a representative that toggles only the greatest young leaf keeps
        # the others, so it is not the orbit's young-leaf-free member
        real = gfs.phi

        def one_toggle(f):
            yleaf = forest_profile(f).yleaf
            return Forest(f.k, (real(f.trees[0], max(yleaf)),)) if yleaf else f

        monkeypatch.setattr(gfs, "orbit_representative", one_toggle)
        reports = {(r.identity, r.n, r.k): r for r in run_suite(4, 2, suites=("gfs",))}
        assert not reports["gfs.orbit.unique-representative", 4, 2].passed

    # Mutants of the census walk, each a wrong count in its record: the
    # relation it breaks fails at its cell, and run_suite returns.
    @pytest.mark.parametrize("identity,n,k,mutate", [
        # the last root's old grand child left among the starred old internals
        ("thm.relation.bar-star", 4, 2, lambda w: w._replace(oint_star=w.oint)),
        # an old internal counted as young
        ("thm.relation.hat-star", 4, 2, lambda w: w._replace(oint=max(w.oint - 1, 0))),
        # an internal node counted as an old leaf in every forest, which also
        # lengthens the gamma censuses past their centers
        ("thm.relation.leaf-split", 4, 2,
         lambda w: w._replace(oleaf=w.oleaf + 1, lleaf=w.lleaf + 1)),
    ])
    def test_relation_mutants_fail_their_identity(self, monkeypatch, identity, n, k, mutate):
        real = oracle.forest_stats
        monkeypatch.setattr(oracle, "forest_stats", lambda f: mutate(real(f)))
        reports = {(r.identity, r.n, r.k): r for r in run_suite(n, k, suites=("theorems",))}
        assert not reports[identity, n, k].passed

    def test_leaf_split_catches_a_misfiled_node(self, monkeypatch):
        # a walk that counts one internal node as an old leaf keeps
        # lleaf = oleaf + yleaf + si, but not lleaf = nodes - internal nodes
        bad = parse_forest("1[2[3;];] 4", 2)
        real = oracle.forest_stats

        def walk(f):
            w = real(f)
            return w._replace(oleaf=w.oleaf + 1, lleaf=w.lleaf + 1) if f == bad else w

        monkeypatch.setattr(oracle, "forest_stats", walk)
        census = oracle._fold_forests(enumerate_forests([1, 2, 3, 4], 2))
        assert census.bad["thm.relation.leaf-split"] == ["1[2[3;];] 4"]

    def test_overlong_census_fails_with_its_vector(self, monkeypatch):
        # one old leaf too many in every forest: at n = 1 the bar census
        # [0, 1] does not fit its center 0, so its reports fail with the
        # vector as their left side instead of raising
        real = oracle.forest_stats
        monkeypatch.setattr(oracle, "forest_stats",
                            lambda f: (w := real(f))._replace(oleaf=w.oleaf + 1))
        reports = {(r.identity, r.n, r.k): r for r in run_suite(1, 1, suites=("theorems",))}
        for identity in ("thm.bar.census=distribution", "thm.bar.census=decomposition"):
            report = reports[identity, 1, 1]
            assert not report.passed and report.left == [0, 1]

    def test_bijection_suite_memory(self):
        # one cell's forest table at a time, and the images read from it, not
        # kept as copies: the peak was 7.6 MB with three forest sets per cell
        tracemalloc.start()
        try:
            reports = run_suite(5, 3, suites=("bijections",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak <= 4 * 2**20

    def test_bijection_suite_validates_no_word(self, monkeypatch):
        # enumerated words are k-Stirling: the unchecked passes take them
        def refuse(word, k):
            raise AssertionError("word validated again")

        monkeypatch.setattr(stirling_module, "stirling_violation", refuse)
        assert all(r.passed for r in run_suite(5, 3, suites=("bijections",)))


# Independent reference: the families written out here from their
# definitions, not read from the library's class predicates.
def _reference_families(obj, k):
    if isinstance(obj, tuple):  # a word
        yield "Q"
        yield "Qbar" if all(a == obj[0] for a in obj[:k]) else "Qhat"
        if not obj or obj[0] == min(obj):
            yield "Qtilde"
        return
    yield "F"
    last = obj.trees[-1] if obj.trees else None
    bar = last is None or last.slots is None or all(not s for s in last.slots[: k - 1])
    yield "Fbar" if bar else "Fhat"
    if len(obj.trees) == 1:
        yield "T"


def _reference_histograms(n, k):
    hist = {}

    def bump(key, value):
        counts = hist.setdefault(key, [])
        counts.extend([0] * (value + 1 - len(counts)))
        counts[value] += 1

    for w in enumerate_k_stirling(n, k):
        for family in _reference_families(w, k):
            bump((family, "ap"), stat_ap(w, k))
            bump((family, "lap"), stat_lap(w, k))
    for f in enumerate_forests(range(1, n + 1), k):
        st = forest_stats(f)
        for family in _reference_families(f, k):
            bump((family, "lleaf"), st.lleaf)
            if family != "T":
                bump((family, "lleaf-si"), st.lleaf - st.si)
    return {key: IntPolynomial(counts) for key, counts in hist.items()}


_VALID_PAIRS = [(fam, stat) for fam in ("Q", "Qbar", "Qhat", "Qtilde") for stat in ("ap", "lap")]
_VALID_PAIRS += [(fam, stat) for fam in ("F", "Fbar", "Fhat") for stat in ("lleaf", "lleaf-si")]
_VALID_PAIRS += [("T", "lleaf")]
_CELLS = [(n, k) for n in range(5) for k in range(1, 4)]


class TestIndependentReference:
    @pytest.mark.parametrize("n,k", _CELLS)
    def test_distribution_matches_reference(self, n, k):
        reference = _reference_histograms(n, k)
        for family, stat in _VALID_PAIRS:
            expected = reference.get((family, stat), IntPolynomial())
            assert distribution(family, stat, n, k) == expected, (family, stat)

    @pytest.mark.parametrize("n,k", _CELLS)
    def test_enumerate_filter_counts(self, n, k, capsys):
        families = {
            ("perms", "bar"): ("Qbar", "ap"), ("perms", "hat"): ("Qhat", "ap"),
            ("perms", "tilde"): ("Qtilde", "ap"), ("forests", "bar"): ("Fbar", "lleaf"),
            ("forests", "hat"): ("Fhat", "lleaf"), ("forests", "tilde"): ("T", "lleaf"),
        }
        for (kind, name), (family, stat) in families.items():
            assert main(["enumerate", "--n", str(n), "--k", str(k), "--kind", kind,
                         "--filter", name]) == 0
            lines = capsys.readouterr().out.count("\n")
            assert lines == distribution(family, stat, n, k).evaluate(1), (kind, name)
