import pytest

import stirling_forests.forest as forest_module
import stirling_forests.stirling as stirling_module
from stirling_forests import gfs, oracle, pipeline
from stirling_forests.cli import main
from stirling_forests.forest import enumerate_forests, forest_stats, parse_forest
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
        # one tree enumeration per cell, whose profiles also give the T
        # lleaf histogram; the trees are not validated again
        calls = {"enumerate_trees": 0, "validate_forest": 0}

        def counted(name):
            real = getattr(oracle, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(oracle, name, counted(name))
        assert all(r.passed for r in run_suite(4, 2, suites=("gfs",)))
        assert calls == {"enumerate_trees": 10, "validate_forest": 0}

    def test_census_suites_share_one_word_fold_per_cell(self, monkeypatch):
        # theorems and polynomials fold each cell's words once per call; the
        # theorem suite validates each forest once; each call folds its own
        cells, validated = [], [0]
        real_enumerate, real_validate = oracle.enumerate_k_stirling, oracle.validate_forest

        def enumerate_words(n, k, *args):
            cells.append((n, k))
            return real_enumerate(n, k, *args)

        def validate(f):
            validated[0] += 1
            return real_validate(f)

        monkeypatch.setattr(oracle, "enumerate_k_stirling", enumerate_words)
        monkeypatch.setattr(oracle, "validate_forest", validate)
        both = run_suite(4, 3, suites=("theorems", "polynomials"))
        expected = sorted((n, k) for n in range(5) for k in range(1, 4))
        assert sorted(cells) == expected
        assert validated[0] == sum(
            count_k_stirling(n, k) for n in range(1, 5) for k in range(1, 4)
        )
        cells.clear()
        alone = run_suite(4, 3, suites=("theorems",)) + run_suite(4, 3, suites=("polynomials",))
        assert sorted(cells) == sorted(expected + [(n, k) for n, k in expected if n])
        alone.sort(key=lambda r: (r.identity, r.n, r.k))
        assert [r.as_dict() for r in both] == [r.as_dict() for r in alone]
        assert all(r.passed for r in both)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite(2, 2, suites=("nope",))

    @pytest.mark.parametrize("n_max,k_max", [(2, 0), (-3, 2)])
    def test_empty_range_rejected(self, n_max, k_max):
        with pytest.raises(ValueError):
            run_suite(n_max, k_max)

    # Each suite analyses an object once: forest_profile calls at n <= 5,
    # k <= 3, bounded by the counts measured when the profiles were first
    # threaded through the maps (pipeline 75 663 and gfs 45 883 before).
    @pytest.mark.parametrize("suite,calls", [("pipeline", 20_566), ("gfs", 19_194)])
    def test_map_suites_profile_each_object_once(self, monkeypatch, suite, calls):
        counted = [0]
        real = forest_module.forest_profile

        def profile(f):
            counted[0] += 1
            return real(f)

        for module in (forest_module, gfs, pipeline, oracle):
            monkeypatch.setattr(module, "forest_profile", profile)
        assert all(r.passed for r in run_suite(5, 3, suites=(suite,)))
        assert 0 < counted[0] <= calls

    def test_leaf_split_catches_a_misfiled_node(self, monkeypatch):
        # a profile that counts one internal node as an old leaf keeps
        # lleaf = oleaf + yleaf + si, but not lleaf = nodes - internal nodes
        bad = parse_forest("1[2[3;];] 4", 2)
        real = forest_module.forest_profile

        def profile(f):
            p = real(f)
            if f != bad:
                return p
            st = p.stats
            return p._replace(stats=st._replace(oleaf=st.oleaf + 1, lleaf=st.lleaf + 1))

        monkeypatch.setattr(oracle, "forest_profile", profile)
        census = oracle._fold_forests(enumerate_forests([1, 2, 3, 4], 2), validate=True)
        assert census.bad["thm.relation.leaf-split"] == ["1[2[3;];] 4"]

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
