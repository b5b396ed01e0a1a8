"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion with its runtime.  The heavier censuses are shared between
criteria through a module-level cache, and each criterion's stated runtime
budget is asserted where one exists.
"""

import time
from contextlib import contextmanager

from stirling_forests.bimap import xi, xi_inv, zeta
from stirling_forests.forest import (
    enumerate_forests,
    forest_profile,
    forest_stats,
    label_sets,
    parse_forest,
    parse_tree,
    removable_labels,
    serialize_forest,
)
from stirling_forests.gfs import phi, phi_set
from stirling_forests.oracle import (
    distribution,
    gamma_census_bar_hat,
    gamma_census_tilde,
    run_suite,
)
from stirling_forests.pipeline import alpha_step, beta_step, gamma_map, psi
from stirling_forests.gfs import marked_forest
from stirling_forests.polyx import IntPolynomial, egf_one_over_k_eulerian, symmetric_decompose
from stirling_forests.stirling import descent_polynomial, word_from_text

_CACHE: dict = {}


def theorem_reports():
    if "theorems" not in _CACHE:
        _CACHE["theorems"] = run_suite(7, 3, suites=("theorems",))
    return _CACHE["theorems"]


@contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
            )
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description} ({elapsed:.2f}s)")


def assert_all_pass(reports):
    failures = [r for r in reports if not r.passed]
    assert not failures, failures[:5]
    assert reports


def test_criterion_01_worked_example():
    with criterion(1, "order-3 pair census and symmetric decomposition", budget=1.0):
        census = gamma_census_bar_hat(3, 2)
        assert census == {"gamma_bar": [1, 5], "gamma_hat": [0, 3]}
        dec = symmetric_decompose(egf_one_over_k_eulerian(2, 3)[3], 2)
        assert dec.a == IntPolynomial([1, 7, 1])
        assert dec.b == IntPolynomial([3, 3])


def test_criterion_02_first_letter_one_values():
    with criterion(2, "minimum-first ap polynomials and tree censuses", budget=1.0):
        assert distribution("Qtilde", "ap", 2, 3) == IntPolynomial([0, 3])
        assert distribution("Qtilde", "ap", 3, 3) == IntPolynomial([0, 9, 9])
        assert distribution("Qtilde", "ap", 4, 3) == IntPolynomial([0, 27, 108, 27])
        assert gamma_census_tilde(2, 3) == [0, 3]
        assert gamma_census_tilde(3, 3) == [0, 9]
        assert gamma_census_tilde(4, 3) == [0, 27, 54]


def test_criterion_03_figure_fixtures():
    with criterion(3, "figure totals and golden fixtures"):
        forests = list(enumerate_forests([1, 2, 3], 2))
        assert sum(1 for f in forests if forest_profile(f).stats.in_bar) == 9
        assert sum(1 for f in forests if not forest_profile(f).stats.in_bar) == 6

        fig1 = parse_forest("1[10;;9] 2[;;3] 4[5[;6;],8;;7]", 3)
        assert serialize_forest(fig1) == "1[10;;9] 2[;;3] 4[5[;6;],8;;7]"
        assert removable_labels(fig1) == {"old": {3}, "young": set()}

        fig4 = "1[;3,7;] 2[4[;;6];;5] 8"
        assert serialize_forest(xi(word_from_text("133377711446664225552888"), 3)) == fig4
        assert serialize_forest(zeta(word_from_text("888244666422555113337771"), 3)) == fig4
        assert xi_inv(parse_forest(fig4, 3)) == word_from_text("133377711446664225552888")

        t1 = parse_tree("1[3,4[5,10;6[;9;],8;7];;2]", 3)
        t2 = parse_tree("1[3,4,5,10;6[;9;],8;2,7]", 3)
        assert phi(t1, 4) == t2 and phi(t2, 4) == t1

        fig7 = parse_forest("1[;3[;7;];2] 4[;;5[;6,8;]] 9", 3)
        assert serialize_forest(phi_set(fig7, {3, 5})) == "1[;3,7;2] 4[;6,8;5] 9"

        f1 = parse_forest("1[3;;7] 2 4[;;6] 5 8", 3)
        f2 = parse_forest("1[3;;7] 2[;;4[;;6],5] 8", 3)
        assert psi(f1, 2) == f2 and psi(f2, 5) == f1

        f3 = parse_forest("1[3;;7] 2 4[;;9] 5[;8;6]", 3)
        f4 = parse_forest("1[3;;7] 2[;8;4[;;9],5,6]", 3)
        assert psi(f3, 2) == f4 and psi(f4, 5) == f3

        state = marked_forest(parse_forest("1 2[;5;] 3 4[;;7] 6 8[;9,10;]", 3), {1, 3})
        step1 = alpha_step(state)
        assert step1.text() == "1 2[;5;] 3[;;4[;;7],6] 8[;9,10;] | {1}"
        step2 = alpha_step(step1)
        assert step2.text() == "1[;9,10;2[;5;],3[;;4[;;7],6],8] | {}"
        assert gamma_map(state) == step2.forest

        fig11 = marked_forest(parse_forest("1[;4,7;2[;5;],3,6[;8;]]", 3), set())
        assert beta_step(fig11).text() == "1 2[;5;] 3[;4,7;6[;8;]] | {1}"


def test_criterion_04_triple_route_agreement():
    with criterion(4, "EGF = excedance/cycle = ascent-plateau routes, n <= 6", budget=30.0):
        reports = run_suite(6, 3, suites=("polynomials",))
        assert_all_pass(reports)


def test_criterion_05_pair_census_theorem():
    with criterion(5, "bar/hat censuses match distributions and decomposition", budget=300.0):
        reports = [
            r
            for r in theorem_reports()
            if r.identity.startswith(("thm.bar.", "thm.hat.", "thm.classwise.", "thm.count."))
        ]
        assert_all_pass(reports)
        ns = {(r.n, r.k) for r in reports}
        assert (7, 2) in ns and (6, 3) in ns and (7, 1) in ns


def test_criterion_06_tree_census_theorem():
    with criterion(6, "tree census matches words, plus the k=1 reduction", budget=300.0):
        reports = [
            r
            for r in theorem_reports()
            if r.identity.startswith(("thm.tilde.", "thm.k1."))
        ]
        assert_all_pass(reports)
        # the reduction one order past the suite cap: order 8 against A_7
        assert distribution("Qtilde", "ap", 8, 1) == descent_polynomial(7).shift(1)


def test_criterion_07_bijection_suite():
    with criterion(7, "bijection round-trips and statistic transport, n <= 6"):
        reports = run_suite(6, 3, suites=("bijections",))
        assert_all_pass(reports)


def test_criterion_08_action_suite():
    with criterion(8, "toggle action: involution, orbits, census, n <= 5"):
        reports = run_suite(5, 3, suites=("gfs",))
        assert_all_pass(reports)


def test_criterion_09_pipeline_suite():
    with criterion(9, "step inversions and the composite bijection, n <= 5", budget=120.0):
        reports = run_suite(5, 3, suites=("pipeline",))
        assert_all_pass(reports)


def test_criterion_10_property_floor():
    with criterion(10, "leaf-split and starred counting relations everywhere"):
        reports = [
            r for r in theorem_reports() if r.identity.startswith("thm.relation.")
        ]
        assert_all_pass(reports)
        # spot-check the starred relations directly at one mid-size cell
        n, k = 5, 2
        for f in enumerate_forests(range(1, n + 1), k):
            st = forest_stats(f)
            assert st.oleaf + st.yleaf + st.si == st.lleaf
            if st.yleaf == 0 and st.rleaf == 0:
                sets = label_sets(f)
                if forest_profile(f).stats.in_bar:
                    assert (
                        len(sets["Oint_star"]) + len(sets["Si_star"])
                        == n - 1 - 2 * st.oleaf
                    )
                else:
                    assert st.oint + st.si == n - 2 * st.oleaf
