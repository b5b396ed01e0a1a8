import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from stirling_forests import bimap, forest, gfs, oracle, stirling
from stirling_forests.polyx import IntPolynomial, egf_one_over_k_eulerian
from stirling_forests.stirling import (
    MAX_OBJECTS,
    LimitError,
    count_k_stirling,
    descent_polynomial,
    enumerate_k_stirling,
    exc_cyc_polynomial,
    is_k_stirling,
    perm_exc_cyc,
    starts_with_plateau,
    stat_ap,
    stat_lap,
    stirling_violation,
    word_class,
    word_from_text,
    word_to_text,
)


def W(text):
    return word_from_text(text)


class TestMembership:
    def test_nested_blocks(self):
        assert is_k_stirling(W("1221"), 2)

    def test_interleaved_blocks(self):
        assert not is_k_stirling(W("1212"), 2)
        assert "position" in stirling_violation(W("1212"), 2)

    def test_large_word(self):
        assert is_k_stirling(W("133377711446664225552888"), 3)

    def test_multiplicity_reason(self):
        assert "occurs" in stirling_violation(W("112"), 2)

    def test_reason_names_first_breaking_position(self):
        # 1 at position 2 is the first letter below an open letter, the 3
        assert stirling_violation(W("231213"), 2) == "letter 1 at position 2 lies between two 3's"


class TestEnumeration:
    def test_order_two(self):
        words = list(enumerate_k_stirling(2, 2))
        assert set(words) == {(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)}
        assert len(words) == count_k_stirling(2, 2) == 3

    def test_counts(self):
        assert count_k_stirling(3, 2) == 15
        assert sum(1 for _ in enumerate_k_stirling(3, 2)) == 15
        assert count_k_stirling(8, 2) == 2027025

    @pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in range(7)])
    def test_order_matches_level_by_level_insertion(self, n, k):
        level = [()]
        for i in range(1, n + 1):
            level = [w[:g] + (i,) * k + w[g:] for w in level for g in range(len(w) + 1)]
        assert list(enumerate_k_stirling(n, k)) == level

    def test_first_word_streams(self):
        # |Q_10(1)| = 10!: the first word is built without a whole level
        tracemalloc.start()
        try:
            assert next(enumerate_k_stirling(10, 1)) == tuple(range(10, 0, -1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_resource_guard(self):
        # |Q_8(3)| = 24 344 320: refused before the first word is built
        with pytest.raises(LimitError, match="exceeds the enumeration ceiling 10000000"):
            next(enumerate_k_stirling(8, 3))

    def test_limit_error_is_input_error(self):
        # the caller can fix it; RuntimeError is kept for library faults
        assert issubclass(LimitError, ValueError)
        assert not issubclass(LimitError, RuntimeError)

    @pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in range(5)])
    def test_all_emitted_words_are_valid_and_distinct(self, n, k):
        words = list(enumerate_k_stirling(n, k))
        assert len(words) == len(set(words)) == count_k_stirling(n, k)
        assert all(is_k_stirling(w, k) for w in words)


class TestStatistics:
    @pytest.mark.parametrize(
        "text,k,ap",
        [
            ("2211", 2, 0),
            ("888244666422555113337771", 3, 4),
            ("1122", 2, 1),
        ],
    )
    def test_ap(self, text, k, ap):
        assert stat_ap(W(text), k) == ap

    @pytest.mark.parametrize(
        "text,k,lap",
        [
            ("1122", 2, 2),
            ("2211", 2, 1),
            ("133377711446664225552888", 3, 5),
        ],
    )
    def test_lap(self, text, k, lap):
        assert stat_lap(W(text), k) == lap

    @pytest.mark.parametrize(
        "text,k,in_bar,in_tilde",
        [
            ("2211", 2, True, False),
            ("1221", 2, False, True),
            ("111222", 3, True, True),
        ],
    )
    def test_word_class(self, text, k, in_bar, in_tilde):
        cls = word_class(W(text), k)
        assert cls.in_bar is in_bar
        assert cls.in_tilde is in_tilde
        assert cls.in_bar is starts_with_plateau(W(text), k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_word_record_fields(self, k):
        # the one record of any word, field by field: ap, lap as ap plus one
        # when the word starts with k equal letters, bar and tilde; every
        # word with n <= 5 and the invalid words above, the short ones too
        invalid = [W(text) for text in ("1212", "112", "231213", "1", "22", "1222")]
        for word in [w for n in range(6) for w in enumerate_k_stirling(n, k)] + invalid:
            ap, plateau = stat_ap(word, k), starts_with_plateau(word, k)
            record = word_class(word, k)
            assert record._fields == ("ap", "lap", "in_bar", "in_tilde")
            assert record == (ap, ap + (len(word) >= k and plateau), plateau,
                              not word or word[0] == min(word)), word
            assert stat_lap(word, k) == record.lap

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lap_is_ap_with_a_zero_in_front(self, k):
        for n in range(6):
            for w in enumerate_k_stirling(n, k):
                assert stat_lap(w, k) == stat_ap((0,) + w, k)

    @given(st.lists(st.integers(1, 4), max_size=12), st.integers(1, 4))
    @example([], 1)
    @example([], 3)
    @example([2, 2], 3)
    @example([1, 2, 2, 3], 1)
    @example([3, 1, 1, 1, 2, 2, 2], 3)
    def test_ap_matches_definition(self, word, k):
        # the number of i with w[i] < w[i+1] = ... = w[i+k], written out
        expected = 0
        for i in range(len(word) - k):
            if word[i] < word[i + 1] and len(set(word[i + 1 : i + k + 1])) == 1:
                expected += 1
        assert stat_ap(tuple(word), k) == expected
        assert stat_ap(word, k) == expected

    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_lap_minus_ap_tracks_leading_plateau(self, k, n, data):
        # grow a uniform-ish word by gap insertion, the defining recurrence
        word = ()
        for i in range(1, n + 1):
            gap = data.draw(st.integers(0, len(word)))
            word = word[:gap] + (i,) * k + word[gap:]
        assert is_k_stirling(word, k)
        diff = stat_lap(word, k) - stat_ap(word, k)
        assert diff == (1 if starts_with_plateau(word, k) else 0)


class TestTextForm:
    def test_small_labels_concatenate(self):
        assert word_to_text((1, 2, 2, 1)) == "1221"

    def test_large_labels_dot_separate(self):
        assert word_to_text((10, 9, 9, 10)) == "10.9.9.10"
        assert word_from_text("10.9.9.10") == (10, 9, 9, 10)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            word_from_text("1a2")
        with pytest.raises(ValueError):
            word_from_text("0.1")

    # a refused letter is named by its index, and the text is not echoed
    @pytest.mark.parametrize("text,message", [
        ("1a2", "at word index 1: labels must be runs of decimal digits"),
        ("0.1", "at word index 0: labels must be positive"),
        ("1.1. 2.2", "at word index 2: labels must be runs of decimal digits"),
        ("1..1", "at word index 1: labels must be runs of decimal digits"),
        ("1.1." + "2" * 4301, "at word index 2: labels must have at most 4300 digits"),
    ], ids=["letter", "zero", "blank", "empty", "4301-digits"])
    def test_refusal_names_the_letter(self, text, message):
        with pytest.raises(ValueError) as err:
            word_from_text(text)
        assert str(err.value) == message

    def test_read_label(self):
        assert [stirling.read_label(t) for t in ("7", "007", "\u0661", "9" * 4300)] == [
            7, 7, 1, int("9" * 4300)]
        for text in ("", "0", "000", "+1", "-1", "1_0", " 1", "\u00b2", "\u0660", "9" * 4301):
            with pytest.raises(ValueError):
                stirling.read_label(text)


class TestPermutationStatistics:
    @pytest.mark.parametrize(
        "perm,exc,cyc",
        [([1, 2, 3], 0, 3), ([2, 1, 3], 1, 2), ([2, 3, 1], 2, 1)],
    )
    def test_exc_cyc(self, perm, exc, cyc):
        assert perm_exc_cyc(perm) == {"exc": exc, "cyc": cyc}

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            perm_exc_cyc([1, 1, 3])

    @pytest.mark.parametrize(
        "n,k,coeffs",
        [(3, 2, [1, 10, 4]), (1, 5, [1]), (2, 3, [1, 3])],
    )
    def test_exc_cyc_polynomial(self, n, k, coeffs):
        assert exc_cyc_polynomial(n, k) == IntPolynomial(coeffs)

    @pytest.mark.parametrize("n,coeffs", [(3, [1, 4, 1]), (1, [1]), (2, [1, 1])])
    def test_descent_polynomial(self, n, coeffs):
        assert descent_polynomial(n) == IntPolynomial(coeffs)

    def test_descent_polynomial_symmetry(self):
        for n in range(1, 7):
            p = descent_polynomial(n)
            assert p == p.reversal(n - 1)

    def test_census_guards(self):
        with pytest.raises(LimitError):
            exc_cyc_polynomial(11, 1)
        with pytest.raises(LimitError):
            descent_polynomial(11)


class _Passed(Exception):
    """Raised in place of the first object once the ceiling check passes."""


class TestCeiling:
    # the largest n each family accepts, from the product |Q_n(k)| alone
    CUTOFFS = {1: 10, 2: 8, 3: 7, 4: 7}

    def test_cutoffs_by_count(self):
        assert MAX_OBJECTS == 10**7
        for k, cut in self.CUTOFFS.items():
            assert count_k_stirling(cut, k) <= MAX_OBJECTS < count_k_stirling(cut + 1, k)
        # at k = 1 the words are the permutations: 10! <= 10^7 < 11!
        assert count_k_stirling(10, 1) == 3628800

    def test_every_entry_point_checks_the_one_ceiling(self, monkeypatch):
        # each entry point hands its family size to the one check before it
        # builds anything; stopping there costs nothing at any n
        real = stirling.check_ceiling

        def stop_after_check(n, k):
            real(n, k)
            raise _Passed

        monkeypatch.setattr(stirling, "check_ceiling", stop_after_check)
        monkeypatch.setattr(forest, "check_ceiling", stop_after_check)
        entry_points = {
            "words": lambda n, k: next(enumerate_k_stirling(n, k)),
            "forests": lambda n, k: next(forest.enumerate_forests(range(1, n + 1), k)),
            "trees": lambda n, k: next(forest.enumerate_trees(range(1, n + 1), k)),
            "exc-cyc": exc_cyc_polynomial,
            "descent": lambda n, k: descent_polynomial(n),
        }
        for name, call in entry_points.items():
            for k, cut in self.CUTOFFS.items():
                if name in ("exc-cyc", "descent"):
                    cut = 10  # S_n, n! permutations whatever k is
                with pytest.raises(_Passed):
                    call(cut, k)
                with pytest.raises(LimitError):
                    call(cut + 1, k)

    @pytest.mark.parametrize("n,k", [(-1, 0), (3, 0), (-1, 2)])
    def test_order_texts(self, n, k):
        # k is checked first, then n, in one wording at every entry point
        text = "k must be a positive integer" if k < 1 else "n must be a nonnegative integer"
        calls = [lambda: next(enumerate_k_stirling(n, k)), lambda: exc_cyc_polynomial(n, k),
                 lambda: egf_one_over_k_eulerian(k, n)]
        if k >= 1:
            calls.append(lambda: descent_polynomial(n))
        for call in calls:
            with pytest.raises(ValueError, match=f"^{text}$"):
                call()


class TestKRefused:
    # every public function that takes k refuses k < 1 first, in one wording
    TAKES_K = {
        "count_k_stirling": lambda k: count_k_stirling(-1, k),
        "check_ceiling": lambda k: stirling.check_ceiling(-1, k),
        "stirling_violation": lambda k: stirling_violation((1, 1), k),
        "is_k_stirling": lambda k: is_k_stirling((1, 1), k),
        "require_k_stirling": lambda k: stirling.require_k_stirling((1, 1), k),
        "enumerate_k_stirling": lambda k: next(enumerate_k_stirling(-1, k)),
        "stat_ap": lambda k: stat_ap((1, 1), k),
        "stat_lap": lambda k: stat_lap((1, 1), k),
        "starts_with_plateau": lambda k: starts_with_plateau((1, 1), k),
        "word_class": lambda k: word_class((1, 1), k),
        "exc_cyc_polynomial": lambda k: exc_cyc_polynomial(-1, k),
        "egf_one_over_k_eulerian": lambda k: egf_one_over_k_eulerian(k, -1),
        "xi": lambda k: bimap.xi((1, 1), k),
        "chi": lambda k: bimap.chi((1, 1), k),
        "chi_inv": lambda k: bimap.chi_inv(forest.LabeledTree(1), k),
        "zeta": lambda k: bimap.zeta((1, 1), k),
        "parse_forest": lambda k: forest.parse_forest("1", k),
        "parse_tree": lambda k: forest.parse_tree("1", k),
        "enumerate_forests": lambda k: next(forest.enumerate_forests([1, 1], k)),
        "enumerate_trees": lambda k: next(forest.enumerate_trees([1, 1], k)),
        "parse_marked": lambda k: gfs.parse_marked("1 | {}", k),
        "distribution": lambda k: oracle.distribution("Q", "ap", -1, k),
        "gamma_census_bar_hat": lambda k: oracle.gamma_census_bar_hat(-1, k),
        "gamma_census_tilde": lambda k: oracle.gamma_census_tilde(2, k),
    }

    @pytest.mark.parametrize("name", TAKES_K)
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_refused(self, name, k):
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            self.TAKES_K[name](k)
