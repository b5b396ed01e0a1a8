import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stirling_forests import bimap
from stirling_forests.bimap import chi, chi_inv, xi, xi_inv, zeta, zeta_inv
from stirling_forests.forest import (
    Forest,
    LabeledTree,
    enumerate_forests,
    forest_profile,
    forest_stats,
    parse_forest,
    parse_tree,
    serialize_forest,
    serialize_tree,
)
from stirling_forests.stirling import (
    enumerate_k_stirling,
    stat_ap,
    stat_lap,
    word_class,
    word_from_text,
)

XI_WORD = word_from_text("133377711446664225552888")
ZETA_WORD = word_from_text("888244666422555113337771")
FIG4 = "1[;3,7;] 2[4[;;6];;5] 8"


class TestXi:
    def test_fig4(self):
        assert serialize_forest(xi(XI_WORD, 3)) == FIG4

    def test_empty(self):
        assert xi((), 2) == Forest(2, ())
        assert xi_inv(Forest(2, ())) == ()

    def test_two_blocks(self):
        # right-to-left minima of 1122 sit at the last 1 and the last 2
        assert serialize_forest(xi(word_from_text("1122"), 2)) == "1 2"

    def test_inverse_fig4(self):
        assert xi_inv(parse_forest(FIG4, 3)) == XI_WORD

    def test_inverse_two_singletons(self):
        assert xi_inv(parse_forest("1 2", 2)) == word_from_text("1122")

    def test_inverse_singleton(self):
        assert xi_inv(parse_forest("5", 3)) == (5, 5, 5)

    def test_rejects_invalid_word(self):
        with pytest.raises(ValueError):
            xi(word_from_text("1212"), 2)


class TestChi:
    def test_paper_tree(self):
        assert serialize_tree(chi(word_from_text("244666422555"), 3)) == "2[4[;;6];;5]"

    def test_nested_factors(self):
        assert serialize_tree(chi(word_from_text("113337771"), 3)) == "1[;3,7;]"

    def test_all_factors_empty_gives_singleton(self):
        assert chi(word_from_text("11"), 2) == LabeledTree(1)

    def test_inverse(self):
        assert chi_inv(parse_tree("2[4[;;6];;5]", 3), 3) == word_from_text("244666422555")
        assert chi_inv(LabeledTree(1), 2) == (1, 1)
        assert chi_inv(parse_tree("1[;2]", 2), 2) == word_from_text("1122")

    def test_requires_minimum_first(self):
        with pytest.raises(ValueError):
            chi(word_from_text("2211"), 2)

    def test_broken_slot_order_raises(self, monkeypatch):
        # chi reads its tree off the xi pass on the rotated word; a pass that
        # gives more than the one tree must be refused, also under python -O
        xi_trees = bimap._xi_trees
        monkeypatch.setattr(bimap, "_xi_trees", lambda w, k: xi_trees(w, k) + (LabeledTree(9),))
        with pytest.raises(RuntimeError, match="one tree"):
            chi(word_from_text("122331"), 2)


class TestZeta:
    def test_fig4(self):
        assert serialize_forest(zeta(ZETA_WORD, 3)) == FIG4

    def test_single_letter_blocks(self):
        assert serialize_forest(zeta(word_from_text("2211"), 2)) == "1 2"

    def test_single_block(self):
        f = zeta(word_from_text("1122"), 2)
        assert serialize_forest(f) == "1[;2]"
        st = forest_stats(f)
        assert st.lleaf - st.si == stat_ap(word_from_text("1122"), 2) == 1

    def test_inverse(self):
        assert zeta_inv(parse_forest(FIG4, 3)) == ZETA_WORD
        assert zeta_inv(parse_forest("1 2", 2)) == word_from_text("2211")


@pytest.mark.parametrize("k,n", [(1, 5), (2, 4), (3, 3)])
class TestExhaustive:
    def test_roundtrips_and_statistics(self, k, n):
        labels = range(1, n + 1)
        xi_images = set()
        zeta_images = set()
        for w in enumerate_k_stirling(n, k):
            fx = xi(w, k)
            assert xi_inv(fx) == w
            assert forest_stats(fx).lleaf == stat_lap(w, k)
            xi_images.add(fx)
            fz = zeta(w, k)
            assert zeta_inv(fz) == w
            sz = forest_stats(fz)
            assert sz.lleaf - sz.si == stat_ap(w, k)
            assert forest_profile(fz).stats.in_bar == word_class(w, k).in_bar
            zeta_images.add(fz)
        family = set(enumerate_forests(labels, k))
        assert xi_images == family
        assert zeta_images == family

    def test_unchecked_passes_equal_public_maps(self, k, n):
        # the oracle runs these on enumerated words, which need no check
        for w in enumerate_k_stirling(n, k):
            assert Forest(k, bimap._xi_trees(w, k)) == xi(w, k)
            assert bimap._zeta(w, k) == zeta(w, k)
            if w and w[0] == min(w):
                assert bimap._chi_tree(w, k) == chi(w, k)

    def test_chi_bijects_tilde_words_onto_trees(self, k, n):
        trees = set()
        for w in enumerate_k_stirling(n, k):
            if w[0] != 1:
                continue
            t = chi(w, k)
            assert chi_inv(t, k) == w
            if n >= 2:
                assert forest_stats(Forest(k, (t,))).lleaf == stat_ap(w, k)
            plateau = t.slots is None or all(not s for s in t.slots[: k - 1])
            assert plateau == word_class(w, k).in_bar
            trees.add(t)
        single = {
            f.trees[0] for f in enumerate_forests(range(1, n + 1), k) if len(f.trees) == 1
        }
        assert trees == single


def gap_word(n, k, min_first, nest, rnd):
    """A k-Stirling word on 1..n grown by gap insertion of the blocks a^k.
    With ``min_first`` nothing goes into the front gap, so the word starts
    with its minimum; ``nest`` is the chance that a block goes right after
    the first copy of the previous letter, which builds deep nesting."""
    word, prev = [1] * k, 0
    for a in range(2, n + 1):
        if rnd.random() < nest:
            gap = prev + 1
        else:
            gap = rnd.randint(1 if min_first else 0, len(word))
        word[gap:gap] = [a] * k
        prev = gap
    return tuple(word)


@st.composite
def gap_words(draw, max_order=2000):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_order))
    min_first = draw(st.booleans())
    nest = draw(st.sampled_from([0.0, 0.5, 0.99, 1.0]))
    return gap_word(n, k, min_first, nest, draw(st.randoms(use_true_random=False))), k


class TestLargeWords:
    @settings(max_examples=10, deadline=None)
    @example(case=(gap_word(2000, 4, True, 1.0, random.Random(0)), 4))  # one path 2000 deep
    @example(case=(gap_word(2000, 2, False, 0.99, random.Random(1)), 2))
    @given(gap_words())
    def test_roundtrips_and_statistics(self, case):
        # words and forest texts are compared, never deep trees
        w, k = case
        fx = xi(w, k)
        assert xi_inv(fx) == w
        assert forest_stats(fx).lleaf == stat_lap(w, k)
        fz = zeta(w, k)
        assert zeta_inv(fz) == w
        sz = forest_stats(fz)
        assert sz.lleaf - sz.si == stat_ap(w, k)
        if w[0] == min(w):
            t = chi(w, k)
            assert chi_inv(t, k) == w
            assert serialize_tree(t) == serialize_forest(fz)
