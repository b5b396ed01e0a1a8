import pytest

from stirling_forests import gfs, pipeline
from stirling_forests.forest import (
    Forest,
    enumerate_forests,
    enumerate_trees,
    forest_profile,
    forest_stats,
    in_bar,
    label_sets,
    parse_forest,
    removable_labels,
    serialize_forest,
)
from stirling_forests.gfs import MarkedForest, marked_forest, orbit_representative
from stirling_forests.pipeline import (
    alpha_step,
    beta_step,
    gamma_map,
    gamma_prime_map,
    main_bijection,
    psi,
)
from stirling_forests.stirling import count_k_stirling


def mf(text, k, marks=()):
    return marked_forest(parse_forest(text, k), marks)


class TestPsi:
    def test_absorb_up_to_singleton(self):
        f = parse_forest("1[3;;7] 2 4[;;6] 5 8", 3)
        assert serialize_forest(psi(f, 2)) == "1[3;;7] 2[;;4[;;6],5] 8"

    def test_merge_into_last(self):
        f = parse_forest("1[3;;7] 2 4[;;9] 5[;8;6]", 3)
        assert serialize_forest(psi(f, 2)) == "1[3;;7] 2[;8;4[;;9],5,6]"

    def test_pop_old_inverts_absorb(self):
        f = parse_forest("1[3;;7] 2[;;4[;;6],5] 8", 3)
        assert serialize_forest(psi(f, 5)) == "1[3;;7] 2 4[;;6] 5 8"

    def test_pop_young_inverts_merge(self):
        f = parse_forest("1[3;;7] 2[;8;4[;;9],5,6]", 3)
        assert serialize_forest(psi(f, 5)) == "1[3;;7] 2 4[;;9] 5[;8;6]"

    def test_identity_elsewhere(self):
        f = parse_forest("1[3;;7] 2 4[;;6] 5 8", 3)
        assert psi(f, 8) == f  # final singleton
        assert psi(f, 3) == f  # young leaf deep in the first tree
        with pytest.raises(KeyError):
            psi(f, 11)

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 4), (3, 4)])
    def test_shift_and_class_preservation(self, k, n):
        for f in enumerate_forests(range(1, n + 1), k):
            base = forest_stats(f)
            rem = removable_labels(f)
            pool = rem["old"] | rem["young"]
            for x in range(1, n + 1):
                g = psi(f, x)
                assert in_bar(g) == in_bar(f)
                gs = forest_stats(g)
                singleton_non_last = any(
                    t.slots is None and t.label == x for t in f.trees[:-1]
                )
                if singleton_non_last:
                    assert gs.lleaf - gs.si == base.lleaf - base.si + 1
                elif pool and x == min(pool):
                    # the step the beta map takes always shifts by exactly 1
                    assert gs.lleaf - gs.si == base.lleaf - base.si - 1
                elif x not in pool:
                    assert g == f


class TestAlphaBeta:
    def test_alpha_fig10_first(self):
        state = mf("1 2[;5;] 3 4[;;7] 6 8[;9,10;]", 3, {1, 3})
        out = alpha_step(state)
        assert out.text() == "1 2[;5;] 3[;;4[;;7],6] 8[;9,10;] | {1}"

    def test_alpha_fig10_second(self):
        state = mf("1 2[;5;] 3[;;4[;;7],6] 8[;9,10;]", 3, {1})
        out = alpha_step(state)
        assert out.text() == "1[;9,10;2[;5;],3[;;4[;;7],6],8] | {}"

    def test_alpha_simple(self):
        assert alpha_step(mf("1 2 3", 2, {1})).text() == "1[;2] 3 | {}"

    def test_alpha_errors(self):
        with pytest.raises(ValueError):
            alpha_step(mf("1 2 3", 2))
        with pytest.raises(ValueError):
            alpha_step(mf("1[;2] 3", 2, {2}))

    def test_beta_fig11(self):
        out = beta_step(mf("1[;4,7;2[;5;],3,6[;8;]]", 3))
        assert out.text() == "1 2[;5;] 3[;4,7;6[;8;]] | {1}"

    def test_beta_simple(self):
        assert beta_step(mf("1[;2] 3", 2)).text() == "1 2 3 | {1}"
        assert beta_step(mf("1 2[;3]", 2)).text() == "1 2 3 | {2}"

    def test_beta_requires_removable(self):
        with pytest.raises(ValueError):
            beta_step(mf("1 2 3", 2))


class TestGammaMaps:
    def test_fig10_composite(self):
        state = mf("1 2[;5;] 3 4[;;7] 6 8[;9,10;]", 3, {1, 3})
        assert (
            serialize_forest(gamma_map(state))
            == "1[;9,10;2[;5;],3[;;4[;;7],6],8]"
        )

    def test_empty_marks(self):
        f = parse_forest("1[;2] 3", 2)
        assert gamma_map(MarkedForest(f, frozenset())) == f

    def test_single_step(self):
        assert serialize_forest(gamma_map(mf("1 2 3", 2, {1}))) == "1[;2] 3"

    def test_requires_singleton_marks(self):
        with pytest.raises(ValueError):
            gamma_map(mf("1 2 3", 2, {3}))  # final singleton is excluded

    def test_gamma_prime_single_step(self):
        out = gamma_prime_map(parse_forest("1[;2] 3", 2))
        assert out.text() == "1 2 3 | {1}"

    def test_gamma_prime_fixed_point(self):
        f = parse_forest("1[2;] 3", 2)
        assert forest_stats(f).rleaf == 0
        assert gamma_prime_map(f) == MarkedForest(f, frozenset())

    def test_gamma_prime_trajectory_exposed(self):
        f = parse_forest("1[;4,7;2[;5;],3,6[;8;]]", 3)
        out, states, steps, _ = pipeline._gamma_prime(f, forest_profile(f))
        assert steps[0] == (3, 1)
        assert states[0].marks == frozenset()
        assert forest_stats(out.forest).rleaf == 0

    def test_gamma_prime_budget_guard_raises(self, monkeypatch):
        # a psi that never removes a leaf must trip the termination guard,
        # also under python -O
        monkeypatch.setattr(pipeline, "psi", lambda f, *args, **kwargs: f)
        with pytest.raises(RuntimeError, match="budget"):
            gamma_prime_map(parse_forest("1[;2] 3", 2))

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 4), (3, 4)])
    def test_gamma_after_gamma_prime_is_identity(self, k, n):
        for f in enumerate_forests(range(1, n + 1), k):
            assert gamma_map(gamma_prime_map(f)) == f

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 3)])
    def test_gamma_prime_after_gamma_on_marked_pairs(self, k, n):
        for f in enumerate_forests(range(1, n + 1), k):
            if forest_stats(f).rleaf:
                continue
            pool = sorted(label_sets(f)["Si_star"])
            for mask in range(1 << len(pool)):
                marks = frozenset(x for i, x in enumerate(pool) if mask >> i & 1)
                state = MarkedForest(f, marks)
                assert gamma_prime_map(gamma_map(state)) == state


class TestMainBijection:
    def test_bar_example(self):
        assert serialize_forest(main_bijection(mf("1 2 3", 2, {1}))) == "1[;2] 3"

    def test_hat_example(self):
        assert serialize_forest(main_bijection(mf("1[2[3;];]", 2, {2}))) == "1[2,3;]"

    def test_empty_marks_on_starred_forest(self):
        f = parse_forest("1[2;] 3", 2)
        assert main_bijection(MarkedForest(f, frozenset())) == f

    def test_type_violation(self):
        with pytest.raises(ValueError):
            main_bijection(mf("1[;2] 3", 2))  # removable old leaf, not starred


def _outcome(fn, *args):
    """What a call gives: its value, or the type and message of its error."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the twins must agree on errors too
        return ("error", type(exc), str(exc))


def _small_forests():
    for k in (1, 2, 3):
        for n in range(5):
            yield from enumerate_forests(range(1, n + 1), k)


class TestProfileTwins:
    # each private entry point, handed the forest's profile, equals its
    # public twin on every forest and marked forest with n <= 4, k <= 3

    def test_marked_maps(self):
        twins = [
            (alpha_step, pipeline._alpha),
            (beta_step, lambda mf, p: pipeline._beta(mf, p)[0]),
            (gamma_map, pipeline._gamma),
            (main_bijection, pipeline._main),
            (gfs.theta, gfs._theta),
            (gfs.theta_prime, gfs._theta_prime),
        ]
        checked = 0
        for f in _small_forests():
            p = forest_profile(f)
            labels = sorted(f.labels())
            for mask in range(1 << len(labels)):
                mf = MarkedForest(f, frozenset(x for i, x in enumerate(labels) if mask >> i & 1))
                for public, private in twins:
                    assert _outcome(private, mf, p) == _outcome(public, mf), (mf.text(), public)
                checked += 1
        assert checked == sum(count_k_stirling(n, k) << n for k in (1, 2, 3) for n in range(5))

    def test_gamma_prime_and_its_profiles(self):
        for f in _small_forests():
            p = forest_profile(f)
            mf, states, steps, profiles = pipeline._gamma_prime(f, p)
            assert mf == gamma_prime_map(f) == states[-1]
            assert states[0] == MarkedForest(f, frozenset()) and len(steps) == len(states) - 1
            assert profiles == [forest_profile(state.forest) for state in states]

    def test_representative(self):
        for k in (1, 2, 3):
            for n in range(1, 5):
                for t in enumerate_trees(range(1, n + 1), k):
                    f = Forest(k, (t,))
                    assert gfs._representative(f, forest_profile(f)) == orbit_representative(t)
