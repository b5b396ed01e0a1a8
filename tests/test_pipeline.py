import dataclasses
import pickle

import pytest

from stirling_forests import gfs, pipeline
from stirling_forests.forest import (
    Forest,
    ForestInvariantError,
    LabeledTree,
    enumerate_forests,
    forest_profile,
    forest_stats,
    label_sets,
    node_classes,
    parse_forest,
    removable_labels,
    serialize_forest,
    validate_forest,
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
        with pytest.raises(ValueError, match=r"^labels \[11\] do not occur in the forest$"):
            psi(f, 11)

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 4), (3, 4)])
    def test_shift_and_class_preservation(self, k, n):
        for f in enumerate_forests(range(1, n + 1), k):
            base = forest_stats(f)
            rem = removable_labels(f)
            pool = rem["old"] | rem["young"]
            for x in range(1, n + 1):
                g = psi(f, x)
                assert forest_profile(g).stats.in_bar == forest_profile(f).stats.in_bar
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
        states = list(pipeline._beta_chain(f))
        assert states[0] == MarkedForest(f, frozenset())
        # the first step removes the old leaf 3 and marks its root 1
        assert states[1].text() == "1 2[;5;] 3[;4,7;6[;8;]] | {1}"
        assert forest_stats(states[-1].forest).rleaf == 0

    def test_beta_chain_and_its_profiles(self):
        # each state's forest holds the profile that its fresh copy reads
        for f in _small_forests():
            states = list(pipeline._beta_chain(f))
            assert states[0] == MarkedForest(f, frozenset())
            assert states[-1] == gamma_prime_map(f)
            assert all(mf.forest._profile is not None for mf in states)
            assert [mf.forest._profile for mf in states] == [
                forest_profile(Forest(mf.forest.k, mf.forest.trees)) for mf in states]
            assert all(len(b.marks - a.marks) == 1 for a, b in zip(states, states[1:]))

    def test_gamma_prime_budget_guard_raises(self, monkeypatch):
        # a psi that never removes a leaf must trip the termination guard,
        # also under python -O, and take no step past lleaf - si
        f = parse_forest("1[;2] 3", 2)
        calls = []

        def stuck(g, *args, **kwargs):
            calls.append(g)
            return g

        monkeypatch.setattr(pipeline, "psi", stuck)
        with pytest.raises(RuntimeError, match="budget"):
            gamma_prime_map(f)
        st = forest_stats(f)
        assert len(calls) == st.lleaf - st.si == 1

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
    except Exception as exc:  # the calls must agree on errors too
        return ("error", type(exc), str(exc))


def _small_forests():
    for k in (1, 2, 3):
        for n in range(5):
            yield from enumerate_forests(range(1, n + 1), k)


class TestStoredProfile:
    # a forest keeps the profile of its first forest_profile call, which the
    # maps read, on every forest with n <= 4, k <= 3

    def test_every_small_forest(self):
        checked = 0
        for f in _small_forests():
            p = forest_profile(f)
            assert forest_profile(f) is p
            bare = Forest(f.k, f.trees)
            assert bare._profile is None
            # the stored profile takes no part in equality, hashing or text
            assert bare == f and hash(bare) == hash(f)
            assert repr(bare) == repr(f) and serialize_forest(bare) == serialize_forest(f)
            assert forest_profile(bare) == p and forest_profile(bare) is not p
            checked += 1
        assert checked == sum(count_k_stirling(n, k) for k in (1, 2, 3) for n in range(5))


    def test_stored_profile_is_read_only(self):
        # clearing or setting the class map, or appending to the violations,
        # raises, and every later reader sees the profile unchanged
        f = parse_forest("1 2", 2)
        p = forest_profile(f)
        with pytest.raises(AttributeError):
            p.classes.clear()
        with pytest.raises(TypeError):
            p.classes[1] = None
        with pytest.raises(AttributeError):
            p.stats.violations.append((1, "spoiled"))
        node_classes(f).clear()  # a copy
        validate_forest(f).append((1, "spoiled"))  # a new list
        assert forest_profile(f) is p and validate_forest(f) == []
        assert psi(f, 1) == psi(parse_forest("1 2", 2), 1)

    def test_profile_is_a_declared_slot(self):
        f = parse_forest("1[;2] 3", 2)
        assert not hasattr(f, "__dict__") and not hasattr(f.trees[0], "__dict__")
        # a copy holds no profile, and compares equal
        for copy in (dataclasses.replace(f), pickle.loads(pickle.dumps(f))):
            assert copy == f and copy._profile is None
            assert forest_profile(copy) == forest_profile(f)


def _bare(f):
    """A copy of f that holds no stored profile."""
    return Forest(f.k, f.trees)


class TestProfileArgument:
    # each map, on a forest that already holds its profile, equals its call on
    # a bare copy on every forest and marked forest with n <= 4, k <= 3

    def test_marked_maps(self):
        maps = (alpha_step, beta_step, gamma_map, main_bijection, gfs.theta, gfs.theta_prime)
        checked = 0
        for f in _small_forests():
            forest_profile(f)
            labels = sorted(f.labels())
            for mask in range(1 << len(labels)):
                marks = frozenset(x for i, x in enumerate(labels) if mask >> i & 1)
                held = MarkedForest(f, marks)
                for fn in maps:
                    bare = MarkedForest(_bare(f), marks)
                    assert _outcome(fn, held) == _outcome(fn, bare), (held.text(), fn)
                checked += 1
        assert checked == sum(count_k_stirling(n, k) << n for k in (1, 2, 3) for n in range(5))

    def test_forest_maps(self):
        for f in _small_forests():
            forest_profile(f)
            assert _outcome(gamma_prime_map, f) == _outcome(gamma_prime_map, _bare(f))
            assert _outcome(orbit_representative, f) == _outcome(orbit_representative, _bare(f))


def _t(label, *slots):
    return LabeledTree(label, slots or None)


# forests built directly with a broken invariant, and their first violations
_INVALID = {
    "roots": (Forest(2, (_t(2), _t(1))), (1, "roots not increasing: 2 before 1")),
    "duplicate-label": (Forest(2, (_t(1, (_t(2),), ()), _t(2))), (2, "duplicate label 2")),
    "path": (Forest(2, (_t(4, (_t(2),), ()),)), (2, "path not increasing: 2 below 4")),
    "slot-order": (Forest(2, (_t(1, (), (_t(3), _t(2))),)),
                   (2, "slot under 1 not increasing: 3 before 2")),
}


def _marked(fn, marks=lambda f: ()):
    return lambda f: fn(MarkedForest(f, frozenset(marks(f))))


class TestInvalidForests:
    # each gfs and pipeline map reads its input's profile, which refuses an
    # invalid forest by its first violation and stores nothing
    MAPS = {
        "psi": lambda f: psi(f, f.trees[0].label),
        "alpha_step": _marked(alpha_step, lambda f: [f.trees[0].label]),
        "beta_step": _marked(beta_step),
        "gamma_map": _marked(gamma_map),
        "gamma_prime_map": gamma_prime_map,
        "main_bijection": _marked(main_bijection),
        "theta": _marked(gfs.theta),
        "theta_prime": _marked(gfs.theta_prime),
        "orbit_representative": orbit_representative,
        "in_domain": _marked(lambda mf: gfs.in_domain(mf, "Y")),
        "marked_forest": lambda f: marked_forest(f, ()),
    }

    @pytest.mark.parametrize("shape", _INVALID)
    @pytest.mark.parametrize("name", MAPS)
    def test_map_refuses_first_violation(self, name, shape):
        f, first = _INVALID[shape]
        f = Forest(f.k, f.trees)  # a fresh copy for each map
        with pytest.raises(ForestInvariantError) as err:
            self.MAPS[name](f)
        assert (err.value.label, str(err.value)) == first
        assert f._profile is None
        assert validate_forest(f)[0] == first
