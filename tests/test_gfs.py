import re
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import stirling_forests.forest as forest_module
from stirling_forests import gfs
from stirling_forests.bimap import xi, zeta
from stirling_forests.forest import (
    Forest,
    ForestInvariantError,
    LabeledTree,
    enumerate_forests,
    enumerate_trees,
    forest_profile,
    forest_stats,
    node_classes,
    parse_forest,
    parse_tree,
    serialize_forest,
    serialize_tree,
    validate_forest,
)
from stirling_forests.gfs import (
    DOMAINS,
    MarkedForest,
    in_domain,
    marked_forest,
    orbit,
    orbit_representative,
    parse_marked,
    phi,
    phi_set,
    theta,
    theta_prime,
)
from stirling_forests.pipeline import gamma_map, main_bijection
from stirling_forests.stirling import count_k_stirling

FIG5_LEFT = "1[3,4[5,10;6[;9;],8;7];;2]"
FIG5_RIGHT = "1[3,4,5,10;6[;9;],8;2,7]"


def random_words(k):
    # uniform-ish k-Stirling words grown by gap insertion
    @st.composite
    def words(draw):
        n = draw(st.integers(1, 6))
        word = ()
        for i in range(1, n + 1):
            gap = draw(st.integers(0, len(word)))
            word = word[:gap] + (i,) * k + word[gap:]
        return word

    return words()


class TestPhi:
    def test_fig5_toggle(self):
        t = parse_tree(FIG5_LEFT, 3)
        assert serialize_tree(phi(t, 4)) == FIG5_RIGHT

    def test_fig5_involution(self):
        t = parse_tree(FIG5_RIGHT, 3)
        assert serialize_tree(phi(t, 4)) == FIG5_LEFT

    def test_root_is_fixed(self):
        t = parse_tree(FIG5_LEFT, 3)
        assert phi(t, 1) == t

    def test_old_leaf_fixed(self):
        t = parse_tree("1[;2,3]", 2)
        assert phi(t, 3) == t

    def test_unknown_label(self):
        with pytest.raises(ValueError, match=r"^labels \[9\] do not occur in the forest$"):
            phi(parse_tree("1", 2), 9)

    def test_identity_returns_the_tree(self):
        # the root 1, the old leaf 10 and the young internal node 6: the same
        # object comes back, which orbit and the oracle's profile reuse rely on
        t = parse_tree(FIG5_LEFT, 3)
        for x in (1, 10, 6):
            assert phi(t, x) is t

    @given(random_words(2))
    def test_involution_and_commutation(self, word):
        for tree in zeta(word, 2).trees:
            labels = sorted(tree.labels())
            for x in labels:
                assert phi(phi(tree, x), x) == tree
                for y in labels:
                    assert phi(phi(tree, x), y) == phi(phi(tree, y), x)

    @given(random_words(3))
    def test_type_preservation(self, word):
        for tree in zeta(word, 3).trees:
            before = node_classes(Forest(3, (tree,)))
            for x in sorted(tree.labels()):
                image = phi(tree, x)
                assert validate_forest(Forest(3, (image,))) == []
                after = node_classes(Forest(3, (image,)))
                for z, cls in before.items():
                    if z != x:
                        assert after[z] == cls


class TestPhiSet:
    def test_fig7(self):
        f = parse_forest("1[;3[;7;];2] 4[;;5[;6,8;]] 9", 3)
        assert serialize_forest(phi_set(f, {3, 5})) == "1[;3,7;2] 4[;6,8;5] 9"

    def test_empty_set(self):
        f = parse_forest("1[;3[;7;];2] 4[;;5[;6,8;]] 9", 3)
        assert phi_set(f, set()) == f

    def test_slot_merge(self):
        assert serialize_forest(phi_set(parse_forest("1[2[3;];]", 2), {2})) == "1[2,3;]"

    def test_unknown_label(self):
        with pytest.raises(ValueError, match=r"^labels \[5\] do not occur in the forest$"):
            phi_set(parse_forest("1 2", 2), {5})

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_pass_equals_one_toggle_at_a_time(self, k):
        # several toggles at one node in one pass, against single-label phi
        # folded over S in increasing and in decreasing order
        for n in range(5):
            for f in enumerate_forests(range(1, n + 1), k):
                for size in range(n + 1):
                    for labels in combinations(range(1, n + 1), size):
                        image = serialize_forest(phi_set(f, labels))
                        for order in (labels, labels[::-1]):
                            trees = list(f.trees)
                            for x in order:
                                i = f.tree_index_of(x)
                                trees[i] = phi(trees[i], x)
                            assert serialize_forest(Forest(k, tuple(trees))) == image


def _comb(d):
    """Node i holds node i+1 and the leaf 2d+1-i in slot 1, node d the leaf
    2d+1: every grand child that is internal is young, and every leaf old."""
    t = LabeledTree(d, ((LabeledTree(2 * d + 1),), ()))
    for i in range(d - 1, 0, -1):
        t = LabeledTree(i, ((t, LabeledTree(2 * d + 1 - i)), ()))
    return t


class TestOrbit:
    def test_pair_orbit(self):
        f = parse_forest("1[;2,3]", 2)
        members = orbit(f.trees[0])
        assert {serialize_tree(s) for s in members} == {"1[;2,3]", "1[;2[;3]]"}
        assert serialize_forest(orbit_representative(f)) == "1[;2[;3]]"

    def test_slot_choice_preserved(self):
        f = parse_forest("1[2;3]", 2)
        assert serialize_forest(orbit_representative(f)) == "1[2[;3];]"
        assert len(orbit(f.trees[0])) == 2

    def test_deep_comb_is_its_own_orbit(self):
        # no old internal and no young leaf, so the orbit is [t]; its members
        # are keyed by text, as trees this deep cannot be hashed
        t = _comb(500)
        assert validate_forest(Forest(2, (t,))) == []
        members = orbit(t)
        assert len(members) == 1 and members[0] is t

    def test_deep_comb_toggles_nowhere(self, monkeypatch):
        # a member is toggled only at its old internals and young leaves, so
        # the comb's orbit calls phi at no label (at each of its 2 000 when
        # every label was tried)
        calls = [0]
        real = gfs.phi

        def counted(t, x):
            calls[0] += 1
            return real(t, x)

        monkeypatch.setattr(gfs, "phi", counted)
        t = _comb(1000)
        members = orbit(t)
        assert len(members) == 1 and members[0] is t
        assert calls[0] == 0
        assert len(orbit(parse_tree("1[;2,3]", 2))) == 2 and calls[0] == 2

    @pytest.mark.parametrize("text,first", [
        ("1[;3,2]", (2, "slot under 1 not increasing: 3 before 2")),
        ("4[2;]", (2, "path not increasing: 2 below 4"))])
    def test_invalid_tree_refused(self, text, first):
        t = forest_module._read_forest(text, 2).trees[0]
        with pytest.raises(ForestInvariantError) as err:
            orbit(t)
        assert (err.value.label, str(err.value)) == first

    def test_young_free_tree_is_its_own_representative(self):
        f = parse_forest("1[2[3;];]", 2)
        assert orbit_representative(f) is f

    def test_representative_is_componentwise(self):
        # a forest's representative is its trees' representatives
        for k in (1, 2, 3):
            for n in range(5):
                for f in enumerate_forests(range(1, n + 1), k):
                    reps = [orbit_representative(Forest(k, (t,))).trees[0] for t in f.trees]
                    assert orbit_representative(f) == Forest(k, tuple(reps)), serialize_forest(f)

    # the oracle's gfs suite walks orbits without gfs.orbit: this is its
    # exhaustive test, up to the suite's n = 5
    @pytest.mark.parametrize("k,n", [(1, 5), (2, 4), (3, 4), (2, 5), (3, 5)])
    def test_orbits_partition_with_unique_representative(self, k, n):
        trees = list(enumerate_trees(range(1, n + 1), k))
        seen = set()
        total = 0
        for t in trees:
            rep = orbit_representative(Forest(k, (t,))).trees[0]
            if rep in seen:
                continue
            seen.add(rep)
            members = orbit(rep)
            total += len(members)
            young_free = [
                s for s in members if forest_stats(Forest(k, (s,))).yleaf == 0
            ]
            assert young_free == [rep]
            st_rep = forest_stats(Forest(k, (rep,)))
            assert len(members) == 2 ** st_rep.oint
            if n >= 2:
                assert st_rep.oint == n - 2 * st_rep.oleaf
        assert total == len(trees)

    def test_representative_matches_fixpoint_iteration(self):
        # the one-pass rule against the naive keep-toggling-young-leaves loop
        for k, n in ((2, 4), (3, 3)):
            for t in enumerate_trees(range(1, n + 1), k):
                current = t
                while True:
                    young = [
                        z
                        for z, c in node_classes(Forest(k, (current,))).items()
                        if c.value == "YoungLeaf"
                    ]
                    if not young:
                        break
                    current = phi(current, young[0])
                assert current == orbit_representative(Forest(k, (t,))).trees[0]


class TestTheta:
    def test_hat_example(self):
        mf = marked_forest(parse_forest("1[2[3;];]", 2), {2})
        out = theta(mf)
        assert serialize_forest(out.forest) == "1[2,3;]"
        assert out.marks == frozenset()

    def test_theta_prime_inverts(self):
        mf = marked_forest(parse_forest("1[2,3;]", 2), set())
        out = theta_prime(mf)
        assert serialize_forest(out.forest) == "1[2[3;];]"
        assert out.marks == frozenset({2})

    def test_identity_on_young_free_unmarked(self):
        f = parse_forest("1[2[3;];]", 2)
        assert theta(MarkedForest(f, frozenset())) == MarkedForest(f, frozenset())

    def test_type_errors(self):
        f = parse_forest("1[;2,3]", 2)  # has a young leaf
        with pytest.raises(ValueError):
            theta(MarkedForest(f, frozenset()))
        with pytest.raises(ValueError):
            theta_prime(MarkedForest(f, frozenset({3})))  # 3 is not a singleton

    @pytest.mark.parametrize("word,young", [
        # the star: 4 998 young leaves under the root's one slot
        ((1, *(i for i in range(2, 5001) for _ in range(2)), 1), 4998),
        # the nested forest, 5 000 deep
        ((*range(1, 5000), 5000, 5000, *range(4999, 0, -1)), 0),
    ], ids=["star", "nested"])
    def test_order_5000_round_trip(self, word, young):
        f = xi(word, 2)
        mid = theta_prime(MarkedForest(f, frozenset()))
        back = theta(mid)
        assert len(mid.marks) == young
        # compared as text: == and hash on trees this deep still recurse
        assert serialize_forest(back.forest) == serialize_forest(f)
        assert back.marks == frozenset()

    def test_order_4000_chain_of_raises(self):
        # the nested forest marked at every old internal: theta raises level
        # by level into the star 1[;2,3,...,4000], one chain of 3 998 raises
        n = 4000
        f = xi((*range(1, n), n, n, *range(n - 1, 0, -1)), 2)
        mf = MarkedForest(f, forest_profile(f).oint)
        star = theta(mf)
        assert serialize_forest(star.forest) == "1[;" + ",".join(map(str, range(2, n + 1))) + "]"
        assert star.marks == frozenset()
        assert theta_prime(star).text() == mf.text()

    def test_marked_text_form(self):
        mf = marked_forest(parse_forest("1 2 3", 2), {2, 1})
        assert mf.text() == "1 2 3 | {1,2}"
        assert in_domain(mf, "Y")
        # the final singleton is not markable in the singleton domain
        assert not in_domain(marked_forest(parse_forest("1 2 3", 2), {3}), "Y")

    @pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in range(5)])
    def test_marked_text_round_trip(self, k, n):
        # every marked forest: each forest with each subset of its labels
        for f in enumerate_forests(range(1, n + 1), k):
            for size in range(n + 1):
                for marks in combinations(range(1, n + 1), size):
                    mf = marked_forest(f, marks)
                    assert parse_marked(mf.text(), k) == mf

    def test_marked_text_blanks(self):
        mf = parse_marked("1[;2]  3 |  { 3 , 1 }  ", 2)
        assert mf.text() == "1[;2] 3 | {1,3}"

    @pytest.mark.parametrize("text", ["1 2 | {a}", "1 2 | {1,,2}", "1 2 | {1,}", "1 2 | 1",
                                      "1 2 | {1", "1 2 | {-1}", "1 2 | {\u00b2}",
                                      "1 2 | {1} | {2}", "1 2"])
    def test_malformed_marks_refused(self, text):
        with pytest.raises(ValueError, match=r"^marks must look like \{1,3\}$"):
            parse_marked(text, 2)

    def test_marks_must_occur(self):
        with pytest.raises(ValueError, match=r"^labels \[7\] do not occur in the forest$"):
            marked_forest(parse_forest("1 2", 2), {7})

    def test_domain_predicates(self):
        bar = marked_forest(parse_forest("1[2;] 3", 2), set())
        assert in_domain(bar, "Xbar") and in_domain(bar, "Ybar")
        hat = marked_forest(parse_forest("1 2[3;]", 2), {1})
        assert in_domain(hat, "Xhat") and in_domain(hat, "Yhat")
        # a removable leaf keeps a forest out of the starred/settled domains
        loose = marked_forest(parse_forest("1[;2] 3", 2), set())
        assert not in_domain(loose, "Xbar") and not in_domain(loose, "Ybar")


# Independent reference: the six marked-forest domains written out from
# their definitions, not read from the library's domain table.
def _reference_domains(mf):
    p = forest_profile(mf.forest)
    m = mf.marks
    x_class = p.stats.in_star and m <= (p.oint_star if p.stats.in_bar else p.oint) | p.si_star
    return {
        "X": p.stats.yleaf == 0 and m <= p.oint | p.si_star,
        "Y": m <= p.si_star,
        "Xbar": p.stats.in_bar and x_class,
        "Xhat": not p.stats.in_bar and x_class,
        "Ybar": p.stats.in_bar and p.stats.rleaf == 0 and m <= p.si_star,
        "Yhat": not p.stats.in_bar and p.stats.rleaf == 0 and m <= p.si_star,
    }


class TestDomains:
    def test_in_domain_matches_definitions(self):
        checked = 0
        for k in (1, 2, 3):
            for n in range(5):
                for f in enumerate_forests(range(1, n + 1), k):
                    for mask in range(1 << n):
                        marks = frozenset(x for x in range(1, n + 1) if mask >> (x - 1) & 1)
                        mf = MarkedForest(f, marks)
                        expected = _reference_domains(mf)
                        assert set(expected) == set(DOMAINS)
                        for name, inside in expected.items():
                            assert in_domain(mf, name) == inside, (mf.text(), name)
                        checked += 1
        assert checked == sum(count_k_stirling(n, k) << n for k in (1, 2, 3) for n in range(5))

    def test_unknown_domain(self):
        with pytest.raises(ValueError, match="unknown domain 'Z'"):
            in_domain(marked_forest(parse_forest("1 2", 2), set()), "Z")

    # the guards' error texts, which the CLI prints
    @pytest.mark.parametrize("apply,text,marks,message", [
        (theta, "1[;2,3]", set(), "theta requires a young-leaf-free forest with marks "
         "among old internals and non-final singletons"),
        (theta_prime, "1 2 3", {3}, "theta_prime requires marks among non-final singletons"),
        (gamma_map, "1 2 3", {3}, "gamma requires marks among non-final singletons"),
        (main_bijection, "1[;2] 3", set(), "main bijection requires a starred forest with "
         "marks among old internals (bar: excluding the last root's) and non-final singletons"),
    ])
    def test_guard_messages(self, apply, text, marks, message):
        mf = marked_forest(parse_forest(text, 2), marks)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply(mf)
