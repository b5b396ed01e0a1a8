import random
import re
from itertools import chain

import pytest
from hypothesis import given, strategies as st

import stirling_forests.forest as forest_module
from stirling_forests.bimap import xi, zeta
from stirling_forests.forest import (
    Forest,
    ForestInvariantError,
    ForestSyntaxError,
    LabeledTree,
    NodeClass,
    enumerate_forests,
    enumerate_trees,
    forest_profile,
    forest_stats,
    label_sets,
    parse_forest,
    removable_labels,
    serialize_forest,
    serialize_tree,
    validate_forest,
)
from stirling_forests.gfs import parse_marked, phi
from stirling_forests.stirling import LimitError, count_k_stirling

FIG1 = "1[10;;9] 2[;;3] 4[5[;6;],8;;7]"
FIG4 = "1[;3,7;] 2[4[;;6];;5] 8"

BAR_3_2 = [
    "1 2 3",
    "1[2;] 3",
    "1[3;] 2",
    "1[;3] 2",
    "1[;2[3;]]",
    "1[;2[;3]]",
    "1[;2] 3",
    "1 2[;3]",
    "1[;2,3]",
]
HAT_3_2 = [
    "1 2[3;]",
    "1[2[3;];]",
    "1[2[;3];]",
    "1[3;2]",
    "1[2,3;]",
    "1[2;3]",
]


class TestParseSerialize:
    def test_fig4_roundtrip(self):
        f = parse_forest(FIG4, 3)
        assert serialize_forest(f) == FIG4
        assert len(f.trees) == 3
        assert f.trees[2] == LabeledTree(8)

    def test_singleton(self):
        f = parse_forest("5", 2)
        assert f.trees == (LabeledTree(5),)

    def test_duplicate_label_rejected(self):
        with pytest.raises(ForestInvariantError) as err:
            parse_forest("1[2;1]", 2)
        assert err.value.label == 1

    def test_whitespace_tolerated(self):
        assert serialize_forest(parse_forest("  1[ ;2 ]   3 ", 2)) == "1[;2] 3"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ForestSyntaxError) as err:
            parse_forest("1[2;", 2)
        assert err.value.position == 4

    def test_wrong_slot_count(self):
        with pytest.raises(ForestSyntaxError):
            parse_forest("1[2]", 2)

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (3, 3)])
    def test_roundtrip_over_enumeration(self, k, n):
        for f in enumerate_forests(range(1, n + 1), k):
            assert parse_forest(serialize_forest(f), k) == f


# (text, k, position, message): every kind of syntax error, at its position
_MALFORMED = [
    ("1[", 2, 2, "expected a label"),
    ("1[2;   ", 2, 7, "expected a label"),  # trailing blanks: the end of text
    ("1[2;];", 2, 5, "expected a label"),
    ("1[,2;]", 2, 2, "expected a label"),
    ("1[2,;]", 2, 4, "expected a label"),
    ("1\u00a0\u3000x", 2, 3, "expected a label"),  # Unicode blanks are blanks
    ("1[\u00b2;]", 2, 2, "expected a label"),  # a digit that is not decimal
    ("1\u00b2", 2, 1, "expected a label"),
    ("0", 2, 1, "labels must be positive"),
    ("1[;00]", 2, 5, "labels must be positive"),
    ("1[2]", 2, 4, "expected exactly 2 slots, found 1"),
    ("1[2;3;4]", 2, 8, "expected exactly 2 slots, found 3"),
    ("1[2 3]", 2, 4, "expected ';' or ']'"),
    ("1[2;3", 2, 5, "expected ';' or ']'"),
    ("1[2;3 \t ", 2, 8, "expected ';' or ']'"),
    ("1[2\u00b2;]", 2, 3, "expected ';' or ']'"),
]

# the grammar's symbols, decimal and other digits, and blanks
_SYMBOLS = ["0", "1", "2", "3", "12", "[", "]", ";", ",", " ",
            "\u00b2", "\u0663", "\uff11", "\u00a0", "\u3000", "\t"]


class TestReader:
    @pytest.mark.parametrize("text,k,position,message", _MALFORMED)
    def test_syntax_error_position_and_message(self, text, k, position, message):
        with pytest.raises(ForestSyntaxError) as err:
            parse_forest(text, k)
        assert err.value.position == position
        assert str(err.value) == f"at position {position}: {message}"

    @pytest.mark.parametrize("text,canonical", [
        ("\u0661[;\u0662]\u3000 3\u00a0", "1[;2] 3"),  # decimal digits, Unicode blanks
        ("", ""),
        ("  \u2003\n", ""),
    ])
    def test_canonical_text(self, text, canonical):
        assert serialize_forest(parse_forest(text, 2)) == canonical

    @given(st.lists(st.sampled_from(_SYMBOLS), max_size=16).map("".join),
           st.integers(1, 3))
    def test_parses_or_refuses(self, text, k):
        # whatever the reader builds, the validator lists its faults and
        # never raises; parse_forest refuses the first of them
        try:
            f = forest_module._read_forest(text, k)
        except ForestSyntaxError:
            return
        violations = validate_forest(f)
        assert isinstance(violations, list)
        if violations:
            with pytest.raises(ForestInvariantError):
                parse_forest(text, k)
            return
        assert parse_forest(serialize_forest(f), k) == f


def _t(label, *slots):
    return LabeledTree(label, slots or None)


_INVALID_FORESTS = [
    (Forest(2, (_t(3), _t(1))), [(1, "roots not increasing: 3 before 1")]),
    (Forest(2, (_t(1, (_t(3), _t(2)), ()),)),
     [(2, "slot under 1 not increasing: 3 before 2")]),
    (Forest(2, (_t(4, (_t(2),), ()),)), [(2, "path not increasing: 2 below 4")]),
    (Forest(2, (_t(1, (_t(2),), ()), _t(2))), [(2, "duplicate label 2")]),
    (Forest(2, (_t(1, (_t(2),)),)), [(1, "node 1 has 1 slots, expected 2")]),
    (Forest(2, (_t(1, (), ()),)), [(1, "internal node 1 has k empty slots (not pruned)")]),
    # a slot's order is checked after the walk of the slots before it, and
    # before the walk of its own trees
    (Forest(2, (_t(1, (_t(5, (_t(2),), ()),), (_t(7, (_t(3),), ()), _t(6))),)),
     [(2, "path not increasing: 2 below 5"),
      (6, "slot under 1 not increasing: 7 before 6"),
      (3, "path not increasing: 3 below 7")]),
    (Forest(3, (_t(1, (_t(4), _t(3), _t(2)), (), ()),)),
     [(3, "slot under 1 not increasing: 4 before 3"),
      (2, "slot under 1 not increasing: 3 before 2")]),
    (Forest(2, (_t(3, (_t(5, (), ()), _t(4)), (_t(2), _t(2))), _t(1, (_t(9),)), _t(6))),
     [(1, "roots not increasing: 3 before 1"),
      (4, "slot under 3 not increasing: 5 before 4"),
      (5, "internal node 5 has k empty slots (not pruned)"),
      (2, "slot under 3 not increasing: 2 before 2"),
      (2, "path not increasing: 2 below 3"),
      (2, "path not increasing: 2 below 3"),
      (2, "duplicate label 2"),
      (1, "node 1 has 1 slots, expected 2")]),
]


class TestValidate:
    def test_valid(self):
        assert validate_forest(parse_forest("1[;2,3]", 2)) == []

    def test_slot_not_increasing(self):
        f = forest_module._read_forest("1[;3,2]", 2)
        assert any("not increasing" in msg for _, msg in validate_forest(f))

    def test_roots_not_increasing(self):
        f = forest_module._read_forest("2[;3] 1", 2)
        assert any("roots not increasing" in msg for _, msg in validate_forest(f))

    def test_unpruned_rejected(self):
        f = Forest(2, (LabeledTree(1, ((), ())),))
        assert any("pruned" in msg for _, msg in validate_forest(f))

    def test_path_not_increasing(self):
        f = forest_module._read_forest("2[1;]", 2)
        assert any("path" in msg for _, msg in validate_forest(f))

    @pytest.mark.parametrize("f,expected", _INVALID_FORESTS)
    def test_exact_violations(self, f, expected):
        # the whole list, messages and order
        assert validate_forest(f) == expected

    @pytest.mark.parametrize(
        "text,k",
        [("2[;3] 1", 2), ("1[;3,2]", 2), ("2[1;]", 2), ("1[2;1]", 2),
         ("1[4[3;],2;]", 2), ("3[;5,4] 1[2;]", 2)],
    )
    def test_parse_raises_first_violation(self, text, k):
        # the forest reader and the marked reader refuse the first violation
        first = validate_forest(forest_module._read_forest(text, k))[0]
        for parse in (parse_forest, lambda text, k: parse_marked(f"{text} | {{}}", k)):
            with pytest.raises(ForestInvariantError) as err:
                parse(text, k)
            assert (err.value.label, str(err.value)) == first


class TestClassification:
    def test_fig1_old_and_young(self):
        classes = forest_profile(parse_forest(FIG1, 3)).classes
        assert classes[6] is NodeClass.OLD_LEAF
        assert classes[8] is NodeClass.OLD_LEAF
        assert classes[5] is NodeClass.YOUNG_INTERNAL
        assert classes[7] is NodeClass.YOUNG_LEAF
        assert classes[4] is NodeClass.ROOT
        assert classes[10] is NodeClass.OLD_LEAF

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            forest_profile(parse_forest("1", 2)).classes[7]


_COUNTERS = ("lleaf", "si", "oleaf", "yleaf", "oint", "lint", "rleaf")


def _by_name(record, names=_COUNTERS) -> dict:
    return {name: getattr(record, name) for name in names}


class TestStats:
    def test_all_singletons(self):
        st = forest_stats(parse_forest("1 2 3", 2))
        assert _by_name(st) == {
            "lleaf": 3, "si": 3, "oleaf": 0, "yleaf": 0,
            "oint": 0, "lint": 0, "rleaf": 0,
        }

    def test_named_tuple_keeps_field_order(self):
        # the first seven fields are the census signature
        st = forest_stats(parse_forest("1[2[3;];] 4", 2))
        assert st._fields == ("lleaf", "si", "oleaf", "yleaf", "one_tree", "in_bar", "in_star",
                              "nodes", "lint", "oint", "oint_star", "si_star", "rleaf",
                              "violations")
        assert st[:7] == (2, 1, 1, 0, False, True, True)
        assert tuple(st) == (2, 1, 1, 0, False, True, True, 4, 2, 1, 1, 0, 0, ())

    def test_fig4(self):
        st = forest_stats(parse_forest(FIG4, 3))
        assert st.lleaf == 5
        assert st.si == 1

    def test_chain(self):
        st = forest_stats(parse_forest("1[2[3;];]", 2))
        assert _by_name(st) == {
            "lleaf": 1, "si": 0, "oleaf": 1, "yleaf": 0,
            "oint": 1, "lint": 2, "rleaf": 0,
        }

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 5), (3, 4)])
    def test_leaf_split_relation(self, k, n):
        for f in enumerate_forests(range(1, n + 1), k):
            st = forest_stats(f)
            assert st.oleaf + st.yleaf + st.si == st.lleaf


class TestLabelSets:
    def test_starred_keeps_non_final_singleton(self):
        sets = label_sets(parse_forest("1 2[3;]", 2))
        assert sets["Si"] == sets["Si_star"] == {1}
        assert sets["Oint"] == sets["Oint_star"] == set()
        assert sets["Oleaf"] == {3}

    def test_final_singleton_removed(self):
        sets = label_sets(parse_forest("1[2;] 3", 2))
        assert sets["Si"] == {3}
        assert sets["Si_star"] == set()
        assert sets["Oleaf"] == {2}

    def test_old_internal_grand_child_of_last_root_removed(self):
        sets = label_sets(parse_forest("1[;2[3;]]", 2))
        assert sets["Oint"] == {2}
        assert sets["Oint_star"] == set()


class TestRemovable:
    def test_fig1(self):
        rem = removable_labels(parse_forest(FIG1, 3))
        assert rem == {"old": {3}, "young": set()}

    def test_removable_young_example(self):
        # the young leaf 5 qualifies, 7 does not (pulling 7 down leaves 6
        # behind in the middle slot)
        for first_tree in ("1[3;2;]", "1[2;3;]"):
            rem = removable_labels(parse_forest(f"{first_tree} 4[;6,8;5,7]", 3))
            assert rem["young"] == {5}
            assert rem["old"] == set()

    def test_simple_old(self):
        assert removable_labels(parse_forest("1[;2] 3", 2))["old"] == {2}

    def test_blocked_by_next_root(self):
        assert removable_labels(parse_forest("1[;3] 2", 2)) == {"old": set(), "young": set()}

    @pytest.mark.parametrize("k,n", [(1, 6), (2, 6), (3, 5)])
    def test_definitional_young_matches_derived_criterion(self, k, n):
        # definitional form: a young grand child leaf of the last root whose
        # toggle (phi) empties the root's first k-1 slots
        for f in enumerate_forests(range(1, n + 1), k):
            expected = set()
            if f.trees and f.trees[-1].slots is not None:
                last = f.trees[-1]
                grand = list(chain.from_iterable(last.slots))
                top = max(s.label for s in grand)
                for s in grand:
                    if s.slots is None and s.label != top:
                        toggled = phi(last, s.label)
                        if all(not slot for slot in toggled.slots[: k - 1]):
                            expected.add(s.label)
            assert removable_labels(f)["young"] == expected


def _reference_profile(f):
    """Every ``ForestProfile`` field from the definitions, naively: one
    recursion records each node's grand parent and grand children, and a
    node is old when it is the greatest grand child of its grand parent."""
    k, roots = f.k, f.trees
    grand_parent, grand_children = {}, {}  # None for a root, and for a leaf

    def visit(t, parent):
        grand_parent[t.label] = parent
        grand_children[t.label] = None
        if t.slots is not None:
            grand_children[t.label] = [s.label for slot in t.slots for s in slot]
            for s in chain.from_iterable(t.slots):
                visit(s, t.label)

    for t in roots:
        visit(t, None)
    classes = {}
    for x, parent in grand_parent.items():
        if parent is None:
            classes[x] = NodeClass.ROOT
            continue
        old = x == max(grand_children[parent])
        if grand_children[x] is None:
            classes[x] = NodeClass.OLD_LEAF if old else NodeClass.YOUNG_LEAF
        else:
            classes[x] = NodeClass.OLD_INTERNAL if old else NodeClass.YOUNG_INTERNAL

    def of_class(c):
        return {x for x in classes if classes[x] is c}

    leaves = {x for x in classes if grand_children[x] is None}
    si = {t.label for t in roots if t.slots is None}
    removable_old, removable_young = set(), set()
    for i, t in enumerate(roots):
        if t.slots is None or any(t.slots[: k - 1]):
            continue
        under = [x for x in grand_children[t.label] if x in leaves]
        if (len(under) == 1 and classes[under[0]] is NodeClass.OLD_LEAF
                and (i == len(roots) - 1 or under[0] < roots[i + 1].label)):
            removable_old.add(under[0])
    oint_star = of_class(NodeClass.OLD_INTERNAL)
    last = roots[-1] if roots else None
    if last is not None and last.slots is not None:
        earlier = [s.label for slot in last.slots[: k - 1] for s in slot]
        removable_young = {
            s.label for s in last.slots[-1]
            if classes[s.label] is NodeClass.YOUNG_LEAF and all(s.label < y for y in earlier)
        }
        oint_star = oint_star - {max(grand_children[last.label])}
    rleaf = len(removable_old) + len(removable_young)
    yleaf = of_class(NodeClass.YOUNG_LEAF)
    si_star = si - {last.label} if last is not None else si
    return {
        "classes": classes,
        "stats": (len(leaves), len(si), len(of_class(NodeClass.OLD_LEAF)), len(yleaf),
                  len(roots) == 1,
                  last is None or last.slots is None or not any(last.slots[: k - 1]),
                  not yleaf and not rleaf, len(classes), len(classes) - len(leaves),
                  len(of_class(NodeClass.OLD_INTERNAL)), len(oint_star), len(si_star), rleaf,
                  tuple(_reference_violations(f))),
        "oint": of_class(NodeClass.OLD_INTERNAL),
        "oleaf": of_class(NodeClass.OLD_LEAF),
        "yleaf": yleaf,
        "si": si,
        "oint_star": oint_star,
        "si_star": si_star,
        "removable_old": removable_old,
        "removable_young": removable_young,
    }


def _seeded_word(n, k, seed):
    """A k-Stirling word on 1..n by gap insertion; half the blocks go right
    after the first copy of the previous letter, which nests them."""
    rnd = random.Random(seed)
    word, prev = [1] * k, 0
    for a in range(2, n + 1):
        gap = prev + 1 if rnd.random() < 0.5 else rnd.randint(0, len(word))
        word[gap:gap] = [a] * k
        prev = gap
    return tuple(word)


def _reference_violations(f):
    """The validator as it stood before it shared a walk with the census
    counts: a stack of (parent label, node) pairs and slot-order markers."""
    violations = []
    seen = set()
    for a, b in zip(f.trees, f.trees[1:]):
        if a.label >= b.label:
            violations.append((b.label, f"roots not increasing: {a.label} before {b.label}"))
    stack = [(None, t) for t in reversed(f.trees)]
    while stack:
        parent, t = stack.pop()
        if type(t) is tuple:
            for a, b in zip(t, t[1:]):
                if a.label >= b.label:
                    violations.append(
                        (b.label, f"slot under {parent} not increasing: {a.label} before {b.label}")
                    )
            continue
        if parent is not None and t.label <= parent:
            violations.append((t.label, f"path not increasing: {t.label} below {parent}"))
        if t.label in seen:
            violations.append((t.label, f"duplicate label {t.label}"))
        seen.add(t.label)
        if t.slots is None:
            continue
        if len(t.slots) != f.k:
            violations.append((t.label, f"node {t.label} has {len(t.slots)} slots, expected {f.k}"))
        if not any(t.slots):
            violations.append((t.label, f"internal node {t.label} has k empty slots (not pruned)"))
        for slot in reversed(t.slots):
            for s in reversed(slot):
                stack.append((t.label, s))
            if len(slot) > 1:
                stack.append((t.label, slot))
    return violations


def _profile_counts(f):
    """The count record, less its violations, read off forest_profile's label
    sets where they give the count."""
    p = forest_profile(f)
    rleaf = len(p.removable_old) + len(p.removable_young)
    return (len(p.oleaf) + len(p.yleaf) + len(p.si), len(p.si), len(p.oleaf), len(p.yleaf),
            len(f.trees) == 1, p.stats.in_bar, not p.yleaf and not rleaf, len(p.classes),
            p.stats.lint, len(p.oint), len(p.oint_star), len(p.si_star), rleaf)


def _shuffled_slots(t, rng):
    if t.slots is None:
        return t
    slots = []
    for slot in t.slots:
        slot = [_shuffled_slots(s, rng) for s in slot]
        if rng.random() < 0.5:
            rng.shuffle(slot)
        slots.append(tuple(slot))
    return LabeledTree(t.label, tuple(slots))


_SMALL_FORESTS = [f for k in (1, 2, 3) for n in range(1, 6)
                  for f in enumerate_forests(range(1, n + 1), k)]


def _scrambled_forests(seed, count):
    """Valid forests spoiled by some of: labels redrawn (duplicates and
    order faults), leaves given k empty slots, slots shuffled, and the
    forest's k changed; the first two through the text and ``_read_forest``."""
    rng = random.Random(seed)
    for _ in range(count):
        f = rng.choice(_SMALL_FORESTS)
        k, text, n = f.k, serialize_forest(f), sum(1 for _ in f.labels())
        faults = {j for j in range(4) if rng.random() < 0.5} or {rng.randrange(4)}
        if 0 in faults:
            text = re.sub(r"\d+", lambda m: str(rng.randint(1, n + 1))
                          if rng.random() < 0.5 else m[0], text)
        if 1 in faults:  # a label that opens no slots is a leaf
            text = re.sub(r"\d+(?![\d\[])", lambda m: f"{m[0]}[{';' * (k - 1)}]"
                          if rng.random() < 0.3 else m[0], text)
        g = forest_module._read_forest(text, k)
        if 2 in faults:
            g = Forest(k, tuple(_shuffled_slots(t, rng) for t in g.trees))
        if 3 in faults:
            g = Forest(rng.choice([j for j in (1, 2, 3, 4) if j != k]), g.trees)
        yield g


def _refused(f, first):
    """forest_profile refuses f by its first violation and stores nothing."""
    with pytest.raises(ForestInvariantError) as err:
        forest_profile(f)
    assert (err.value.label, str(err.value)) == first
    assert f._profile is None


class TestCensusWalk:
    """The three readers of the one walk against each other, the census
    record's counts against ``forest_profile``'s, and the violation lists
    against the earlier validator's."""

    def test_every_small_forest(self):
        for f in _SMALL_FORESTS:
            w = forest_stats(f)
            assert w[:13] == _profile_counts(f), serialize_forest(f)
            assert w.violations == tuple(_reference_violations(f)) == ()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_profile_keeps_the_record(self, k):
        # one count record: the profile's stats is the census walk's record
        for n in range(7):
            for f in enumerate_forests(range(1, n + 1), k):
                assert forest_profile(f).stats == forest_stats(f), serialize_forest(f)

    @pytest.mark.parametrize("k,seed", [(k, seed) for k in (1, 2, 3, 4) for seed in (1, 2)])
    def test_seeded_order_200_images(self, k, seed):
        word = _seeded_word(200, k, seed)
        for f in (xi(word, k), zeta(word, k)):
            w = forest_stats(f)
            assert w == forest_profile(f).stats
            assert (w[:13], w.violations) == (_profile_counts(f), ())

    @pytest.mark.parametrize("seed", range(4))
    def test_scrambled_forests(self, seed):
        # the whole violation list, on every forest, from both record
        # readers, and the profile's refusal of the first; the record and
        # the walk's class map against the reference, and a valid forest's
        # whole profile, where the walk reads the forest as a valid one
        # would be read: the labels are distinct and only paths or roots
        # fail to increase
        compared = 0
        for f in _scrambled_forests(seed, 1000):
            w = forest_stats(f)
            expected = _reference_violations(f)
            assert w.violations == tuple(validate_forest(f)) == tuple(expected)
            if expected:
                _refused(f, expected[0])
            else:
                assert forest_profile(f).stats == w
            labels = list(f.labels())
            if len(set(labels)) == len(labels) and all(
                    message.startswith(("path", "roots")) for _, message in w.violations):
                reference = _reference_profile(f)
                assert w == reference["stats"], serialize_forest(f)
                assert forest_module._walk(f)[1] == reference["classes"], serialize_forest(f)
                if not expected:
                    assert forest_profile(f)._asdict() == reference, serialize_forest(f)
                compared += 1
        assert compared

    @pytest.mark.parametrize("f,expected", _INVALID_FORESTS)
    def test_listed_invalid_forests(self, f, expected):
        # the profile refuses the first violation and stores nothing; the
        # record still lists every one
        assert forest_stats(f).violations == tuple(_reference_violations(f)) == tuple(expected)
        _refused(f, expected[0])
        assert forest_stats(f).violations == tuple(expected)

    def test_internal_node_without_slots(self):
        # no reader builds it; the record readers list it and do not raise,
        # and the profile refuses it
        f = Forest(2, (LabeledTree(1, ()),))
        expected = [
            (1, "node 1 has 0 slots, expected 2"),
            (1, "internal node 1 has k empty slots (not pruned)"),
        ]
        assert validate_forest(f) == _reference_violations(f) == expected
        assert forest_stats(f).violations == tuple(expected)
        _refused(f, expected[0])

    def test_unpruned_node_read_from_text(self):
        # the text 1[;] reads as an internal node with k empty slots
        f = forest_module._read_forest("1[;]", 2)
        assert f == Forest(2, (LabeledTree(1, ((), ())),))
        expected = [(1, "internal node 1 has k empty slots (not pruned)")]
        assert validate_forest(f) == _reference_violations(f) == expected
        assert forest_stats(f).violations == tuple(expected)
        _refused(f, expected[0])

    def test_record_reader_stores_nothing(self):
        # forest_stats walks a forest that holds no profile and leaves it so;
        # once the profile is stored, the record is its stats
        f = forest_module._read_forest(FIG4, 3)
        w = forest_stats(f)
        assert f._profile is None
        assert forest_stats(f) == w and forest_stats(f) is not w
        assert forest_profile(f).stats == w
        assert forest_stats(f) is f._profile.stats

    def test_each_reader_walks_once(self, monkeypatch):
        walks = [0]
        real = forest_module._walk

        def walk(f):
            walks[0] += 1
            return real(f)

        monkeypatch.setattr(forest_module, "_walk", walk)
        for reader in (validate_forest, forest_profile, forest_stats,
                       lambda f: parse_forest(FIG4, f.k),
                       lambda f: parse_marked(FIG4 + " | {}", f.k)):
            f = forest_module._read_forest(FIG4, 3)  # fresh: it holds no profile
            walks[0] = 0
            reader(f)
            assert walks[0] == 1, reader.__name__
        # the profile is stored: the parsed forest is not walked again
        f = parse_forest(FIG4, 3)
        walks[0] = 0
        assert forest_profile(f) is forest_profile(f)
        assert walks[0] == 0


class TestProfileReference:
    """``forest_profile`` against a naive classifier written from the
    definitions, field by field."""

    @pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in range(6)])
    def test_every_small_forest(self, k, n):
        for f in enumerate_forests(range(1, n + 1), k):
            assert forest_profile(f)._asdict() == _reference_profile(f), serialize_forest(f)

    @pytest.mark.parametrize("k,seed", [(k, seed) for k in (1, 2, 3, 4) for seed in (1, 2)])
    def test_seeded_order_200_images(self, k, seed):
        word = _seeded_word(200, k, seed)
        for f in (xi(word, k), zeta(word, k)):
            assert forest_profile(f)._asdict() == _reference_profile(f)


class TestClassesAndEnumeration:
    def test_fig2_all_bar(self):
        for text in BAR_3_2:
            assert forest_profile(parse_forest(text, 2)).stats.in_bar is True

    def test_fig3_all_hat(self):
        for text in HAT_3_2:
            assert forest_profile(parse_forest(text, 2)).stats.in_bar is False

    def test_star_excludes_young_leaves(self):
        st = forest_profile(parse_forest("1[;2,3]", 2)).stats
        assert (st.in_bar, st.in_star) == (True, False)

    def test_bar_hat_split_at_3_2(self):
        forests = list(enumerate_forests([1, 2, 3], 2))
        assert len(forests) == 15
        texts = {serialize_forest(f) for f in forests}
        assert texts == set(BAR_3_2) | set(HAT_3_2)
        assert sum(1 for f in forests if forest_profile(f).stats.in_bar) == 9

    def test_singleton_label_set(self):
        assert list(enumerate_forests([1], 3)) == [Forest(3, (LabeledTree(1),))]

    def test_count_3_3(self):
        assert sum(1 for _ in enumerate_forests([1, 2, 3], 3)) == 28

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 4), (3, 4)])
    def test_counts_and_validity(self, k, n):
        forests = list(enumerate_forests(range(1, n + 1), k))
        assert len(forests) == count_k_stirling(n, k)
        assert len(set(forests)) == len(forests)
        for f in forests:
            assert validate_forest(f) == []

    def test_trees_are_one_block_forests(self):
        trees = set(enumerate_trees([1, 2, 3], 2))
        singles = {
            f.trees[0] for f in enumerate_forests([1, 2, 3], 2) if len(f.trees) == 1
        }
        assert trees == singles

    def test_guard(self):
        # 24 344 320 forests on 8 labels at k = 3: refused before the first
        with pytest.raises(LimitError, match="exceeds the enumeration ceiling"):
            next(enumerate_forests(range(1, 9), 3))
        with pytest.raises(LimitError, match="exceeds the enumeration ceiling"):
            next(enumerate_trees(range(1, 9), 3))

    def test_general_label_sets(self):
        forests = list(enumerate_forests([2, 5, 9], 2))
        assert len(forests) == 15
        assert all(sorted(f.labels()) == [2, 5, 9] for f in forests)

    def test_k_must_be_positive(self):
        for enumerate_family in (enumerate_forests, enumerate_trees):
            for k in (0, -1):
                with pytest.raises(ValueError, match="k must be a positive integer"):
                    next(enumerate_family([1, 2], k))
        with pytest.raises(ValueError, match="k must be a positive integer"):
            next(enumerate_trees([], 0))


class TestEnumerationOrder:
    # the order is a guarantee: these are the texts, in order, that the
    # enumerators have always produced
    FORESTS_3_2 = [
        "1 2 3", "1 2[3;]", "1 2[;3]", "1[2;] 3", "1[;2] 3", "1[3;] 2",
        "1[;3] 2", "1[2,3;]", "1[2[3;];]", "1[2[;3];]", "1[2;3]", "1[3;2]",
        "1[;2,3]", "1[;2[3;]]", "1[;2[;3]]",
    ]
    TREES_4_2 = [
        "1[2,3,4;]", "1[2,3[4;];]", "1[2,3[;4];]", "1[2[3;],4;]", "1[2[;3],4;]",
        "1[2[4;],3;]", "1[2[;4],3;]", "1[2[3,4;];]", "1[2[3[4;];];]",
        "1[2[3[;4];];]", "1[2[3;4];]", "1[2[4;3];]", "1[2[;3,4];]",
        "1[2[;3[4;]];]", "1[2[;3[;4]];]", "1[2,3;4]", "1[2[3;];4]", "1[2[;3];4]",
        "1[2,4;3]", "1[2[4;];3]", "1[2[;4];3]", "1[2;3,4]", "1[2;3[4;]]",
        "1[2;3[;4]]", "1[3,4;2]", "1[3[4;];2]", "1[3[;4];2]", "1[3;2,4]",
        "1[3;2[4;]]", "1[3;2[;4]]", "1[4;2,3]", "1[4;2[3;]]", "1[4;2[;3]]",
        "1[;2,3,4]", "1[;2,3[4;]]", "1[;2,3[;4]]", "1[;2[3;],4]", "1[;2[;3],4]",
        "1[;2[4;],3]", "1[;2[;4],3]", "1[;2[3,4;]]", "1[;2[3[4;];]]",
        "1[;2[3[;4];]]", "1[;2[3;4]]", "1[;2[4;3]]", "1[;2[;3,4]]",
        "1[;2[;3[4;]]]", "1[;2[;3[;4]]]",
    ]

    def test_forests_3_2(self):
        assert [serialize_forest(f) for f in enumerate_forests([1, 2, 3], 2)] == self.FORESTS_3_2

    def test_trees_4_2(self):
        assert [serialize_tree(t) for t in enumerate_trees([4, 3, 2, 1], 2)] == self.TREES_4_2

    # the oracle's gfs suite walks its orbits over the one-tree forests of
    # the cell's forest table, in this order
    @pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in range(6)]
                             + [(6, 1), (6, 2)])
    def test_one_tree_forests_come_in_tree_order(self, n, k):
        labels = range(1, n + 1)
        one_tree = [f.trees[0] for f in enumerate_forests(labels, k) if len(f.trees) == 1]
        assert one_tree == list(enumerate_trees(labels, k))

    def test_module_state_does_not_grow(self):
        def sizes():
            return {name: len(value) for name, value in vars(forest_module).items()
                    if isinstance(value, (dict, list, set))}

        before = sizes()
        assert sum(1 for _ in enumerate_forests([3, 7, 8, 20, 21], 3)) == count_k_stirling(5, 3)
        trees = sum(1 for _ in enumerate_trees([3, 7, 8, 20, 22], 2))
        assert trees == sum(1 for f in enumerate_forests(range(5), 2) if len(f.trees) == 1)
        assert sizes() == before

    def test_interleaved_enumerations_are_independent(self):
        labels = [1, 2, 3, 4]
        expect2 = list(enumerate_forests(labels, 2))
        expect3 = list(enumerate_forests(labels, 3))
        abandoned = enumerate_forests(labels, 2)
        for _ in range(len(expect2) // 2):
            next(abandoned)
        gen2, gen3 = enumerate_forests(labels, 2), enumerate_forests(labels, 3)
        pairs = list(zip(gen2, gen3))  # gen2 is the shorter family
        assert [f for f, _ in pairs] == expect2
        assert [f for _, f in pairs] + list(gen3) == expect3
        assert list(abandoned) == expect2[len(expect2) // 2:]
