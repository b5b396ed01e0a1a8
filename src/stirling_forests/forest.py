"""Increasing pruned even k-ary trees and forests.

A labeled node either is a leaf or carries exactly k ordered slots, one per
(unlabeled, odd-level) child; each slot holds an ordered list of subtrees.
The unlabeled layer is never materialized: "the j-th child of the root is a
leaf" reads as "slot j is empty", which makes prunedness structural (a node
with k empty slots cannot be constructed as an internal node; it must be a
leaf, i.e. have ``slots is None``).

Validity of a tree/forest:

* prunedness: an internal node has at least one nonempty slot;
* paths increase: every subtree root label exceeds its labeled grand parent;
* slot lists increase: root labels strictly increase left to right in a slot;
* forest roots increase left to right, and tree label sets are disjoint.

A non-root node is "old" when it has the greatest label among the grand
children of its labeled grand parent, otherwise "young"; roots are neither.
A young leaf s is removable iff it sits in the last slot of the last root
and is below every subtree root label in that root's first k-1 slots: the
condition for ``gfs.phi`` at s to empty those slots, which the test suite
checks against ``phi``.  ``forest_profile`` finds classes, counters, label
sets, removable leaves and bar/star membership in one explicit-stack
traversal; ``node_classes``, ``forest_stats``, ``removable_labels`` and
``label_sets`` are views of it.

Canonical text grammar (bit-exact round-trip):

    Forest := Tree (" " Tree)*
    Tree   := LABEL | LABEL "[" Slot (";" Slot)^(k-1) "]"
    Slot   := empty | Tree ("," Tree)*

so the k=3 tree with root 4, slot 1 holding trees 5[;6;] and 8, slot 3
holding the leaf 7, prints as ``4[5[;6;],8;;7]``.  Parsing skips redundant
whitespace; serialization emits single spaces between trees only.

The parser, the serializer, ``validate_forest`` (a stack of (parent, node)
pairs and slot-order checks), ``LabeledTree.labels`` and ``forest_profile``
walk trees with explicit stacks and take any depth; ``LabeledTree``
equality and hashing, made by the dataclass, still recurse.

``enumerate_forests`` and ``enumerate_trees`` stream their family in a fixed
order.  Each call memoises the sub-families it shares (remainders and slot
shares) in a dict of its own, dropped when the generator ends; the module
keeps no state between calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator, NamedTuple, Sequence

from .stirling import DEFAULT_MAX_OBJECTS, LimitError, count_k_stirling


class ForestSyntaxError(ValueError):
    """Malformed forest text; carries the offending position as ``.position``."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at position {position}: {message}")


class ForestInvariantError(ValueError):
    """Structurally well-formed input violating a forest invariant."""

    def __init__(self, label: int | None, message: str):
        self.label = label
        super().__init__(message)


@dataclass(frozen=True)
class LabeledTree:
    """A labeled node: a leaf (slots is None) or exactly k slot lists."""

    label: int
    slots: tuple[tuple["LabeledTree", ...], ...] | None = None

    def labels(self) -> Iterator[int]:
        """Labels in preorder; the stack holds one iterator per open node."""
        yield self.label
        if self.slots is None:
            return
        stack = [chain.from_iterable(self.slots)]
        while stack:
            for t in stack[-1]:
                yield t.label
                if t.slots is not None:
                    stack.append(chain.from_iterable(t.slots))
                    break
            else:
                stack.pop()

    def grand_children(self) -> Iterator["LabeledTree"]:
        """Subtree roots across all slots, left to right."""
        if self.slots is not None:
            for slot in self.slots:
                yield from slot


@dataclass(frozen=True)
class Forest:
    k: int
    trees: tuple[LabeledTree, ...] = ()

    def labels(self) -> Iterator[int]:
        for t in self.trees:
            yield from t.labels()

    def tree_index_of(self, x: int) -> int:
        for i, t in enumerate(self.trees):
            if x in t.labels():
                return i
        raise KeyError(f"label {x} does not occur in the forest")


class NodeClass(enum.Enum):
    ROOT = "Root"
    OLD_LEAF = "OldLeaf"
    YOUNG_LEAF = "YoungLeaf"
    OLD_INTERNAL = "OldInternal"
    YOUNG_INTERNAL = "YoungInternal"


class ForestStats(NamedTuple):
    """The counters of ``forest_stats``; a named tuple, as every profile builds one."""

    lleaf: int
    si: int
    oleaf: int
    yleaf: int
    oint: int
    lint: int
    rleaf: int

    def as_dict(self) -> dict:
        return self._asdict()


class ForestProfile(NamedTuple):
    """The analyses of one forest, from ``forest_profile``: ``classes`` is
    ``node_classes``, ``stats`` is ``forest_stats``, the sets are those of
    ``label_sets`` and ``removable_labels``; ``in_bar`` is ``in_bar`` and
    ``in_star`` means no young and no removable leaves.
    A named tuple, not a frozen dataclass: census loops build one per forest,
    and it constructs several times faster."""

    classes: dict[int, NodeClass]
    stats: ForestStats
    oint: frozenset[int]
    oleaf: frozenset[int]
    yleaf: frozenset[int]
    si: frozenset[int]
    oint_star: frozenset[int]
    si_star: frozenset[int]
    removable_old: frozenset[int]
    removable_young: frozenset[int]
    in_bar: bool
    in_star: bool


# ---------------------------------------------------------------------------
# text form


def serialize_tree(t: LabeledTree) -> str:
    out: list[str] = []
    stack: list[LabeledTree | str] = [t]  # trees to print, and punctuation
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif u.slots is None:
            out.append(str(u.label))
        else:
            out.append(f"{u.label}[")
            stack.append("]")
            for j, slot in enumerate(reversed(u.slots)):
                if j:
                    stack.append(";")
                for i, s in enumerate(reversed(slot)):
                    if i:
                        stack.append(",")
                    stack.append(s)
    return "".join(out)


def serialize_forest(f: Forest) -> str:
    return " ".join(serialize_tree(t) for t in f.trees)


class _Parser:
    def __init__(self, text: str, k: int):
        self.text = text
        self.k = k
        self.pos = 0

    def error(self, message: str) -> ForestSyntaxError:
        return ForestSyntaxError(self.pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_label(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a label")
        label = int(self.text[start : self.pos])
        if label <= 0:
            raise self.error("labels must be positive")
        return label

    def parse_tree(self) -> LabeledTree:
        """One tree.  The stack holds the open nodes, each with its label,
        its finished slots and the trees of the slot being read."""
        stack: list[tuple[int, list[tuple[LabeledTree, ...]], list[LabeledTree]]] = []
        while True:
            label = self.parse_label()  # a tree starts here
            self.skip_ws()
            if self.peek() == "[":
                self.pos += 1
                stack.append((label, [], []))
                tree = None
            else:
                tree = LabeledTree(label)
            while True:
                if tree is None:  # a slot starts here
                    self.skip_ws()
                    if self.peek() not in (";", "]"):
                        break
                else:  # a tree ends here
                    if not stack:
                        return tree
                    stack[-1][2].append(tree)
                    self.skip_ws()
                    if self.peek() == ",":
                        self.pos += 1
                        self.skip_ws()
                        break
                label, slots, trees = stack[-1]  # the open slot ends here
                slots.append(tuple(trees))
                trees.clear()
                ch = self.peek()
                if ch == ";":
                    self.pos += 1
                    tree = None
                elif ch == "]":
                    self.pos += 1
                    if len(slots) != self.k:
                        raise self.error(f"expected exactly {self.k} slots, found {len(slots)}")
                    stack.pop()
                    tree = LabeledTree(label, tuple(slots))
                else:
                    raise self.error("expected ';' or ']'")

    def parse_forest(self) -> Forest:
        trees = []
        self.skip_ws()
        while self.pos < len(self.text):
            trees.append(self.parse_tree())
            self.skip_ws()
        return Forest(self.k, tuple(trees))


def parse_forest(text: str, k: int, validate: bool = True) -> Forest:
    """Parse canonical forest text; validates all invariants by default."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    f = _Parser(text, k).parse_forest()
    if validate:
        violations = validate_forest(f)
        if violations:
            label, message = violations[0]
            raise ForestInvariantError(label, message)
    return f


def parse_tree(text: str, k: int, validate: bool = True) -> LabeledTree:
    f = parse_forest(text, k, validate=validate)
    if len(f.trees) != 1:
        raise ValueError(f"expected a single tree, found {len(f.trees)}")
    return f.trees[0]


# ---------------------------------------------------------------------------
# validation and classification


def validate_forest(f: Forest) -> list[tuple[int | None, str]]:
    """All invariant violations as (offending label, message); empty when valid.

    Depth first with an explicit stack of (parent label, node) pairs.  A slot
    of two or more trees also pushes (parent label, slot) just above its
    first tree, so its order is checked after the walk of the slots before it.
    """
    violations: list[tuple[int | None, str]] = []
    seen: set[int] = set()
    for a, b in zip(f.trees, f.trees[1:]):
        if a.label >= b.label:
            violations.append((b.label, f"roots not increasing: {a.label} before {b.label}"))
    stack: list = [(None, t) for t in reversed(f.trees)]
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


def forest_profile(f: Forest) -> ForestProfile:
    """Every per-forest statistic, from one explicit-stack traversal.

    A node's grand children are classified when the node is popped.  The
    root's grand children then settle the tree's removable old leaf and, in
    the last tree, the removable young leaves and the starred sets.
    """
    k, trees = f.k, f.trees
    m = len(trees)
    classes: dict[int, NodeClass] = {}
    oint, oleaf, yleaf, removable_old, removable_young = set(), set(), set(), set(), set()
    si = {t.label for t in trees if t.slots is None}
    si_star = {t.label for t in trees[:-1] if t.slots is None}
    oint_star = oint  # a final singleton discounts nothing from oint
    lint = 0
    for i, t in enumerate(trees):
        classes[t.label] = NodeClass.ROOT
        if t.slots is None:
            continue
        stack = [t]
        while stack:
            u = stack.pop()
            lint += 1
            top = max([s.label for slot in u.slots for s in slot])
            for slot in u.slots:
                for s in slot:
                    x = s.label
                    if s.slots is None:
                        if x == top:
                            classes[x] = NodeClass.OLD_LEAF
                            oleaf.add(x)
                        else:
                            classes[x] = NodeClass.YOUNG_LEAF
                            yleaf.add(x)
                    else:
                        stack.append(s)
                        if x == top:
                            classes[x] = NodeClass.OLD_INTERNAL
                            oint.add(x)
                        else:
                            classes[x] = NodeClass.YOUNG_INTERNAL
            if u is t:
                root_top = top
        earlier = t.slots[: k - 1]
        if (
            not any(earlier)
            and (i == m - 1 or root_top < trees[i + 1].label)
            and [s.label for s in chain.from_iterable(t.slots) if s.slots is None] == [root_top]
        ):
            removable_old.add(root_top)
        if i == m - 1:
            bound = min([s.label for slot in earlier for s in slot], default=root_top)
            removable_young = {s.label for s in t.slots[-1] if s.slots is None and s.label < bound}
            oint_star = oint - {root_top}
    rleaf = len(removable_old) + len(removable_young)
    stats = ForestStats(len(oleaf) + len(yleaf) + len(si), len(si), len(oleaf), len(yleaf),
                        len(oint), lint, rleaf)
    return ForestProfile(
        classes, stats, frozenset(oint), frozenset(oleaf), frozenset(yleaf), frozenset(si),
        frozenset(oint_star), frozenset(si_star), frozenset(removable_old),
        frozenset(removable_young), in_bar(f), not yleaf and not rleaf,
    )


def node_classes(f: Forest) -> dict[int, NodeClass]:
    """Class of every labeled node, keyed by label."""
    return forest_profile(f).classes


def removable_labels(f: Forest) -> dict:
    """Labels of removable old leaves and removable young leaves.

    An old leaf u of a tree T_i is removable when u is a grand child of the
    root of T_i and the only leaf among those grand children, the first k-1
    slots of the root are empty, and (for i < m) u's label is below the next
    root.  A young leaf of the last tree is removable when it sits in the
    last slot of the root and its label is below every subtree root label in
    the root's first k-1 slots: exactly the young leaves whose toggle
    (gfs.phi) empties those slots, which the test suite checks against phi.
    """
    p = forest_profile(f)
    return {"old": set(p.removable_old), "young": set(p.removable_young)}


def forest_stats(f: Forest) -> ForestStats:
    """All seven counters; singletons count as labeled leaves."""
    return forest_profile(f).stats


def label_sets(f: Forest) -> dict:
    """Old-internal / old-leaf / young-leaf / singleton label sets and the
    starred variants that discount the last tree."""
    p = forest_profile(f)
    return {
        "Oint": set(p.oint),
        "Oleaf": set(p.oleaf),
        "Yleaf": set(p.yleaf),
        "Si": set(p.si),
        "Oint_star": set(p.oint_star),
        "Si_star": set(p.si_star),
    }


def in_bar(f: Forest) -> bool:
    """Last tree a singleton or its root's first k-1 slots empty; the empty
    forest counts as bar (its hat class is empty)."""
    if not f.trees:
        return True
    last = f.trees[-1]
    return last.slots is None or not any(last.slots[: f.k - 1])


# ---------------------------------------------------------------------------
# direct enumeration, independent of the word bijections


def _checked_labels(
    labels: Sequence[int], k: int, max_objects: int, counted: str
) -> tuple[int, ...]:
    """The sorted labels, once k, their distinctness and the ceiling pass."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    labs = tuple(sorted(labels))
    if len(set(labs)) != len(labs):
        raise ValueError("labels must be distinct")
    count = count_k_stirling(len(labs), k)
    if count > max_objects:
        raise LimitError(f"{counted} {count} exceeds ceiling {max_objects}")
    return labs


def _family(labels: tuple[int, ...], k: int, memo: dict) -> list[tuple[LabeledTree, ...]]:
    """The forests on a proper sub-family's labels, built once per call."""
    if labels not in memo:
        memo[labels] = list(_forests(labels, k, memo))
    return memo[labels]


def _forests(labels: tuple[int, ...], k: int, memo: dict) -> Iterator[tuple[LabeledTree, ...]]:
    """Tree tuples: the block holding the least label, in binary-counter
    order of the rest, then its trees, then the forests on the remainder."""
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for mask in range(1 << len(rest)):
        block = (first,) + tuple(a for i, a in enumerate(rest) if mask >> i & 1)
        tails = _family(tuple(a for i, a in enumerate(rest) if not mask >> i & 1), k, memo)
        for t in _trees(block, k, memo):
            for tail in tails:
                yield (t,) + tail


def _trees(block: tuple[int, ...], k: int, memo: dict) -> Iterator[LabeledTree]:
    """The least label as root over each assignment of the rest to the k
    slots, in counter order, then each k-tuple of forests on the shares."""
    root, rest = block[0], block[1:]
    if not rest:
        yield LabeledTree(root)
        return
    for assignment in product(range(k), repeat=len(rest)):
        shares = [tuple(a for a, slot in zip(rest, assignment) if slot == j) for j in range(k)]
        for slots in product(*(_family(share, k, memo) for share in shares)):
            yield LabeledTree(root, slots)


def enumerate_forests(
    labels: Sequence[int], k: int, max_objects: int = DEFAULT_MAX_OBJECTS
) -> Iterator[Forest]:
    """All forests on the given label set, each exactly once, deterministically.

    A forest on M is a set partition of M into blocks ordered by minima, one
    tree per block; a tree on a block is its minimum as root plus an ordered
    k-tuple of forests partitioning the remaining labels.  The family is
    streamed; the memo of its sub-families lives as long as this generator.
    """
    labs = _checked_labels(labels, k, max_objects, "forest count")
    for trees in _forests(labs, k, {}):
        yield Forest(k, trees)


def enumerate_trees(
    labels: Sequence[int], k: int, max_objects: int = DEFAULT_MAX_OBJECTS
) -> Iterator[LabeledTree]:
    """All single trees on the given label set (the one-block forests)."""
    labs = _checked_labels(labels, k, max_objects, "tree count bound")
    if labs:
        yield from _trees(labs, k, {})
