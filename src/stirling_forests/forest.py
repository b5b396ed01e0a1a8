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
checks against ``phi``.

One explicit-stack traversal, ``_walk``, checks the invariants and
classifies the nodes: the class map, the label lists by class, the
removable leaves, bar, and ``ForestStats``, the one count record.  Its two
readers take a stored profile, else walk once.  ``forest_stats`` returns
the record of any forest and stores nothing: the oracle, ``sf enumerate
--filter`` and ``validate_forest`` (a new list of its violations) read it.
``forest_profile`` refuses an invalid forest by its first violation,
freezes each list once, keeps the record as ``stats`` and stores the
profile, read-only (the class map behind a ``MappingProxyType``, the
violations a tuple), in the forest's one declared slot, ``Forest._profile``.
``parse_forest`` reads, then profiles, and every gfs and pipeline map reads
the profile, so each refuses an invalid forest.  ``node_classes``,
``removable_labels`` and ``label_sets`` are views of ``forest_profile``.

Canonical text grammar (bit-exact round-trip):

    Forest := Tree (" " Tree)*
    Tree   := LABEL | LABEL "[" Slot (";" Slot)^(k-1) "]"
    Slot   := empty | Tree ("," Tree)*

so the k=3 tree with root 4, slot 1 holding trees 5[;6;] and 8, slot 3
holding the leaf 7, prints as ``4[5[;6;],8;;7]``.  LABEL is a run of decimal
digits read by ``stirling.read_label``, the one label rule, and blanks may
sit between tokens; serialization emits single spaces between trees only.

The reader ``_read_forest`` (one ``re`` scan for tokens, and a stack of open
nodes), the serializer, ``_walk`` and ``LabeledTree.labels`` walk trees with
explicit stacks and take any depth; ``LabeledTree`` equality and hashing,
made by the dataclass, still recurse.

``enumerate_forests`` and ``enumerate_trees`` stream their family in a fixed
order.  Each call memoises the sub-families it shares (remainders and slot
shares) in a dict of its own, dropped when the generator ends; the module
keeps no state between calls.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from itertools import chain, product
from types import MappingProxyType
from typing import Iterator, NamedTuple, Sequence

from .polyx import check_order
from .stirling import check_ceiling, read_label


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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Forest:
    """The arity k and the trees.  ``forest_profile`` fills the ``_profile``
    slot once; ``==``, ``hash``, ``repr`` and ``__init__`` leave it out, and a
    copy (``dataclasses.replace``, ``pickle``) holds none."""

    k: int
    trees: tuple[LabeledTree, ...] = ()
    _profile: ForestProfile | None = field(default=None, init=False, repr=False, compare=False)

    def __reduce__(self):
        return Forest, (self.k, self.trees)

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


# the members as plain names: reading an attribute of an Enum class is slow
_ROOT, _OLD_LEAF, _YOUNG_LEAF, _OLD_INTERNAL, _YOUNG_INTERNAL = NodeClass


class ForestStats(NamedTuple):
    """The one count record of a forest, built by ``_walk``;
    ``forest_stats`` returns it and ``forest_profile`` keeps it as
    ``stats``.  ``record[:7]`` is the census signature.  ``nodes`` counts
    distinct labels, ``lint`` internal nodes and ``rleaf`` removable
    leaves; the starred counts are the sizes of the profile's starred sets.
    ``in_bar``: the last tree is a singleton or its root's first k-1 slots
    are empty (the empty forest is bar); ``in_star``: no young and no
    removable leaves; ``violations`` is ``validate_forest``'s list, as a tuple."""

    lleaf: int
    si: int
    oleaf: int
    yleaf: int
    one_tree: bool
    in_bar: bool
    in_star: bool
    nodes: int
    lint: int
    oint: int
    oint_star: int
    si_star: int
    rleaf: int
    violations: tuple[tuple[int | None, str], ...]


class ForestProfile(NamedTuple):
    """The analyses of one forest, from ``forest_profile``: ``classes`` is
    ``node_classes`` as a read-only view, ``stats`` the count record, the sets
    are those of ``label_sets`` and ``removable_labels``.  A named tuple, not
    a frozen dataclass: map loops build one per forest, and it constructs
    several times faster."""

    classes: MappingProxyType[int, NodeClass]
    stats: ForestStats
    oint: frozenset[int]
    oleaf: frozenset[int]
    yleaf: frozenset[int]
    si: frozenset[int]
    oint_star: frozenset[int]
    si_star: frozenset[int]
    removable_old: frozenset[int]
    removable_young: frozenset[int]


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


# a label, one other non-blank symbol, or the empty match at the end of text
_TOKEN = re.compile(r"(\d+)|\S|\Z")


def _read_forest(text: str, k: int) -> Forest:
    """The forest of canonical text, not yet validated.

    The tokens are labels and single symbols, blanks dropped.  The stack holds
    the open nodes, each with its label, its finished slots and the trees of
    the slot being read.
    """
    tokens = _TOKEN.finditer(text)
    m = next(tokens)
    roots: list[LabeledTree] = []
    stack: list[tuple[int, list[tuple[LabeledTree, ...]], list[LabeledTree]]] = []
    while m[0] or stack:
        if m[1] is None:  # a tree starts here
            raise ForestSyntaxError(m.start(), "expected a label")
        try:
            label = read_label(m[1])
        except ValueError as exc:  # refused at the label's end
            raise ForestSyntaxError(m.end(), str(exc)) from None
        m = next(tokens)
        if m[0] == "[":
            stack.append((label, [], []))
            m = next(tokens)
            tree = None
        else:
            tree = LabeledTree(label)
        while True:
            if tree is None:  # a slot starts here
                if m[0] not in (";", "]"):
                    break
            elif not stack:  # a root ends here
                roots.append(tree)
                break
            else:  # a tree in a slot ends here
                stack[-1][2].append(tree)
                if m[0] == ",":
                    m = next(tokens)
                    break
            label, slots, trees = stack[-1]  # the open slot ends here
            slots.append(tuple(trees))
            trees.clear()
            if m[0] == ";":
                tree = None
            elif m[0] == "]":
                if len(slots) != k:
                    message = f"expected exactly {k} slots, found {len(slots)}"
                    raise ForestSyntaxError(m.end(), message)
                stack.pop()
                tree = LabeledTree(label, tuple(slots))
            else:
                raise ForestSyntaxError(m.start(), "expected ';' or ']'")
            m = next(tokens)
    return Forest(k, tuple(roots))


def parse_forest(text: str, k: int) -> Forest:
    """The forest a canonical text reads as, holding its ``forest_profile``,
    from one walk; the profile refuses its first violation."""
    check_order(k)
    f = _read_forest(text, k)
    forest_profile(f)
    return f


def parse_tree(text: str, k: int) -> LabeledTree:
    f = parse_forest(text, k)
    if len(f.trees) != 1:
        raise ValueError(f"expected a single tree, found {len(f.trees)}")
    return f.trees[0]


# ---------------------------------------------------------------------------
# validation and classification


def _walk(f: Forest) -> tuple:
    """The one traversal that classifies nodes and checks the invariants.

    Depth first with an explicit stack of (parent label, node, class)
    triples.  A popped internal node sorts its grand children into classes,
    its old grand child being the greatest slot end (slots increase), pushes
    each with its class and lists its label by class; a node's class enters
    the class map when the node is popped, so the map is also the set of
    labels seen, which the duplicate check reads.  A slot of two or more
    trees also pushes (parent label, slot, None) just above its first tree,
    so its order is checked after the walk of the slots before it.  The
    root, popped first, leaves its old grand child and whether a young leaf
    is among its grand children, which settle the tree's removable old leaf
    and, for the last tree, whether to look for removable young leaves: they
    are young, so the last slot is scanned only under a young leaf.

    Returns the count record, whose counts are the lengths of the label
    lists, and for ``forest_profile`` the class map; the old internal, old
    leaf, young leaf, singleton, removable old leaf and removable young leaf
    labels as lists; and the last root's old grand child (None when the last
    tree is a singleton).
    """
    k, trees = f.k, f.trees
    violations: list[tuple[int | None, str]] = []
    classes: dict[int, NodeClass] = {}
    oint, oleaf, yleaf, si, removable_old, removable_young = [], [], [], [], [], []
    for a, b in zip(trees, trees[1:]):
        if a.label >= b.label:
            violations.append((b.label, f"roots not increasing: {a.label} before {b.label}"))
    lint = 0
    last = len(trees) - 1
    stack: list = []
    for i, t in enumerate(trees):
        if t.slots is None:
            x = t.label
            if x in classes:
                violations.append((x, f"duplicate label {x}"))
            classes[x] = _ROOT
            si.append(x)
            continue
        young = len(yleaf)
        stack.append((None, t, _ROOT))
        while stack:
            parent, u, c = stack.pop()
            if c is None:
                for a, b in zip(u, u[1:]):
                    if a.label >= b.label:
                        violations.append(
                            (b.label, f"slot under {parent} not increasing: {a.label} before {b.label}")
                        )
                continue
            x = u.label
            if parent is not None and x <= parent:
                violations.append((x, f"path not increasing: {x} below {parent}"))
            if x in classes:
                violations.append((x, f"duplicate label {x}"))
            classes[x] = c
            slots = u.slots
            if slots is None:
                continue
            lint += 1
            if len(slots) != k:
                violations.append((x, f"node {x} has {len(slots)} slots, expected {k}"))
            top = None
            for slot in slots:
                if slot and (top is None or slot[-1].label > top):
                    top = slot[-1].label
            if top is None:
                violations.append((x, f"internal node {x} has k empty slots (not pruned)"))
            for slot in reversed(slots):
                for s in reversed(slot):
                    y = s.label
                    if s.slots is None:
                        if y == top:
                            stack.append((x, s, _OLD_LEAF))
                            oleaf.append(y)
                        else:
                            stack.append((x, s, _YOUNG_LEAF))
                            yleaf.append(y)
                    elif y == top:
                        stack.append((x, s, _OLD_INTERNAL))
                        oint.append(y)
                    else:
                        stack.append((x, s, _YOUNG_INTERNAL))
                if len(slot) > 1:
                    stack.append((x, slot, None))
            if u is t:  # the root's old grand child, and whether a young leaf is under it
                root_top = top
                young = len(yleaf) > young
        # the tree's removable old leaf: its root's old grand child is a leaf,
        # its only leaf grand child, below the next root, and the first k-1
        # slots are empty
        if (not young and classes.get(root_top) is _OLD_LEAF
                and (i == last or root_top < trees[i + 1].label) and not any(t.slots[: k - 1])):
            removable_old.append(root_top)
    n_oint, n_oleaf, n_yleaf, n_si = len(oint), len(oleaf), len(yleaf), len(si)
    if not trees or trees[-1].slots is None:  # no trees, or a final singleton
        bar, root_top, oint_star, si_star = True, None, n_oint, n_si - bool(trees)
    else:  # the last root's old grand child is not starred
        slots = trees[-1].slots
        bar = not any(slots[: k - 1])
        oint_star, si_star = n_oint - (classes.get(root_top) is _OLD_INTERNAL), n_si
        if young:  # the last slot's leaves below every subtree root of the first k-1 slots
            bound = min([root_top] + [slot[0].label for slot in slots[: k - 1] if slot])
            removable_young = [s.label for s in slots[-1] if s.slots is None and s.label < bound]
    record = tuple.__new__(ForestStats, (
        n_oleaf + n_yleaf + n_si, n_si, n_oleaf, n_yleaf, len(trees) == 1, bar,
        not yleaf and not removable_old, len(classes), lint, n_oint, oint_star, si_star,
        len(removable_old) + len(removable_young), tuple(violations)))
    return record, classes, oint, oleaf, yleaf, si, removable_old, removable_young, root_top


def forest_stats(f: Forest) -> ForestStats:
    """The count record of any forest, valid or not: the stored profile's,
    else one ``_walk``'s, not stored.  Singletons count as labeled leaves."""
    return _walk(f)[0] if f._profile is None else f._profile.stats


def validate_forest(f: Forest) -> list[tuple[int | None, str]]:
    """All invariant violations as (offending label, message), in the order
    of a depth-first walk; empty when valid.  A new list of the record's."""
    return list(forest_stats(f).violations)


_EMPTY: frozenset[int] = frozenset()


def forest_profile(f: Forest) -> ForestProfile:
    """Every per-forest statistic of a valid forest, from ``_walk``: its
    count record, the class map as a read-only view, and each label list
    frozen once (the empty ones share one frozenset); an invalid forest is
    refused by its first violation.  The first call stores the profile in
    f's ``_profile`` slot, and later calls return that object.
    ``tuple.__new__`` skips the named tuple's generated ``__new__``."""
    p = f._profile
    if p is not None:
        return p
    stats, classes, oint, oleaf, yleaf, si, removable_old, removable_young, top = _walk(f)
    if stats.violations:
        raise ForestInvariantError(*stats.violations[0])
    oint, oleaf, yleaf, si, si_star, removable_old, removable_young = [
        frozenset(labels) if labels else _EMPTY
        for labels in (oint, oleaf, yleaf, si, si[: stats.si_star], removable_old, removable_young)]
    p = tuple.__new__(ForestProfile, (
        MappingProxyType(classes), stats, oint, oleaf, yleaf, si,
        oint - {top} if top in oint else oint, si_star, removable_old, removable_young))
    object.__setattr__(f, "_profile", p)
    return p


def node_classes(f: Forest) -> dict[int, NodeClass]:
    """Class of every labeled node, keyed by label: a copy of the stored map."""
    return dict(forest_profile(f).classes)


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


# ---------------------------------------------------------------------------
# direct enumeration, independent of the word bijections


def _checked_labels(labels: Sequence[int], k: int) -> tuple[int, ...]:
    """The sorted labels, once k, the ceiling and their distinctness pass."""
    labs = tuple(sorted(labels))
    check_ceiling(len(labs), k)  # k first; as many forests, at most as many trees
    if len(set(labs)) != len(labs):
        raise ValueError("labels must be distinct")
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


def enumerate_forests(labels: Sequence[int], k: int) -> Iterator[Forest]:
    """All forests on the given label set, each exactly once, deterministically.

    A forest on M is a set partition of M into blocks ordered by minima, one
    tree per block; a tree on a block is its minimum as root plus an ordered
    k-tuple of forests partitioning the remaining labels.  The family is
    streamed; the memo of its sub-families lives as long as this generator.
    """
    labs = _checked_labels(labels, k)
    for trees in _forests(labs, k, {}):
        yield Forest(k, trees)


def enumerate_trees(labels: Sequence[int], k: int) -> Iterator[LabeledTree]:
    """All single trees on the given label set (the one-block forests)."""
    labs = _checked_labels(labels, k)
    if labs:
        yield from _trees(labs, k, {})
