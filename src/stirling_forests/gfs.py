"""Commuting involutions on trees and the marked-forest correspondences.

``phi(t, x)`` toggles the node labeled x between old-internal and young-leaf
status, fixing everything else:

* old internal x: every subtree hanging under x moves up, slot by slot, onto
  the matching slot of x's labeled grand parent (appended; x had the greatest
  label among its grand-parent's grand children, so order stays increasing),
  and x becomes a leaf;
* young leaf x: x sprouts k slots and pulls down, slot by slot, the subtrees
  of its grand parent whose root labels exceed x (relative order kept);
* any other x (roots, old leaves, young internal nodes): identity.

The toggles at distinct labels commute, so every subset of labels acts at
once, in one bottom-up pass per tree (``phi_set``; ``phi`` is its one-label
case).  Orbits of the induced action each contain exactly one tree free of
young leaves, reachable in a single simultaneous toggle of all young-leaf
labels.

A marked forest is a forest plus a label set S, in text ``<forest> | {1,3}``;
``parse_marked`` reads each mark by ``stirling.read_label``, the one label
rule of the word and forest readers.  ``theta`` trades the old-internal part
of S for young leaves via the toggles; ``theta_prime`` reverses it by
absorbing all young-leaf labels back into S.  ``DOMAINS`` defines each
marked-forest domain once, by the labels its marks may take: X and Y, which
theta pairs up, and their bar/hat class versions (theta takes X-bar onto
Y-bar and X-hat onto Y-hat).  ``in_domain`` tests membership, and the guards
of theta, theta_prime and the pipeline maps read the same table.

Every function here but ``phi`` and ``phi_set`` reads its forest's
``forest_profile``, which refuses an invalid forest and is stored: a forest
read by ``parse_marked``, or profiled before, is not walked again.  ``orbit``
toggles only old internals and young leaves, and keys members by text.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forest import (
    Forest,
    LabeledTree,
    forest_profile,
    parse_forest,
    serialize_forest,
    serialize_tree,
)
from .stirling import read_label


@dataclass(frozen=True)
class MarkedForest:
    forest: Forest
    marks: frozenset[int]

    def text(self) -> str:
        inner = ",".join(str(x) for x in sorted(self.marks))
        return f"{serialize_forest(self.forest)} | {{{inner}}}"


def parse_marked(text: str, k: int) -> MarkedForest:
    """The marked forest in the form ``MarkedForest.text`` writes:
    ``<forest> | {1,3}``, blanks allowed around the marks.  One walk: the
    forest's faults are refused before ``marked_forest`` checks the marks."""
    forest_text, _, marks_text = text.partition("|")
    marks_text = marks_text.strip()
    inner = marks_text[1:-1].strip()
    pieces = [p.strip() for p in inner.split(",")] if inner else []
    if not (marks_text.startswith("{") and marks_text.endswith("}")
            and all(p.isdecimal() for p in pieces)):
        raise ValueError("marks must look like {1,3}")
    return marked_forest(parse_forest(forest_text, k), map(read_label, pieces))


def marked_forest(forest: Forest, marks) -> MarkedForest:
    """forest marked by marks, which must all be keys of its profile's classes."""
    marks = frozenset(marks)
    unknown = marks.difference(forest_profile(forest).classes)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} do not occur in the forest")
    return MarkedForest(forest, marks)


def phi(t: LabeledTree, x: int) -> LabeledTree:
    """Toggle old-internal/young-leaf status at label x: ``phi_set`` at one label."""
    image, met = _toggle(t, (x,), x)
    if not met:
        raise ValueError(f"labels [{x}] do not occur in the forest")
    return image


def _toggle(t: LabeledTree, labels, top: int) -> tuple[LabeledTree, int]:
    """t with the toggle at every label of ``labels`` applied, and how many
    of those labels occur in t; ``top`` is the greatest of them.

    A toggle moves subtrees only between its node and its grand parent and
    alters no other node's leaf/internal status, so each node, once rebuilt
    from its rebuilt subtrees, takes the toggles at its grand children: the
    old one raises its children if internal, then the young leaves lower,
    greatest first.  Subtrees rooted at top or above are not entered, and
    untouched subtrees, or a whole unchanged t, come back as themselves.

    A node its grand parent raises is not rebuilt: it closes into its slots
    as lists in decreasing order, and the raise appends to them, so a chain
    of raises moves each subtree once.
    """
    met = t.label in labels
    images = {}  # id of an entered node -> its image, where that differs
    rising = {}  # label of a closed node its grand parent raises -> its slot lists
    todo = [(t, None, None)] if t.label < top and t.slots is not None else []
    while todo:
        u, entered, parent = todo.pop()
        if entered is None:  # open u: the subtrees it enters close first
            entered = [s for slot in u.slots for s in slot if s.label < top and s.slots is not None]
            if entered:
                todo.append((u, entered, parent))
                todo += [(s, None, u) for s in entered]
                continue
        slots = u.slots
        for s in entered:
            if id(s) in images:
                slots = tuple(tuple([images.get(id(s), s) for s in slot]) for slot in slots)
                break
        lists = None  # u's slots as decreasing lists, once a raise has moved subtrees
        acting = [s for slot in slots for s in slot if s.label in labels]
        if acting:
            met += len(acting)
            old = max([slot[-1].label for slot in slots if slot])
            for s in acting:
                if s.label == old and s.slots is not None:
                    lists = _raise_children(slots, s, rising.pop(old, None))
            young = [s.label for s in acting if s.slots is None and s.label != old]
            if young:
                if lists is not None:
                    slots, lists = [slot[::-1] for slot in lists], None
                slots = _lower_greater(slots, sorted(young, reverse=True))
        if (u.label in labels and parent is not None
                and u.label == max([slot[-1].label for slot in parent.slots if slot])):
            rising[u.label] = lists if lists is not None else _decreasing(slots)
        elif lists is not None:
            for slot in lists:
                slot.reverse()
            images[id(u)] = LabeledTree(u.label, tuple(map(tuple, lists)))
        elif slots is not u.slots:
            images[id(u)] = LabeledTree(u.label, slots)
    return images.get(id(t), t), met


def _decreasing(slots) -> list[list[LabeledTree]]:
    """Each slot as a list in decreasing order."""
    return [list(reversed(slot)) for slot in slots]


def _raise_children(slots, gx: LabeledTree, lists) -> list[list[LabeledTree]]:
    """Old-internal case: gx's slot contents join the slots of its grand
    parent, and gx becomes a leaf.  ``lists`` holds gx's slots as decreasing
    lists, or None; the joined slots come back in the same form."""
    if lists is None:
        lists = _decreasing(gx.slots)
    for slot, extra in zip(slots, lists):
        # both parts increase, so the joint is the one place to check
        if slot and extra and slot[-1].label >= extra[-1].label:
            raise RuntimeError("only the greatest grand child can raise its children")
        if slot and slot[-1] is gx:
            extra.append(LabeledTree(gx.label))
            slot = slot[:-1]
        extra.extend(reversed(slot))
    return lists


def _lower_greater(slots, ys: list[int]) -> tuple[tuple[LabeledTree, ...], ...]:
    """Young-leaf case: each young leaf y in ys, greatest first, pulls down
    the node's subtrees above y; the node keeps the returned slots."""
    slots = [list(slot) for slot in slots]  # what stays with the node
    for y in ys:
        pulled = []
        for slot in slots:  # the subtrees above y end each slot
            i = len(slot)
            while i and slot[i - 1].label > y:
                i -= 1
            pulled.append(tuple(slot[i:]))
            del slot[i:]
        if not any(pulled):
            raise RuntimeError("a young leaf always has a greater sibling to pull down")
        if any(a.label >= b.label for p in pulled for a, b in zip(p, p[1:])):
            raise RuntimeError("pulled subtrees must arrive in increasing root order")
        for slot in slots:
            if slot and slot[-1].label == y:
                slot[-1] = LabeledTree(y, tuple(pulled))
                break
    return tuple(map(tuple, slots))


def phi_set(f: Forest, labels) -> Forest:
    """Apply the toggle at every label of S, componentwise, in one ``_toggle``
    pass per tree; labels at which the toggle is the identity stay fixed."""
    labels = frozenset(labels)
    if not labels:
        return f
    top = max(labels)
    images = [_toggle(t, labels, top) for t in f.trees]
    if sum(met for _, met in images) < len(labels):
        unknown = labels.difference(f.labels())
        raise ValueError(f"labels {sorted(unknown)} do not occur in the forest")
    return Forest(f.k, tuple(t for t, _ in images))


def orbit(t: LabeledTree) -> list[LabeledTree]:
    """Closure of the tree under all toggles, keyed and ordered by text; a
    member moves only at its old internals and young leaves."""
    k = 1 if t.slots is None else len(t.slots)
    seen = {serialize_tree(t): t}
    frontier = [t]
    while frontier:
        nxt = []
        for s in frontier:
            p = forest_profile(Forest(k, (s,)))
            for x in p.oint | p.yleaf:
                image = phi(s, x)
                if (text := serialize_tree(image)) not in seen:
                    seen[text] = image
                    nxt.append(image)
        frontier = nxt
    return [seen[text] for text in sorted(seen)]


def orbit_representative(f: Forest) -> Forest:
    """The unique orbit member without young leaves, componentwise.

    One simultaneous toggle of all young-leaf labels suffices; the result is
    checked to be young-leaf free.  Without young leaves f is its own.
    """
    yleaf = forest_profile(f).yleaf
    if not yleaf:
        return f
    rep = phi_set(f, yleaf)
    if forest_profile(rep).stats.yleaf:
        raise RuntimeError("toggling every young leaf must leave none")
    return rep


# ---------------------------------------------------------------------------
# marked-forest domains and the theta correspondences

# The one table of marked-forest domains: from a forest's profile, the labels
# its marks may take, or None when the forest lies outside the domain.  X and
# Y are the domains theta pairs up; the bar/hat versions keep one class.
DOMAINS = {
    # young-leaf-free; old internals and non-final singletons
    "X": lambda p: None if p.stats.yleaf else p.oint | p.si_star,
    # any forest; non-final singletons
    "Y": lambda p: p.si_star,
    # starred; old internals (bar: not the last root's), non-final singletons
    "Xbar": lambda p: p.oint_star | p.si_star if p.stats.in_star and p.stats.in_bar else None,
    "Xhat": lambda p: p.oint | p.si_star if p.stats.in_star and not p.stats.in_bar else None,
    # free of removable leaves; non-final singletons
    "Ybar": lambda p: p.si_star if p.stats.in_bar and not p.stats.rleaf else None,
    "Yhat": lambda p: p.si_star if not p.stats.in_bar and not p.stats.rleaf else None,
}


def in_domain(mf: MarkedForest, name: str) -> bool:
    """Whether mf lies in the marked-forest domain ``name`` of ``DOMAINS``."""
    if name not in DOMAINS:
        raise ValueError(f"unknown domain {name!r}")
    pool = DOMAINS[name](forest_profile(mf.forest))
    return pool is not None and mf.marks <= pool


def theta(mf: MarkedForest) -> MarkedForest:
    """Toggle the old-internal part of the marks, keep the singleton part."""
    p = forest_profile(mf.forest)
    pool = DOMAINS["X"](p)
    if pool is None or not mf.marks <= pool:
        raise ValueError("theta requires a young-leaf-free forest with marks "
                         "among old internals and non-final singletons")
    s1 = mf.marks & p.oint
    s2 = mf.marks & p.si_star
    return MarkedForest(phi_set(mf.forest, s1), frozenset(s2))


def theta_prime(mf: MarkedForest) -> MarkedForest:
    """Toggle all young leaves away and absorb their labels into the marks."""
    p = forest_profile(mf.forest)
    if not mf.marks <= DOMAINS["Y"](p):
        raise ValueError("theta_prime requires marks among non-final singletons")
    return MarkedForest(phi_set(mf.forest, p.yleaf), frozenset(mf.marks | p.yleaf))
