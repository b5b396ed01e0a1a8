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
once; orbits of the induced action each contain exactly one tree free of
young leaves, reachable in a single simultaneous toggle of all young-leaf
labels.

A marked forest is a forest plus a label set S.  ``theta`` trades the
old-internal part of S for young leaves via the toggles; ``theta_prime``
reverses it by absorbing all young-leaf labels back into S.  ``DOMAINS``
defines each marked-forest domain once, by the labels its marks may take:
X and Y, which theta pairs up, and their bar/hat class versions (theta takes
X-bar onto Y-bar and X-hat onto Y-hat).  ``in_domain`` tests membership, and
the guards of theta, theta_prime and the pipeline maps read the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forest import (
    Forest,
    ForestProfile,
    LabeledTree,
    forest_profile,
    serialize_forest,
    serialize_tree,
)


@dataclass(frozen=True)
class MarkedForest:
    forest: Forest
    marks: frozenset[int]

    def text(self) -> str:
        inner = ",".join(str(x) for x in sorted(self.marks))
        return f"{serialize_forest(self.forest)} | {{{inner}}}"


def marked_forest(forest: Forest, marks) -> MarkedForest:
    marks = frozenset(marks)
    unknown = marks - set(forest.labels())
    if unknown:
        raise KeyError(f"marks {sorted(unknown)} do not occur in the forest")
    return MarkedForest(forest, marks)


def phi(t: LabeledTree, x: int) -> LabeledTree:
    """Toggle old-internal/young-leaf status at label x (an involution)."""
    path = _path_to(t, x)
    if path is None:
        raise KeyError(f"label {x} does not occur in the tree")
    if not path:
        return t
    u, j, p = path[0]
    gx = u.slots[j][p]
    top = max(s.label for s in u.grand_children())
    if x == top and gx.slots is not None:
        new = _raise_children(u, gx)
    elif x != top and gx.slots is None:
        new = _lower_greater(u, x)
    else:
        return t
    # rebuild the spine above x's grand parent, bottom-up
    for u, j, p in path[1:]:
        slot = u.slots[j]
        new_slot = slot[:p] + (new,) + slot[p + 1 :]
        new = LabeledTree(u.label, u.slots[:j] + (new_slot,) + u.slots[j + 1 :])
    return new


def _path_to(t: LabeledTree, x: int) -> list[tuple[LabeledTree, int, int]] | None:
    """Steps (u, j, p) on the path between t and the node labeled x, bottom
    up: u.slots[j][p] is the node below u on the path, so the first step is
    x's grand parent.  [] when t is x, None when x is absent.

    One depth-first walk; each pending node carries its path as a linked
    chain of steps, read back once x is found.
    """
    todo = [(t, None)]
    while todo:
        node, chain = todo.pop()
        if node.label == x:
            path = []
            while chain is not None:
                chain, u, j, p = chain
                path.append((u, j, p))
            return path
        if node.slots is not None:
            for j, slot in enumerate(node.slots):
                for p, child in enumerate(slot):
                    todo.append((child, (chain, node, j, p)))
    return None


def _raise_children(u: LabeledTree, gx: LabeledTree) -> LabeledTree:
    """Old-internal case: gx's slot contents join u's slots; gx becomes a leaf."""
    if gx.slots is None or u.slots is None:
        raise RuntimeError("only an internal grand child can raise its children")
    new_slots = []
    for slot, extra in zip(u.slots, gx.slots):
        merged = tuple(LabeledTree(gx.label) if s is gx else s for s in slot) + extra
        if any(a.label >= b.label for a, b in zip(merged, merged[1:])):
            raise RuntimeError(
                "appending a greatest grand child's subtrees must keep slots increasing"
            )
        new_slots.append(merged)
    return LabeledTree(u.label, tuple(new_slots))


def _lower_greater(u: LabeledTree, x: int) -> LabeledTree:
    """Young-leaf case: subtrees of u with roots above x drop under x."""
    if u.slots is None:
        raise RuntimeError("only an internal node can lower its grand children")
    pulled = tuple(tuple(s for s in slot if s.label > x) for slot in u.slots)
    if not any(pulled):
        raise RuntimeError("a young leaf always has a greater sibling to pull down")
    if any(a.label >= b.label for slot in pulled for a, b in zip(slot, slot[1:])):
        raise RuntimeError("pulled subtrees must arrive in increasing root order")
    new_x = LabeledTree(x, pulled)
    new_slots = tuple(
        tuple(new_x if s.label == x else s for s in slot if s.label <= x)
        for slot in u.slots
    )
    return LabeledTree(u.label, new_slots)


def phi_set(f: Forest, labels) -> Forest:
    """Apply the toggle at every label of S, componentwise.

    Toggles commute, so the application order is irrelevant; labels at which
    the toggle is the identity are simply fixed.
    """
    remaining = set(labels)
    if not remaining:
        return f
    tree_labels = [set(t.labels()) for t in f.trees]
    unknown = remaining.difference(*tree_labels)
    if unknown:
        raise KeyError(f"labels {sorted(unknown)} do not occur in the forest")
    new_trees = []
    for t, mine in zip(f.trees, tree_labels):
        for x in sorted(remaining & mine):
            t = phi(t, x)
        new_trees.append(t)
    return Forest(f.k, tuple(new_trees))


def orbit(t: LabeledTree) -> list[LabeledTree]:
    """Closure of the tree under all toggles, canonically ordered by text."""
    seen = {t}
    frontier = [t]
    labels = sorted(t.labels())
    while frontier:
        nxt = []
        for s in frontier:
            for x in labels:
                image = phi(s, x)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(seen, key=serialize_tree)


def orbit_representative(t: LabeledTree) -> LabeledTree:
    """The unique orbit member without young leaves.

    One simultaneous toggle of all young-leaf labels suffices; the result is
    checked to be young-leaf free.
    """
    f = Forest(_tree_k(t), (t,))
    return _representative(f, forest_profile(f))


def _representative(f: Forest, p: ForestProfile) -> LabeledTree:
    """orbit_representative of f's one tree given f's profile; without young
    leaves the tree is its own."""
    if not p.yleaf:
        return f.trees[0]
    rep = phi_set(f, p.yleaf).trees[0]
    if forest_profile(Forest(f.k, (rep,))).stats.yleaf:
        raise RuntimeError("toggling every young leaf must leave none")
    return rep


def _tree_k(t: LabeledTree) -> int:
    # A bare singleton carries no arity; any k gives the same (trivial) action.
    return len(t.slots) if t.slots is not None else 1


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
    "Xbar": lambda p: p.oint_star | p.si_star if p.in_star and p.in_bar else None,
    "Xhat": lambda p: p.oint | p.si_star if p.in_star and not p.in_bar else None,
    # free of removable leaves; non-final singletons
    "Ybar": lambda p: p.si_star if p.in_bar and not p.stats.rleaf else None,
    "Yhat": lambda p: p.si_star if not p.in_bar and not p.stats.rleaf else None,
}


def in_domain(mf: MarkedForest, name: str) -> bool:
    """Whether mf lies in the marked-forest domain ``name`` of ``DOMAINS``."""
    if name not in DOMAINS:
        raise ValueError(f"unknown domain {name!r}")
    pool = DOMAINS[name](forest_profile(mf.forest))
    return pool is not None and mf.marks <= pool


def theta(mf: MarkedForest) -> MarkedForest:
    """Toggle the old-internal part of the marks, keep the singleton part."""
    return _theta(mf, forest_profile(mf.forest))


def _theta(mf: MarkedForest, p: ForestProfile) -> MarkedForest:
    """theta given the forest's profile."""
    pool = DOMAINS["X"](p)
    if pool is None or not mf.marks <= pool:
        raise ValueError("theta requires a young-leaf-free forest with marks "
                         "among old internals and non-final singletons")
    s1 = mf.marks & p.oint
    s2 = mf.marks & p.si_star
    return MarkedForest(phi_set(mf.forest, s1), frozenset(s2))


def theta_prime(mf: MarkedForest) -> MarkedForest:
    """Toggle all young leaves away and absorb their labels into the marks."""
    return _theta_prime(mf, forest_profile(mf.forest))


def _theta_prime(mf: MarkedForest, p: ForestProfile) -> MarkedForest:
    """theta_prime given the forest's profile."""
    if not mf.marks <= DOMAINS["Y"](p):
        raise ValueError("theta_prime requires marks among non-final singletons")
    return MarkedForest(phi_set(mf.forest, p.yleaf), frozenset(mf.marks | p.yleaf))
