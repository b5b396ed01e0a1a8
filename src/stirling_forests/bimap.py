"""Bijections between k-Stirling words and increasing pruned even k-ary forests.

One left-to-right stack pass computes ``xi``, one explicit-stack emitter its
inverse; ``chi``, ``zeta`` and their inverses are rearrangements around them.

* ``xi``: the block of the word ending at a right-to-left minimum b becomes
  the tree rooted b whose j-th slot is the image of the factor before the
  j-th copy of b (after copy j-1).  lap maps to lleaf.  In the pass a node
  opens at the first copy of its letter and closes at its k-th copy: slot 1
  takes the suffix of the enclosing slot's finished trees whose roots are
  greater than the letter, slot j the trees finished since copy j-1, and a
  node whose slots are all empty becomes a leaf.
* ``chi``: a word starting with its minimum a is the one tree of xi on the
  word with its first letter moved to the end; ``chi_inv`` moves the last
  letter of the xi-inverse word back to the front.  ap maps to lleaf, and
  the word starts with a full plateau iff the root's first k-1 slots are
  empty.
* ``zeta``: the chi trees of the left-to-right-minimum blocks, laid out
  right to left.  ap maps to lleaf - si, and first-k-equal words correspond
  to bar-class forests.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .forest import Forest, LabeledTree
from .polyx import check_order
from .stirling import Word, require_k_stirling


def _xi_trees(word: Word, k: int) -> tuple[LabeledTree, ...]:
    """The xi pass over a k-Stirling word: its forest's trees, in order."""
    trees: list[LabeledTree] = []  # finished trees of the slot being filled
    stack: list[tuple[int, list[tuple[LabeledTree, ...]], list[LabeledTree]]] = []
    for a in word:
        if not stack or stack[-1][0] != a:  # first copy: a node opens
            i = len(trees)
            while i and trees[i - 1].label > a:
                i -= 1
            outer, trees = trees, trees[i:]
            del outer[i:]
            stack.append((a, [], outer))
        _, slots, outer = stack[-1]
        slots.append(tuple(trees))
        trees = []
        if len(slots) == k:  # k-th copy: the node closes
            stack.pop()
            outer.append(LabeledTree(a, tuple(slots)) if any(slots) else LabeledTree(a))
            trees = outer
    return tuple(trees)


def _xi_word(trees: Sequence[LabeledTree], k: int) -> list[int]:
    """The xi-inverse emitter: each node's slots in turn, each followed by
    a copy of the node's label."""
    out: list[int] = []
    stack: list[LabeledTree | int] = list(reversed(trees))
    while stack:
        t = stack.pop()
        if isinstance(t, int):
            out.append(t)
        elif t.slots is None:
            out += (t.label,) * k
        else:
            for slot in reversed(t.slots):
                stack.append(t.label)
                stack += reversed(slot)
    return out


def xi(word: Sequence[int], k: int) -> Forest:
    """Word-to-forest map preserving lap as lleaf."""
    return Forest(k, _xi_trees(require_k_stirling(word, k), k))


def xi_inv(f: Forest) -> Word:
    """Inverse of xi: concatenate the block words in root order."""
    return tuple(_xi_word(f.trees, f.k))


def _chi_tree(w: Word, k: int) -> LabeledTree:
    """chi on a k-Stirling word that starts with its minimum."""
    trees = _xi_trees(w[1:] + w[:1], k)
    if len(trees) != 1 or trees[0].label != w[0]:
        raise RuntimeError("a word starting with its minimum must give one tree rooted there")
    return trees[0]


def chi(word: Sequence[int], k: int) -> LabeledTree:
    """Tree image of a word starting with its minimum; ap becomes lleaf."""
    w = require_k_stirling(word, k)
    if not w:
        raise ValueError("chi requires a nonempty word")
    if w[0] != min(w):
        raise ValueError("chi requires the word to start with its minimum letter")
    return _chi_tree(w, k)


def chi_inv(t: LabeledTree, k: int) -> Word:
    check_order(k)
    w = _xi_word((t,), k)
    return tuple(w[-1:] + w[:-1])


def zeta(word: Sequence[int], k: int) -> Forest:
    """Word-to-forest map preserving ap as lleaf - si."""
    return _zeta(require_k_stirling(word, k), k)


def _zeta(w: Word, k: int) -> Forest:
    """zeta on a k-Stirling word."""
    lows = list(accumulate(w, min))  # a block starts where the running minimum drops
    cuts = [i for i in range(len(w)) if i == 0 or lows[i] < lows[i - 1]] + [len(w)]
    blocks = [w[s:e] for s, e in zip(cuts, cuts[1:])]
    return Forest(k, tuple(_chi_tree(block, k) for block in reversed(blocks)))


def zeta_inv(f: Forest) -> Word:
    """Inverse of zeta: block words concatenated in decreasing root order."""
    out: list[int] = []
    for t in reversed(f.trees):
        out += chi_inv(t, f.k)
    return tuple(out)
