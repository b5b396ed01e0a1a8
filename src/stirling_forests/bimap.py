"""Bijections between k-Stirling words and increasing pruned even k-ary forests.

Three mutually recursive correspondences, each transporting a plateau
statistic to a leaf statistic:

* ``xi``: any word, split at its right-to-left minima into blocks ending at
  those minima; the block ending with b becomes the tree rooted b whose j-th
  slot carries the image of the factor between the j-th and (j+1)-st copies
  of b.  Left ascent-plateau count maps to labeled-leaf count.
* ``chi``: a word starting with its minimum a becomes a single tree rooted a,
  the j-th slot carrying the xi-image of the factor after the j-th copy of a.
  Ascent-plateau count maps to labeled-leaf count, and the word starts with a
  full plateau exactly when the root's first k-1 slots are empty.
* ``zeta``: any word, split at its left-to-right minima; blocks are laid out
  right to left as trees (chi on each block, a block with one distinct letter
  becoming a singleton).  Ascent-plateau count maps to labeled leaves minus
  singletons, and first-k-equal words correspond to bar-class forests.

All three have exact inverses, implemented alongside.
"""

from __future__ import annotations

from typing import Sequence

from .forest import Forest, LabeledTree
from .stirling import Word, require_k_stirling


def _right_to_left_minima_blocks(word: Word) -> list[Word]:
    """Split into factors each ending at a right-to-left minimum."""
    cuts = []
    running = None
    for i in range(len(word) - 1, -1, -1):
        if running is None or word[i] < running:
            running = word[i]
            cuts.append(i)
    cuts.reverse()
    blocks = []
    start = 0
    for c in cuts:
        blocks.append(word[start : c + 1])
        start = c + 1
    return blocks


def _left_to_right_minima_blocks(word: Word) -> list[Word]:
    """Split into factors each starting at a left-to-right minimum."""
    starts = []
    running = None
    for i, a in enumerate(word):
        if running is None or a < running:
            running = a
            starts.append(i)
    blocks = []
    for s, e in zip(starts, starts[1:] + [len(word)]):
        blocks.append(word[s:e])
    return blocks


def _split_on_letter(block: Word, a: int, k: int) -> list[Word]:
    """The k+1 factors around the k copies of a; the factor before the first
    copy comes first."""
    positions = [i for i, c in enumerate(block) if c == a]
    if len(positions) != k:
        raise RuntimeError("letter multiplicity broken inside a block")
    factors = [block[: positions[0]]]
    for p, q in zip(positions, positions[1:]):
        factors.append(block[p + 1 : q])
    factors.append(block[positions[-1] + 1 :])
    return factors


def _xi_block_tree(block: Word, k: int) -> LabeledTree:
    b = block[-1]
    factors = _split_on_letter(block, b, k)
    if factors[-1]:
        raise RuntimeError("block must end with its minimum")
    mus = factors[:-1]
    if all(not mu for mu in mus):
        return LabeledTree(b)
    return LabeledTree(b, tuple(_xi_trees(mu, k) for mu in mus))


def _xi_trees(word: Word, k: int) -> tuple[LabeledTree, ...]:
    if not word:
        return ()
    return tuple(_xi_block_tree(block, k) for block in _right_to_left_minima_blocks(word))


def xi(word: Sequence[int], k: int) -> Forest:
    """Word-to-forest map preserving lap as lleaf."""
    w = require_k_stirling(word, k)
    return Forest(k, _xi_trees(w, k))


def _xi_inv_tree(t: LabeledTree, k: int) -> Word:
    if t.slots is None:
        return (t.label,) * k
    out: tuple[int, ...] = ()
    for slot in t.slots:
        for sub in slot:
            out += _xi_inv_tree(sub, k)
        out += (t.label,)
    return out


def xi_inv(f: Forest) -> Word:
    """Inverse of xi: concatenate the block words in root order."""
    out: tuple[int, ...] = ()
    for t in f.trees:
        out += _xi_inv_tree(t, f.k)
    return out


def chi(word: Sequence[int], k: int) -> LabeledTree:
    """Tree image of a word starting with its minimum; ap becomes lleaf."""
    w = require_k_stirling(word, k)
    if not w:
        raise ValueError("chi requires a nonempty word")
    if w[0] != min(w):
        raise ValueError("chi requires the word to start with its minimum letter")
    a = w[0]
    factors = _split_on_letter(w, a, k)
    if factors[0]:
        raise RuntimeError("minimum letter must come first")
    ws = factors[1:]
    if all(not wj for wj in ws):
        return LabeledTree(a)
    slots = []
    for wj in ws:
        trees = _xi_trees(wj, k)
        ordered = tuple(sorted(trees, key=lambda t: t.label))
        if ordered != trees:
            raise RuntimeError("xi image slots should already be increasing")
        slots.append(ordered)
    return LabeledTree(a, tuple(slots))


def chi_inv(t: LabeledTree, k: int) -> Word:
    if t.slots is None:
        return (t.label,) * k
    out: tuple[int, ...] = ()
    for slot in t.slots:
        out += (t.label,)
        for sub in slot:
            out += _xi_inv_tree(sub, k)
    return out


def zeta(word: Sequence[int], k: int) -> Forest:
    """Word-to-forest map preserving ap as lleaf - si."""
    w = require_k_stirling(word, k)
    blocks = _left_to_right_minima_blocks(w)
    trees = []
    for block in reversed(blocks):
        if len(set(block)) == 1:
            trees.append(LabeledTree(block[0]))
        else:
            trees.append(chi(block, k))
    return Forest(k, tuple(trees))


def zeta_inv(f: Forest) -> Word:
    """Inverse of zeta: block words concatenated in decreasing root order."""
    out: tuple[int, ...] = ()
    for t in reversed(f.trees):
        if t.slots is None:
            out += (t.label,) * f.k
        else:
            out += chi_inv(t, f.k)
    return out
