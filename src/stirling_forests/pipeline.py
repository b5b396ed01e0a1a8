"""The fundamental forest transformation and the maps built from it.

``psi(f, x)`` does exactly one of four things, or nothing:

1. x labels a non-final singleton, and the nearest tree to its right that is
   a singleton or final is a singleton: x gains k slots and swallows, into
   slot k, every tree up to and including that singleton.
2. same position, but the nearest such tree is the non-singleton last tree:
   the trees strictly between move into the last root's slot k together with
   a fresh leaf carrying the old root label; the root is relabeled x and the
   slot re-sorted; x's singleton disappears.
3. x is a removable old leaf: the contents of its root's slot k pop out as
   new trees immediately to the right, and the stripped root becomes a
   singleton.  Inverse of case 1.
4. x is a removable young leaf (necessarily in the last tree): the slot-k
   subtrees strictly left of x pop out immediately before the last tree,
   preceded by a fresh singleton carrying the old root label; x is deleted
   and the root relabeled x.  Inverse of case 2.

Cases 1/2 raise lleaf - si by exactly 1, cases 3/4 lower it by exactly 1,
and bar-class membership is preserved throughout.

``alpha_step`` runs psi at the greatest mark (dropping it); ``beta_step``
runs psi at the least removable leaf (recording its root label as a new
mark).  ``gamma_map`` drains the marks with alpha; ``gamma_prime_map`` runs
beta until no removable leaf remains and returns the settled marked forest;
the two are mutually inverse.  ``main_bijection`` is gamma after theta.
The guards take their domains from ``gfs.DOMAINS``: gamma's marks lie in Y,
and main_bijection's input in X-bar or X-hat by its forest's class.

Each map reads its input forest's ``forest_profile``, which the forest
stores and which refuses an invalid forest by its first violation, so a
step that returns its input forest, or a forest profiled before, walks
nothing.  ``_beta_chain`` yields gamma_prime's states; the
oracle's pipeline suite replays it.
"""

from __future__ import annotations

from .forest import Forest, LabeledTree, forest_profile
from .gfs import DOMAINS, MarkedForest, theta


def _singleton_index(f: Forest, x: int) -> int | None:
    return next((i for i, t in enumerate(f.trees) if t.slots is None and t.label == x), None)


def psi(f: Forest, x: int) -> Forest:
    """The fundamental transformation at x."""
    p = forest_profile(f)
    if x not in p.classes:  # every label has a class
        raise ValueError(f"labels [{x}] do not occur in the forest")
    nonfinal = x in p.si_star  # x labels a non-final singleton
    applicable = sum([nonfinal, x in p.removable_old, x in p.removable_young])
    if applicable > 1:
        raise RuntimeError("psi cases must be mutually exclusive")
    if nonfinal:
        m, i = len(f.trees), _singleton_index(f, x)
        j = next(jj for jj in range(i + 1, m) if f.trees[jj].slots is None or jj == m - 1)
        if f.trees[j].slots is None:
            return _absorb_right(f, i, j)
        return _merge_into_last(f, i)
    if x in p.removable_old:
        return _pop_old(f, f.tree_index_of(x))
    if x in p.removable_young:
        return _pop_young(f, x)
    return f


def _absorb_right(f: Forest, i: int, j: int) -> Forest:
    """Case 1: the singleton at i swallows trees i+1..j into its slot k."""
    moved = f.trees[i + 1 : j + 1]
    slots = ((),) * (f.k - 1) + (moved,)
    new_tree = LabeledTree(f.trees[i].label, slots)
    return Forest(f.k, f.trees[:i] + (new_tree,) + f.trees[j + 1 :])


def _merge_into_last(f: Forest, i: int) -> Forest:
    """Case 2: relabel the last root by x; old root label becomes a leaf."""
    x = f.trees[i].label
    last = f.trees[-1]
    if last.slots is None:
        raise RuntimeError("case 2 needs a non-singleton last tree")
    y = last.label
    incoming = f.trees[i + 1 : -1] + (LabeledTree(y),)
    merged = tuple(sorted(last.slots[-1] + incoming, key=lambda t: t.label))
    labels = [t.label for t in merged]
    if len(set(labels)) != len(labels):
        raise RuntimeError("slot merge collided on a label")
    new_last = LabeledTree(x, last.slots[:-1] + (merged,))
    return Forest(f.k, f.trees[:i] + (new_last,))


def _pop_old(f: Forest, i: int) -> Forest:
    """Case 3: eject the slot-k subtrees of tree i; its root goes singleton."""
    t = f.trees[i]
    if t.slots is None:
        raise RuntimeError("a removable old leaf hangs under a non-singleton root")
    ejected = t.slots[-1]
    return Forest(
        f.k, f.trees[:i] + (LabeledTree(t.label),) + ejected + f.trees[i + 1 :]
    )


def _pop_young(f: Forest, x: int) -> Forest:
    """Case 4: split the last tree at the young leaf x; old root label
    reappears as a singleton."""
    last = f.trees[-1]
    if last.slots is None:
        raise RuntimeError("a removable young leaf hangs under a non-singleton root")
    y = last.label
    slot = last.slots[-1]
    q = next(p for p, s in enumerate(slot) if s.label == x)
    if slot[q].slots is not None:
        raise RuntimeError("a removable young leaf must be a leaf")
    new_last = LabeledTree(x, last.slots[:-1] + (slot[q + 1 :],))
    return Forest(
        f.k,
        f.trees[:-1] + (LabeledTree(y),) + slot[:q] + (new_last,),
    )


def alpha_step(mf: MarkedForest) -> MarkedForest:
    """psi at the greatest mark, which must label a singleton; drop the mark."""
    if not mf.marks:
        raise ValueError("alpha requires a nonempty mark set")
    x = max(mf.marks)
    if x not in forest_profile(mf.forest).si:
        raise ValueError(f"mark {x} does not label a singleton")
    return MarkedForest(psi(mf.forest, x), mf.marks - {x})


def beta_step(mf: MarkedForest) -> MarkedForest:
    """psi at the least removable leaf; record its root label as a mark."""
    p = forest_profile(mf.forest)
    pool = p.removable_old | p.removable_young
    if not pool:
        raise ValueError("beta requires a removable leaf")
    x = min(pool)
    y = mf.forest.trees[mf.forest.tree_index_of(x)].label
    return MarkedForest(psi(mf.forest, x), frozenset(mf.marks | {y}))


def gamma_map(mf: MarkedForest) -> Forest:
    """Drain the marks, greatest first, through psi."""
    if not mf.marks <= DOMAINS["Y"](forest_profile(mf.forest)):
        raise ValueError("gamma requires marks among non-final singletons")
    for _ in range(len(mf.marks)):
        mf = alpha_step(mf)
    return mf.forest


def gamma_prime_map(f: Forest) -> MarkedForest:
    """Run beta until no removable leaf remains; inverse of gamma_map."""
    for mf in _beta_chain(f):
        pass
    return mf


def _beta_chain(f: Forest):
    """The states of gamma_prime_map on f: from (f, {}) on, beta at each
    state whose forest keeps a removable leaf.

    Each step lowers lleaf - si by 1, so at most lleaf(f) - si(f) steps run;
    the chain refuses to take one more.
    """
    p = forest_profile(f)
    mf, budget = MarkedForest(f, frozenset()), p.stats.lleaf - p.stats.si
    while True:
        yield mf
        if not forest_profile(mf.forest).stats.rleaf:
            return
        if budget <= 0:
            raise RuntimeError("beta failed to terminate within its budget")
        budget -= 1
        mf = beta_step(mf)


def main_bijection(mf: MarkedForest) -> Forest:
    """gamma after theta, on the bar- or hat-class marked domains."""
    p = forest_profile(mf.forest)
    pool = DOMAINS["Xbar" if p.stats.in_bar else "Xhat"](p)
    if pool is None or not mf.marks <= pool:
        raise ValueError(
            "main bijection requires a starred forest with marks among "
            "old internals (bar: excluding the last root's) and non-final singletons"
        )
    return gamma_map(theta(mf))
