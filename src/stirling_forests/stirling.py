"""k-Stirling permutation words and their statistics.

A word is any sequence of positive integer labels; it is k-Stirling when
every label present occurs exactly k times and between two equal letters
every letter is >= that letter.  Words are passed around as plain tuples,
with k supplied alongside; functions return tuples.  The canonical family
Q_n(k) lives on the labels 1..n, but every statistic and bijection works
over an arbitrary finite label set.

Text form: labels concatenated with no separator when all are single digit
("1221"), dot-separated otherwise ("10.9.9.10").  The one label rule lives
here, in ``read_label`` (a run of at most ``MAX_LABEL_DIGITS`` decimal digits
naming a positive integer), and every label reader calls it: word_from_text,
``forest._read_forest``, ``gfs.parse_marked`` and ``sf map --x``.

A word's one record is ``word_class``'s ``WordStats`` (ap, lap, bar, tilde),
from one scan of the word, read by the oracle and ``sf stats``; ``stat_ap``,
``stat_lap`` and ``starts_with_plateau`` are its views.

Ordinary permutations of 1..n appear in one-line notation as sequences.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterator, NamedTuple, Sequence

from .polyx import IntPolynomial, check_order

Word = tuple[int, ...]

# The one enumeration ceiling.  Every enumerated family is sized by the
# product |Q_n(k)|: as many forests, at most as many trees, and the S_n
# censuses' n! permutations are |Q_n(1)|, so they stop at n = 10.
MAX_OBJECTS = 10**7
MAX_LABEL_DIGITS = 4300  # the longest label text: Python's default digit cap


class LimitError(ValueError):
    """A request past the enumeration ceiling: input the caller can fix, so a
    ``ValueError``, never a library fault."""


def count_k_stirling(n: int, k: int) -> int:
    """|Q_n(k)| = product of (ik + 1) for i = 0..n-1."""
    check_order(k, n)
    return math.prod(i * k + 1 for i in range(n))


def check_ceiling(n: int, k: int) -> None:
    """Refuse k < 1, then n < 0, then a family sized |Q_n(k)| past
    ``MAX_OBJECTS``, before its first object is built."""
    count = count_k_stirling(n, k)
    if count > MAX_OBJECTS:
        raise LimitError(f"|Q_{n}({k})| = {count} exceeds the enumeration ceiling {MAX_OBJECTS}")


def stirling_violation(word: Sequence[int], k: int) -> str | None:
    """Reason the word fails to be k-Stirling, or None if it is one.

    After the multiplicity check one scan keeps a stack of the letters seen
    fewer than k times; a letter below the top lies between two copies of it.
    """
    check_order(k)
    counts: dict[int, int] = {}
    for a in word:
        counts[a] = counts.get(a, 0) + 1
    for a, c in counts.items():
        if c != k:
            return f"label {a} occurs {c} times, expected {k}"
    stack: list[list[int]] = []  # open letters, increasing: [letter, copies seen]
    for i, a in enumerate(word):
        if not stack or a > stack[-1][0]:
            stack.append([a, 0])
        elif a < stack[-1][0]:
            return f"letter {a} at position {i} lies between two {stack[-1][0]}'s"
        stack[-1][1] += 1
        if stack[-1][1] == k:
            stack.pop()
    return None


def is_k_stirling(word: Sequence[int], k: int) -> bool:
    return stirling_violation(word, k) is None


def require_k_stirling(word: Sequence[int], k: int) -> Word:
    reason = stirling_violation(word, k)
    if reason is not None:
        raise ValueError(f"not a {k}-Stirling word: {reason}")
    return tuple(word)


def enumerate_k_stirling(n: int, k: int) -> Iterator[Word]:
    """All words of Q_n(k), in gap-insertion order.

    Words of order i arise from each word of order i-1 by inserting the block
    i^k into each of its k(i-1)+1 gaps, left to right; order is deterministic.
    The words are streamed depth first: the stack holds the words still to
    extend, O(n^2 k) of them, never a whole level.
    """
    check_ceiling(n, k)
    stack: list[Word] = [()]
    while stack:
        w = stack.pop()
        if len(w) == n * k:  # n = 0: the empty word
            yield w
            continue
        block = (len(w) // k + 1,) * k
        words = [w[:g] + block + w[g:] for g in range(len(w) + 1)]
        if len(w) == (n - 1) * k:
            yield from words
        else:
            stack.extend(reversed(words))


def stat_ap(word: Sequence[int], k: int) -> int:
    """Number of indices i with word[i] < word[i+1] = ... = word[i+k]."""
    return word_class(word, k).ap


def stat_lap(word: Sequence[int], k: int) -> int:
    """ap of the word with a 0 patched in front: plus one for k equal first letters."""
    return word_class(word, k).lap


def starts_with_plateau(word: Sequence[int], k: int) -> bool:
    """True when the first k letters are equal (empty word counts as True)."""
    return word_class(word, k).in_bar


class WordStats(NamedTuple):
    """A word's one record; ``zeta`` and ``xi`` carry ap and lap to a
    forest's lleaf - si and lleaf, and keep the bar class."""

    ap: int
    lap: int
    in_bar: bool  # the first k letters are equal; not in_bar is the hat class
    in_tilde: bool  # the word starts at its minimum; the empty word is bar and tilde


def word_class(word: Sequence[int], k: int) -> WordStats:
    """The record of any word, from one scan of the letters a = word[j] that
    can start a plateau: word[j - 1] < a, then word[j + k - 1], then all k."""
    check_order(k)
    n, ap = len(word), 0
    for j in range(1, n - k + 1):  # none when k >= n
        a = word[j]
        if word[j - 1] < a and word[j + k - 1] == a and word[j : j + k].count(a) == k:
            ap += 1
    in_bar = not word or word[:k].count(word[0]) == min(k, n)
    return tuple.__new__(WordStats, (ap, ap + (n >= k and in_bar), in_bar,
                                     not word or word[0] == min(word)))


def word_to_text(word: Sequence[int]) -> str:
    return ("." if any(a >= 10 for a in word) else "").join(map(str, word))


def read_label(text: str) -> int:
    """The label a text names, by the one rule of every label reader."""
    if not text.isdecimal():
        raise ValueError("labels must be runs of decimal digits")
    if len(text) > MAX_LABEL_DIGITS:
        raise ValueError(f"labels must have at most {MAX_LABEL_DIGITS} digits")
    label = int(text)
    if label <= 0:
        raise ValueError("labels must be positive")
    return label


def word_from_text(text: str) -> Word:
    """The word of its text; a bad letter is refused by its index, from 0."""
    text = text.strip()
    word = []
    for i, part in enumerate(text.split(".") if "." in text else text):
        try:
            word.append(read_label(part))
        except ValueError as exc:
            raise ValueError(f"at word index {i}: {exc}") from None
    return tuple(word)


def perm_exc_cyc(p: Sequence[int]) -> dict:
    """Excedance and cycle counts of a permutation in one-line notation."""
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    exc = sum(1 for i, v in enumerate(p) if v > i + 1)
    seen = [False] * (n + 1)
    cyc = 0
    for s in range(1, n + 1):
        if not seen[s]:
            cyc += 1
            j = s
            while not seen[j]:
                seen[j] = True
                j = p[j - 1]
    return {"exc": exc, "cyc": cyc}


def exc_cyc_polynomial(n: int, k: int) -> IntPolynomial:
    """Sum over all permutations of x^exc weighted by k^(n - cyc)."""
    check_order(k, n)
    check_ceiling(n, 1)  # the n! = |Q_n(1)| permutations, whatever k is
    coeffs = [0] * (n + 1)
    for p in permutations(range(1, n + 1)):
        rec = perm_exc_cyc(p)
        coeffs[rec["exc"]] += k ** (n - rec["cyc"])
    return IntPolynomial(coeffs)


def descent_polynomial(n: int) -> IntPolynomial:
    """Classical descent-count polynomial over all permutations of 1..n."""
    check_ceiling(n, 1)  # the n! = |Q_n(1)| permutations
    coeffs = [0] * max(n, 1)
    for p in permutations(range(1, n + 1)):
        des = sum(1 for i in range(n - 1) if p[i] > p[i + 1])
        coeffs[des] += 1
    return IntPolynomial(coeffs)
