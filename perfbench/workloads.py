"""Inputs, operations and correctness checks of the four workloads.

Every check here uses the benchmark's own arithmetic on the text that ``sf``
prints, never the library's functions, so a wrong answer cannot agree with
itself.  Nothing in this module imports ``stirling_forests``: the worker hands
in ``cli.main`` as ``sf``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

# One ``sf verify`` call per verify workload; the inputs are exhaustive, so
# these workloads take no seed.  ``reports`` is the number of NDJSON identity
# reports the call must print, every one of them passing.
VERIFY = {
    "verify-census": {
        "argv": ["verify", "--n-max", "6", "--k-max", "3", "--suite", "theorems",
                 "--suite", "polynomials", "--format", "json"],
        "reports": 306,
    },
    "verify-maps": {
        "argv": ["verify", "--n-max", "5", "--k-max", "3", "--suite", "bijections",
                 "--suite", "gfs", "--suite", "pipeline", "--format", "json"],
        "reports": 408,
    },
}

STREAMS = ("large-objects", "poly-large-n")

# large-objects: one round is 20 words, one per stratum of a log-spaced grid
# of orders, plus one fully nested word.  A stratum's order, k and kind are
# fixed, so every round of every seed has the same sizes and the seed decides
# only the words themselves and their order.  That keeps the latency
# quantiles and the failure count of a run from hinging on a few lucky draws,
# and makes rounds alike however many fit in a run.  With the nested word
# failing at the top, the median operation is the middle word of stratum 10,
# not the boundary between two strata.
ORDER_LO, ORDER_HI = 50, 1000
STRATA = 20
# poly-large-n: one round calls each n of the range once, in a shuffled order.
POLY_N = range(2, 41)
POLY_CALLS = ("poly-A", "poly-a", "poly-b", "gamma-a", "gamma-b")


class WrongAnswer(Exception):
    """An ``sf`` call printed a result that fails the benchmark's check."""


class ExitStatus(Exception):
    """An ``sf`` call returned a non-zero exit status."""


def call(sf, argv: list[str]) -> str:
    """Run ``sf`` in-process on argv; its stdout, or ExitStatus."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = sf(argv)
    if status != 0:
        raise ExitStatus(f"sf {argv[0]} exited {status}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# large-objects: inputs


def uniform_word(n: int, k: int, rng: random.Random, min_first: bool) -> list[int]:
    """A uniform k-Stirling word on 1..n by gap insertion of the blocks a^k.

    With ``min_first`` no block goes into the front gap, which gives a uniform
    word among those that start with their minimum.
    """
    word = [1] * k
    for a in range(2, n + 1):
        gap = rng.randint(1 if min_first else 0, len(word))
        word[gap:gap] = [a] * k
    return word


def nested_word(n: int, k: int, rng: random.Random) -> list[int]:
    """The copies of each letter a wrap every larger letter: nesting depth n."""
    left, right = [], []
    for a in range(1, n):
        before = rng.randint(1, k - 1)
        left += [a] * before
        right.append([a] * (k - before))
    word = left + [n] * k
    for part in reversed(right):
        word += part
    return word


def stratum_order(stratum: int) -> int:
    """Midpoint, on a log scale, of the stratum's share of the order range."""
    return round(ORDER_LO * (ORDER_HI / ORDER_LO) ** ((stratum + 0.5) / STRATA))


def large_objects_round(seed: int, index: int) -> list[dict]:
    """Twenty-one words, one of them fully nested.

    Across the strata k cycles through 2, 3, 4 and every other word starts
    with its minimum.  The nested word steps from round to round through the
    upper half of the grid, largest first, with k = 4 in the first round:
    a nested word that dies with RecursionError leaves its whole stack of
    word slices in the traceback, so the largest one sets the run's peak RSS,
    and that should not depend on how many rounds fit.
    """
    rng = round_rng(seed, index)
    inputs = []
    for stratum in range(STRATA):
        n, k = stratum_order(stratum), 2 + stratum % 3
        min_first = stratum % 2 == 0
        word = uniform_word(n, k, rng, min_first)
        inputs.append({"n": n, "k": k, "kind": "min-first" if min_first else "uniform",
                       "text": ".".join(str(a) for a in word)})
    half = STRATA // 2
    n, k = stratum_order(STRATA - 1 - (3 * index) % half), 4 - index % 3
    inputs.append({"n": n, "k": k, "kind": "nested",
                   "text": ".".join(str(a) for a in nested_word(n, k, rng))})
    rng.shuffle(inputs)
    return inputs


# ---------------------------------------------------------------------------
# large-objects: the benchmark's own reading of forest text


def forest_counts(text: str, k: int) -> dict:
    """Labeled leaves, singletons, tree count and bar membership of forest text.

    A label not followed by '[' is a leaf; a leaf at bracket depth 0 is a
    singleton tree.  The forest is in the bar class when its last tree is a
    singleton or its root's first k-1 slots are empty.
    """
    lleaf = si = trees = depth = 0
    last_root_body = None
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch.isdigit():
            j = i
            while j < size and text[j].isdigit():
                j += 1
            internal = j < size and text[j] == "["
            if depth == 0:
                trees += 1
                last_root_body = j + 1 if internal else None
                if not internal:
                    si += 1
            if not internal:
                lleaf += 1
            i = j
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        i += 1
    check(depth == 0, "unbalanced forest text")
    in_bar = last_root_body is None or text.startswith(";" * (k - 1), last_root_body)
    return {"lleaf": lleaf, "si": si, "trees": trees, "in_bar": in_bar}


def split_marked(text: str) -> tuple[str, set[int]]:
    forest, _, marks = text.partition(" | ")
    inner = marks.strip()
    check(inner.startswith("{") and inner.endswith("}"), f"bad marked forest {text[:80]!r}")
    return forest, {int(x) for x in inner[1:-1].split(",") if x}


def ascent_plateaus(word: list[int], k: int) -> int:
    """Indices i with word[i] < word[i+1] = ... = word[i+k]."""
    return sum(
        1
        for j in range(1, len(word) - k + 1)
        if word[j - 1] < word[j] and all(word[j + t] == word[j] for t in range(1, k))
    )


def large_object_chain(sf, item: dict) -> str:
    """The sf chain on one word; returns every output, or raises."""
    k, text = item["k"], item["text"]
    ks = str(k)
    word = [int(a) for a in text.split(".")]
    ap = ascent_plateaus(word, k)
    lap = ascent_plateaus([0] + word, k)
    outputs = []

    def sf_out(*argv: str) -> str:
        out = call(sf, list(argv)).strip()
        outputs.append(out)
        return out

    stats = json.loads(sf_out("stats", "--k", ks, "--input", text, "--type", "word"))
    check(stats["valid"] and stats["word"] == text, "stats does not echo a valid word")
    check(stats["ap"] == ap and stats["lap"] == lap, "word statistics disagree with a recount")
    check(stats["in_tilde"] == (word[0] == min(word)), "tilde class disagrees with the word")

    f1 = sf_out("map", "--name", "xi", "--k", ks, "--input", text)
    check(sf_out("map", "--name", "xi-inv", "--k", ks, "--input", f1) == text, "xi round trip")
    fstats = json.loads(sf_out("stats", "--k", ks, "--input", f1, "--type", "forest"))
    own1 = forest_counts(f1, k)
    check(fstats["forest"] == f1, "forest stats does not echo its input")
    check(fstats["lleaf"] == own1["lleaf"] == lap, "xi does not carry lap to lleaf")
    check(fstats["si"] == own1["si"], "singleton count disagrees with a recount")

    f2 = sf_out("map", "--name", "zeta", "--k", ks, "--input", text)
    own2 = forest_counts(f2, k)
    check(own2["lleaf"] - own2["si"] == ap, "zeta does not carry ap to lleaf - si")
    check(own2["in_bar"] == stats["in_bar"], "zeta does not keep the bar class")
    check(sf_out("map", "--name", "zeta-inv", "--k", ks, "--input", f2) == text,
          "zeta round trip")

    marked = sf_out("map", "--name", "gamma-prime", "--k", ks, "--input", f2)
    g, marks = split_marked(marked)
    own_g = forest_counts(g, k)
    check(own_g["lleaf"] - own_g["si"] + len(marks) == ap,
          "gamma-prime does not trade removable leaves for marks one to one")
    check(sf_out("map", "--name", "gamma", "--k", ks, "--input", marked) == f2,
          "gamma after gamma-prime round trip")
    x = sf_out("map", "--name", "theta-prime", "--k", ks, "--input", marked)
    _, x_marks = split_marked(x)
    check(marks <= x_marks, "theta-prime dropped a mark")
    check(sf_out("map", "--name", "theta", "--k", ks, "--input", x) == marked,
          "theta after theta-prime round trip")

    if word[0] == min(word):
        tree = sf_out("map", "--name", "chi", "--k", ks, "--input", text)
        own_t = forest_counts(tree, k)
        check(own_t["trees"] == 1 and own_t["lleaf"] == ap, "chi does not carry ap to lleaf")
        check(sf_out("map", "--name", "chi-inv", "--k", ks, "--input", tree) == text,
              "chi round trip")
    return "\n".join(outputs)


# ---------------------------------------------------------------------------
# poly-large-n


def poly_round(seed: int, index: int) -> list[dict]:
    """Every n once, in a seeded order, with a seeded cycle of calls.  k is
    fixed by n and the round, so any four consecutive n take four different
    k and every seed has the same cost per round."""
    rng = round_rng(seed, index)
    shift = rng.randrange(len(POLY_CALLS))
    items = [{"n": n, "k": 1 + (n + index) % 4,
              "call": POLY_CALLS[(n + shift) % len(POLY_CALLS)]} for n in POLY_N]
    rng.shuffle(items)
    return items


def eulerian_1k(n: int, k: int) -> list[int]:
    """A_n of the order-1/k Eulerian family, lowest degree first, from
    A_{m+1} = (1 + kmx) A_m + kx(1 - x) A_m' (Savage and Viswanathan, 2012)."""
    a = [1]
    for m in range(n):
        nxt = [0] * (len(a) + 1)
        for i, c in enumerate(a):
            # (1 + kmx) c x^i + kx(1 - x) i c x^(i-1)
            nxt[i] += c + k * i * c
            nxt[i + 1] += k * m * c - k * i * c
        a = nxt
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def coeff(p: list[int], i: int) -> int:
    return p[i] if 0 <= i < len(p) else 0


def trim(p: list[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def symmetric_parts(h: list[int], center: int) -> tuple[list[int], list[int]]:
    """h = a + x b with a symmetric about center and b about center - 1.

    Solved from the low end up: h_i = a_i + b_(i-1) gives a_i, its mirror
    a_(center-i) then gives b_(center-1-i) from h_(center-i), and b's
    symmetry carries that back to b_i for the next step.
    """
    a = [0] * (center + 1)
    b = [0] * center
    for i in range(center + 1):
        a[i] = coeff(h, i) - coeff(b, i - 1)
        a[center - i] = a[i]
        if i < center:
            b[center - 1 - i] = coeff(h, center - i) - a[center - i]
            b[i] = b[center - 1 - i]
    return trim(a), trim(b)


def binomial_row(m: int) -> list[int]:
    return [math.comb(m, i) for i in range(m + 1)]


def gamma_recompose(center: int, gamma: list[int]) -> list[int]:
    out = [0] * (center + 1)
    for i, g in enumerate(gamma):
        for j, c in enumerate(binomial_row(center - 2 * i)):
            out[i + j] += g * c
    return trim(out)


def poly_call(sf, item: dict) -> str:
    n, k, kind = item["n"], item["k"], item["call"]
    A = eulerian_1k(n, k)
    check(sum(A) == math.prod(i * k + 1 for i in range(n)), "reference A_n(1) is off")
    a, b = symmetric_parts(A, n - 1)
    xb = [0] + b
    check(trim([coeff(a, i) + coeff(xb, i) for i in range(len(A) + 1)]) == trim(A),
          "reference a + x b differs from A")
    what, which = kind.split("-")
    if what == "poly":
        argv = ["poly", "--n", str(n), "--k", str(k), "--which", which, "--route", "egf"]
    else:
        argv = ["gamma", "--n", str(n), "--k", str(k), "--which", which,
                "--by", "decomposition"]
    out = call(sf, argv).strip()
    got = json.loads(out)
    if what == "poly":
        expect = {"A": A, "a": a, "b": b}[which]
        check(trim(got) == trim(expect), f"sf poly --which {which} is not the reference")
    else:
        center = n - 1 if which == "a" else n
        check(got["center"] == center, "gamma center is off")
        check(all(g >= 0 for g in got["gamma"]), "gamma vector has a negative entry")
        target = a if which == "a" else xb
        check(gamma_recompose(center, got["gamma"]) == trim(target),
              f"gamma --which {which} does not recompose to the reference")
    return out


ROUNDS = {"large-objects": large_objects_round, "poly-large-n": poly_round}
OPERATIONS = {"large-objects": large_object_chain, "poly-large-n": poly_call}
