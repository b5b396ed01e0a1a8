"""Exact integer polynomial arithmetic and shape analysis.

A polynomial is represented by a dense coefficient sequence starting with the
constant term, so 1 + 10x + 4x^2 is ``IntPolynomial([1, 10, 4])``.  Trailing
zeros are trimmed on construction; the zero polynomial has an empty
coefficient tuple and degree -inf.  All arithmetic is exact over arbitrary
precision integers, the EGF coefficient extraction included.

Shape notions are always taken relative to an explicit center degree n, which
may exceed the actual degree:

* symmetric about n: a_i = a_{n-i} for 0 <= i <= n;
* unimodal: coefficients rise then fall;
* alternating increasing: a_0 <= a_n <= a_1 <= a_{n-1} <= ...;
* gamma expansion about n: h = sum_i g_i x^i (1+x)^(n-2i).

Every polynomial of degree <= n splits uniquely as h = a + x*b with a
symmetric about n and b symmetric about n-1 (``symmetric_decompose``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence


class SymmetryError(ValueError):
    """Raised when a gamma expansion is requested for a non-symmetric input.

    Carries the first violated index pair as ``.pair``.
    """

    def __init__(self, pair: tuple[int, int], values: tuple[int, int]):
        self.pair = pair
        super().__init__(
            f"not symmetric about requested center: coefficient {pair[0]} is "
            f"{values[0]} but coefficient {pair[1]} is {values[1]}"
        )


class IntPolynomial:
    """Dense integer-coefficient polynomial, lowest degree first.

    >>> IntPolynomial([1, 10, 4]).pretty()
    '1 + 10x + 4x^2'
    >>> IntPolynomial([0, 0]) == IntPolynomial([])
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        self.coeffs = tuple(int(c) for c in coeffs[:end])

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reversal(self, n: int) -> "IntPolynomial":
        """x^n * h(1/x), valid for n >= deg(h)."""
        if n < self.degree:
            raise ValueError(f"reversal center {n} below degree {self.degree}")
        return IntPolynomial([self.coeff(n - i) for i in range(n + 1)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, by: int) -> "IntPolynomial":
        """Multiply by x^by."""
        return IntPolynomial((0,) * by + self.coeffs)

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            term = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            body = str(mag) if (i == 0 or mag != 1) else ""
            if not parts:
                parts.append(("-" if c < 0 else "") + body + term)
            else:
                parts.append((" - " if c < 0 else " + ") + body + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


@dataclass(frozen=True)
class SymmetricDecomposition:
    """h = a + x*b with a symmetric about ``center`` and b about ``center``-1."""

    a: IntPolynomial
    b: IntPolynomial
    center: int

    def recombine(self) -> IntPolynomial:
        return self.a + self.b.shift(1)


@dataclass(frozen=True)
class GammaExpansion:
    """center n plus g_0..g_{floor(n/2)} with h = sum g_i x^i (1+x)^(n-2i)."""

    center: int
    gamma: tuple[int, ...]


def _exact_div_by_one_minus_x(p: IntPolynomial) -> IntPolynomial:
    """Divide exactly by (1 - x); the remainder must vanish."""
    if p.is_zero():
        return p
    out = []
    run = 0
    for c in p.coeffs:
        run += c
        out.append(run)
    if out[-1] != 0:
        raise ArithmeticError("division by (1 - x) is not exact; decomposition bug")
    return IntPolynomial(out[:-1])


def _check_center(h: IntPolynomial, n: int) -> None:
    if n < h.degree:
        raise ValueError(f"center degree {n} below polynomial degree {h.degree}")
    if n < 0:
        raise ValueError("center degree must be nonnegative")


def shape_properties(h: IntPolynomial, n: int) -> dict:
    """Symmetry, unimodality, alternating-increase, and gamma-positivity about n.

    Requires nonnegative coefficients and n >= deg(h).
    """
    _check_center(h, n)
    if any(c < 0 for c in h.coeffs):
        raise ValueError("shape predicates require nonnegative coefficients")
    a = [h.coeff(i) for i in range(n + 1)]
    symmetric = all(a[i] == a[n - i] for i in range(n + 1))
    rises = 0
    while rises < n and a[rises] <= a[rises + 1]:
        rises += 1
    unimodal = all(a[i] >= a[i + 1] for i in range(rises, n))
    chain = []
    lo, hi = 0, n
    while lo <= hi:
        chain.append(a[lo])
        if lo != hi:
            chain.append(a[hi])
        lo, hi = lo + 1, hi - 1
    # chain is a_0, a_n, a_1, a_{n-1}, ..., ending at a_{floor((n+1)/2)}
    alternating = all(chain[i] <= chain[i + 1] for i in range(len(chain) - 1))
    gamma_positive = symmetric and all(
        g >= 0 for g in gamma_expand(h, n).gamma
    )
    return {
        "symmetric": symmetric,
        "unimodal": unimodal,
        "alternating_increasing": alternating,
        "gamma_positive": gamma_positive,
    }


def symmetric_decompose(h: IntPolynomial, n: int) -> SymmetricDecomposition:
    """Unique split h = a + x*b, a symmetric about n, b about n-1.

    a = (h(x) - x^(n+1) h(1/x)) / (1 - x) and b = (x^n h(1/x) - h(x)) / (1 - x);
    both divisions are exact.
    """
    _check_center(h, n)
    a = _exact_div_by_one_minus_x(h - h.reversal(n + 1))
    b = _exact_div_by_one_minus_x(h.reversal(n) - h)
    return SymmetricDecomposition(a=a, b=b, center=n)


def _binomial_row(m: int) -> list[int]:
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def gamma_expand(h: IntPolynomial, n: int) -> GammaExpansion:
    """Coordinates of h in the basis x^i (1+x)^(n-2i), for h symmetric about n.

    The coefficients are peeled from i = 0 upward; they are unique, and may be
    negative.  Non-symmetric input raises SymmetryError.
    """
    _check_center(h, n)
    for i in range(n + 1):
        if h.coeff(i) != h.coeff(n - i):
            raise SymmetryError((i, n - i), (h.coeff(i), h.coeff(n - i)))
    work = [h.coeff(i) for i in range(n + 1)]
    gamma = []
    for i in range(n // 2 + 1):
        g = work[i]
        gamma.append(g)
        if g:
            row = _binomial_row(n - 2 * i)
            for j, binom in enumerate(row):
                work[i + j] -= g * binom
    if any(work):
        raise ArithmeticError("gamma peeling left a nonzero remainder")
    return GammaExpansion(center=n, gamma=tuple(gamma))


def gamma_compose(g: GammaExpansion) -> IntPolynomial:
    """Expand sum_i gamma_i x^i (1+x)^(center-2i); inverse of gamma_expand."""
    out = IntPolynomial()
    for i, gi in enumerate(g.gamma):
        if gi == 0:
            continue
        if g.center - 2 * i < 0:
            raise ValueError(f"gamma index {i} exceeds center {g.center}")
        out = out + IntPolynomial(_binomial_row(g.center - 2 * i)).shift(i) * gi
    return out


def egf_one_over_k_eulerian(k: int, N: int) -> list[IntPolynomial]:
    """First N+1 polynomials A_n of the order-1/k Eulerian family.

    The exponential generating function of A_n/n! is
    ((1 - x) / (e^(kz(x-1)) - x))^(1/k).  Writing it as h(z) = g(z)^(-1/k)
    with g(z) = 1 - sum_{m>=1} k^m (x-1)^(m-1) z^m / m!, the coefficients
    h_n follow from the first-order relation k h' g = -g' h.  With
    H_n = n! h_n and y = x - 1, clearing the factorials gives

        H_{n+1} = H_n + sum_{m=1..n} C(n, m) k^m y^(m-1) (H_{n-m+1} + y H_{n-m}),

    which has no division: every coefficient is an integer by construction,
    so there is no fractional coefficient to guard against.  Each H_n is
    carried in powers of y, where multiplying by y is a shift, and turned
    into powers of x by one Horner pass at the end.
    """
    return [_from_y(a) for a in _egf_in_y(k, N)]


def _egf_last(k: int, n: int) -> IntPolynomial:
    """``egf_one_over_k_eulerian(k, n)[n]``, turning only H_n into powers of x."""
    return _from_y(_egf_in_y(k, n)[n])


def _egf_in_y(k: int, N: int) -> list[list[int]]:
    """H_0..H_N of ``egf_one_over_k_eulerian``, in powers of y = x - 1."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if N < 0:
        raise ValueError("N must be nonnegative")
    H = [[1]]  # H_n in powers of y; H_n has degree n - 1 for n >= 1
    D = []  # D_j = H_{j+1} + y H_j, the bracket of the sum; degree j (D_0 = 1 + y)
    for n in range(N):
        if n:
            D.append([a + b for a, b in zip_longest(H[n], [0] + H[n - 1], fillvalue=0)])
        nxt = H[n] + [0] * (n + 1 - len(H[n]))
        for m in range(1, n + 1):
            c = math.comb(n, m) * k**m
            for i, d in enumerate(D[n - m], m - 1):
                nxt[i] += c * d
        H.append(nxt)
    return H


def _from_y(a: list[int]) -> IntPolynomial:
    """a(x - 1) in powers of x, by Horner's scheme in place."""
    top = len(a) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            a[j] -= a[j + 1]
    return IntPolynomial(a)
