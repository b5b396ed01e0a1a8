import pytest
from hypothesis import given, strategies as st

from stirling_forests.polyx import (
    GammaExpansion,
    IntPolynomial,
    SymmetryError,
    _egf_last,
    egf_one_over_k_eulerian,
    gamma_compose,
    gamma_expand,
    shape_properties,
    symmetric_decompose,
)


def P(coeffs):
    return IntPolynomial(coeffs)


class TestIntPolynomial:
    def test_canonical_trailing_zeros(self):
        assert P([1, 2, 0, 0]).coeffs == (1, 2)
        assert P([0, 0]).coeffs == ()
        assert P([]).degree == float("-inf")
        assert P([5]).degree == 0

    def test_arithmetic(self):
        assert P([1, 1]) * P([1, 1]) == P([1, 2, 1])
        assert P([1, 2]) + P([0, -2]) == P([1])
        assert P([3, 3]).shift(1) == P([0, 3, 3])
        assert P([1, 10, 4]).evaluate(1) == 15

    def test_reversal(self):
        assert P([1, 10, 4]).reversal(2) == P([4, 10, 1])
        assert P([1]).reversal(3) == P([0, 0, 0, 1])
        with pytest.raises(ValueError):
            P([1, 2, 3]).reversal(1)

    def test_pretty(self):
        assert P([1, 10, 4]).pretty() == "1 + 10x + 4x^2"
        assert P([]).pretty() == "0"
        assert P([0, 1]).pretty() == "x"


class TestShapeProperties:
    def test_paper_symmetric_part(self):
        assert shape_properties(P([1, 7, 1]), 2) == {
            "symmetric": True,
            "unimodal": True,
            "alternating_increasing": True,
            "gamma_positive": True,
        }

    def test_constant(self):
        assert shape_properties(P([1]), 0) == {
            "symmetric": True,
            "unimodal": True,
            "alternating_increasing": True,
            "gamma_positive": True,
        }

    def test_full_polynomial_order_three(self):
        # 1 <= 4 <= 10 walks the alternating chain for the (3, 2) polynomial
        assert shape_properties(P([1, 10, 4]), 2) == {
            "symmetric": False,
            "unimodal": True,
            "alternating_increasing": True,
            "gamma_positive": False,
        }

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            shape_properties(P([1, -1, 1]), 2)
        with pytest.raises(ValueError):
            shape_properties(P([1, 1, 1]), 1)


class TestSymmetricDecompose:
    def test_paper_example(self):
        dec = symmetric_decompose(P([1, 10, 4]), 2)
        assert dec.a == P([1, 7, 1])
        assert dec.b == P([3, 3])

    def test_symmetric_input_has_zero_b(self):
        dec = symmetric_decompose(P([1, 2, 1]), 2)
        assert dec.a == P([1, 2, 1])
        assert dec.b == P([])

    def test_pure_x(self):
        dec = symmetric_decompose(P([0, 1]), 1)
        assert dec.a == P([])
        assert dec.b == P([1])

    @given(
        st.lists(st.integers(-30, 30), max_size=7),
        st.integers(0, 3),
    )
    def test_recombines_and_is_symmetric(self, coeffs, extra):
        h = P(coeffs)
        n = (len(h.coeffs) - 1 if h.coeffs else 0) + extra
        dec = symmetric_decompose(h, n)
        assert dec.recombine() == h
        assert all(dec.a.coeff(i) == dec.a.coeff(n - i) for i in range(n + 1))
        assert all(dec.b.coeff(i) == dec.b.coeff(n - 1 - i) for i in range(n))


class TestGamma:
    @pytest.mark.parametrize(
        "coeffs,n,expected",
        [
            ([1, 7, 1], 2, (1, 5)),
            ([0, 3, 3], 3, (0, 3)),
            ([0, 27, 108, 27], 4, (0, 27, 54)),
        ],
    )
    def test_expand_paper_values(self, coeffs, n, expected):
        assert gamma_expand(P(coeffs), n).gamma == expected

    @pytest.mark.parametrize(
        "gamma,center,expected",
        [
            ((1, 5), 2, [1, 7, 1]),
            ((1,), 0, [1]),
            ((0, 9), 3, [0, 9, 9]),
        ],
    )
    def test_compose(self, gamma, center, expected):
        assert gamma_compose(GammaExpansion(center, gamma)) == P(expected)

    def test_expand_names_violated_pair(self):
        with pytest.raises(SymmetryError) as err:
            gamma_expand(P([1, 10, 4]), 2)
        assert err.value.pair == (0, 2)

    def test_zero_polynomial(self):
        assert gamma_expand(P([]), 4).gamma == (0, 0, 0)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(0, 2))
    def test_roundtrip_via_compose(self, gamma, pad):
        center = 2 * (len(gamma) - 1) + pad
        h = gamma_compose(GammaExpansion(center, tuple(gamma)))
        back = gamma_expand(h, center)
        assert gamma_compose(back) == h
        assert back.gamma[: len(gamma)] == tuple(gamma)


class TestEgf:
    def test_k2(self):
        assert egf_one_over_k_eulerian(2, 3) == [P([1]), P([1]), P([1, 2]), P([1, 10, 4])]

    def test_k1_classical(self):
        assert egf_one_over_k_eulerian(1, 3) == [P([1]), P([1]), P([1, 1]), P([1, 4, 1])]

    def test_k3(self):
        assert egf_one_over_k_eulerian(3, 2) == [P([1]), P([1]), P([1, 3])]

    def test_totals_are_rising_products(self):
        for k in (1, 2, 3, 4):
            polys = egf_one_over_k_eulerian(k, 60)
            total = 1
            for n, p in enumerate(polys):
                assert p.evaluate(1) == total
                total *= n * k + 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_recurrence_to_60(self, k, eulerian_recurrence):
        polys = egf_one_over_k_eulerian(k, 60)
        assert [list(p.coeffs) for p in polys] == eulerian_recurrence(k, 60)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            egf_one_over_k_eulerian(0, 3)
        with pytest.raises(ValueError):
            egf_one_over_k_eulerian(2, -1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_last_polynomial_alone(self, k):
        polys = egf_one_over_k_eulerian(k, 30)
        assert [_egf_last(k, n) for n in range(31)] == polys
        with pytest.raises(ValueError):
            _egf_last(k, -1)
        with pytest.raises(ValueError):
            _egf_last(0, 3)
