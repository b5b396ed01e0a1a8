import pytest


def _savage_viswanathan(k: int, N: int) -> list[list[int]]:
    """A_0..A_N, lowest degree first, from A_{n+1} = (1 + knx) A_n + kx(1 - x) A_n'
    (Savage and Viswanathan, Electron. J. Combin. 19 (2012) P9)."""
    polys = [[1]]
    for n in range(N):
        a = polys[-1] + [0]
        polys.append([(1 + k * i) * a[i] + (k * (n - i + 1) * a[i - 1] if i else 0)
                      for i in range(n + 1)])
    return polys


@pytest.fixture
def eulerian_recurrence():
    """The order-1/k Eulerian polynomials by their recurrence, independent of
    the library's EGF extraction."""
    return _savage_viswanathan
