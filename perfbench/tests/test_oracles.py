import math
from fractions import Fraction

import pytest

from perfbench import oracles


def direct_tail(n, p, heads):
    return sum(math.comb(n, m) * p**m * (1 - p) ** (n - m) for m in range(heads + 1))


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
@pytest.mark.parametrize("n", [1, 7, 40])
def test_tail_recurrence_matches_direct_sum(n, p):
    for heads in range(n + 1):
        assert oracles.lower_tail(n, p, heads) == direct_tail(n, p, heads)


@pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(1, 100), Fraction(1, 2)])
def test_cutoff_is_the_last_count_below_eps(eps):
    n, p = 60, Fraction(1, 3)
    cutoff = oracles.tail_cutoff(n, p, eps)
    assert direct_tail(n, p, cutoff) < eps <= direct_tail(n, p, cutoff + 1)


def test_straddle_sandwich():
    n, eps = 80, Fraction(1, 100)
    size = oracles.straddle_cardinality(n, eps)
    tail = direct_tail(n, Fraction(1, 2), oracles.tail_cutoff(n, Fraction(1, 2), eps))
    assert eps <= tail + Fraction(size, 2**n) < eps + Fraction(1, 2**n)


def test_mobius_inverts_subset_sums():
    n = 4
    m = [Fraction(k * k - 3, 7) for k in range(1 << n)]
    table = [sum(m[s] for s in range(1 << n) if s & ~a == 0) for a in range(1 << n)]
    assert oracles.mobius(table, n) == m
