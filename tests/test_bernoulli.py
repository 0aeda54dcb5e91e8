"""Bernoulli quotients from the series x / (e**x - 1) mod p, irregularity.

The production series is pinned to two independent oracles: the rational
B_n of `oracles.bn_over_n_mod_p` and the Teichmuller character sums mod
p**2 of `oracles.b1_omegas_stepped`.
"""

import numpy as np
import pytest

from primarity.bernoulli import _bn_over_n, b1_omega, irregularity_report

from _goldens import B_C_FACTOR_VALUES, IRREGULAR_EXPONENTS
from oracles import b1_omegas_stepped, b_c_factor_naive, bn_over_n_mod_p, is_prime_naive

PRIMES_BELOW_1000 = [p for p in range(5, 1000) if is_prime_naive(p)]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_b1_omega_matches_bernoulli_quotients(p):
    # Kummer congruence: B_{1, omega^(n-1)} = B_n / n mod p for even n
    for n in range(2, p - 2, 2):
        assert b1_omega(p, n - 1) == bn_over_n_mod_p(n, p)


@pytest.mark.parametrize("p", [5, 7, 37, 101, 157])
def test_stepped_b1_omegas_match_bernoulli_quotients(p):
    # the Teichmuller oracle reads every m from one pass stepping by omega(a)**2
    want = [bn_over_n_mod_p(n, p) for n in range(2, p - 2, 2)]
    assert list(b1_omegas_stepped(p, 1)) == want
    assert list(b1_omegas_stepped(p, 3)) == want[1:]


def _check_against_teichmuller_oracle(p):
    want = list(b1_omegas_stepped(p, 1))
    evens = range(2, p - 2, 2)
    assert [b1_omega(p, n - 1) for n in evens] == want, p
    assert irregularity_report(p) == tuple(n for n, b in zip(evens, want) if b == 0), p


@pytest.mark.parametrize("p", [p for p in PRIMES_BELOW_1000 if p < 300] + [491, 691])
def test_series_matches_teichmuller_oracle(p):
    # 491 has index 3 and 691 index 2
    _check_against_teichmuller_oracle(p)


@pytest.mark.extended
def test_series_matches_teichmuller_oracle_below_1000():
    for p in PRIMES_BELOW_1000:
        _check_against_teichmuller_oracle(p)


def test_series_refuses_a_wrong_even_term(monkeypatch):
    # one unit off in the dot behind b_10 alone moves b_11 by f_1 = 1/2, off zero
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda a, b: dot(a, b) + (len(a) == 10))
    _bn_over_n.cache_clear()
    with pytest.raises(ArithmeticError, match="odd k in \\[3, 33\\]"):
        irregularity_report(37)


def test_series_refuses_p_from_2_to_the_21():
    # 2097169 is the least prime above 2**21; the refusal comes before any work
    with pytest.raises(ValueError, match="2\\*\\*21"):
        irregularity_report(2097169)
    with pytest.raises(ValueError, match="2\\*\\*21"):
        b1_omega(2097169, 1)


def test_b1_omega_range_checks():
    with pytest.raises(ValueError):
        b1_omega(13, 2)
    with pytest.raises(ValueError):
        b1_omega(13, -1)
    with pytest.raises(ValueError):
        b1_omega(13, 11)


@pytest.mark.parametrize("p,want", sorted(IRREGULAR_EXPONENTS.items()))
def test_irregular_exponents(p, want):
    rep = irregularity_report(p)
    assert set(rep) == want
    assert len(rep) == len(want)  # the irregularity index


def test_irregularity_report_rejects_bad_p():
    for p in (2, 4, 9):
        with pytest.raises(ValueError, match="not an odd prime"):
            irregularity_report(p)
    assert irregularity_report(3) == ()


@pytest.mark.parametrize("p,c,n,want", [(k[0], k[1], k[2], v) for k, v in B_C_FACTOR_VALUES.items()])
def test_b_c_factor_values(p, c, n, want):
    assert b_c_factor_naive(p, c, n) == want


def test_b_c_factor_vanishes_exactly_at_irregular_exponents():
    # c = 2 never kills the c-factor for p = 37, so zeros mark irregularity
    zeros = {n for n in range(2, 34, 2) if b_c_factor_naive(37, 2, n) == 0}
    assert zeros == {32}
