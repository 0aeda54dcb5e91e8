"""Teichmuller lifts, generalized Bernoulli numbers, irregularity."""

import pytest

from primarity.bernoulli import _b1_omegas, b1_omega, b_c_factor, irregularity_report, teichmuller
from primarity.jacobi import ExponentSet

from _goldens import B_C_FACTOR_VALUES, IRREGULAR_EXPONENTS, TEICHMULLER_VALUES
from oracles import bn_over_n_mod_p, teichmuller_bruteforce


@pytest.mark.parametrize("a,p,want", [(k[1], k[0], v) for k, v in TEICHMULLER_VALUES.items()])
def test_teichmuller_values(a, p, want):
    assert teichmuller(a, p) == want


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37])
def test_teichmuller_properties(p):
    p2 = p * p
    for a in range(1, p):
        w = teichmuller(a, p)
        assert w % p == a % p
        assert pow(w, p - 1, p2) == 1
        assert w == teichmuller_bruteforce(a, p)
    with pytest.raises(ValueError):
        teichmuller(p, p)
    with pytest.raises(ValueError):
        teichmuller(0, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_b1_omega_matches_bernoulli_quotients(p):
    # Kummer congruence: B_{1, omega^(n-1)} = B_n / n mod p for even n
    for n in range(2, p - 2, 2):
        assert b1_omega(p, n - 1) == bn_over_n_mod_p(n, p)


@pytest.mark.parametrize("p", [5, 7, 37, 101, 157])
def test_stepped_b1_omegas_match_bernoulli_quotients(p):
    # irregularity_report reads every m from one pass stepping by omega(a)**2
    want = [bn_over_n_mod_p(n, p) for n in range(2, p - 2, 2)]
    assert list(_b1_omegas(p, 1)) == want
    assert list(_b1_omegas(p, 3)) == want[1:]


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
    assert set(rep.members) == want
    assert len(rep) == len(want)  # the irregularity index


def test_irregularity_report_rejects_bad_p():
    for p in (2, 4, 9):
        with pytest.raises(ValueError, match="not an odd prime"):
            irregularity_report(p)
    assert irregularity_report(3) == ExponentSet(3, ())


@pytest.mark.parametrize("p,c,n,want", [(k[0], k[1], k[2], v) for k, v in B_C_FACTOR_VALUES.items()])
def test_b_c_factor_values(p, c, n, want):
    assert b_c_factor(p, c, n) == want


def test_b_c_factor_vanishes_exactly_at_irregular_exponents():
    # c = 2 never kills the c-factor for p = 37, so zeros mark irregularity
    zeros = {n for n in range(2, 34, 2) if b_c_factor(37, 2, n) == 0}
    assert zeros == {32}


def test_b_c_factor_range_checks():
    with pytest.raises(ValueError):
        b_c_factor(11, 1, 2)
    with pytest.raises(ValueError):
        b_c_factor(11, 11, 2)
    with pytest.raises(ValueError):
        b_c_factor(11, 2, 3)
    with pytest.raises(ValueError):
        b_c_factor(11, 2, 0)
