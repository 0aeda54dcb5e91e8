"""Primality, primitive roots, log tables, cyclotomic numbers, split-prime streams."""

import tracemalloc

import numpy as np
import pytest

from primarity import spectra
from primarity.jacobi import _cyclotomic_numbers
from primarity.modarith import (
    LOG_TABLE_CAP,
    build_log_table,
    factorize,
    is_prime,
    primitive_root,
    split_primes,
)

from oracles import (
    coset_root,
    cyclotomic_numbers_by_powers,
    dlog_map,
    is_prime_naive,
    multiplicative_order_naive,
)


def test_is_prime_matches_trial_division_below_20000():
    for n in range(20000):
        assert is_prime(n) == is_prime_naive(n), n


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**s, n) == n - 1 for s in range(1, r))


# the least strong pseudoprime to the first k prime bases, with a factor
@pytest.mark.parametrize("n, k, factor", [
    (2047, 1, 23), (1373653, 2, 829), (25326001, 3, 2251), (3215031751, 4, 151),
    (2152302898747, 5, 6763), (3474749660383, 6, 1303), (341550071728321, 7, 10670053),
    (3825123056546413051, 9, 149491),
])
def test_is_prime_rejects_the_least_strong_pseudoprimes(n, k, factor):
    assert n % factor == 0 and 1 < factor < n
    # n passes the first k bases, so only a base beyond them rejects it
    assert all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23)[:k])
    assert not is_prime(n)


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401])
def test_is_prime_rejects_carmichael_numbers(n):
    assert not is_prime(n)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))
    assert is_prime(1869389)


def test_factorize_recomposes():
    for n in (2, 12, 97, 360, 1869388, 2 * 3 * 5 * 7 * 11 * 13):
        fs = factorize(n)
        prod = 1
        for f in fs:
            assert is_prime_naive(f)
            prod *= f
        assert prod == n


def test_primitive_root_is_smallest_generator():
    for q in (3, 5, 7, 11, 13, 23, 149, 191, 3547):
        g = primitive_root(q)
        assert multiplicative_order_naive(g, q) == q - 1
        for h in range(2, g):
            assert multiplicative_order_naive(h, q) < q - 1
    assert primitive_root(2) == 1
    for q in (0, 1, 4, 9, 561):
        with pytest.raises(ValueError, match="not prime"):
            primitive_root(q)


def test_primitive_root_matches_the_order_oracle_below_20000():
    # the search tests only the cofactors (q-1)/f of a proven prime q
    for q in filter(is_prime, range(3, 20000)):
        g = primitive_root(q)
        assert multiplicative_order_naive(g, q) == q - 1, q
        assert all(multiplicative_order_naive(h, q) < q - 1 for h in range(1, g)), q


def test_split_primes_form_and_order():
    ls = list(split_primes(37, count=10))
    assert ls == sorted(ls)
    for l in ls:
        assert l % (2 * 37) == 1
        assert is_prime_naive(l)
    assert ls[0] == 149


def test_split_primes_bound_and_count_caps():
    assert list(split_primes(37, bound=7000)) == [
        149, 223, 593, 1259, 1481, 1777, 1999, 2221, 2591, 2887, 3109, 3257,
        3331, 3701, 3923, 4219, 4441, 4663, 5107, 5477, 6143, 6217, 6661, 6883,
    ]
    assert list(split_primes(3, count=3)) == [7, 13, 19]
    with pytest.raises(ValueError):
        next(split_primes(4))


def test_split_primes_count_zero_and_negative():
    assert list(split_primes(37, count=0)) == []
    with pytest.raises(ValueError, match="non-negative"):
        next(split_primes(37, count=-1))


def test_log_table_invariants():
    t = build_log_table(149, 2)
    logs = dlog_map(149, 2)
    assert t.dlog[1] == logs[1] == 0
    assert t.dlog[2] == logs[2] == 1
    for v in (3, 17, 148):
        assert t.dlog[v] == logs[v]
        assert pow(2, int(t.dlog[v]), 149) == v
    assert t.powers[t.dlog[93]] == 93


def test_log_table_matches_naive_dlog():
    t = build_log_table(103, primitive_root(103))
    naive = dlog_map(103, primitive_root(103))
    for v, k in naive.items():
        assert t.dlog[v] == k
        assert t.powers[k] == v


def test_log_table_rejects_non_primitive_base():
    # 4 is a square, so its powers repeat before covering F_29*
    with pytest.raises(ValueError, match="4 is not a primitive root mod 29"):
        build_log_table(29, 4)


@pytest.mark.parametrize("l, g", [
    (7, 7), (7, 14),  # g = 0 (mod l): every power is 0, none is 1
    (5, 1), (7, 1), (29, 1), (149, 1), (5, 4), (7, 6), (29, 28), (149, 148),
    (9, 2), (561, 2),  # a composite modulus has no element of order l - 1
])
def test_log_table_rejects_bases_of_lower_order(l, g):
    with pytest.raises(ValueError, match=f"{g} is not a primitive root mod {l}"):
        build_log_table(l, g)


# the doubling fill ends on a full step at l - 1 = 16, on a short one at 30 and 36
@pytest.mark.parametrize("l", [17, 31, 37])
def test_log_table_accepts_exactly_the_bases_of_full_order(l):
    accepted = set()
    for g in range(2 * l):
        try:
            t = build_log_table(l, g)
        except ValueError:
            continue
        accepted.add(g)
        assert sorted(t.powers.tolist()) == list(range(1, l))
    assert accepted == {g for g in range(2 * l) if multiplicative_order_naive(g, l) == l - 1}


def _trace_refuses_before_the_cyclotomic_numbers(p, l, message, monkeypatch):
    # the cyclotomic numbers do not validate the pair: check_pair in
    # trace_polynomial does, before the trace route reaches them
    def refuse(p, ls):
        raise AssertionError(f"_cyclotomic_numbers({p}, {ls}) was called")

    monkeypatch.setattr(spectra, "_cyclotomic_numbers", refuse)
    with pytest.raises(ValueError) as err:
        spectra.trace_polynomial(p, l)
    assert str(err.value) == message


@pytest.mark.parametrize("p, l", [(2, 9), (5, 561), (3, 25)])
def test_cyclotomic_numbers_rejects_composite_l(p, l, monkeypatch):
    message = "p=2 is not an odd prime" if p == 2 else f"l={l} is not prime"
    _trace_refuses_before_the_cyclotomic_numbers(p, l, message, monkeypatch)


def test_log_table_refuses_oversized_modulus():
    with pytest.raises(ValueError, match=f"modulus {LOG_TABLE_CAP + 3} exceeds the log-table"):
        build_log_table(LOG_TABLE_CAP + 3, 2)
    # the least split prime of 3 above the cap, where the trace route's factorials refuse it
    with pytest.raises(ValueError, match="modulus 67108879 exceeds the log-table cap"):
        spectra.trace_polynomial(3, 67108879)


def test_log_table_arrays_are_read_only():
    t = build_log_table(23, 5)
    with pytest.raises(ValueError):
        t.powers[0] = 9
    assert isinstance(t.dlog, np.ndarray)
    # every entry is below l <= LOG_TABLE_CAP = 2**26
    assert t.powers.dtype == np.int32 and t.dlog.dtype == np.int32


# (p, l, g), g the base of the log table.  The cyclotomic numbers label
# their cosets by y**M = w**d, w = coset_root(p, l), whatever g is.
# (331, 1987) and (257, 433817) have p > 255, and p**2 > l at (37, 149)
# and (331, 1987).  The doubling fill of the log table ends on a short
# step at every l.
COSET_PAIRS = [(37, 149, 2), (37, 149, 3), (3, 103, 5), (37, 21683, 2), (37, 21683, 32),
               (331, 1987, 2), (257, 433817, 3), (37, 65713, 10), (5, 30011, 2)]


@pytest.mark.parametrize("p, l, g", COSET_PAIRS)
def test_coset_index_matches_naive_dlog_and_counts_the_cyclotomic_numbers(p, l, g):
    logs = dlog_map(l, g)
    t = build_log_table(l, g)
    assert np.array_equal(t.dlog[1:], [logs[v] for v in range(1, l)])
    assert np.array_equal(t.powers, sorted(logs, key=logs.get))
    want_N = cyclotomic_numbers_by_powers(p, l, coset_root(p, l))
    assert _cyclotomic_numbers(p, [l])[0].tolist() == want_N


def test_cyclotomic_numbers_are_read_only():
    N = _cyclotomic_numbers(37, [149])[0]
    with pytest.raises(ValueError):
        N[0, 1] = 5


def test_cyclotomic_numbers_build_only_the_half_range_index():
    # nothing grows with l: the p x p DFT and the float64 chunks of the
    # factorial blocks peak near 0.35 MB at l = 750287, where a uint8
    # array of half the residues alone would take 0.375 MB
    tracemalloc.start()
    try:
        _cyclotomic_numbers(37, [750287])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9e6, peak


@pytest.mark.parametrize("p", [0, -37, 5, 38])
def test_coset_index_rejects_p_not_dividing_l_minus_1(p, monkeypatch):
    message = "l=149 does not split: l % p = 4" if p == 5 else f"p={p} is not an odd prime"
    _trace_refuses_before_the_cyclotomic_numbers(p, 149, message, monkeypatch)


@pytest.mark.parametrize("p", [4, 148])
def test_cyclotomic_numbers_reject_p_with_2p_not_dividing_l_minus_1(p, monkeypatch):
    # p divides l - 1 = 148 but 2p does not: -1 would not lie in C_0
    _trace_refuses_before_the_cyclotomic_numbers(p, 149, f"p={p} is not an odd prime", monkeypatch)


@pytest.mark.parametrize("p", [9, 15, 91])
def test_split_primes_rejects_composite_p(p):
    with pytest.raises(ValueError, match="odd prime"):
        list(split_primes(p, count=3))
