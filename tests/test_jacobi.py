"""Jacobi sums, twist products, components, exponent sets."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from primarity import jacobi
from primarity.cycring import CycModP
from primarity.jacobi import (
    TwistContext,
    exponent_set,
    exponent_set_for,
    jacobi_counts,
    jacobi_sum,
    pair_key,
    twist_product,
)
from primarity.modarith import (
    LOG_TABLE_CAP,
    build_log_table,
    is_prime,
    primitive_root,
    split_primes,
)
from primarity.residue_symbols import classify, exact_jacobi_sum, exact_twist_component

from _goldens import SCAN37_LOW
from oracles import (
    block_products_naive,
    component_naive,
    coset_root,
    cyclotomic_numbers_by_powers,
    cyclotomic_numbers_naive,
    derivation_check,
    exponent_set_twist,
    jacobi_charsum,
    jacobi_counts_from_cyclotomic,
    jacobi_norm_holds,
)


def test_context_build_validates_inputs():
    with pytest.raises(ValueError, match="not an odd prime"):
        TwistContext.build(9, 19)
    with pytest.raises(ValueError, match="not prime"):
        TwistContext.build(7, 28)
    with pytest.raises(ValueError, match="does not split"):
        TwistContext.build(7, 31)
    with pytest.raises(ValueError, match="out of range"):
        TwistContext.build(7, 29, c=6)
    with pytest.raises(ValueError, match="not a primitive root"):
        TwistContext.build(7, 29, c=3, g=4)
    # 3 generates F_7* but 2 has order 3
    with pytest.raises(ValueError, match="not a primitive root"):
        TwistContext.build(7, 29, c=2)
    # the least split prime of 3 past the cap; float64 z**2 < l**2 <= 2**52 needs l <= 2**26
    with pytest.raises(ValueError, match="modulus 67108879 exceeds the log-table cap"):
        TwistContext.build(3, 67108879)


def test_pair_key_defaults_and_rejections():
    assert pair_key(37, 149) == (37, 149, 2, 2)
    assert pair_key(37, 149, c=5, g=3) == (37, 149, 5, 3)
    bad = [((37, 149, 1), "c=1 out of range for p=37"),
           ((37, 149, 36), "c=36 out of range for p=37"),
           ((37, 149, 6), "c=6 is not a primitive root mod 37"),  # 6**2 = -1: order 4
           ((37, 75), "l=75 is not prime"),
           ((37, 151), "l=151 does not split: l % p = 3")]
    for args, message in bad:
        with pytest.raises(ValueError) as err:
            pair_key(*args)
        assert str(err.value) == message


def test_context_defaults_pick_smallest_roots():
    ctx = TwistContext.build(37, 149)
    assert ctx.c == 2 and ctx.g == 2
    ctx = TwistContext.build(11, 23)
    assert ctx.c == primitive_root(11) and ctx.g == primitive_root(23)


def test_jacobi_sum_matches_character_sum_oracle():
    for p, l in ((5, 11), (7, 29), (11, 23), (13, 53)):
        ctx = TwistContext.build(p, l)
        for i in range(1, p - 1):
            want = CycModP(p, [v % p for v in jacobi_charsum(p, l, ctx.g, i)])
            assert jacobi_sum(ctx, i) == want, (p, l, i)


def _relabel(N, p, l, g):
    """N with its cosets labelled by g**M: w = coset_root(p, l) = (g**M)**k
    moves cell (d, m) to (kd, km)."""
    h, w = pow(g, (l - 1) // p, l), coset_root(p, l)
    k = next(k for k in range(1, p) if pow(h, k, l) == w)
    d = np.arange(p) * k % p
    out = np.empty_like(N)
    out[np.ix_(d, d)] = N
    return out


def test_cyclotomic_kernel_matches_oracles():
    # p = 3, the smallest split l of several p, random (p, l) with the
    # default root and random (p, l) with another primitive root g; p = 257
    # has p*p = 66049 cells, past int16, and p = 5 runs at l = 30011.  The
    # cell (ind(h), ind(h)) of y = h = (l-1)/2 has ind(h) = -ind(2): nonzero
    # at (37, 149), and 0 at the pairs where 2 is a pth power, (3, 31),
    # (5, 151), (11, 331) and (37, 11471), where the coset root w = a**M
    # of the cyclotomic numbers comes from a >= 3.
    rng = random.Random(31)
    cases = [(3, l, None) for l in split_primes(3, count=3)]
    cases += [(p, next(split_primes(p)), None) for p in (5, 7, 11, 37, 257)]
    cases += [(5, 30011, None)]
    two_is_a_pth_power = [(3, 31), (5, 151), (11, 331), (37, 11471)]
    cases += [(p, l, None) for p, l in two_is_a_pth_power]
    cases += [(257, 151631, None)]
    assert build_log_table(149, 2).dlog[74] % 37 != 0
    for p, l in two_is_a_pth_power:
        assert build_log_table(l, primitive_root(l)).dlog[(l - 1) // 2] % p == 0, (p, l)
    for _ in range(6):
        p = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
        l = rng.choice(list(split_primes(p, count=8)))
        cases += [(p, l, None), (p, l, rng.choice(_primitive_roots(l)[1:]))]
    for p, l, g in cases:
        ctx = TwistContext.build(p, l, g=g)
        N = cyclotomic_numbers_naive(p, l, ctx.g)
        if g is None:
            got = jacobi._cyclotomic_numbers(p, l)
            assert got.tolist() == cyclotomic_numbers_by_powers(p, l, coset_root(p, l)), (p, l)
            assert _relabel(got, p, l, ctx.g).tolist() == N, (p, l)
        for i in range(1, ctx.c):
            assert jacobi_counts(ctx, i).tolist() == jacobi_counts_from_cyclotomic(N, p, i), (p, l, g)
        for i in rng.sample(range(1, p - 1), min(3, p - 2)):
            want = jacobi_charsum(p, l, ctx.g, i)
            assert exact_jacobi_sum(ctx, i).coeffs == want, (p, l, g, i)
            assert jacobi_sum(ctx, i) == CycModP(p, [v % p for v in want]), (p, l, g, i)


def test_twist_context_build_allocates_nothing_that_grows_with_l():
    # the context holds no array of l: its peak at l = 750287 is 0.36 MB,
    # while one int64 or intp array of h = (l-1)/2 entries would take 3 MB
    tracemalloc.start()
    try:
        TwistContext.build(37, 750287)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_jacobi_counts_every_index_matches_character_sums():
    # every i in [1, p-2], below c and past it, at pairs with p**2 > l:
    # (151, 907) has c = 6 > 2, and (257, 1543) has c = 3.  The oracle
    # folds z**(p-1) away, which leaves the counts up to a constant; their
    # total, l - 2 terms y != 0, 1, pins it, and the exact kernel of
    # residue_symbols relies on it.
    for p, l, c in ((151, 907, 6), (257, 1543, 3)):
        ctx = TwistContext.build(p, l)
        assert ctx.c == c
        for i in range(1, p - 1):
            t = jacobi_counts(ctx, i)
            assert t.shape == (p,) and int(t.sum()) == l - 2, (p, l, i)
            want = jacobi_charsum(p, l, ctx.g, i)
            assert [int(t[p - 1] - t[e]) for e in range(p - 1)] == want, (p, l, i)


@pytest.mark.parametrize("p,l", [(3, 7), (5, 11), (7, 29), (41, 83)])
def test_jacobi_values_match_the_character_sum_oracle(p, l):
    # J_i(h**b) mod l, h = g**M, for every i in [1, p-2] and b in [1, p).
    # The oracle folds z**(p-1) away, which holds at the roots of Phi_p
    # only, so it has no value at h**0 = 1
    ctx = TwistContext.build(p, l)
    h = pow(ctx.g, (l - 1) // p, l)
    got = jacobi.jacobi_values(p, l, ctx.factorials, np.arange(1, p - 1)[:, None], np.arange(1, p))
    for i in range(1, p - 1):
        J = jacobi_charsum(p, l, ctx.g, i)
        want = [sum(x * pow(h, b * k, l) for k, x in enumerate(J)) % l for b in range(1, p)]
        assert got[i - 1].tolist() == want, i


def test_cyclotomic_numbers_invariants_at_scan37_high_size():
    # oracle-free checks at the first SCAN37_HIGH prime; p**2 < l there, and
    # the counts of every J_i are the anti-diagonal sums of N, labelled by g
    p, l = 37, 742073
    ctx = TwistContext.build(p, l)
    N = _relabel(jacobi._cyclotomic_numbers(p, l), p, l, ctx.g)
    for i in range(1, p - 1):
        assert jacobi_counts(ctx, i).tolist() == jacobi_counts_from_cyclotomic(N.tolist(), p, i), i
    M, is0 = (l - 1) // p, np.arange(p) == 0
    assert (N.sum(axis=1) == M - is0).all()  # y = -1 in C_0 has 1 + y = 0
    assert (N.sum(axis=0) == M - is0).all()  # 1 + y = 1 in C_0 needs y = 0
    assert (N == N.T).all()  # y -> -1 - y
    d, m = np.ogrid[:p, :p]
    assert (N[-d % p, (m - d) % p] == N).all()  # y -> 1/y


def test_build_and_exponent_set_stay_small_at_large_p():
    # no p x p table: the DFT reads a window of one row of 2(p-1) twiddles,
    # and the moments one of 2(p-1) powers of c
    tracemalloc.start()
    try:
        exponent_set(TwistContext.build(1999, 19991))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_twist_context_build_stays_small_at_the_log_table_cap():
    # 67108529 is the largest split prime of 37 below 2**26: the float64
    # grids of the block products are chunks, not arrays that grow with l
    tracemalloc.start()
    try:
        TwistContext.build(37, 67108529)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


# groups of 2 while K*M <= 2 * _CHUNK, of 16 beyond: 33301 and 33893 are
# the split primes of 37 on either side; M = 4 at (4999, 19997)
_BLOCK_PAIRS = [(p, l) for p in (3, 5, 7, 11, 37, 67, 151, 997)
                for l in itertools.islice(split_primes(p), 30)]
_BLOCK_PAIRS += [(4999, 19997), (37, 33301), (37, 33893)]


@pytest.mark.parametrize("p,l", _BLOCK_PAIRS)
def test_block_products_match_the_plain_products(p, l):
    assert jacobi._block_products(p, l) == block_products_naive(p, l)


def test_block_products_straddle_the_group_size_crossover():
    K, M = 18, [(l - 1) // 37 for l in (33301, 33893)]
    assert K * M[0] <= 2 * jacobi._CHUNK < K * M[1]


@pytest.mark.parametrize("p,l", [(37, 67108529), (4999, 67026593)])
def test_block_products_at_the_float64_edge(p, l):
    # the largest split primes of 37 and 4999 below 2**26, where z**2 nears
    # 2**52; the plain products of four blocks each
    assert is_prime(l) and l % (2 * p) == 1
    assert not any(is_prime(x) for x in range(l + 2 * p, LOG_TABLE_CAP, 2 * p))
    K = (p - 1) // 2
    ks = sorted({0, 1, K // 2, K - 1})
    blocks = jacobi._block_products(p, l)
    assert len(blocks) == K
    assert [blocks[k] for k in ks] == block_products_naive(p, l, ks)


def test_mulmod_is_exact_at_the_largest_prime_below_the_cap():
    l = 67108859
    assert is_prime(l) and not any(is_prime(x) for x in range(l + 1, LOG_TABLE_CAP))
    rng = random.Random(25)
    pairs = [(x, 1) for x in (0, (l - 1) ** 2, -(l - 1) ** 2, 2**52 - 1, 1 - 2**52)]
    pairs += [(rng.randint(-l // 2 - 1, l // 2 + 1), rng.randint(-l // 2 - 1, l // 2 + 1))
              for _ in range(10**4)]
    x, y = (np.array(v, dtype=np.float64) for v in zip(*pairs))
    jacobi._mulmod(x, y, l)
    for (a, b), v in zip(pairs, x.tolist()):
        assert v == int(v) and (a * b - int(v)) % l == 0 and abs(v) <= l / 2 + 1, (a, b)


@pytest.mark.parametrize("p,l", [(37, 149), (37, 742073), (41, 3691), (997, 3989)])
def test_build_raises_on_a_wrong_factorial_block(p, l, monkeypatch):
    # a wrong block product spoils the factorials on both sides of Wilson's
    # reflection, so the DFT returns residues, not counts, which sum to
    # l - 2 with odds of about 1/(p-1)!: negligible at p >= 37.  The build
    # reads no counts; every reader of a count row trips the check
    blocks = jacobi._block_products
    K = (p - 1) // 2
    for k in sorted({0, 1, K // 2, K - 1}):
        def wrong(p, l, k=k):
            out = blocks(p, l)
            out[k] = out[k] * 2 % l
            return out
        monkeypatch.setattr(jacobi, "_block_products", wrong)
        ctx = TwistContext.build(p, l)
        readers = [exponent_set, twist_product, lambda ctx: classify(ctx, 2)]
        readers += [lambda ctx, i=i: jacobi_counts(ctx, i) for i in range(1, p - 1)]
        for read in readers:
            with pytest.raises(ArithmeticError, match="do not sum to l - 2"):
                read(ctx)


def test_dot_mod_matches_python_integers_past_one_int64_block():
    # the largest prime below the cap: int64 sums of (l-1)**2 terms hold
    # 2048 of them, so an inner length of 5000 takes three blocks
    l = 67108859
    step = (2**63 - 1 - l) // (l - 1) ** 2
    assert step == 2048
    rng = random.Random(26)
    x = [[l - 1] * 5000] + [[rng.randrange(l) for _ in range(5000)] for _ in range(2)]
    y = [[l - 1, rng.randrange(l)] for _ in range(5000)]
    got = jacobi._dot_mod(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), l)
    want = [[sum(a * b for a, b in zip(row, col)) % l for col in zip(*y)] for row in x]
    assert got.tolist() == want


def test_jacobi_norm_at_the_int64_edge_of_the_dft():
    # p * l**2 > 2**63 at (4999, 42981403), so the DFT sums its terms in two
    # blocks; |J_i|**2 = l for i below c and past it
    p, l = 4999, 42981403
    assert p * l * l > 2**63
    ctx = TwistContext.build(p, l)
    for i in (1, 2, 3, 2500, p - 2):
        t = jacobi_counts(ctx, i).tolist()
        assert sum(t) == l - 2 and jacobi_norm_holds(t, l), i


def test_jacobi_sum_index_range():
    ctx = TwistContext.build(7, 29)
    with pytest.raises(ValueError):
        jacobi_sum(ctx, 0)
    with pytest.raises(ValueError):
        jacobi_sum(ctx, 6)


def test_twist_product_augmentation_is_one():
    for p, l in ((5, 31), (7, 113), (11, 67), (37, 149)):
        assert int(twist_product(TwistContext.build(p, l)).coeffs.sum()) % p == 1


def test_jacobi_sum_times_its_conjugate_is_l():
    # J_i sigma_-1(J_i) = l, and l = 1 in F_p for split primes, so the
    # conjugate inverts every J_i and every twist product at any valid c
    for p, l in ((5, 31), (7, 43), (11, 23), (13, 79), (37, 149)):
        ctx = TwistContext.build(p, l)
        for i in range(1, p - 1):
            J = jacobi_sum(ctx, i)
            assert J * J.galois(p - 1) == CycModP(p, [1]), (p, l, i)
    rng = random.Random(1481)
    for _ in range(12):
        p = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67))
        l = rng.choice(list(split_primes(p, count=6)))
        c = rng.choice(_primitive_roots(p))
        J = twist_product(TwistContext.build(p, l, c=c))
        assert J * J.galois(p - 1) == CycModP(p, [1]), (p, l, c)


def test_component_validates_exponent():
    ctx = TwistContext.build(11, 23)
    with pytest.raises(ValueError):
        exact_twist_component(ctx, 3)
    with pytest.raises(ValueError):
        exact_twist_component(ctx, 0)
    with pytest.raises(ValueError):
        exact_twist_component(ctx, 10)


def test_exponent_set_agrees_with_per_component_checks():
    # the exponent-set kernel against the defining product S_n, on fixed
    # pairs, random (p, l, c, g) and the nonempty p=37 goldens
    rng = random.Random(2018)
    cases = [(p, l, None, None) for p, l in ((11, 23), (13, 53), (37, 149), (37, 4219))]
    for _ in range(8):
        p = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67))
        l = rng.choice(list(split_primes(p, count=6)))
        cases.append((p, l, rng.choice(_primitive_roots(p)), rng.choice(_primitive_roots(l))))
    cases += [(37, l, None, None) for l, want in sorted(SCAN37_LOW.items()) if want]
    for p, l, c, g in cases:
        ctx = TwistContext.build(p, l, c=c, g=g)
        J, one = twist_product(ctx).coeffs.tolist(), [1] + [0] * (p - 2)
        direct = {n for n in range(2, p - 2, 2) if component_naive(p, J, n) == one}
        assert set(exponent_set(ctx)) == direct, (p, l, c, g)
        if p == 37 and l in SCAN37_LOW:
            assert direct == SCAN37_LOW[l], l


def _rows_read(p):
    """{1} and a - 1 for the least a >= 2 with a**n != 1, n even in [2, p-3]."""
    return sorted({1} | {next(a for a in range(2, p) if pow(a, n, p) != 1) - 1
                         for n in range(2, p - 2, 2)})


@pytest.mark.parametrize("p", [37, 41, 67, 101])
def test_exponent_set_makes_logarithmically_many_products(p, monkeypatch):
    # no ring product and no Galois image: the moments of J_1 alone, and of
    # J_2 at p = 41, where c = 6 and 2**20 = 1 (mod 41)
    ctx = TwistContext.build(p, 3691 if p == 41 else next(split_primes(p)))
    calls, read = [], []
    counts = jacobi._counts

    def spy(ctx, indices):
        read.append(list(indices))
        return counts(ctx, indices)

    mul, galois = CycModP.__mul__, CycModP.galois
    monkeypatch.setattr(CycModP, "__mul__", lambda self, other: calls.append("mul") or mul(self, other))
    monkeypatch.setattr(CycModP, "galois", lambda self, a: calls.append("galois") or galois(self, a))
    monkeypatch.setattr(jacobi, "_counts", spy)
    exponent_set(ctx)
    assert (calls, read) == ([], [_rows_read(p)])
    assert (ctx.c, read) == ((6, [[1, 2]]) if p == 41 else (2, [[1]]))


def test_twist_product_reads_its_rows_in_one_call(monkeypatch):
    # p = 71 has c = 7: one DFT of the rows 1 .. 6, and none in the build
    read = []
    counts = jacobi._counts

    def spy(ctx, indices):
        read.append(list(indices))
        return counts(ctx, indices)

    monkeypatch.setattr(jacobi, "_counts", spy)
    ctx = TwistContext.build(71, next(split_primes(71)))
    assert (ctx.c, read) == (7, [])
    J = twist_product(ctx)
    assert read == [[1, 2, 3, 4, 5, 6]]
    want = jacobi_sum(ctx, 1)
    for i in range(2, 7):
        want = want * jacobi_sum(ctx, i)
    assert J == want


# (p, l) -> Expp(l): the n in the set that J_1 cannot decide are 8 at 17,
# 20 at 41 (c = 6) and 18 and 36 at 73, read off J_2, J_2 and J_4
_TWIST_PAIRS = {(17, 2143): (8, 12), (41, 3691): (20,), (73, 9491): (16, 18, 36),
                (1999, 19991): (690,), (4999, 19997): ()}


def test_exponent_set_matches_the_twist_product_route():
    for (p, l), want in _TWIST_PAIRS.items():
        ctx = TwistContext.build(p, l)
        assert exponent_set(ctx) == exponent_set_twist(ctx) == want, (p, l)
    assert {n: _rows_read(p)[-1] for p, n in ((17, 8), (41, 20), (73, 36))} == {8: 2, 20: 2, 36: 4}
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67))
        l = rng.choice(list(split_primes(p, count=8)))
        c = rng.choice([c for c in _primitive_roots(p) if c <= p - 2])
        ctx = TwistContext.build(p, l, c=c, g=rng.choice(_primitive_roots(l)))
        assert exponent_set(ctx) == exponent_set_twist(ctx), (p, l, ctx.c, ctx.g)


def _log_moments(p, J):
    """m_d(log J) = m_(d-1)(theta J * sigma_-1(J)) for d in [1, p-2], by plain sums."""
    w = CycModP(p, [k * a for k, a in enumerate(J.coeffs.tolist())]) * J.galois(p - 1)
    return _moments(p, w.coeffs.tolist(), range(p - 2))


@pytest.mark.parametrize("p,l", [(11, 23), (17, 2143), (37, 149), (41, 3691), (73, 9491)])
def test_log_moments_of_the_jacobi_sums_are_proportional(p, l):
    # m_d(log J_i) = f_i(d) m_d(log(-G)), f_i(d) = 1 + i**d - (i+1)**d, for the
    # Gauss sum G of chi; f_1(d) = 0 where 2**(d-1) = 1
    ctx = TwistContext.build(p, l)
    logs = {i: _log_moments(p, jacobi_sum(ctx, i)) for i in range(1, min(6, p - 1))}
    for i, log in logs.items():
        for d in range(3, p - 1, 2):
            f_1, f_i = (1 + pow(k, d, p) - pow(k + 1, d, p) for k in (1, i))
            assert (f_1 * log[d - 1] - f_i * logs[1][d - 1]) % p == 0, (i, d)


def test_exponent_set_refuses_p_from_2_to_the_21(monkeypatch):
    # the moment products sum up to (p-1) * (p-1)**2 < p**3, inside int64
    # below 2**21; no count is read, and no DFT of size 2097169 is run
    p, l = 2097169, 37749043
    assert is_prime(p) and is_prime(l) and l % p == 1

    def no_dft(*args):
        raise AssertionError("a count row was computed")

    monkeypatch.setattr(jacobi, "_counts", no_dft)
    ctx = TwistContext.build(p, l)
    with pytest.raises(ValueError, match=r"^p=2097169 is not below 2\*\*21"):
        exponent_set(ctx)


def test_exponent_set_choice_independent():
    # membership must not depend on the twist c or the primitive root g
    rng = random.Random(99)
    for p, l in ((7, 29), (11, 23), (13, 53), (37, 149), (37, 4219)):
        base = exponent_set_for(p, l)
        cs = _primitive_roots(p)
        gs = _primitive_roots(l)
        for _ in range(3):
            c = rng.choice(cs)
            g = rng.choice(gs)
            assert exponent_set_for(p, l, c=c, g=g) == base, (p, l, c, g)


def _primitive_roots(q):
    return [g for g in range(2, q)
            if all(pow(g, (q - 1) // f, q) != 1 for f in _factors(q - 1))]


def _factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_exponent_set_for_p3_is_always_empty():
    for l in split_primes(3, count=5):
        assert not exponent_set_for(3, l)


def _moments(p, coeffs, ds):
    return [sum(k**d * a for k, a in enumerate(coeffs)) % p for d in ds]


@pytest.mark.parametrize("p,l", [(3, 7), (5, 11), (7, 29), (37, 149), (997, 3989)])
def test_derivation_check_trips_on_each_relation(p, l):
    # adding k**(p-1-d) over k < p moves m_d alone among the m_e with e <= p-2,
    # so each relation the check reads is forced to fail on its own; at p = 3
    # and 5 only d <= p-2 is read (at p = 5, k**4 = 1 makes m_4 = 1 - a_0)
    J = twist_product(TwistContext.build(p, l))
    assert derivation_check(p, J)
    ds = [d for d in (0, 1, 2, 4) if d <= p - 2]
    if p == 5:
        assert _moments(p, J.coeffs.tolist(), [4]) != [0]
    for d in ds:
        bad = CycModP(p, np.append(J.coeffs, 0) + [pow(k, p - 1 - d, p) for k in range(p)])
        shift = [(b - a) % p for a, b in zip(_moments(p, J.coeffs.tolist(), ds),
                                             _moments(p, bad.coeffs.tolist(), ds))]
        assert [e for e, v in zip(ds, shift) if v] == [d], (p, d)
        assert not derivation_check(p, bad), (p, d)


@pytest.mark.parametrize("p,l", [(3, 7), (5, 11), (37, 149), (37, 4219), (997, 3989)])
def test_exponent_set_raises_without_the_self_mirrored_cell(p, l, monkeypatch):
    ctx = TwistContext.build(p, l)
    ind_h = build_log_table(l, ctx.g).dlog[(l - 1) // 2] % p
    N = _relabel(jacobi._cyclotomic_numbers(p, l), p, l, ctx.g).tolist()
    N[ind_h][ind_h] -= 1
    monkeypatch.setattr(jacobi, "_counts", lambda ctx, indices: np.array(
        [jacobi_counts_from_cyclotomic(N, p, i) for i in indices]))
    with pytest.raises(ArithmeticError, match="derivation relation"):
        exponent_set(ctx)


def test_exponent_set_raises_on_one_coefficient_faults(monkeypatch):
    # each fault moves m_0 of one count row that exponent_set reads
    rng = random.Random(200)
    counts = jacobi._counts
    for _ in range(40):
        p = rng.choice((5, 7, 11, 37, 41, 157))
        ctx = TwistContext.build(p, rng.choice(list(split_primes(p, count=4))))
        row, k, shift = rng.choice(_rows_read(p)), rng.randrange(p), rng.randrange(1, p)

        def faulty(ctx, indices, row=row, k=k, shift=shift):
            t = counts(ctx, indices).copy()
            t[list(indices).index(row), k] += shift
            return t

        monkeypatch.setattr(jacobi, "_counts", faulty)
        with pytest.raises(ArithmeticError, match="derivation relation"):
            exponent_set(ctx)
