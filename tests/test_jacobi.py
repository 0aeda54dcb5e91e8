"""Jacobi sums, twist products, components, exponent sets."""

import random
import tracemalloc

import numpy as np
import pytest

from primarity.cycring import CycModP
from primarity.jacobi import (
    ExponentSet,
    TwistContext,
    cyclotomic_numbers,
    exponent_set,
    exponent_set_for,
    jacobi_counts,
    jacobi_sum,
    pair_key,
    twist_product,
)
from primarity.modarith import coset_index, primitive_root, split_primes
from primarity.residue_symbols import exact_jacobi_sum, exact_twist_component

from _goldens import SCAN37_LOW
from oracles import component_naive, cyclotomic_numbers_naive, jacobi_charsum


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


def test_cyclotomic_kernel_matches_oracles():
    # p = 3, the smallest split l of several p, random (p, l) with the
    # default root and random (p, l) with another primitive root g; p = 257
    # has p*p = 66049 cells, past int16, and p = 5 runs at l = 30011.  The
    # kernel counts the pairs below h = (l-1)/2, their mirrors and the cell
    # (ind(h), ind(h)), with ind(h) = -ind(2): nonzero at (37, 149), and 0 at
    # the pairs where 2 is a pth power, (3, 31), (5, 151), (11, 331) and
    # (37, 11471).  (257, 151631) is uint16 with a last chunk of powers of
    # the coset index that runs past h - 1 (4112 entries, h = 75815).
    rng = random.Random(31)
    cases = [(3, l, None) for l in split_primes(3, count=3)]
    cases += [(p, next(split_primes(p)), None) for p in (5, 7, 11, 37, 257)]
    cases += [(5, 30011, None)]
    two_is_a_pth_power = [(3, 31), (5, 151), (11, 331), (37, 11471)]
    cases += [(p, l, None) for p, l in two_is_a_pth_power]
    cases += [(257, 151631, None)]
    assert coset_index(149, 2, 37)[74] != 0
    for p, l in two_is_a_pth_power:
        assert coset_index(l, primitive_root(l), p)[(l - 1) // 2] == 0, (p, l)
    for _ in range(6):
        p = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
        l = rng.choice(list(split_primes(p, count=8)))
        cases += [(p, l, None), (p, l, rng.choice(_primitive_roots(l)[1:]))]
    for p, l, g in cases:
        ctx = TwistContext.build(p, l, g=g)
        want_N = cyclotomic_numbers_naive(p, l, ctx.g)
        assert cyclotomic_numbers(coset_index(l, ctx.g, p), p).tolist() == want_N
        assert ctx.cyclotomic.tolist() == want_N, (p, l, g)
        for i in rng.sample(range(1, p - 1), min(3, p - 2)):
            want = jacobi_charsum(p, l, ctx.g, i)
            assert exact_jacobi_sum(ctx, i).coeffs == want, (p, l, g, i)
            assert jacobi_sum(ctx, i) == CycModP(p, [v % p for v in want]), (p, l, g, i)


def test_twist_context_build_allocates_nothing_that_grows_with_l_beyond_the_index():
    # the uint8 coset index of l = 750287 takes 0.75 MB; one int64 or intp
    # array of h = (l-1)/2 entries would add 3 MB
    tracemalloc.start()
    try:
        TwistContext.build(37, 750287)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_jacobi_counts_every_index_matches_character_sums():
    # every i in [1, p-2], so every row order k/i of the anti-diagonal
    # gather: (151, 907) has c = 6 > 2, and p = 257 makes the coset index
    # uint16.  The oracle folds z**(p-1) away, which leaves the counts up to
    # a constant; their total, l - 2 terms y != 0, 1, pins it, and the exact
    # kernel of residue_symbols relies on it.
    for p, l, c, dtype in ((151, 907, 6, np.uint8), (257, 1543, 3, np.uint16)):
        ctx = TwistContext.build(p, l)
        assert ctx.c == c and coset_index(l, ctx.g, p).dtype == dtype
        for i in range(1, p - 1):
            t = jacobi_counts(ctx, i)
            assert t.shape == (p,) and int(t.sum()) == l - 2, (p, l, i)
            want = jacobi_charsum(p, l, ctx.g, i)
            assert [int(t[p - 1] - t[e]) for e in range(p - 1)] == want, (p, l, i)


def test_cyclotomic_numbers_invariants_at_scan37_high_size():
    # oracle-free checks at the first SCAN37_HIGH prime, where a slice of the
    # coset indices off by one breaks the sums
    p, l = 37, 742073
    N = TwistContext.build(p, l).cyclotomic
    M, is0 = (l - 1) // p, np.arange(p) == 0
    assert (N.sum(axis=1) == M - is0).all()  # y = -1 in C_0 has 1 + y = 0
    assert (N.sum(axis=0) == M - is0).all()  # 1 + y = 1 in C_0 needs y = 0
    assert (N == N.T).all()  # by construction: the kernel adds each cell's mirror
    d, m = np.ogrid[:p, :p]
    assert (N[-d % p, (m - d) % p] == N).all()  # y -> 1/y


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
        assert set(exponent_set(ctx).members) == direct, (p, l, c, g)
        if p == 37 and l in SCAN37_LOW:
            assert direct == SCAN37_LOW[l], l


@pytest.mark.parametrize("p", [37, 41, 67, 101])
def test_exponent_set_makes_logarithmically_many_products(p, monkeypatch):
    # c-2 products for the twist and one for theta J * sigma_-1(J), whose
    # conjugate is the only Galois image; c = 6 at p = 41, 2 at the others
    ctx = TwistContext.build(p, next(split_primes(p)))
    products, conjugations = [], []
    mul, galois = CycModP.__mul__, CycModP.galois

    def counted_mul(self, other):
        products.append(1)
        return mul(self, other)

    def counted_galois(self, a):
        conjugations.append(a)
        return galois(self, a)

    monkeypatch.setattr(CycModP, "__mul__", counted_mul)
    monkeypatch.setattr(CycModP, "galois", counted_galois)
    exponent_set(ctx)
    assert (len(products), conjugations) == ((ctx.c - 2) + 1, [p - 1])


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
            assert exponent_set_for(p, l, c=c, g=g).members == base.members, (p, l, c, g)


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
        assert exponent_set_for(3, l).is_empty()


def test_exponent_set_type_behaviour():
    es = ExponentSet(37, (34, 10))
    assert es.members == (10, 34)
    assert list(es) == [10, 34]
    assert 10 in es and 12 not in es
    assert len(es) == 2
    assert not es.is_empty()
    assert es.render() == "10,34"
    assert ExponentSet(37, ()).render() == ""
    inter = es.intersection(ExponentSet(37, (34, 2)))
    assert inter.members == (34,)
    with pytest.raises(ValueError, match="mixed primes"):
        es.intersection(ExponentSet(11, ()))
