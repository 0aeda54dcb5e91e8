"""Acceptance gate: one test per criterion, golden tables pinned exactly.

Each criterion is a single test function so the verbose run shows one
pass/fail line per criterion.  Budgets are asserted where the contract
fixes them; the two table sweeps that need serious CPU carry the long
marker and the full p=5 trace plateau is extended.
"""

import random
import time

import pytest

from primarity.bernoulli import b1_omega
from primarity.jacobi import (
    TwistContext,
    derivation_check,
    exponent_set,
    exponent_set_for,
    twist_product,
)
from primarity.modarith import generator_test, split_primes
from primarity.residue_symbols import classify_for, exact_jacobi_sum, exact_twist_component
from primarity.spectra import distinct_trace_count, rank_scan, trace_polynomial
from primarity.vandiver import density_scan, minimal_empty_l, scan_pairs

from _goldens import (
    DENSITY37_CHECKPOINTS,
    DENSITY37_FINAL,
    FIRST_SPLIT,
    MINIMAL_L,
    RANK_MILESTONES,
    SCAN37_HIGH,
    SCAN37_IRREGULAR_HITS,
    SCAN37_LOW,
    SYMBOL37,
    TRACE3_CATALOG,
    TRACE5_CATALOG,
    TRACE7,
)
from oracles import bn_over_n_mod_p, component_naive, mul_mod_phi_naive

SYMBOL_LINES = {
    "local_at_p": "Sn local pth power at P",
    "local_at_L": "Sn local pth power at L",
    "non_local_at_L": "Sn NON local pth power at L",
    "global_pth_power": "Sn GLOBAL pth power",
}


def test_criterion_01_first_split_prime_table():
    t0 = time.perf_counter()
    for p in sorted(FIRST_SPLIT):
        l, want = FIRST_SPLIT[p]
        assert next(split_primes(p, count=1)) == l, p
        assert set(exponent_set_for(p, l)) == want, (p, l)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"criterion 1: first split prime table, {len(FIRST_SPLIT)} rows "
          f"p in [3, 199], {elapsed:.0f}s: pass")


@pytest.mark.long
def test_criterion_02_minimal_empty_l_table():
    for p, (l, n) in sorted(MINIMAL_L.items()):
        t0 = time.perf_counter()
        assert minimal_empty_l(p, bound=l, jobs=8) == (l, n), p
        assert time.perf_counter() - t0 < 600, p
    print(f"criterion 2: minimal empty-set table, {len(MINIMAL_L)} rows: pass")


def test_criterion_03_scan_p37_low_and_high_ranges():
    t0 = time.perf_counter()
    for rec in scan_pairs(37, sorted(SCAN37_LOW)):
        assert set(rec.expp) == SCAN37_LOW[rec.l], rec.l
    for rec in scan_pairs(37, sorted(SCAN37_HIGH)):
        assert set(rec.expp) == SCAN37_HIGH[rec.l], rec.l
    for l in sorted(SCAN37_IRREGULAR_HITS):
        assert 32 in SCAN37_HIGH[l]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"criterion 3: p=37 scan, {len(SCAN37_LOW)} low + {len(SCAN37_HIGH)} "
          f"high rows, {elapsed:.0f}s: pass")


@pytest.mark.long
def test_criterion_04_density_totals_p37():
    t0 = time.perf_counter()
    checkpoints = {(nel, npp, l): tuple(vec) for nel, npp, l, vec in DENSITY37_CHECKPOINTS}
    seen = []

    def on_hit(processed, hits, l, counts):
        key = (processed, hits, l)
        if key in checkpoints:
            assert counts == checkpoints[key], key
            seen.append(key)

    nel, npp, last_l, vector = DENSITY37_FINAL
    table = density_scan(37, count=nel, jobs=8, on_hit=on_hit)
    elapsed = time.perf_counter() - t0
    assert (table.processed, table.hits, table.last_l) == (nel, npp, last_l)
    assert list(table.counts) == vector
    assert len(seen) == len(checkpoints)
    assert elapsed < 3600
    print(f"criterion 4: p=37 density totals ({nel}, {npp}) at {last_l}, "
          f"{elapsed:.0f}s: pass")


def test_criterion_05_symbol_table_p37_n32():
    t0 = time.perf_counter()
    for l, (v, u, flags) in sorted(SYMBOL37.items()):
        rep = classify_for(37, l, 32)
        assert (rep.v, rep.u) == (v, u), l
        assert rep.lines() == [SYMBOL_LINES[f] for f in flags], l
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"criterion 5: symbol table (p=37, n=32), {len(SYMBOL37)} rows "
          f"including l=32783, {elapsed:.0f}s: pass")


def test_criterion_06_rank_milestones_and_derivation_relations():
    t0 = time.perf_counter()
    for p, want in sorted(RANK_MILESTONES.items()):
        reached, l_p, history = rank_scan(p)
        assert reached and l_p == want, p
        assert all(r <= p - 4 for _, r in history), p
    rng = random.Random(2024)
    ps = [p for p in range(7, 100, 2)
          if all(p % d for d in range(3, int(p**0.5) + 1, 2))]
    pools = {p: list(split_primes(p, count=40)) for p in ps}
    for _ in range(1000):
        p = rng.choice(ps)
        l = rng.choice(pools[p])
        J = twist_product(TwistContext.build(p, l))
        assert derivation_check(p, J), (p, l)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"criterion 6: rank milestones {sorted(RANK_MILESTONES.values())} and "
          f"1000 derivation checks, {elapsed:.0f}s: pass")


def test_criterion_07_trace_polynomials():
    t0 = time.perf_counter()
    for l, (f, rendered) in sorted(TRACE7.items()):
        for method in ("dense", "fast"):
            tp = trace_polynomial(7, l, method=method)
            assert (tp.residue_degree, tp.render()) == (f, rendered), (l, method)
    count3, firsts3 = distinct_trace_count(3, bound=500)
    assert count3 == 6
    assert [(tp.l, tp.residue_degree, tp.render()) for tp in firsts3] == TRACE3_CATALOG
    count5, _ = distinct_trace_count(5, bound=1310)
    assert count5 >= 30
    elapsed = time.perf_counter() - t0
    assert elapsed < 3600
    print(f"criterion 7: trace rows for p=7, plateau 6 at p=3, "
          f">= 30 distinct at p=5, {elapsed:.0f}s: pass")


@pytest.mark.extended
def test_criterion_07_extended_trace5_full_plateau():
    count, firsts = distinct_trace_count(5, bound=14000)
    assert count == 35
    assert [(tp.l, tp.residue_degree, tp.render()) for tp in firsts] == TRACE5_CATALOG
    print("criterion 7 (extended): p=5 plateau at 35 distinct polynomials: pass")


def test_criterion_08_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(5050)

    # choice independence of the exponent sets plus twist-product augmentation
    small = [5, 7, 11, 13, 17, 19, 23]
    pools = {p: list(split_primes(p, count=30)) for p in small}
    roots = {p: list(filter(generator_test(p), range(2, p - 1))) for p in small}
    for _ in range(500):
        p = rng.choice(small)
        l = rng.choice(pools[p])
        base = exponent_set_for(p, l)
        c = rng.choice(roots[p])
        g = rng.randrange(2, l)
        while not generator_test(l)(g):
            g = rng.randrange(2, l)
        ctx = TwistContext.build(p, l, c=c, g=g)
        assert int(twist_product(ctx).coeffs.sum()) % p == 1, (p, l, c)
        assert exponent_set(ctx) == base, (p, l, c, g)

    # exact conjugate product J_i * sigma_-1(J_i) = l in Z[x]/Phi_p
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        for l in split_primes(p, bound=5000):
            ctx = TwistContext.build(p, l)
            for i in range(1, p - 1):
                J = exact_jacobi_sum(ctx, i)
                prod = J.mul(J.galois(p - 1))
                assert prod.coeffs[0] == l and not any(prod.coeffs[1:]), (p, l, i)

    # mod-p component versus exact component reduced mod p
    for p in (5, 7, 11):
        for l in split_primes(p, count=4):
            ctx = TwistContext.build(p, l)
            J, one = twist_product(ctx).coeffs.tolist(), [1] + [0] * (p - 2)
            for n in range(2, p - 2, 2):
                half = component_naive(p, J, n)
                full = [v % p for v in exact_twist_component(ctx, n).coeffs]
                assert full == mul_mod_phi_naive(p, half, half), (p, l, n)
                assert (full == one) == (half == one), (p, l, n)

    # generalized Bernoulli numbers against the rational oracle
    for p in range(5, 200, 2):
        if any(p % d == 0 for d in range(3, int(p**0.5) + 1, 2)):
            continue
        for n in range(2, p - 2, 2):
            assert b1_omega(p, n - 1) == bn_over_n_mod_p(n, p), (p, n)

    elapsed = time.perf_counter() - t0
    assert elapsed < 900
    print(f"criterion 8: property suite (choice independence, conjugate norms, "
          f"exact/mod-p bridge, Bernoulli oracle), {elapsed:.0f}s: pass")
