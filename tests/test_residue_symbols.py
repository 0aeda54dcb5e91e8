"""classify against the exact route; exact components, l-content, residue symbols, norms."""

import dataclasses
import functools
import json
import random

import numpy as np
import pytest

from primarity import jacobi, residue_symbols
from primarity.cli import main
from primarity.cycring import CycModP
from primarity.jacobi import TwistContext, exponent_set, twist_product
from primarity.modarith import split_primes
from primarity.residue_symbols import (
    CycBigInt,
    SymbolCache,
    SymbolReport,
    _valuation,
    classify,
    exact_jacobi_sum,
    exact_twist_component,
    l_content,
    min_p_valuation,
    norm_l_power,
    residue_symbol,
)

from _goldens import (
    ALPHA11_COEFFS,
    ALPHA11_L_CONTENT,
    ALPHA11_MINUS_ONE_NORM_PVAL,
    ALPHA11_NORM_EXPONENT,
    NORM37_REDUCED_EXPONENT,
    SYMBOL37,
    SYMBOL157_N60,
    SYMBOL_LARGE_P,
    SYMBOL_LINES,
    U1_N22,
    U1_N32,
    U1_N32_PRINCIPAL,
)
from oracles import (
    component_exact_naive,
    component_naive,
    is_prime_naive,
    jacobi_charsum,
    min_valuation_naive,
    mul_exact_naive,
    mul_mod_phi_naive,
    norm_naive,
)


def conjugate_norm(u):
    """Norm by multiplying out all Galois conjugates with no package code."""
    return norm_naive(u.p, u.coeffs)


def test_cycbigint_canonicalizes_length_p():
    u = CycBigInt(5, [1, 2, 3, 4, 10])
    assert u.coeffs == [-9, -8, -7, -6]
    with pytest.raises(ValueError):
        CycBigInt(5, [1, 2])


def test_cycbigint_mul_matches_mod_p_ring():
    rng = random.Random(4)
    for p in (5, 7, 11):
        for _ in range(20):
            a = CycBigInt(p, [rng.randrange(-50, 50) for _ in range(p - 1)])
            b = CycBigInt(p, [rng.randrange(-50, 50) for _ in range(p - 1)])
            am, bm = (CycModP(p, [c % p for c in u.coeffs]) for u in (a, b))
            assert CycModP(p, [c % p for c in a.mul(b).coeffs]) == am * bm
            assert CycModP(p, [c % p for c in a.galois(2).coeffs]) == am.galois(2)


def test_component_memory_guard_raises_before_any_work(monkeypatch):
    ctx = TwistContext.build(11, 23)

    def no_work(*args):
        raise AssertionError("work started before the guard")

    with monkeypatch.context() as m:
        m.setattr(residue_symbols, "_counts", no_work)
        m.setattr(residue_symbols, "MEMORY_LIMIT", 32)
        with pytest.raises(MemoryError, match="exceed the 32 byte budget for p=11"):
            exact_twist_component(ctx, 2)
    assert exact_twist_component(ctx, 2).coeffs == ALPHA11_COEFFS


def test_exact_jacobi_sum_matches_character_sum_oracle():
    for p, l in ((5, 11), (7, 29), (11, 23)):
        ctx = TwistContext.build(p, l)
        for i in range(1, p - 1):
            assert exact_jacobi_sum(ctx, i).coeffs == jacobi_charsum(p, l, ctx.g, i)


def _exact_twist_naive(ctx):
    """J = J_1 * ... * J_(c-1) over Z[x]/Phi_p from the character sums."""
    J = [1] + [0] * (ctx.p - 2)
    for i in range(1, ctx.c):
        J = mul_exact_naive(ctx.p, J, jacobi_charsum(ctx.p, ctx.l, ctx.g, i))
    return J


def test_exact_twist_product_reduces_to_mod_p_twist():
    for p, l in ((5, 31), (7, 43), (11, 23), (13, 53)):
        ctx = TwistContext.build(p, l)
        assert [c % p for c in _exact_twist_naive(ctx)] == twist_product(ctx).coeffs.tolist()


def test_exact_component_matches_the_defining_product():
    # the least split pair (5, 11), then seeded (p, l, n, c, g) with p <= 23
    rng = random.Random(607)
    cases = [(5, 11, 2, 2, 2), (11, 67, 2, 8, 18), (13, 79, 6, 6, 39)]
    for p in (5, 7, 11, 13, 17, 19, 23):
        ls = [l for _, l in zip(range(4), split_primes(p))]
        for _ in range(2):
            l = rng.choice(ls)
            cs = [c for c in _primitive_roots(p) if c <= min(p - 2, 7)]
            cases.append((p, l, rng.randrange(2, p - 2, 2), rng.choice(cs),
                          rng.choice(_primitive_roots(l))))
    for p, l, n, c, g in cases:
        ctx = TwistContext.build(p, l, c=c, g=g)
        want = component_exact_naive(p, _exact_twist_naive(ctx), n)
        assert exact_twist_component(ctx, n).coeffs == want, (p, l, n, c, g)
    assert any(c > 2 for _, _, _, c, _ in cases)


def _height(p, n, c):
    """(c-1) * sum_a (a**(n-1) mod p): |S_n|**2 = l**height in every embedding."""
    return (c - 1) * sum(pow(a, n - 1, p) for a in range(1, p))


def _primitive_roots(q):
    return [g for g in range(2, q) if len({pow(g, k, q) for k in range(q - 1)}) == q - 1]


def test_p37_coefficients_lie_under_the_height_bound():
    l = 32783
    S = exact_twist_component(TwistContext.build(37, l), 32)
    B2 = l ** _height(37, 32, 2)  # B**2, B the absolute value at every embedding
    assert max(abs(c).bit_length() for c in S.coeffs) == 4994
    assert all(c * c < 4 * B2 for c in S.coeffs)  # |c| < 2B


@pytest.mark.parametrize("p,ls", [(5, (11, 31, 41, 61)), (7, (29, 43, 71, 113)), (11, (23, 67, 89, 199))])
def test_full_range_component_is_square_of_half_range(p, ls):
    # the exact product runs a = 1 .. p-1, twice the mod-p half range
    for l in ls:
        ctx = TwistContext.build(p, l)
        J = twist_product(ctx).coeffs.tolist()
        for n in range(2, p - 2, 2):
            full = [v % p for v in exact_twist_component(ctx, n).coeffs]
            half = component_naive(p, J, n)
            assert full == mul_mod_phi_naive(p, half, half), (p, l, n)


def test_frobenius_collapses_pth_power_to_augmentation():
    # x**p = 1 mod Phi_p, so u**p = aug(u) in F_p[x]/Phi_p
    rng = random.Random(11)
    for p in (5, 7, 11, 13):
        for _ in range(10):
            u = CycModP(p, [rng.randrange(p) for _ in range(p - 1)])
            want = CycModP(p, [pow(int(u.coeffs.sum()), p, p)])
            power = u
            for _ in range(p - 1):
                power = power * u
            assert power == want


def test_min_p_valuation():
    assert min_p_valuation(CycBigInt(5, [50, 10, 0, 200]), 5) == 1
    assert min_p_valuation(CycBigInt(5, [125, 0, 0, 0]), 5) == 3
    assert min_p_valuation(CycBigInt(5, [125, 3, 0, 0]), 5) == 0
    assert min_p_valuation(CycBigInt(5, [0, 0, 0, 0]), 5) is None


def test_l_content_splits_off_the_l_power():
    v, reduced = l_content(CycBigInt(5, [23 * 23 * 2, 23 * 23, 0, 23 * 23 * 23]), 23)
    assert v == 2
    assert reduced.coeffs == [2, 1, 0, 23]
    v, same = l_content(reduced, 23)
    assert v == 0 and same is reduced
    with pytest.raises(ValueError, match="zero"):
        l_content(CycBigInt(5, [0, 0, 0, 0]), 23)


def _check_contents(u, q):
    """min_p_valuation and l_content of u against the division-loop oracle."""
    want = min_valuation_naive(u.coeffs, q)
    assert min_p_valuation(u, q) == want
    if want is None:
        with pytest.raises(ValueError, match="no l-content"):
            l_content(u, q)
        return
    v, reduced = l_content(u, q)
    assert v == want
    assert [c * q**v for c in reduced.coeffs] == u.coeffs
    assert min_valuation_naive(reduced.coeffs, q) == 0


@pytest.mark.parametrize("q", [5, 23, 37, 32783])
def test_contents_match_the_division_loop_on_random_elements(q):
    rng = random.Random(q)
    for trial in range(40):
        p = rng.choice((5, 7, 11, 37))
        k = rng.randrange(301)  # planted q**k shared by every coefficient
        coeffs = []
        for _ in range(p - 1):
            kind = rng.randrange(4)
            if kind == 0:
                coeffs.append(0)
                continue
            c = rng.randrange(1, 1 << rng.randrange(1, 200))
            if kind == 1:
                c *= q ** rng.randrange(1, 40)  # a coefficient above the minimum
            coeffs.append(rng.choice((1, -1)) * q**k * c)
        if trial == 0:
            coeffs = [0] * (p - 1)
        elif trial == 1:
            coeffs = [0] * (p - 2) + [-(q**300)]
        _check_contents(CycBigInt(p, coeffs), q)


@pytest.mark.parametrize("l", sorted(SYMBOL37))
def test_symbol37_contents_match_the_division_loop(l):
    # v is the l-content of S_32; S_32 is local at P exactly when s = v_37(S_32 - 1) != 0
    v, _, flags = SYMBOL37[l]
    S = exact_twist_component(TwistContext.build(37, l), 32)
    _check_contents(S, l)
    _check_contents(S.minus_one(), 37)
    assert min_p_valuation(S, l) == v
    assert (min_p_valuation(S.minus_one(), 37) != 0) == ("local_at_p" in flags)


def test_residue_symbol_is_a_pth_root_of_unity_or_trivial():
    ctx = TwistContext.build(11, 23)
    S = exact_twist_component(ctx, 2)
    v, reduced = l_content(S, 23)
    u = residue_symbol(reduced, 23, ctx.g)
    assert pow(u, 11, 23) == 1
    with pytest.raises(ValueError, match="not reduced"):
        residue_symbol(CycBigInt(11, [23] + [0] * 9), 23, ctx.g)


def test_alpha11_exact_coefficients():
    S = exact_twist_component(TwistContext.build(11, 23), 2)
    assert S.coeffs == ALPHA11_COEFFS
    assert l_content(S, 23)[0] == ALPHA11_L_CONTENT


def test_alpha11_norm_by_two_routes():
    S = exact_twist_component(TwistContext.build(11, 23), 2)
    assert conjugate_norm(S) == 23**ALPHA11_NORM_EXPONENT
    assert norm_l_power(S, 23) == (1, ALPHA11_NORM_EXPONENT)


def test_alpha11_minus_one_norm_valuation():
    S = exact_twist_component(TwistContext.build(11, 23), 2)
    N = conjugate_norm(S.minus_one())
    v = 0
    while N % 11 == 0:
        N //= 11
        v += 1
    assert v == ALPHA11_MINUS_ONE_NORM_PVAL
    with pytest.raises(ValueError, match="pure power"):
        norm_l_power(S.minus_one(), 23)


def test_norm_l_power_edge_cases():
    assert norm_l_power(CycBigInt(7, [1] + [0] * 5), 29) == (1, 0)
    assert norm_l_power(CycBigInt(7, [29] + [0] * 5), 29) == (1, 6)
    with pytest.raises(ValueError, match="no norm"):
        norm_l_power(CycBigInt(7, [0] * 6), 29)
    with pytest.raises(ValueError, match="pure power"):
        norm_l_power(CycBigInt(7, [2] + [0] * 5), 29)


def test_norm_agrees_with_conjugate_product_on_random_elements():
    rng = random.Random(23)
    for p, l in ((5, 11), (7, 29)):
        for _ in range(10):
            u = CycBigInt(p, [rng.randrange(-9, 10) for _ in range(p - 1)])
            want = conjugate_norm(u)
            if want == 0:
                continue
            sign = -1 if want < 0 else 1
            mag = abs(want)
            e = 0
            while mag % l == 0:
                mag //= l
                e += 1
            if mag == 1:
                assert norm_l_power(u, l) == (sign, e)
            else:
                with pytest.raises(ValueError):
                    norm_l_power(u, l)


def _split_prime_and_root(p):
    """Smallest prime l = 1 mod p and its smallest primitive root, by search."""
    l = next(l for l in range(p + 1, 10**6, p) if is_prime_naive(l))
    g = next(g for g in range(2, l) if len({pow(g, k, l) for k in range(l - 1)}) == l - 1)
    return l, g


def _division_loop(n, q):
    """(e, rest) with n = q**e * rest and q not dividing rest, one factor at a time."""
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e, n


def _plain_power(n, l):
    """(sign, e) with n = sign * l**e, or None."""
    e, rest = _division_loop(abs(n), l)
    return ((-1 if n < 0 else 1), e) if rest == 1 else None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 31, 37])
def test_norm_l_power_matches_the_naive_norm(p):
    # p - 1 runs over 2, 2^2, 2*3, 2*5, 2^2*3, 2^4, 2*3*5, 2^2*3^2
    rng = random.Random(p)
    l, g = _split_prime_and_root(p)
    zero = [0] * (p - 1)

    def unit():
        # -(1 + x + ... + x^(a-1)) = -(1 - x^a)/(1 - x) and x^k have norm 1
        a, k = rng.randrange(2, p), rng.randrange(p)
        cyclotomic = CycBigInt(p, [-1] * a + [0] * (p - a)).galois(rng.randrange(1, p))
        return cyclotomic.mul(CycBigInt(p, [0] * k + [1] + [0] * (p - 1 - k)))

    others = 0
    for _ in range(6):
        # J(chi^i, chi) has norm l**((p-1)/2)
        j = rng.randrange(3)
        u = CycBigInt(p, jacobi_charsum(p, l, g, rng.randrange(1, p - 1)))
        u = u.mul(unit()).mul(CycBigInt(p, [l**j] + zero[1:]))
        want = _plain_power(norm_naive(p, u.coeffs), l)
        assert want == (1, (p - 1) // 2 + j * (p - 1))
        assert norm_l_power(u, l) == want
    for trial in range(8):
        coeffs = [rng.randrange(-9, 10) for _ in range(p - 1)]
        if trial == 0:
            coeffs = [2 * l] + zero[1:]  # 2**(p-1) * l**(p-1)
        if not any(coeffs):
            continue
        want = _plain_power(norm_naive(p, coeffs), l)
        if want is None:
            with pytest.raises(ValueError, match=f"not a pure power of {l}"):
                norm_l_power(CycBigInt(p, coeffs), l)
            others += 1
        else:
            assert norm_l_power(CycBigInt(p, coeffs), l) == want
    assert others  # some random element has a norm that is not a power of l
    big = [l**200] + zero[1:]
    assert norm_naive(p, big) == l ** (200 * (p - 1))
    assert norm_l_power(CycBigInt(p, big), l) == (1, 200 * (p - 1))
    with pytest.raises(ValueError, match="no norm"):
        norm_l_power(CycBigInt(p, zero), l)


def test_norm_l_power_rejects_a_norm_that_is_not_rational(monkeypatch):
    # with every conjugate replaced by u itself the tower yields u**(p-1)
    monkeypatch.setattr(CycBigInt, "galois", lambda self, a: self)
    with pytest.raises(ArithmeticError, match="not a nonzero rational"):
        norm_l_power(CycBigInt(5, [1, 1, 0, 0]), 11)


def test_valuation_matches_the_division_loop():
    rng = random.Random(31)
    for q in (2, 3, 10, 37, 32783):
        for _ in range(20):
            v = rng.randrange(3001)
            m = rng.randrange(1, 1 << 64)
            while m % q == 0:
                m += 1
            n = rng.choice((1, -1)) * q**v * m
            assert _valuation(n, q) == _division_loop(n, q)[0] == v
    for n, q in ((0, 5), (7, 1)):
        with pytest.raises(ValueError, match="valuation"):
            _valuation(n, q)


@pytest.mark.parametrize("l", [149, 32783])
def test_norm37_reduced_exponent_is_l_independent(l):
    # the content-reduced component carries the same norm weight at every l
    S = exact_twist_component(TwistContext.build(37, l), 32)
    _, reduced = l_content(S, l)
    assert norm_l_power(reduced, l) == (1, NORM37_REDUCED_EXPONENT)


@pytest.mark.extended
def test_u1_sweep_n22():
    bound = 10000
    ls = split_primes(37, bound=bound)
    got = {l for l in ls if classify(TwistContext.build(37, l), 22).u == 1}
    assert got == {l for l in U1_N22 if l <= bound}


@pytest.mark.extended
def test_u1_sweep_n32_and_principal_subset():
    bound = 33000
    reports = {l: classify(TwistContext.build(37, l), 32) for l in split_primes(37, bound=bound)}
    assert {l for l, r in reports.items() if r.u == 1} == {l for l in U1_N32 if l <= bound}
    principal = {l for l, r in reports.items() if r.classification == "global"}
    assert principal == {l for l in U1_N32_PRINCIPAL if l <= bound}


@pytest.mark.parametrize("l", [149, 223])
def test_symbol_rows_for_p37_n32(l):
    v, u, flags = SYMBOL37[l]
    rep = classify(TwistContext.build(37, l), 32)
    assert (rep.v, rep.u) == (v, u)
    assert rep.s == 0 and not rep.local_at_p
    assert rep.classification == "non_local_at_l"
    assert rep.lines() == ["Sn NON local pth power at L"]
    assert flags == ("non_local_at_L",)


def _report(v, s, u):
    return SymbolReport(p=37, n=32, l=149, c=2, g=2, v=v, s=s, u=u)


def test_symbol_report_classifications():
    # (v, s, u) -> local at p, local at l, classification, verdict lines
    cases = [
        ((259, 0, 102), False, False, "non_local_at_l", ["Sn NON local pth power at L"]),
        ((259, 3, 1), True, True, "global",
         ["Sn local pth power at P", "Sn local pth power at L", "Sn GLOBAL pth power"]),
        ((259, None, 5), True, False, "local_at_p",
         ["Sn local pth power at P", "Sn NON local pth power at L"]),
        ((37 * 7, 0, 1), False, True, "local_at_l", ["Sn local pth power at L"]),
    ]
    for (v, s, u), at_p, at_l, cls, lines in cases:
        rep = _report(v, s, u)
        assert (rep.local_at_p, rep.local_at_l, rep.classification) == (at_p, at_l, cls)
        assert rep.lines() == lines
        assert rep.row() == [37, 32, 149, v, s, u, cls]
        assert json.loads(rep.to_json())["classification"] == cls
    # u = 1 with an l-content not divisible by p is not a local pth power at l
    assert _report(259 + 1, 3, 1).classification == "local_at_p"


def test_symbol_report_json_round_trip():
    rep = classify(TwistContext.build(37, 149), 32)
    back = SymbolReport.from_json(rep.to_json())
    assert back == rep
    assert json.loads(rep.to_json())["s"] == 0
    none_s = SymbolReport(p=11, n=2, l=23, c=2, g=5, v=15, s=None, u=4)
    assert json.loads(none_s.to_json())["s"] is None
    assert SymbolReport.from_json(none_s.to_json()) == none_s


def test_symbol_cache_round_trip(tmp_path):
    path = tmp_path / "symbols.jsonl"
    cache = SymbolCache(path)
    rep = classify(TwistContext.build(37, 149), 32)
    cache.put(rep)
    cache.put(rep)
    assert len(cache) == 1
    assert len(path.read_text().splitlines()) == 1
    again = SymbolCache(path)
    assert again.get(37, 32, 149, 2, 2) == rep
    assert again.get(37, 32, 223, 2, 3) is None


def test_classify_uses_the_context_generator():
    # the symbol depends on the root order, fixed by g; same g, same symbol
    ctx = TwistContext.build(11, 23)
    assert classify(ctx, 2) == classify(TwistContext.build(11, 23, c=ctx.c, g=ctx.g), 2)


# (p, l, n, c) fixed before the run, c None for the least primitive root:
# p = 5, 7, 11, 13 at their first 4 split primes with every even n, and
# (5, 281), (5, 691) where s = 2; p = 37 at the SYMBOL37 primes, 2221 and
# 22571 with n = 22 and 32; p = 41 (c = 6) and 43 (c = 3) at their first
# 3 split primes with n = 2, 12, 22, 32
PINNED = (
    [(p, l, n, None) for p in (5, 7, 11, 13) for l in split_primes(p, count=4)
     for n in range(2, p - 2, 2)]
    + [(5, 281, 2, None), (5, 691, 2, None)]
    + [(37, l, n, None) for l in (*sorted(SYMBOL37), 2221, 22571) for n in (22, 32)]
    + [(p, l, n, c) for p, c in ((41, 6), (43, 3)) for l in split_primes(p, count=3)
       for n in (2, 12, 22, 32)]
)


@functools.lru_cache(maxsize=None)
def _exact_route(p, l, n, c):
    """(v, s, u) from the exact component, its l-content and residue symbol."""
    ctx = TwistContext.build(p, l, c=c)
    S = exact_twist_component(ctx, n)
    v, reduced = l_content(S, l)
    return v, min_p_valuation(S.minus_one(), p), residue_symbol(reduced, l, ctx.g)


def _vsu(p, l, n, c):
    rep = classify(TwistContext.build(p, l, c=c), n)
    return rep.v, rep.s, rep.u


@pytest.mark.parametrize("p,l,n,c", PINNED)
def test_classify_matches_the_exact_route(p, l, n, c, monkeypatch):
    want = _exact_route(p, l, n, c)

    def exact_route(*args):
        raise AssertionError("classify ran the exact route")

    for name in ("exact_twist_component", "l_content", "min_p_valuation", "residue_symbol"):
        monkeypatch.setattr(residue_symbols, name, exact_route)
    assert _vsu(p, l, n, c) == want


@pytest.mark.parametrize("p,l,n,c", PINNED)
def test_classify_builds_s_n_mod_p_k_only_for_n_in_the_exponent_set(p, l, n, c, monkeypatch):
    s = _exact_route(p, l, n, c)[1]
    calls = []
    component_mod = residue_symbols._component_mod

    def recorded(ctx, e, q):
        calls.append(q)
        if s == 0:
            raise AssertionError("classify built S_n mod p**K where s = 0")
        return component_mod(ctx, e, q)

    monkeypatch.setattr(residue_symbols, "_component_mod", recorded)
    assert classify(TwistContext.build(p, l, c=c), n).s == s
    assert calls[:1] == ([] if s == 0 else [p**2])


def test_s_is_positive_exactly_for_n_in_the_exponent_set():
    # s >= 1 means S_n = 1 mod p, and S_n mod p is the square of the
    # half-range component, which is 1 exactly for n in the set
    sets = {}
    for p, l, n, c in PINNED:
        if (p, l, c) not in sets:
            sets[p, l, c] = exponent_set(TwistContext.build(p, l, c=c))
        assert (_exact_route(p, l, n, c)[1] != 0) == (n in sets[p, l, c]), (p, l, n, c)
    assert 0 < sum(map(len, sets.values())) < len(PINNED)


def test_the_pinned_pairs_reach_every_branch():
    reports = [classify(TwistContext.build(p, l, c=c), n) for p, l, n, c in PINNED]
    assert {r.v % r.p == 0 for r in reports} == {True, False}
    assert {min(r.s, 2) for r in reports} == {0, 1, 2}  # s = 2 needs K = 4
    assert any(r.u == 1 and r.v % r.p == 0 for r in reports)
    assert any(r.u == 1 and r.v % r.p for r in reports)  # (37, 2221) at n = 22
    assert any(r.c > 2 for r in reports)


def test_the_pin_catches_a_unit_read_mod_l_alone(monkeypatch):
    # a factor that l divides enters classify as V_i(-b)**-e_a, its unit
    # 1/V_i(-b) mod l; the mutant drops every negative power, so it reads
    # such a factor off V mod l alone, as 1.  The exact route inverts mod q
    # too, so it runs first
    want = {case: _exact_route(*case) for case in PINNED}
    monkeypatch.setattr(residue_symbols, "pow", lambda x, y, m: 1 if y < 0 else pow(x, y, m),
                        raising=False)
    wrong = [case for case in PINNED if _vsu(*case) != want[case]]
    assert len(wrong) > len(PINNED) // 2
    assert all(_vsu(*case)[:2] == want[case][:2] for case in wrong)


@pytest.mark.parametrize("p,l,n,c", [(5, 281, 2, None), (11, 23, 2, None), (41, 83, 12, 6)])
def test_component_mod_matches_the_exact_component(p, l, n, c):
    ctx = TwistContext.build(p, l, c=c)
    S = exact_twist_component(ctx, n).coeffs
    e = [pow(a, n - 1, p) for a in range(1, p)]
    for q in (p**2, p**3, p**40):
        got = residue_symbols._component_mod(ctx, e, q)
        assert got.dtype == (object if p * q * q >= 1 << 63 else np.int64)
        assert got.tolist() == [x % q for x in S], q


def test_s_raises_once_p_to_the_k_passes_the_height_bound(monkeypatch):
    # S_n = 1 would leave every p**K dividing S_n - 1; at (11, 23, n = 2) the
    # height is 55, and 11**K > 4 * 23**(55/2) from K = 37 on
    calls = []

    def one(ctx, e, q):
        calls.append(q)
        return np.array([1] + [0] * (ctx.p - 2), dtype=object)

    monkeypatch.setattr(residue_symbols, "_component_mod", one)
    assert 2 in exponent_set(TwistContext.build(11, 23))  # else s = 0 with no product
    with pytest.raises(ArithmeticError, match=r"p\*\*64 divides S_n - 1 .* past its height bound"):
        classify(TwistContext.build(11, 23), 2)
    assert calls == [11**K for K in (2, 4, 8, 16, 32, 64)]


def test_a_shifted_count_fails_the_self_check(monkeypatch, capsys):
    # one count of J_1 moves from x to x**2; the counts still sum to l - 2
    counts = jacobi._counts

    def shifted(ctx, indices):
        t = counts(ctx, indices).copy()
        if 1 in indices:
            t[list(indices).index(1), 1:3] += [-1, 1]
        t.setflags(write=False)
        return t

    monkeypatch.setattr(jacobi, "_counts", shifted)
    with pytest.raises(ArithmeticError, match="breaks a derivation relation"):
        classify(TwistContext.build(37, 149), 32)
    rc = main(["symbol", "--p", "37", "--n", "32", "--l", "149"])
    out = capsys.readouterr()
    assert rc == 5 and out.out == ""
    assert "breaks a derivation relation" in out.err


@pytest.mark.parametrize("p,l,n", [(37, 149, 32), (43, 173, 12)])
def test_a_factorial_fault_raises_or_leaves_the_report(p, l, n):
    # F[k] -> F[k] + 1 for each k: classify reads v and u off F, and the
    # self-checks read the counts built from the same F, so a fault trips
    # the count sum or a derivation relation, or leaves the report as it was
    ctx = TwistContext.build(p, l)
    want = classify(ctx, n)
    raised = 0
    for k in range(len(ctx.factorials)):
        F = ctx.factorials.copy()
        F[k] += 1
        F.setflags(write=False)
        try:
            got = classify(dataclasses.replace(ctx, factorials=F), n)
        except ArithmeticError:
            raised += 1
        else:
            assert got == want, k
    assert raised > len(ctx.factorials) // 2


@pytest.mark.parametrize("p,c,n,v", [(37, 2, 32, 259), (41, 6, 12, 1792)])
def test_v_depends_only_on_p_c_and_n(p, c, n, v):
    # V_i(b) = 0 exactly when -i*b mod p > b, whatever l is
    reports = [classify(TwistContext.build(p, l), n) for l in split_primes(p, count=10)]
    assert {(r.c, r.v) for r in reports} == {(c, v)}


def test_s_of_0_for_n_in_the_exponent_set_fails_the_self_check(monkeypatch, capsys):
    # at (37, 32783) the set holds 32, and s = 1
    ctx = TwistContext.build(37, 32783)
    assert 32 in exponent_set(ctx)
    monkeypatch.setattr(residue_symbols, "_s_valuation", lambda ctx, e: 0)
    with pytest.raises(ArithmeticError, match=r"^S_n mod p at \(p, l, c, g\) = \(37, 32783, 2, 7\) "
                                              r"contradicts the exponent set, which holds n=32$"):
        classify(ctx, 32)
    rc = main(["symbol", "--p", "37", "--n", "32", "--l", "32783"])
    out = capsys.readouterr()
    assert rc == 5 and out.out == ""
    assert "contradicts the exponent set" in out.err


def test_symbol_large_p_rows_skip_s_n_mod_p_k(monkeypatch, capsys):
    def no_product(*args):
        raise AssertionError("classify built S_n mod p**K")

    monkeypatch.setattr(residue_symbols, "_component_mod", no_product)
    for (p, l, n), (v, u, flags) in SYMBOL_LARGE_P.items():
        args = ["symbol", "--p", str(p), "--n", str(n), "--l", str(l)]
        assert main(args) == 0
        want = [f"p={p} n={n}", f"p={p} el={l} v={v} u={u}", *(SYMBOL_LINES[f] for f in flags)]
        assert capsys.readouterr().out.splitlines() == want
        assert main(args + ["--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["v"], got["s"], got["u"]) == (v, 0, u)


def test_symbol157_n60_sweep(capsys):
    rc = main(["symbol", "--p", "157", "--n", "60", "--l-max", "20000"])
    want = ["p=157 n=60"]
    for l, (v, u, flags) in sorted(SYMBOL157_N60.items()):
        want += [f"p=157 el={l} v={v} u={u}", *(SYMBOL_LINES[f] for f in flags)]
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == want
