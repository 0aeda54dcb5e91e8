"""Rank accumulation, universal relations, trace polynomials."""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from primarity import spectra
from primarity.cycring import CycModP
from primarity.jacobi import TwistContext, twist_product
from primarity.modarith import split_primes
from primarity.spectra import (
    RankAccumulator,
    TraceCatalog,
    TracePolynomial,
    distinct_trace_count,
    heuristic_probability,
    rank_scan,
    residue_degree,
    trace_polynomial,
    trace_stream,
)

from _goldens import (
    CONJUGATE_RANK37,
    DENSITY37_FINAL,
    DENSITY157_CHECKPOINTS,
    HEURISTIC_RATIO,
    IRREGULAR_EXPONENTS,
    RANK_MILESTONES,
    RANK_MILESTONES_LARGE,
    TRACE3_CATALOG,
    TRACE5_TAIL,
    TRACE7,
)
from oracles import (
    conjugate_rank_naive,
    derivation_check,
    heuristic_probability_exact,
    rank_naive,
    residue_degree_naive,
)


def test_rank_accumulator_basics():
    acc = RankAccumulator(5)
    assert acc.rank == 0
    assert acc.add([1, 0, 0, 0], label=11)
    assert acc.add([1, 1, 0, 0])
    assert not acc.add([2, 1, 0, 0], label=31)
    assert not acc.add([0, 0, 0, 0])
    assert acc.rank == 2
    assert acc.history == [(11, 1), (31, 2)]
    with pytest.raises(ValueError, match="width"):
        acc.add([1, 2, 3])


def test_rank_accumulator_is_span_membership():
    rng = random.Random(7)
    p = 13
    acc = RankAccumulator(p)
    rows = []
    for _ in range(6):
        v = [rng.randrange(p) for _ in range(p - 1)]
        if acc.add(v):
            rows.append(v)
    # any random combination of accepted rows must now be dependent
    for _ in range(10):
        combo = [0] * (p - 1)
        for v in rows:
            c = rng.randrange(p)
            combo = [(x + c * y) % p for x, y in zip(combo, v)]
        assert not acc.add(combo)


@pytest.mark.parametrize("p,dim", [(5, 4), (13, 12), (13, 7), (151, 40), (151, 150)])
def test_rank_accumulator_matches_naive_elimination(p, dim):
    # random vectors of a dim-dimensional span, with planted dependent
    # combinations, scaled copies and zero vectors between them
    rng = random.Random(p * 1000 + dim)
    gens = np.array([[rng.randrange(p) for _ in range(p - 1)] for _ in range(dim)])
    rows = []
    for _ in range(dim + dim // 4):
        rows.append((np.array([rng.randrange(p) for _ in range(dim)]) @ gens % p).tolist())
        pick = [rows[-1]] + rng.sample(rows, min(2, len(rows)))  # the newest row at once
        cs = [rng.randrange(p) for _ in pick]
        rows.append([sum(c * u[k] for c, u in zip(cs, pick)) % p for k in range(p - 1)])
        if rng.random() < 0.2:
            a = rng.randrange(1, p)
            rows.append([a * x for x in rng.choice(rows)])
        if rng.random() < 0.1:
            rows.append([0] * (p - 1))
    acc = RankAccumulator(p)
    fresh = [acc.add(v, label=n) for n, v in enumerate(rows)]
    ranks = rank_naive(p, rows)
    assert acc.history == list(enumerate(ranks))
    assert fresh == [r > q for q, r in zip([0] + ranks, ranks)]
    assert acc.rank == ranks[-1] == dim
    assert acc.basis.shape == (acc.rank, p - 1)
    assert (acc.basis[:, acc.pivots] == np.eye(acc.rank, dtype=np.int64)).all()
    assert ((0 <= acc.basis) & (acc.basis < p)).all()


def test_rank_accumulator_refuses_p_from_2_to_the_21():
    # one product sums up to rank * (p-1)**2 < p**3, inside int64 below 2**21;
    # 2097143 is the greatest prime below 2**21 and 2097169 the least above
    assert RankAccumulator(2097143).rank == 0
    with pytest.raises(ValueError, match="2\\*\\*21"):
        RankAccumulator(2097169)


def test_derivation_check_on_twist_products():
    for p, l in ((7, 29), (11, 23), (13, 53), (37, 149), (37, 2591)):
        J = twist_product(TwistContext.build(p, l))
        assert derivation_check(p, J), (p, l)


def test_derivation_check_rejects_perturbations():
    p = 11
    J = twist_product(TwistContext.build(p, 23))
    bad = J.coeffs.copy()
    bad[1] += 1
    assert not derivation_check(p, CycModP(p, bad))


@pytest.mark.parametrize("p", [7, 11, 13])
def test_rank_scan_milestones(p):
    reached, l_p, history = rank_scan(p)
    assert reached
    assert l_p == RANK_MILESTONES[p]
    assert history[-1] == (l_p, p - 4)
    ranks = [r for _, r in history]
    assert all(b - a in (0, 1) for a, b in zip(ranks, ranks[1:]))


def test_rank_scan_respects_explicit_target_and_stream():
    # the target is rank p-4 = 7, which two vectors cannot reach
    reached, l_p, history = rank_scan(11, stream=[23, 67])
    assert not reached and l_p is None
    assert len(history) == 2


@pytest.mark.parametrize("l,want", sorted(CONJUGATE_RANK37.items()))
def test_conjugate_rank_p37(l, want):
    J = twist_product(TwistContext.build(37, l)).coeffs
    assert conjugate_rank_naive(37, J.tolist()) == want


@pytest.mark.long
@pytest.mark.parametrize("p,want", sorted(RANK_MILESTONES_LARGE.items()))
def test_rank_scan_milestones_large(p, want):
    reached, l_p, history = rank_scan(p)
    assert reached
    assert l_p == want
    assert history[-1] == (want, p - 4)


@pytest.mark.parametrize("l,row", sorted(TRACE7.items()))
def test_trace7_both_routes(l, row):
    f, rendered = row
    dense = trace_polynomial(7, l, method="dense")
    fast = trace_polynomial(7, l, method="fast")
    assert dense == fast
    assert dense.residue_degree == f
    assert dense.render() == rendered


def test_trace_routes_agree_on_random_split_primes():
    rng = random.Random(17)
    for p in (3, 5, 7):
        ls = list(split_primes(p, count=40))
        for l in ls[:3] + rng.sample(ls, 6):
            assert trace_polynomial(p, l, "dense") == trace_polynomial(p, l, "fast")
    for l in split_primes(11, count=4):
        assert trace_polynomial(11, l, "dense") == trace_polynomial(11, l, "fast")
    with pytest.raises(ValueError, match="unknown method"):
        trace_polynomial(3, 7, method="exact")


@pytest.mark.parametrize("method", ["dense", "fast"])
def test_trace_polynomial_validates_the_pair(method):
    with pytest.raises(ValueError, match="p=9 is not an odd prime"):
        trace_polynomial(9, 19, method)
    with pytest.raises(ValueError, match="l=13 does not split"):
        trace_polynomial(5, 13, method)
    with pytest.raises(ValueError, match="l=15 is not prime"):
        trace_polynomial(5, 15, method)


def test_trace_at_the_log_table_cap_stays_small():
    # the largest split prime of 5 below 2**26, the CI row of trace --p 5 --l;
    # an array of half its residues would take 33 MB
    tracemalloc.start()
    try:
        tp = trace_polynomial(5, 67108721)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tp.row() == [67108721, 5, "x^5 + x^4 + 2*x^3 + 3*x^2 + x + 3"]
    assert peak < 2e6, peak


def test_trace3_catalog():
    count, firsts = distinct_trace_count(3, bound=75)
    assert count == len(TRACE3_CATALOG) == 6
    got = [(tp.l, tp.residue_degree, tp.render()) for tp in firsts]
    assert got == TRACE3_CATALOG


def test_distinct_count_p7_large_bound():
    # the catalog at this bound tallies exactly 250 distinct polynomials
    count, _ = distinct_trace_count(7, bound=17977)
    assert count == 250


@pytest.mark.parametrize("l,row", sorted(TRACE5_TAIL.items()))
def test_trace5_tail_has_split_residue_degree(l, row):
    f, rendered = row
    tp = trace_polynomial(5, l, method="fast")
    assert tp.residue_degree == f == 1
    assert tp.render() == rendered


def test_residue_degree_values():
    assert residue_degree(7, 29) == 7
    assert residue_degree(7, 43) == 1
    assert residue_degree(3, 61) == 1
    assert residue_degree(3, 7) == 3
    assert residue_degree(5, 13451) == 1


def test_residue_degree_matches_the_order_search():
    for p in (3, 5, 7, 11, 13):
        for l in split_primes(p, bound=20000):
            assert residue_degree(p, l) == residue_degree_naive(p, l), (p, l)


def test_trace_polynomial_validation():
    with pytest.raises(ValueError, match="coefficients"):
        TracePolynomial(p=7, l=29, coeffs=(1, 2, 3), residue_degree=7)
    with pytest.raises(ValueError, match="reduced"):
        TracePolynomial(p=3, l=7, coeffs=(2, 1, 4, 1), residue_degree=3)
    with pytest.raises(ValueError, match="x\\^p \\+ x\\^\\(p-1\\)"):
        TracePolynomial(p=3, l=7, coeffs=(2, 1, 0, 1), residue_degree=3)


def test_trace_polynomial_json_round_trip():
    tp = trace_polynomial(7, 29)
    back = TracePolynomial.from_json(tp.to_json())
    assert back == tp
    assert json.loads(tp.to_json()) == {
        "p": 7, "l": 29, "f": 7, "R": list(tp.coeffs),
    }


def test_trace_catalog_replays_without_recomputation(tmp_path):
    path = tmp_path / "trace.jsonl"
    cat = TraceCatalog(path)
    first = list(trace_stream(3, [7, 13, 19], cache=cat))
    again = list(trace_stream(3, [7, 13, 19], cache=TraceCatalog(path)))
    assert first == again
    assert len(TraceCatalog(path)) == 3


@pytest.mark.parametrize("at", [3, 70])  # inside the first chunk of 64 and the second
@pytest.mark.parametrize("bad,message", [
    (25, "l=25 is not prime"),
    (13, "l=13 does not split: l % p = 3"),
    (67108961, "modulus 67108961 exceeds the log-table cap"),  # the least split prime past it
])
def test_trace_stream_yields_the_records_before_a_refused_l(tmp_path, at, bad, message):
    ls = list(split_primes(5, count=at + 3))
    cold = list(trace_stream(5, ls))
    path = tmp_path / "trace.jsonl"
    stream = trace_stream(5, [*ls[:at], bad, *ls[at:]], cache=TraceCatalog(path))
    assert [next(stream) for _ in range(at)] == cold[:at]
    with pytest.raises(ValueError, match=message):
        next(stream)
    assert path.read_text() == "".join(tp.to_json() + "\n" for tp in cold[:at])


def test_trace_stream_computes_only_the_keys_a_chunk_misses(tmp_path, monkeypatch):
    # every other key of two chunks is cached: each chunk computes the rest in one batch
    ls = list(split_primes(5, count=100))
    cold = list(trace_stream(5, ls))
    path = tmp_path / "trace.jsonl"
    list(trace_stream(5, ls[::2], cache=TraceCatalog(path)))
    batches = []
    real = spectra._cyclotomic_numbers
    monkeypatch.setattr(spectra, "_cyclotomic_numbers",
                        lambda p, chunk: batches.append(list(chunk)) or real(p, chunk))
    assert list(trace_stream(5, ls, cache=TraceCatalog(path))) == cold
    assert batches == [ls[1:64:2], ls[65::2]]
    stored = sorted(path.read_text().splitlines())
    assert stored == sorted(tp.to_json() for tp in cold)


def test_heuristic_probability_against_exact_oracle():
    for p in (5, 7, 11, 37, 101, 157):
        exact = float(heuristic_probability_exact(p))
        assert heuristic_probability(p) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("p,want", sorted(HEURISTIC_RATIO.items()))
def test_heuristic_probability_reference_values(p, want):
    # the sum sits near 1/(2p); the normalized ratio 2p * value drifts up
    assert round(2 * p * heuristic_probability(p), 4) == want


@pytest.mark.parametrize("p,row", [(37, DENSITY37_FINAL), (157, DENSITY157_CHECKPOINTS[-1])])
def test_density_goldens_fit_the_binomial_model(p, row):
    # the paper's model: each even n in [2, p-3] joins the exponent set of a
    # split prime with chance 1/p, so over N primes its count is binomial
    # with mean N/p.  A counterexample to Vandiver's conjecture at an
    # irregular n would put n in every set, a count of N.  The 4 sigma band
    # is fixed in advance; the goldens reach |z| = 1.22 at 37 and 3.16 at 157
    N, hits, _, counts = row
    assert len(counts) == (p - 3) // 2 and hits == sum(counts)
    mean, sigma = N / p, math.sqrt(N / p * (1 - 1 / p))
    for n, count in zip(range(2, p - 2, 2), counts):
        assert abs(count - mean) <= 4 * sigma, (p, n, count)
    assert abs(hits - len(counts) * mean) <= 4 * sigma * math.sqrt(len(counts))
    for n in IRREGULAR_EXPONENTS[p]:
        count = counts[n // 2 - 1]
        assert abs(count - mean) <= 4 * sigma < N - count, (p, n, count)
