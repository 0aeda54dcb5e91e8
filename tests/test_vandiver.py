"""Criterion verdicts, scans, caching, density tables."""

import json

import pytest

from primarity import jacobi, vandiver
from primarity.cli import main
from primarity.jacobi import ExponentSet, exponent_set_for
from primarity.modarith import is_prime, split_primes
from primarity.vandiver import (
    CriterionVerdict,
    DensityTable,
    ScanCache,
    ScanRecord,
    criterion_a,
    criterion_b,
    density_scan,
    minimal_empty_l,
    scan_pairs,
)

from _goldens import (
    DENSITY157_CHECKPOINTS,
    FIRST_SPLIT,
    IRREGULAR_HITS37,
    MINIMAL_L,
    NONEMPTY37,
    NONEMPTY37_BOUND,
)


def test_criterion_a_regular_prime():
    v = criterion_a(13)
    assert v.holds and v.regular
    assert v.witnesses == (53,)
    assert v.intersection.is_empty()
    assert v.render() == "p=13 mode=a l=53 expp={} e0={} inter={} status=established (regular prime)"


def test_criterion_a_irregular_prime_disjoint():
    v = criterion_a(37, l=149)
    assert v.holds and not v.regular
    assert v.exponents.is_empty()
    assert v.irregular.members == (32,)
    assert v.render() == "p=37 mode=a l=149 expp={} e0={32} inter={} status=established"


def test_criterion_a_can_fail_for_one_pair():
    # E_32783(37) = {32}, exactly the irregular exponent of 37
    v = criterion_a(37, l=32783)
    assert not v.holds
    assert 32 in v.intersection
    assert v.status() == "not established"
    assert json.loads(v.to_json()) == {
        "p": 37, "mode": "a", "holds": False, "steps": 1,
        "witnesses": [32783], "intersection": [32],
        "regular": False, "undetermined": False,
    }


def test_failing_criterion_a_exits_3(capsys):
    assert main(["vandiver", "--p", "37", "--mode", "a", "--l", "32783"]) == 3
    out, err = capsys.readouterr()
    assert out == "p=37 mode=a l=32783 expp={32} e0={32} inter={32} status=not established\n"
    assert err == ""


def test_criterion_a_picks_first_split_prime():
    for p in (5, 7, 11, 37, 53):
        assert criterion_a(p).witnesses == (FIRST_SPLIT[p][0],)


def test_criterion_b_stops_at_first_empty_intersection():
    v = criterion_b(11, max_steps=8)
    assert v.holds
    assert v.steps == 2
    assert v.witnesses == (23, 67)
    assert v.render() == "p=11 mode=b N=2 witnesses=23,67 inter={} status=established"


def test_criterion_b_single_empty_set_certifies():
    v = criterion_b(37, max_steps=8)
    assert v.holds and v.steps == 1 and v.witnesses == (149,)


def test_criterion_b_can_terminate_before_the_first_empty_set():
    # E_1571(157) = {94} and the next split prime misses 94, so the running
    # intersection dies at N=2 even though the first empty set sits at N=5
    v = criterion_b(157, max_steps=8)
    assert v.holds and v.steps == 2
    assert v.witnesses[0] == 1571
    assert v.steps < MINIMAL_L[157][1]


def test_criterion_b_undetermined_at_exhaustion():
    v = criterion_b(157, max_steps=1)
    assert not v.holds
    assert v.undetermined
    assert v.steps == 1
    assert v.intersection.members == (94,)
    assert v.status() == "not established"


def test_criterion_b_rejects_bad_budget_and_empty_stream():
    with pytest.raises(ValueError):
        criterion_b(11, max_steps=0)
    with pytest.raises(ValueError, match="no split primes"):
        criterion_b(11, stream=iter(()))


def test_verdict_invariants():
    with pytest.raises(ValueError, match="without witnesses"):
        CriterionVerdict(p=11, mode="b", witnesses=(), intersection=ExponentSet(11, ()))


def test_verdict_json_shape():
    v = criterion_b(11, max_steps=8)
    assert json.loads(v.to_json()) == {
        "p": 11, "mode": "b", "holds": True, "steps": 2,
        "witnesses": [23, 67], "intersection": [],
        "regular": False, "undetermined": False,
    }


@pytest.mark.parametrize("p", [11, 29, 43, 53])
def test_minimal_empty_l_small(p):
    assert minimal_empty_l(p, bound=MINIMAL_L[p][0]) == MINIMAL_L[p]


@pytest.mark.parametrize("p", [5, 7, 13, 37])
def test_minimal_empty_l_first_prime_suffices(p):
    assert minimal_empty_l(p, bound=FIRST_SPLIT[p][0]) == (FIRST_SPLIT[p][0], 1)


def test_minimal_empty_l_respects_bound():
    l, n = MINIMAL_L[29]
    assert minimal_empty_l(29, bound=l - 1) is None
    assert minimal_empty_l(29, bound=l) == (l, n)


def test_scan_pairs_matches_direct_computation():
    recs = list(scan_pairs(37, [149, 223, 1259]))
    assert [r.l for r in recs] == [149, 223, 1259]
    assert [r.g for r in recs] == [2, 3, 2]
    for r in recs:
        assert r.expp == exponent_set_for(37, r.l).members
        assert r.c == 2
        assert r.ms >= 0


def test_scan_pairs_jobs_do_not_change_results():
    ls = [23, 67, 89, 199, 331, 353, 419, 463, 617, 661]
    seq = [(r.l, r.expp) for r in scan_pairs(11, ls)]
    par = [(r.l, r.expp) for r in scan_pairs(11, ls, jobs=3)]
    assert seq == par


def test_scan_cache_round_trip(tmp_path):
    path = tmp_path / "scan.jsonl"
    cache = ScanCache(path)
    recs = list(scan_pairs(11, [23, 67, 89], cache=cache))
    assert len(cache) == 3
    # a fresh cache object replays the same records, ms included
    again = list(scan_pairs(11, [23, 67, 89], cache=ScanCache(path)))
    assert again == recs


def test_scan_cache_put_is_idempotent(tmp_path):
    path = tmp_path / "scan.jsonl"
    cache = ScanCache(path)
    rec = ScanRecord(p=11, l=23, c=2, g=5, expp=(2,), ms=7)
    cache.put(rec)
    cache.put(ScanRecord(p=11, l=23, c=2, g=5, expp=(2,), ms=99))
    assert cache.get(11, 23, 2, 5).ms == 7
    assert len(path.read_text().splitlines()) == 1


def test_scan_record_json_round_trip():
    rec = ScanRecord(p=37, l=1481, c=2, g=3, expp=(10, 34), ms=12)
    assert ScanRecord.from_json(rec.to_json()) == rec
    assert rec.exponent_set().members == (10, 34)


def test_density_scan_matches_manual_fold():
    ls = [149, 223, 593, 1259, 1481, 1777, 1999, 2221, 2591, 2887, 3109, 3257]
    table = density_scan(37, count=12)
    counts = [0] * 17
    for l in ls:
        for n in exponent_set_for(37, l):
            counts[n // 2 - 1] += 1
    assert table.processed == 12
    assert table.hits == sum(counts) == 2
    assert table.counts == tuple(counts)
    assert table.last_l == 3257


def test_density_scan_bound_equals_count_form():
    by_count = density_scan(37, count=12)
    by_bound = density_scan(37, bound=3257)
    assert by_count == by_bound
    with pytest.raises(ValueError):
        density_scan(37)


def test_density_scan_on_hit_events():
    events = []
    density_scan(37, count=12, on_hit=lambda *a: events.append(a))
    assert [(e[0], e[1], e[2]) for e in events] == [(5, 1, 1481), (9, 2, 2591)]
    # E_1481 = {30}: singleton snapshot with the lone count at n = 30
    assert events[0][3][14] == 1 and sum(events[0][3]) == 1
    # bookkeeping identity: the hit tally always equals the slot total
    assert all(e[1] == sum(e[3]) for e in events)


def test_density_table_accessors():
    table = DensityTable(p=37, counts=tuple(range(17)), processed=9, last_l=149)
    assert table.hits == sum(range(17))
    assert table.render_vector() == "[" + ",".join(str(v) for v in range(17)) + "]"


@pytest.mark.long
def test_nonempty_sets_p37_up_to_bound():
    # every split prime below the bound, keyed by whether E_l is nonempty
    got = {}
    for rec in scan_pairs(37, split_primes(37, bound=NONEMPTY37_BOUND), jobs=8):
        if rec.expp:
            got[rec.l] = set(rec.expp)
    assert got == {l: set(e) for l, e in NONEMPTY37.items()}


@pytest.mark.long
def test_irregular_exponent_hits_p37():
    # the rare l whose exponent set contains the irregular exponent 32
    for l, want in sorted(IRREGULAR_HITS37.items()):
        es = exponent_set_for(37, l)
        assert 32 in es
        assert set(es.members) == want, l


@pytest.mark.long
def test_density157_checkpoints():
    checkpoints = {(nel, npp, l): tuple(vec) for nel, npp, l, vec in DENSITY157_CHECKPOINTS}
    seen = {}

    def on_hit(processed, hits, l, counts):
        key = (processed, hits, l)
        if key in checkpoints:
            seen[key] = counts

    count = max(nel for nel, _, _, _ in DENSITY157_CHECKPOINTS)
    table = density_scan(157, count=count, jobs=8, on_hit=on_hit)
    assert seen == checkpoints
    # the n=116 slot fills for the first time on the very last hit
    assert table.counts[57] == 1


# the 56 irregular primes between 200 and 1000 (OEIS A000928 has 64 below
# 1000, 8 of them below 200)
IRREGULAR_200_1000 = [
    233, 257, 263, 271, 283, 293, 307, 311, 347, 353, 379, 389, 401, 409,
    421, 433, 461, 463, 467, 491, 523, 541, 547, 557, 577, 587, 593, 607,
    613, 617, 619, 631, 647, 653, 659, 673, 677, 683, 691, 727, 751, 757,
    761, 773, 797, 809, 811, 821, 827, 839, 877, 881, 887, 929, 953, 971,
]


@pytest.mark.extended
def test_criteria_hold_for_every_prime_from_211_to_997(tmp_path):
    # Vandiver's conjecture is verified for all p < 2**31 (Hart, Harvey and
    # Ong, 2017), so an undetermined p here is a bug; criterion (a) replays
    # the first pair criterion (b) stored
    cache = ScanCache(tmp_path / "scan.jsonl")
    irregular = []
    for p in (q for q in range(200, 1000) if is_prime(q)):
        assert criterion_b(p, cache=cache).holds, p
        verdict = criterion_a(p, cache=cache)
        assert verdict.holds, p
        if not verdict.regular:
            irregular.append(p)
    assert irregular == IRREGULAR_200_1000


def _count_sets(monkeypatch):
    """The (p, l) of every exponent set vandiver computes from now on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return exponent_set_for(*args, **kwargs)

    monkeypatch.setattr(vandiver, "exponent_set_for", counted)
    return calls


@pytest.mark.parametrize("p", [11, 37])
def test_criterion_b_computes_only_the_sets_it_uses(monkeypatch, p):
    calls = _count_sets(monkeypatch)
    verdict = criterion_b(p)
    assert verdict.holds
    assert calls == [(p, l) for l in verdict.witnesses]


@pytest.mark.parametrize("cmd", [["vandiver", "--mode", "a"], ["expp"]])
def test_a_bad_l_is_rejected_before_its_primitive_root(monkeypatch, capsys, cmd):
    # primitive_root would trial-divide l - 1 = 2 * (a prime near 10**15)
    def refuse(q):
        raise AssertionError(f"primitive_root({q}) was called")

    monkeypatch.setattr(jacobi, "primitive_root", refuse)
    assert main([*cmd, "--p", "37", "--c", "2", "--l", "2000000000000075"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: l=2000000000000075 is not prime\n"


def test_warm_criterion_a_resume_computes_no_exponent_set(tmp_path, monkeypatch, capsys):
    argv = ["vandiver", "--p", "37", "--p-max", "67", "--mode", "a",
            "--cache-dir", str(tmp_path)]
    primes = [p for p in range(37, 68) if is_prime(p)]
    calls = _count_sets(monkeypatch)
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert calls == [(p, FIRST_SPLIT[p][0]) for p in primes]
    assert len((tmp_path / "scan.jsonl").read_text().splitlines()) == len(primes)
    calls.clear()
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == cold
    assert calls == []


def test_criterion_b_then_a_computes_the_first_split_pair_once(tmp_path, monkeypatch, capsys):
    assert main(["vandiver", "--p", "37", "--mode", "a"]) == 0
    uncached = capsys.readouterr().out
    calls = _count_sets(monkeypatch)
    cache = ["--cache-dir", str(tmp_path)]
    assert main(["vandiver", "--p", "37", "--mode", "b", *cache]) == 0
    capsys.readouterr()
    assert calls[0] == (37, FIRST_SPLIT[37][0])
    used = list(calls)
    assert main(["vandiver", "--p", "37", "--mode", "a", *cache, "--resume"]) == 0
    assert capsys.readouterr().out == uncached
    assert calls == used
