"""Command line surface: formats, precedence, caches, exit codes."""

import json
import multiprocessing
import re

import pytest

from primarity import jacobi, records
from primarity.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_expp_text_with_and_without_hits(capsys):
    rc, out, _ = run(capsys, "expp", "--p", "53", "--l", "107")
    assert rc == 0
    assert out == "p=53 el=107 c=2 g=2 expp:10,34\n"
    rc, out, _ = run(capsys, "expp", "--p", "13", "--l", "53")
    assert rc == 0
    assert out == "p=13 el=53 c=2 g=2\n"


def test_expp_json_and_csv(capsys):
    rc, out, _ = run(capsys, "expp", "--p", "53", "--l", "107", "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert {k: rec[k] for k in ("p", "l", "c", "g", "expp")} == {
        "p": 53, "l": 107, "c": 2, "g": 2, "expp": [10, 34],
    }
    rc, out, _ = run(capsys, "expp", "--p", "53", "--l", "107", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "p,l,c,g,expp,ms"
    assert lines[1].startswith("53,107,2,2,\"10,34\",")


def test_expp_defaults_to_first_split_prime(capsys):
    rc, out, _ = run(capsys, "expp", "--p", "37")
    assert rc == 0
    assert out == "p=37 el=149 c=2 g=2\n"


def test_expp_p_range(capsys):
    rc, out, _ = run(capsys, "expp", "--p", "5", "--p-max", "13", "--count", "1")
    assert rc == 0
    assert [line.split()[0] for line in out.splitlines()] == ["p=5", "p=7", "p=11", "p=13"]


def test_vandiver_text_modes(capsys):
    rc, out, _ = run(capsys, "vandiver", "--p", "13", "--mode", "a")
    assert rc == 0
    assert out == "p=13 mode=a l=53 expp={} e0={} inter={} status=established (regular prime)\n"
    rc, out, _ = run(capsys, "vandiver", "--p", "37")
    assert rc == 0
    assert out == "p=37 mode=b N=1 witnesses=149 inter={} status=established\n"


def test_vandiver_undetermined_exit_code(capsys):
    rc, out, _ = run(capsys, "vandiver", "--p", "157", "--count", "1")
    assert rc == 3
    assert out == "p=157 mode=b N=1 witnesses=1571 inter={94} status=not established\n"


def test_vandiver_json(capsys):
    rc, out, _ = run(capsys, "vandiver", "--p", "13", "--mode", "a", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "p": 13, "mode": "a", "holds": True, "steps": 1, "witnesses": [53],
        "intersection": [], "regular": True, "undetermined": False,
    }


def test_vandiver_csv(capsys):
    rc, out, _ = run(capsys, "vandiver", "--p", "11", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "p,mode,holds,steps,witnesses,intersection"
    assert lines[1] == "11,b,True,2,\"23,67\","


def test_scan_text_events_and_summary(capsys):
    rc, out, _ = run(capsys, "scan", "--p", "37", "--count", "12")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("5 1 1481 [")
    assert lines[1].startswith("9 2 2591 [")
    assert lines[2].startswith("p=37 processed=12 hits=2 last=3257 counts=[")


def test_scan_requires_a_bound(capsys):
    rc, _, err = run(capsys, "scan", "--p", "37")
    assert rc == 2
    assert "needs --count or --l-max" in err


def test_rank_text(capsys):
    rc, out, _ = run(capsys, "rank", "--p", "7")
    assert rc == 0
    assert out == "p=7 r=3 elp=113\n"


def test_rank_unreached_bound(capsys):
    rc, out, _ = run(capsys, "rank", "--p", "7", "--l-max", "50")
    assert rc == 0
    assert out == "p=7 r=2 elp=-\n"


def test_rank_l_max_zero_scans_no_prime(capsys):
    rc, out, _ = run(capsys, "rank", "--p", "7", "--l-max", "0")
    assert rc == 0
    assert out == "p=7 r=0 elp=-\n"


def test_rank_csv_history(capsys):
    rc, out, _ = run(capsys, "rank", "--p", "7", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "l,rank,ratio"
    assert lines[1].split(",")[:2] == ["29", "1"]
    assert lines[-1].split(",")[:2] == ["113", "3"]


def test_trace_single_pair(capsys):
    rc, out, _ = run(capsys, "trace", "--p", "7", "--l", "29")
    assert rc == 0
    assert out == "el=29 f=7 R=x^7 + x^6 + 2*x^5 + 5*x + 1\n"


def test_trace_range_counts_distinct(capsys):
    rc, out, _ = run(capsys, "trace", "--p", "3", "--l-max", "75")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "el=7 f=3 R=x^3 + x^2 + x + 2"
    assert lines[-1] == "p=3 distinct=6"


def test_trace_requires_l_or_l_max(capsys):
    rc, _, err = run(capsys, "trace", "--p", "7")
    assert rc == 2
    assert "--l or --l-max" in err


def test_symbol_text_block(capsys):
    rc, out, _ = run(capsys, "symbol", "--p", "37", "--n", "32", "--l", "149")
    assert rc == 0
    assert out == "p=37 n=32\np=37 el=149 v=259 u=102\nSn NON local pth power at L\n"


def test_symbol_rejects_odd_exponent_before_output(capsys):
    rc, out, err = run(capsys, "symbol", "--p", "37", "--n", "31", "--l", "149")
    assert rc == 2
    assert out == ""
    assert "must be even" in err


@pytest.mark.parametrize("argv,msg", [
    (("--l", "150"), "l=150 is not prime"),
    (("--l", "151"), "l=151 does not split"),
    (("--l", "149", "--c", "6"), "c=6 is not a primitive root mod 37"),
    (("--l", "149", "--c", "36"), "c=36 out of range for p=37"),
], ids=["composite", "nonsplit", "c-not-primitive", "c-out-of-range"])
def test_symbol_rejects_a_bad_l_before_the_title(capsys, argv, msg):
    rc, out, err = run(capsys, "symbol", "--p", "37", "--n", "32", *argv)
    assert (rc, out) == (2, "")
    assert msg in err


def test_symbol_without_split_primes_prints_the_title_alone(capsys):
    rc, out, _ = run(capsys, "symbol", "--p", "37", "--n", "32", "--l-max", "140")
    assert (rc, out) == (0, "p=37 n=32\n")


def test_symbol_json(capsys):
    rc, out, _ = run(capsys, "symbol", "--p", "37", "--n", "32", "--l", "149",
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "p": 37, "n": 32, "l": 149, "c": 2, "g": 2, "v": 259, "s": 0, "u": 102,
        "classification": "non_local_at_l",
    }


def test_invalid_p_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "expp", "--p", "9")
    assert rc == 2
    assert "not an odd prime" in err


@pytest.mark.parametrize("command", ["expp", "vandiver"])
def test_invalid_p_prints_no_csv_header(capsys, command):
    rc, out, err = run(capsys, command, "--p", "9", "--format", "csv")
    assert (rc, out) == (2, "")
    assert "p=9 is not an odd prime" in err


def test_count_zero_processes_nothing(capsys):
    rc, out, _ = run(capsys, "scan", "--p", "37", "--count", "0")
    assert rc == 0
    assert out.startswith("p=37 processed=0 hits=0 ")
    rc, out, _ = run(capsys, "scan", "--p", "37", "--count", "0", "--format", "csv")
    assert (rc, out) == (0, "p,l,c,g,expp,ms\r\n")


def test_vandiver_count_zero_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "vandiver", "--p", "37", "--count", "0")
    assert (rc, out) == (2, "")
    assert "max_steps must be at least 1" in err


@pytest.mark.parametrize("argv,flag", [
    (("--l", "150"), "--l does not apply to --mode b"),
    (("--l", "149", "--mode", "b"), "--l does not apply to --mode b"),
    (("--mode", "a", "--l-max", "500"), "--l-max does not apply to --mode a"),
    (("--mode", "a", "--count", "3"), "--count does not apply to --mode a"),
], ids=["l-default-mode", "l-mode-b", "l-max-mode-a", "count-mode-a"])
def test_vandiver_rejects_flags_its_mode_does_not_read(capsys, argv, flag):
    rc, out, err = run(capsys, "vandiver", "--p", "37", *argv)
    assert (rc, out) == (2, "")
    assert flag in err


@pytest.mark.parametrize("command", [("expp",), ("vandiver", "--mode", "a")],
                         ids=["expp", "vandiver-a"])
def test_l_must_split_every_p_of_the_range_before_the_first_row(capsys, command):
    # 149 splits 37 but not 41, so the p=37 row must not be printed either
    rc, out, err = run(capsys, *command, "--p", "37", "--p-max", "41", "--l", "149")
    assert (rc, out) == (2, "")
    assert "l=149 does not split: l % p = 26" in err


def test_l_max_must_reach_a_split_prime_of_every_p_before_the_first_row(capsys):
    # the first split prime of 59 is 473, so p = 37 .. 53 must not be printed either
    rc, out, err = run(capsys, "vandiver", "--p", "37", "--p-max", "199", "--mode", "b",
                       "--l-max", "400")
    assert (rc, out) == (2, "")
    assert "--l-max 400 is below the first split prime of p=59" in err


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_expp_l_max_must_reach_a_split_prime_of_every_p_before_the_first_row(capsys, fmt):
    # 53 splits at 107, but 59 has no split prime below 473: no row, no header
    rc, out, err = run(capsys, "expp", "--p", "53", "--p-max", "67", "--l-max", "400",
                       "--format", fmt)
    assert (rc, out) == (2, "")
    assert "--l-max 400 is below the first split prime of p=59" in err


@pytest.mark.parametrize("command", [("expp",), ("vandiver", "--mode", "a"), ("vandiver",),
                                     ("vandiver", "--format", "csv")],
                         ids=["expp", "vandiver-a", "vandiver-b", "vandiver-csv"])
def test_an_inverted_p_range_is_rejected(capsys, command):
    rc, out, err = run(capsys, *command, "--p", "37", "--p-max", "30")
    assert (rc, out) == (2, "")
    assert "--p-max 30 is below --p 37" in err


@pytest.mark.parametrize("argv,flag", [
    (("expp", "--p", "37", "--l", "149", "--l-max", "1000"), "--l-max"),
    (("expp", "--p", "37", "--l", "149", "--count", "3"), "--count"),
    (("trace", "--p", "5", "--l", "11", "--l-max", "100"), "--l-max"),
    (("symbol", "--p", "37", "--n", "32", "--l", "149", "--l-max", "300"), "--l-max"),
], ids=["expp-l-max", "expp-count", "trace-l-max", "symbol-l-max"])
def test_l_refuses_a_bound_it_would_ignore(capsys, argv, flag):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert f"--l excludes {flag}" in err


@pytest.mark.parametrize("l,msg", [("13", "l=13 does not split"), ("15", "l=15 is not prime")],
                         ids=["nonsplit", "composite"])
def test_trace_rejects_a_bad_l(capsys, l, msg):
    rc, out, err = run(capsys, "trace", "--p", "5", "--l", l, "--format", "csv")
    assert (rc, out) == (2, "")
    assert msg in err


def test_cache_latch_and_resume(tmp_path, capsys):
    args = ("expp", "--p", "11", "--count", "3", "--cache-dir", str(tmp_path))
    rc, first, _ = run(capsys, *args)
    assert rc == 0
    assert (tmp_path / "scan.jsonl").stat().st_size > 0
    # a second run must refuse the warm cache without --resume
    rc, _, err = run(capsys, *args)
    assert rc == 2
    assert "pass --resume" in err
    # with --resume the replay is byte-identical, timings included
    rc, second, _ = run(capsys, *args, "--resume")
    assert rc == 0
    assert second == first


def test_jobs_do_not_change_bytes(tmp_path, capsys):
    rc, seq, _ = run(capsys, "scan", "--p", "37", "--count", "12")
    assert rc == 0
    rc, par, _ = run(capsys, "scan", "--p", "37", "--count", "12", "--jobs", "4")
    assert rc == 0
    assert par == seq
    symbol = ("symbol", "--p", "37", "--n", "32", "--l-max", "223")
    rc, seq, _ = run(capsys, *symbol)
    assert rc == 0
    assert seq.count(" el=") == 2
    rc, par, _ = run(capsys, *symbol, "--jobs", "2")
    assert rc == 0
    assert par == seq


def test_p_range_starts_one_pool_and_keeps_the_bytes(capsys, monkeypatch):
    starts = []

    def counted(method):
        starts.append(method)
        return multiprocessing.get_context(method)

    monkeypatch.setattr(records, "get_context", counted)
    records._end_pool()  # a pool left idle by an earlier test would be reused
    argv = ("vandiver", "--p", "37", "--p-max", "79", "--mode", "b")
    try:
        rc, seq, _ = run(capsys, *argv, "--jobs", "1")
        assert rc == 0
        assert seq.count("\n") == 11  # the primes 37 .. 79
        rc, par, _ = run(capsys, *argv, "--jobs", "2")
        assert rc == 0
        assert par == seq
        assert starts == ["spawn"]
    finally:
        records._end_pool()


@pytest.mark.parametrize("argv", [("expp", "--p", "37", "--l", "1481"),
                                  ("symbol", "--p", "37", "--n", "32", "--l", "149")])
def test_single_l_row_starts_no_pool(capsys, monkeypatch, argv):
    starts = []

    def counted(method):
        starts.append(method)
        return multiprocessing.get_context(method)

    monkeypatch.setattr(records, "get_context", counted)
    records._end_pool()
    rc, seq, _ = run(capsys, *argv, "--jobs", "1")
    assert rc == 0
    rc, par, _ = run(capsys, *argv, "--jobs", "2")
    assert rc == 0
    assert par == seq
    assert starts == []


def test_parser_is_built_once_and_leaks_nothing_between_calls(capsys):
    build_parser.cache_clear()
    rc, out, _ = run(capsys, "vandiver", "--p", "37", "--mode", "a")
    assert rc == 0
    assert out.startswith("p=37 mode=a ")
    rc, out, _ = run(capsys, "vandiver", "--p", "37")
    assert rc == 0
    assert out.startswith("p=37 mode=b ")
    rc, out, _ = run(capsys, "expp", "--p", "53", "--l", "107", "--format", "json")
    assert rc == 0
    assert json.loads(out)["expp"] == [10, 34]
    rc, out, _ = run(capsys, "expp", "--p", "53", "--l", "107")
    assert rc == 0
    assert out == "p=53 el=107 c=2 g=2 expp:10,34\n"
    with pytest.raises(SystemExit) as exc:
        main(["vandiver", "--p", "37", "--mode", "c"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    rc, out, _ = run(capsys, "vandiver", "--p", "37", "--mode", "a")
    assert rc == 0
    assert out.startswith("p=37 mode=a ")
    assert build_parser.cache_info().misses == 1


def test_format_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("PRIMARITY_FORMAT", "json")
    rc, out, _ = run(capsys, "expp", "--p", "53", "--l", "107")
    assert rc == 0
    assert out.startswith("{")
    rc, out, _ = run(capsys, "expp", "--p", "53", "--l", "107", "--format", "text")
    assert rc == 0
    assert out.startswith("p=53 ")


def test_jobs_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("PRIMARITY_JOBS", "many")
    rc, _, err = run(capsys, "expp", "--p", "53", "--l", "107")
    assert rc == 2
    assert "PRIMARITY_JOBS" in err
    monkeypatch.setenv("PRIMARITY_JOBS", "0")
    rc, _, err = run(capsys, "expp", "--p", "53", "--l", "107")
    assert rc == 2
    assert "at least 1" in err


def test_cache_dir_env_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRIMARITY_CACHE_DIR", str(tmp_path))
    rc, _, _ = run(capsys, "expp", "--p", "11", "--l", "23")
    assert rc == 0
    assert (tmp_path / "scan.jsonl").exists()


def test_io_failure_exit_code(capsys):
    rc, _, err = run(capsys, "expp", "--p", "11", "--l", "23",
                     "--cache-dir", "/proc/nope")
    assert rc == 4
    assert err.startswith("error:")


def test_self_check_failure_exit_code(capsys, monkeypatch):
    # an ArithmeticError is a fault of the program, reported as one line
    monkeypatch.setattr(jacobi, "_moments", lambda p, c, t: 0 * t[:, 1:])  # m_0 = 0, not 1
    rc, out, err = run(capsys, "expp", "--p", "37", "--l", "149")
    assert (rc, out) == (5, "")
    assert err == ("error: the Jacobi sum J_1 of (p, l, c, g) = (37, 149, 2, 2) "
                   "breaks a derivation relation\n")


def test_trace_cache_round_trip(tmp_path, capsys):
    args = ("trace", "--p", "3", "--l-max", "75", "--cache-dir", str(tmp_path))
    rc, first, _ = run(capsys, *args)
    assert rc == 0
    rc, second, _ = run(capsys, *args, "--resume")
    assert rc == 0
    assert second == first
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


def test_symbol_cache_round_trip(tmp_path, capsys):
    args = ("symbol", "--p", "37", "--n", "32", "--l", "149",
            "--cache-dir", str(tmp_path))
    rc, first, _ = run(capsys, *args)
    assert rc == 0
    rc, second, _ = run(capsys, *args, "--resume")
    assert rc == 0
    assert second == first
    assert (tmp_path / "symbols.jsonl").stat().st_size > 0


def _mask_ms(out):
    """Zero the per-pair timing, the only field of a scan row that varies."""
    return re.sub(r",\d+\r\n", ",0\r\n", re.sub(r'"ms": \d+', '"ms": 0', out))


@pytest.mark.parametrize("argv,want", [
    (("scan", "--p", "13", "--count", "6", "--format", "json"),
     '{"p": 13, "l": 53, "c": 2, "g": 2, "expp": [], "ms": 0}\n'
     '{"p": 13, "l": 79, "c": 2, "g": 3, "expp": [], "ms": 0}\n'
     '{"p": 13, "l": 131, "c": 2, "g": 2, "expp": [4, 6], "ms": 0}\n'
     '{"p": 13, "l": 157, "c": 2, "g": 5, "expp": [], "ms": 0}\n'
     '{"p": 13, "l": 313, "c": 2, "g": 10, "expp": [], "ms": 0}\n'
     '{"p": 13, "l": 443, "c": 2, "g": 2, "expp": [4], "ms": 0}\n'),
    (("scan", "--p", "13", "--count", "6", "--format", "csv"),
     'p,l,c,g,expp,ms\r\n13,53,2,2,,0\r\n13,79,2,3,,0\r\n13,131,2,2,"4,6",0\r\n'
     '13,157,2,5,,0\r\n13,313,2,10,,0\r\n13,443,2,2,4,0\r\n'),
    (("expp", "--p", "53", "--l", "107", "--format", "csv"),
     'p,l,c,g,expp,ms\r\n53,107,2,2,"10,34",0\r\n'),
    (("expp", "--p", "5", "--p-max", "7", "--count", "2", "--format", "csv"),
     'p,l,c,g,expp,ms\r\n5,11,2,2,,0\r\n5,31,2,3,,0\r\n7,29,3,2,,0\r\n7,43,3,3,,0\r\n'),
    (("trace", "--p", "3", "--l-max", "40", "--format", "json"),
     '{"p": 3, "l": 7, "f": 3, "R": [2, 1, 1, 1]}\n'
     '{"p": 3, "l": 13, "f": 3, "R": [1, 2, 1, 1]}\n'
     '{"p": 3, "l": 19, "f": 3, "R": [2, 0, 1, 1]}\n'
     '{"p": 3, "l": 31, "f": 3, "R": [1, 2, 1, 1]}\n'
     '{"p": 3, "l": 37, "f": 3, "R": [2, 0, 1, 1]}\n'),
    (("trace", "--p", "3", "--l-max", "40", "--format", "csv"),
     'l,f,R\r\n7,3,x^3 + x^2 + x + 2\r\n13,3,x^3 + x^2 + 2*x + 1\r\n19,3,x^3 + x^2 + 2\r\n'
     '31,3,x^3 + x^2 + 2*x + 1\r\n37,3,x^3 + x^2 + 2\r\n'),
    (("rank", "--p", "7", "--format", "json"),
     '{"p": 7, "r": 3, "elp": 113, "history": [[29, 1], [43, 2], [71, 2], [113, 3]]}\n'),
    (("symbol", "--p", "37", "--n", "32", "--l-max", "223", "--format", "csv"),
     'p,n,l,v,s,u,classification\r\n37,32,149,259,0,102,non_local_at_l\r\n'
     '37,32,223,259,0,132,non_local_at_l\r\n'),
    (("vandiver", "--p", "11", "--p-max", "13", "--mode", "a", "--format", "csv"),
     'p,mode,holds,steps,witnesses,intersection\r\n11,a,True,1,23,\r\n13,a,True,1,53,\r\n'),
    (("rank", "--p", "7", "--format", "csv"),
     'l,rank,ratio\r\n29,1,0.1521\r\n43,2,0.2255\r\n71,2,0.3723\r\n113,3,0.5926\r\n'),
])
def test_machine_formats_are_byte_exact(capsys, argv, want):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert _mask_ms(out) == want


@pytest.mark.parametrize("argv,name", [
    (("expp", "--p", "11", "--count", "3"), "scan.jsonl"),
    (("trace", "--p", "3", "--l-max", "40"), "trace.jsonl"),
    (("symbol", "--p", "37", "--n", "32", "--l-max", "223"), "symbols.jsonl"),
])
def test_torn_last_line_is_recomputed_on_resume(tmp_path, capsys, argv, name):
    args = (*argv, "--cache-dir", str(tmp_path))
    rc, cold, _ = run(capsys, *args)
    assert rc == 0
    path = tmp_path / name
    lines = path.read_bytes().splitlines(keepends=True)
    # a kill in the middle of the last append leaves half a line behind
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    rc, warm, _ = run(capsys, *args, "--resume")
    assert rc == 0
    assert warm == cold
    stored = path.read_text().splitlines()
    assert len(stored) == len(lines)
    assert all(json.loads(line) for line in stored)


def test_corrupt_middle_line_names_path_and_line(tmp_path, capsys):
    args = ("expp", "--p", "11", "--count", "3", "--cache-dir", str(tmp_path))
    run(capsys, *args)
    path = tmp_path / "scan.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:10] + "\n"
    path.write_text("".join(lines))
    rc, out, err = run(capsys, *args, "--resume")
    assert rc == 2
    assert out == ""
    assert "scan.jsonl:2" in err


def test_symbol_line_without_c_and_g_names_path_and_line(tmp_path, capsys):
    (tmp_path / "symbols.jsonl").write_text(json.dumps(
        {"p": 37, "n": 32, "l": 149, "v": 259, "s": 0, "u": 102,
         "classification": "non_local_at_l"}) + "\n")
    rc, out, err = run(capsys, "symbol", "--p", "37", "--n", "32", "--l", "149",
                       "--cache-dir", str(tmp_path), "--resume")
    assert rc == 2
    assert out == ""
    assert "symbols.jsonl:1" in err


def test_symbol_resume_with_another_twist_recomputes(tmp_path, capsys):
    args = ("symbol", "--p", "37", "--n", "32", "--l", "149", "--cache-dir", str(tmp_path))
    rc, _, _ = run(capsys, *args)
    assert rc == 0
    rc, out, _ = run(capsys, *args, "--c", "5", "--resume")
    assert rc == 0
    assert out == "p=37 n=32\np=37 el=149 v=1073 u=28\nSn NON local pth power at L\n"
