import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylmax
from weylmax import cli, divset, weyl
from weylmax.cli import COMMANDS, _int_csv, _read_xn, build_parser, dispatch
from weylmax.poly import parse_polynomial

from sets import good_rows

P_SQ = '{"d":1,"terms":[{"e":[2],"c":1}]}'
P_CUBE = '{"d":1,"terms":[{"e":[3],"c":1}]}'
P_SQ2 = '{"d":2,"terms":[{"e":[2,0],"c":1},{"e":[0,2],"c":1}]}'


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, *argv):
    """Exit code, standard output and standard error of one command."""
    code = dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_selftest_green(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10
    first = out.splitlines()[0]
    assert first.startswith("# ") and json.loads(first[2:]) == {"version": weylmax.__version__}


def test_lattice_count_output(capsys):
    code, out = run(capsys, "lattice-count", "3", "5", "2")
    assert code == 0
    obj = json.loads(out)
    config = obj.pop("config")
    assert obj == {"count": 4, "bound": 4, "ok": True}
    assert config == {"version": weylmax.__version__, "q": 3, "qp": 5, "bound": 2.0}


def test_lattice_count_guard_exit_3(capsys):
    # about 2e12 lattice points to walk, far above numtheory.LINE_GUARD
    code, out, err = run_err(capsys, "lattice-count", "1000003", "999983", "1e12")
    assert (code, out) == (3, "")
    assert err.startswith("resource guard:")


def test_verify_deligne_cubic(capsys):
    code, out = run(capsys, "verify-deligne", "--poly", P_CUBE, "--q", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["max_modulus"] == pytest.approx(1 + 6 * math.cos(2 * math.pi / 7), abs=1e-9)
    assert obj["bound"] == pytest.approx(2 * math.sqrt(7), abs=1e-12)
    assert obj["config"]["version"]


def test_good_set_summary(capsys):
    code, out = run(capsys, "good-set", "--poly", P_SQ, "--q", "13")
    assert code == 0
    obj = json.loads(out)
    assert obj["density"] == 1.0 and obj["count"] == 13


def test_weyl_table_csv(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, _ = run(capsys, "weyl-table", "--poly", P_SQ, "--q", "5", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "b0,re,im,modulus"
    assert len(lines) == 2 + 5
    mods = [float(ln.split(",")[-1]) for ln in lines[2:]]
    assert all(abs(m - math.sqrt(5)) < 1e-9 for m in mods)


def test_solution_eval_json(capsys):
    code, out = run(capsys, "solution-eval", "--poly", P_SQ, "--n", "256",
                    "--q", "17", "--b", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["modulus"] == pytest.approx(math.hypot(obj["re"], obj["im"]), rel=1e-12)
    assert obj["modulus"] > 0


def test_decompose_json(capsys):
    code, out = run(capsys, "decompose", "--poly", P_SQ, "--n", "256", "--q", "17", "--b", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["ratio"] < 0.5
    assert obj["Zhat0"] == pytest.approx(1.125 * 256 / 17, rel=0.1)


@pytest.mark.parametrize("command", ["solution-eval", "decompose"])
def test_point_config_reproduces_output(capsys, command):
    code, out = run(capsys, command, "--poly", P_SQ, "--n", "256", "--q", "17",
                    "--b", "20", "--delta", "1e-5")
    assert code == 0
    cfg = json.loads(out)["config"]
    assert (cfg["b"], cfg["delta"]) == ([3], [1e-5])
    # the artifact alone gives the command back
    again = run(capsys, command, "--poly", json.dumps(cfg["poly"]), "--n", str(cfg["n"]),
                "--q", str(cfg["q"]), "--b", ",".join(map(str, cfg["b"])),
                "--delta", ",".join(map(repr, cfg["delta"])))
    assert again == (0, out)
    code, out = run(capsys, command, "--poly", P_SQ, "--n", "256", "--q", "17", "--b", "3")
    assert json.loads(out)["config"]["delta"] == [0.0]


def test_build_and_measure_roundtrip(capsys, tmp_path):
    path = tmp_path / "xn.csv"
    code, _ = run(capsys, "build-xn", "--poly", P_SQ, "--n", "4096", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("# {")
    assert len(text.strip().splitlines()) == 2 + 1219

    code, out = run(capsys, "measure-xn", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["J"] == 1219
    assert obj["lower_bound"] <= obj["estimate"] <= obj["upper_bound"] * (1 + 1e-12)


def test_ratio_experiment_and_fit(capsys, tmp_path):
    rows = tmp_path / "rows.csv"
    code, _ = run(capsys, "ratio-experiment", "--poly", P_SQ, "--s", "0.0",
                  "--n-ladder", "256,512,1024", "--seed", "42",
                  "--budget", "400", "--out", str(rows))
    assert code == 0
    lines = rows.read_text().strip().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "N,Q,J,measure,measure_err,sup_lb,hs_norm,ratio,wall_ms"
    assert len(lines) == 2 + 3

    code, out = run(capsys, "fit", "--in", str(rows))
    assert code == 0
    obj = json.loads(out)
    assert obj["n_points"] == 3
    assert math.isfinite(obj["slope"])


def test_unknown_subcommand_exit_2(capsys):
    assert dispatch(["no-such-command"]) == 2


def test_lean_parser_keeps_help_and_errors(capsys):
    full = build_parser()
    assert dispatch(["-h"]) == 0
    assert capsys.readouterr().out == full.format_help()
    subparsers = full._subparsers._group_actions[0].choices
    for name in ("build-xn", "measure-xn", "lattice-count"):
        assert dispatch([name, "-h"]) == 0
        assert capsys.readouterr().out == subparsers[name].format_help()
    assert dispatch([]) == 2
    assert dispatch(["build-xn", "--no-such-flag"]) == 2
    assert "usage: weylmax build-xn" in capsys.readouterr().err


def test_dispatch_resolves_handler_when_called(capsys, monkeypatch):
    # a wrapper bound to the module attribute after import is the one run
    assert list(cli.PARSER._subparsers._group_actions[0].choices) == list(COMMANDS)
    for name in COMMANDS:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))
    seen = []
    monkeypatch.setattr(cli, "cmd_lattice_count", lambda args: seen.append(args.q) or 0)
    monkeypatch.setattr(cli, "cmd_build_xn", lambda args: seen.append(args.n) or 4)
    assert dispatch(["lattice-count", "3", "5", "2"]) == 0
    assert dispatch(["build-xn", "--poly", P_SQ, "--n", "4096"]) == 4
    assert seen == [3, 4096]
    assert capsys.readouterr().out == ""


def _csv_writer_text(columns, rows) -> str:
    """The oracle: what csv.writer writes for a header and integer rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows([int(v) for v in row] for row in rows)
    return buf.getvalue()


EDGES = [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 9999, 10_000, 123_456_789, 10**12, 2**62]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_int_csv_matches_csv_writer(monkeypatch, d):
    columns = ["q"] + [f"b{i}" for i in range(d)]
    rng = np.random.default_rng(d)
    table = np.column_stack([rng.permutation(EDGES) for _ in range(1 + d)])
    for block in (cli.CSV_BLOCK, 7):  # 7: the 15 rows span three blocks
        monkeypatch.setattr(cli, "CSV_BLOCK", block)
        for rows in (table, table[:1], table[:0], table[:7], table[:8], table[:14]):
            pieces = list(_int_csv(columns, rows))
            assert len(pieces) == 1 + -(-len(rows) // block)  # the header, then one piece per block
            assert "".join(pieces) == _csv_writer_text(columns, rows)
    assert "".join(_int_csv(columns, table[:0])) == ",".join(columns) + "\r\n"  # header only


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=2), max_size=20))
def test_int_csv_matches_csv_writer_on_any_rows(rows):
    assert "".join(_int_csv(["a", "b"], np.array(rows, dtype=np.int64))) == _csv_writer_text(["a", "b"], rows)


def test_int_csv_refuses_negative_values():
    with pytest.raises(ValueError):
        _int_csv(["a"], np.array([[3], [-1]]))


def test_build_xn_stdout_equals_out_file(capsys, tmp_path):
    poly2 = '{"d":2,"terms":[{"e":[3,0],"c":1},{"e":[0,3],"c":1}]}'
    path = tmp_path / "xn.csv"
    assert run(capsys, "build-xn", "--poly", poly2, "--n", "512", "--out", str(path))[0] == 0
    code, out = run(capsys, "build-xn", "--poly", poly2, "--n", "512")
    assert code == 0
    assert out.encode() == path.read_bytes()


def test_int_csv_checks_before_the_first_piece(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        cli._emit(_int_csv(["a"], np.array([[3], [-1]]), "# {}\n"), str(path))
    assert not path.exists()


def test_build_xn_blocks_match_csv_writer(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_BLOCK", 7)
    path = tmp_path / "xn.csv"
    assert run(capsys, "build-xn", "--poly", P_SQ, "--n", "1024", "--out", str(path))[0] == 0
    code, out = run(capsys, "build-xn", "--poly", P_SQ, "--n", "1024")
    assert code == 0
    assert out.encode() == path.read_bytes()
    head, _, body = path.read_bytes().decode().partition("\n")
    balls = divset.build_divergence_set(parse_polynomial(P_SQ), 1024).balls()
    assert len(balls) > 7 * 3
    assert body == _csv_writer_text(["q", "b0"], balls)
    assert json.loads(head[2:])["Q"] == 32


def test_good_set_out_rows_match_members(capsys, tmp_path, monkeypatch):
    path = tmp_path / "gs.csv"
    poly2 = '{"d":2,"terms":[{"e":[3,0],"c":1},{"e":[0,3],"c":1}]}'
    members = weyl.good_set_for(parse_polynomial(poly2), 31, 0.5).members
    assert len(members) > 7 and len(members) % 7  # the last block of 7 rows is partial
    for block in (cli.CSV_BLOCK, 7):
        monkeypatch.setattr(cli, "CSV_BLOCK", block)
        code, out = run(capsys, "good-set", "--poly", poly2, "--q", "31", "--out", str(path))
        assert code == 0
        head, _, body = path.read_bytes().decode().partition("\n")
        assert json.loads(head[2:])["q"] == 31
        assert body == _csv_writer_text(["b0", "b1"], members)
        assert json.loads(out)["count"] == len(members)


@pytest.mark.parametrize("command", [
    ["build-xn", "--poly", P_SQ, "--n", "4096"],
    ["good-set", "--poly", P_SQ, "--q", "13"],
    ["lattice-count", "3", "5", "2"],
])
def test_unwritable_out_exit_2(capsys, tmp_path, command):
    for target in (tmp_path / "absent" / "out.csv", tmp_path):
        code, out, err = run_err(capsys, *command, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("input error:")


def test_unreadable_poly_file_exit_2(capsys, tmp_path):
    good = tmp_path / "p.json"
    good.write_text(P_SQ)
    assert run(capsys, "verify-deligne", "--poly-file", str(good), "--q", "7")[0] == 0
    for target in (tmp_path / "absent.json", tmp_path):
        for command in (["verify-deligne", "--q", "7"], ["build-xn", "--n", "4096"]):
            code, out, err = run_err(capsys, *command, "--poly-file", str(target))
            assert code == 2 and out == ""
            assert err.startswith("input error:") and "cannot read" in err


def test_input_error_exit_2(capsys):
    code, _ = run(capsys, "verify-deligne", "--poly", "not json", "--q", "7")
    assert code == 2
    code, _ = run(capsys, "good-set", "--poly", P_SQ, "--q", "13", "--c", "2.0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["good-set", "--q", "13"], id="good-set"),
    pytest.param(["ratio-experiment", "--s", "0", "--n-ladder", "1024,2048,4096"], id="ratio-experiment"),
    # every rung is refused by a resource guard before its set is built
    pytest.param(["ratio-experiment", "--s", "0", "--n-ladder", f"{10**20},{10**24}"], id="ratio-oversized"),
])
def test_linear_symbol_exit_2(capsys, argv):
    linear = '{"d":1,"terms":[{"e":[1],"c":1}]}'
    code, out, err = run_err(capsys, *argv, "--poly", linear)
    assert code == 2 and out == "" and "degree must be >= 2" in err


def test_resource_guard_exit_3(capsys):
    poly2 = '{"d":2,"terms":[{"e":[2,0],"c":1},{"e":[0,2],"c":1}]}'
    code, _ = run(capsys, "weyl-table", "--poly", poly2, "--q", "65537")
    assert code == 3


@pytest.mark.parametrize("argv", [
    pytest.param(["build-xn", "--poly", P_SQ, "--n", str(10**24)], id="build-xn-d1"),
    pytest.param(["build-xn", "--poly", '{"d":2,"terms":[{"e":[2,0],"c":1},{"e":[0,2],"c":1}]}',
                  "--n", str(10**24)], id="build-xn-d2"),
    pytest.param(["solution-eval", "--poly", P_SQ, "--n", str(10**15), "--q", "17", "--b", "3"],
                 id="solution-eval"),
    pytest.param(["decompose", "--poly", P_SQ, "--n", str(10**15), "--q", "17", "--b", "3"],
                 id="decompose"),
])
def test_oversized_n_exit_3(capsys, argv):
    code, out, err = run_err(capsys, *argv)
    assert code == 3 and out == "" and "guard" in err


def test_oversized_q_exit_3(capsys):
    # roots_of_unity(q) would hold q = 2^43 complex entries (128 TiB)
    code, out, err = run_err(capsys, "solution-eval", "--poly", P_SQ, "--n", "256",
                             "--q", str(2**43), "--b", "3")
    assert code == 3 and out == "" and "guard" in err
    assert run(capsys, "solution-eval", "--poly", P_SQ, "--n", "256", "--q", "17", "--b", "3")[0] == 0


def test_missing_poly_exit_2(capsys):
    code, _ = run(capsys, "verify-deligne", "--q", "7")
    assert code == 2


def test_dimension_degree_validation(capsys):
    code, _ = run(capsys, "verify-deligne", "--poly", P_SQ, "--q", "7", "--d", "2")
    assert code == 2
    code, _ = run(capsys, "verify-deligne", "--poly", P_SQ, "--q", "7", "--k", "3")
    assert code == 2
    code, _ = run(capsys, "verify-deligne", "--poly", P_SQ, "--q", "7", "--d", "1", "--k", "2")
    assert code == 0


def test_verify_deligne_reports_classical_bound(capsys):
    poly2 = '{"d":2,"terms":[{"e":[3,0],"c":1},{"e":[0,3],"c":1}]}'
    code, out = run(capsys, "verify-deligne", "--poly", poly2, "--q", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is False and obj["classical_ok"] is True
    assert obj["bound"] == pytest.approx(10.0, abs=1e-12)
    assert obj["classical_bound"] == pytest.approx(20.0, abs=1e-12)


@pytest.mark.parametrize("bound", ["nan", "inf"])
def test_lattice_count_non_finite_bound_exit_2(capsys, bound):
    code, out = run(capsys, "lattice-count", "5", "7", bound)
    assert code == 2 and out == ""


def test_lattice_count_huge_bound_clamped(capsys):
    # every pair has |b*qp - b'*q| < q*qp, so any bound past q*qp counts the same
    code, out = run(capsys, "lattice-count", "5", "7", "1e12")
    assert code == 0
    code_full, out_full = run(capsys, "lattice-count", "5", "7", "35")
    assert code_full == 0
    assert json.loads(out)["count"] == json.loads(out_full)["count"] == 34


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_non_finite_rho_exit_2(capsys, tmp_path, rho):
    path = tmp_path / "xn.csv"
    code, _ = run(capsys, "build-xn", "--poly", P_SQ, "--n", "1024", "--rho", rho, "--out", str(path))
    assert code == 2 and not path.exists()
    code, out = run(capsys, "ratio-experiment", "--poly", P_SQ, "--s", "0.25",
                    "--n-ladder", "1024,2048,4096", "--rho", rho)
    assert code == 2 and out == ""


@pytest.mark.parametrize("ladder", ["a,b", "512,,1024", "1024,2048.5,4096"])
def test_ratio_experiment_bad_ladder_exit_2(capsys, ladder):
    code, out, err = run_err(capsys, "ratio-experiment", "--poly", P_SQ, "--s", "0", "--n-ladder", ladder)
    assert code == 2 and out == "" and "--n-ladder" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_ratio_experiment_threads_below_one_exit_2(capsys, threads):
    code, out, err = run_err(capsys, "ratio-experiment", "--poly", P_SQ, "--s", "0",
                             "--n-ladder", "1024,2048,4096", "--threads", threads)
    assert code == 2 and out == "" and "thread" in err


@pytest.mark.parametrize("symbol", [P_SQ, '{"d":2,"terms":[{"e":[2,0],"c":1},{"e":[0,2],"c":1}]}'],
                         ids=["d1", "d2"])
def test_ratio_experiment_negative_seed_exit_2(capsys, symbol):
    code, out, err = run_err(capsys, "ratio-experiment", "--poly", symbol, "--s", "0",
                             "--n-ladder", "1024", "--seed=-1")
    assert code == 2 and out == "" and "seed" in err


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_ratio_experiment_non_finite_s_exit_2(capsys, s):
    code, out = run(capsys, "ratio-experiment", "--poly", P_SQ, "--s", s, "--n-ladder", "1024,2048,4096")
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["solution-eval", "decompose"])
def test_non_finite_delta_exit_2(capsys, command):
    base = [command, "--poly", P_SQ, "--n", "256", "--q", "17", "--b", "3"]
    assert run(capsys, *base, "--delta", "1e-5")[0] == 0
    # 1e308 is finite, but its phase 2 pi delta n is not: refused before any exponential
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for delta in ("1e400", "nan", "-inf", "1e308"):
            code, out, err = run_err(capsys, *base, f"--delta={delta}")
            assert code == 2 and out == "" and "finite" in err
    code, out, err = run_err(capsys, *base, "--delta", "0.5x")
    assert code == 2 and out == "" and "'0.5x'" in err


def test_taylor_tail_overflow_exit_4(capsys):
    # x_max = 2 pi (rho / (d N)) max(n) is about 1.3e7: e^x_max overflows a float
    code, out, err = run_err(capsys, "ratio-experiment", "--poly", P_SQ2, "--s", "0",
                             "--n-ladder", "512", "--rho", "1e6", "--samples", "10")
    assert code == 4 and out == "" and "invariant violation" in err and "Taylor tail" in err


@pytest.mark.parametrize("symbol, extra", [
    (P_SQ, ["--n-ladder", "1024"]),
    (P_SQ2, ["--n-ladder", "512", "--budget", "100", "--samples", "1000"]),
])
@pytest.mark.parametrize("s", ["400", "-400"])
def test_sobolev_norm_out_of_range_exit_4(capsys, symbol, extra, s):
    code, out, err = run_err(capsys, "ratio-experiment", "--poly", symbol, f"--s={s}", *extra)
    assert code == 4 and out == "" and "invariant violation" in err and "Sobolev" in err


NUMBERS = st.floats() | st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1e308, -1.0, 1e6, 400.0, -400.0])


def _cli_outcome(argv):
    """Exit code, standard output and standard error of one in-process
    command; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_documented_outcome(code, out, err):
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower(), out


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(1e-8, 1e4) | NUMBERS, s=st.floats(-120, 120) | NUMBERS,
       c=st.floats(0, 1, exclude_min=True, exclude_max=True) | NUMBERS)
def test_ratio_experiment_numeric_options_end_documented(rho, s, c):
    _assert_documented_outcome(*_cli_outcome([
        "ratio-experiment", "--poly", P_SQ, "--n-ladder", "256", "--budget", "20",
        "--samples", "200", f"--rho={rho!r}", f"--s={s!r}", f"--c={c!r}"]))


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(-1e6, 1e6) | NUMBERS, command=st.sampled_from(["solution-eval", "decompose"]))
def test_point_delta_ends_documented(delta, command):
    _assert_documented_outcome(*_cli_outcome([
        command, "--poly", P_SQ, "--n", "256", "--q", "17", "--b", "3", f"--delta={delta!r}"]))


def _xn_file(tmp_path, header: str) -> str:
    path = tmp_path / "xn.csv"
    path.write_text(header + "\nq,b0\n37,5\n")
    return str(path)


GOOD_HEADER = '# {"Q": 32, "c": 0.5, "d": 1, "n": 1024, "rho": 0.03125}'


def test_measure_xn_missing_file_exit_2(capsys, tmp_path):
    code, _ = run(capsys, "measure-xn", "--in", str(tmp_path / "absent.csv"))
    assert code == 2


def test_measure_xn_directory_exit_2(capsys, tmp_path):
    code, out, err = run_err(capsys, "measure-xn", "--in", str(tmp_path))
    assert (code, out) == (2, "")
    assert "cannot read" in err


@pytest.mark.parametrize("rows_before", [0, 20_000])
def test_measure_xn_invalid_utf8_exit_2(capsys, tmp_path, rows_before):
    # past the first few kilobytes the bad byte is decoded inside np.loadtxt
    path = tmp_path / "xn.csv"
    path.write_bytes((GOOD_HEADER + "\nq,b0\n" + "37,5\n" * rows_before).encode() + b"41,\xff\n")
    code, out, err = run_err(capsys, "measure-xn", "--in", str(path))
    assert (code, out) == (2, "")
    assert "cannot read" in err


def test_measure_xn_header_without_n_exit_2(capsys, tmp_path):
    assert run(capsys, "measure-xn", "--in", _xn_file(tmp_path, GOOD_HEADER))[0] == 0
    header = '# {"Q": 32, "c": 0.5, "d": 1, "rho": 0.03125}'
    code, _ = run(capsys, "measure-xn", "--in", _xn_file(tmp_path, header))
    assert code == 2


def test_measure_xn_malformed_header_exit_2(capsys, tmp_path):
    code, _ = run(capsys, "measure-xn", "--in", _xn_file(tmp_path, '# {"Q": 32, "c": 0.5,'))
    assert code == 2


def test_measure_xn_invalid_balls_exit_2(capsys, tmp_path):
    for ball in ("38,5", "37,999", "37,-1"):
        path = tmp_path / "bad.csv"
        path.write_text(GOOD_HEADER + "\nq,b0\n" + ball + "\n")
        code, _ = run(capsys, "measure-xn", "--in", str(path))
        assert code == 2, ball


@pytest.mark.parametrize("header, ball", [
    (GOOD_HEADER, "1000000007,5"),
    ('# {"Q": 101, "c": 0.5, "d": 2, "n": 1024, "rho": 0.03125}', "3037000507,5,6"),
])
def test_measure_xn_bitmap_guard_exit_3(capsys, tmp_path, header, ball):
    # the mask of this one prime alone needs q^d bytes, more than divset.BITMAP_GUARD = 2^29
    path = tmp_path / "huge.csv"
    path.write_text(header + "\nq," + ",".join(f"b{i}" for i in range(ball.count(","))) + "\n" + ball + "\n")
    code, out = run(capsys, "measure-xn", "--in", str(path))
    assert code == 3 and out == ""


def test_fit_read_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "fit", "--in", str(tmp_path / "absent.csv"))[0] == 2
    short = tmp_path / "short.csv"
    short.write_text("N,Q,J,measure,measure_err,sup_lb,hs_norm,ratio,wall_ms\n1024,32\n")
    assert run(capsys, "fit", "--in", str(short))[0] == 2


FIT_COLUMNS = "N,Q,J,measure,measure_err,sup_lb,hs_norm,ratio,wall_ms\n"


@pytest.mark.parametrize("ladder", [(0, 512, 1024), (-5, 512, 1024), (1, 512, 1024), (512, 512, 512)],
                         ids=["N=0", "N=-5", "N=1", "all-equal-N"])
def test_fit_degenerate_ladder_exit_2(capsys, tmp_path, ladder):
    path = tmp_path / "rows.csv"
    body = "".join(f"{n},8,10,0.1,0,1.5,2,{0.5 + i},1\n" for i, n in enumerate(ladder))
    path.write_text(FIT_COLUMNS + body)
    code, out, err = run_err(capsys, "fit", "--in", str(path))
    assert (code, out) == (2, "")
    assert "input error" in err


def test_fit_repeated_n_accepted(capsys, tmp_path):
    # a multi-seed ladder repeats each N
    path = tmp_path / "rows.csv"
    body = "".join(f"{n},8,10,0.1,0,1.5,2,{n ** 0.25 * (1 + i % 2 / 100)},1\n"
                   for i, n in enumerate((512, 512, 1024, 1024)))
    path.write_text(FIT_COLUMNS + body)
    code, out = run(capsys, "fit", "--in", str(path))
    assert code == 0
    assert json.loads(out)["n_points"] == 4


def test_measure_xn_poly_dimension_mismatch_exit_2(capsys, tmp_path):
    cfg = {"Q": 101, "c": 0.5, "d": 2, "n": 1024, "rho": 0.03125, "poly": json.loads(P_SQ)}
    path = tmp_path / "xn.csv"
    path.write_text("# " + json.dumps(cfg) + "\nq,b0,b1\n103,5,6\n")
    code, out = run(capsys, "measure-xn", "--in", str(path))
    assert code == 2 and out == ""
    cfg["poly"] = json.loads('{"d":2,"terms":[{"e":[2,0],"c":1},{"e":[0,2],"c":1}]}')
    path.write_text("# " + json.dumps(cfg) + "\nq,b0,b1\n103,5,6\n")
    assert run(capsys, "measure-xn", "--in", str(path))[0] == 0


@pytest.mark.parametrize("command", ["solution-eval", "decompose"])
def test_non_integer_residue_exit_2(capsys, command):
    base = [command, "--poly", P_SQ, "--n", "256", "--q", "17"]
    assert run(capsys, *base, "--b", "3")[0] == 0
    assert run(capsys, *base, "--b", "1.7")[0] == 2


@pytest.mark.parametrize("field, value", [("d", "0"), ("n", "0"), ("rho", '"nan"'),
                                          ("rho", "-1"), ("c", "1.5")])
def test_measure_xn_invalid_parameters_exit_2(capsys, tmp_path, field, value):
    cfg = {"Q": "32", "c": "0.5", "d": "1", "n": "1024", "rho": "0.03125", field: value}
    header = "# {" + ", ".join(f'"{k}": {v}' for k, v in cfg.items()) + "}"
    code, out = run(capsys, "measure-xn", "--in", _xn_file(tmp_path, header))
    assert code == 2 and out == ""


def test_measure_xn_validates_before_overlap_count(capsys, tmp_path, monkeypatch):
    def boom(x):
        raise AssertionError("overlap count reached")

    monkeypatch.setattr(divset, "overlap_pair_count", boom)
    path = tmp_path / "xn2.csv"
    path.write_text('# {"Q": 101, "c": 0.5, "d": 2, "n": 1024, "rho": 0.03125}\nq,b0,b1\n103,5,6\n')
    assert run(capsys, "measure-xn", "--in", str(path), "--method", "exact")[0] == 2
    assert run(capsys, "measure-xn", "--in", str(path), "--samples", "0")[0] == 2
    assert run(capsys, "measure-xn", "--in", str(path), "--method", "bogus")[0] == 2


def test_measure_xn_edited_residue_exit_2(capsys, tmp_path):
    path = tmp_path / "xn.csv"
    assert run(capsys, "build-xn", "--poly", P_CUBE, "--n", "1024", "--out", str(path))[0] == 0
    assert run(capsys, "measure-xn", "--in", str(path))[0] == 0
    lines = path.read_text().splitlines(keepends=True)
    rows = [tuple(map(int, ln.split(","))) for ln in lines[2:]]
    q = rows[0][0]
    outside = min(set(range(q)) - {b for p, b in rows if p == q})
    lines[2] = f"{q},{outside}\r\n"
    path.write_text("".join(lines))
    code, out, err = run_err(capsys, "measure-xn", "--in", str(path))
    assert (code, out) == (2, "")
    assert f"ball (q={q}, b=({outside},))" in err


def test_measure_xn_band_check_exit_2(capsys, tmp_path):
    # balls build-xn could never write: a good ball at q = 3, outside the
    # band [64, 128) of N = 512 and a divisor of k = 3; a header Q that is
    # not the band start
    poly2 = '{"d":2,"terms":[{"e":[3,0],"c":1},{"e":[0,3],"c":1}]}'
    path = tmp_path / "xn.csv"
    assert run(capsys, "build-xn", "--poly", poly2, "--n", "512", "--out", str(path))[0] == 0
    text = path.read_text()
    assert json.loads(text.splitlines()[0][2:])["Q"] == 64
    assert run(capsys, "measure-xn", "--in", str(path))[0] == 0
    assert weyl.good_set_for(parse_polynomial(poly2), 3, 0.5).mask[2, 2]
    crafted = {"ball primes [3]": text + "3,2,2\r\n", "header Q = 5": text.replace('"Q": 64', '"Q": 5', 1)}
    for reason, body in crafted.items():
        path.write_text(body)
        code, out, err = run_err(capsys, "measure-xn", "--in", str(path))
        assert (code, out) == (2, ""), reason
        assert err.startswith("input error:") and reason in err, err


def test_measure_xn_samples_over_guard_exit_3(capsys, tmp_path):
    path = _xn_file(tmp_path, GOOD_HEADER)
    assert run(capsys, "measure-xn", "--in", path, "--method", "montecarlo", "--samples", "1000")[0] == 0
    code, out = run(capsys, "measure-xn", "--in", path, "--method", "montecarlo",
                    "--samples", str(divset.MC_SAMPLE_GUARD + 1))
    assert code == 3 and out == ""


def test_measure_xn_negative_seed_exit_2(capsys, tmp_path):
    path = _xn_file(tmp_path, GOOD_HEADER)
    base = ["measure-xn", "--in", path, "--method", "montecarlo", "--samples", "1000"]
    assert run(capsys, *base, "--seed=0")[0] == 0
    code, out, err = run_err(capsys, *base, "--seed=-1")
    assert code == 2 and out == "" and "seed" in err


def test_xn_io_peak_memory(capsys, tmp_path):
    """The streamed writer and reader hold no whole-file text and no
    second whole table: on the d=2 cubic at N = 1024 (J = 251 233) each
    peak stays under a small multiple of the (J, 1 + d) int64 table."""
    poly2 = '{"d":2,"terms":[{"e":[3,0],"c":1},{"e":[0,3],"c":1}]}'
    path = str(tmp_path / "xn.csv")
    argv = ["build-xn", "--poly", poly2, "--n", "1024", "--out", path]
    assert dispatch(argv) == 0  # warm: imports and caches stay out of the peaks
    table_bytes = _read_xn(path).ball_count * 3 * 8
    assert table_bytes == 251_233 * 24
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _read_xn(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < 2.0 * table_bytes, build_peak / table_bytes
    assert read_peak < 2.5 * table_bytes, read_peak / table_bytes


def test_build_xn_read_back_matches_built_set(capsys, tmp_path):
    poly2 = '{"d":2,"terms":[{"e":[3,0],"c":1},{"e":[0,3],"c":1}]}'
    path = tmp_path / "xn.csv"
    assert run(capsys, "build-xn", "--poly", poly2, "--n", "512", "--out", str(path))[0] == 0
    got = _read_xn(str(path))
    want = divset.build_divergence_set(parse_polynomial(poly2), 512)
    assert (got.N, got.d, got.Q, got.rho, got.c) == (want.N, want.d, want.Q, want.rho, want.c)
    assert list(got.good_by_q) == list(want.good_by_q)
    for q in want.good_by_q:
        assert np.array_equal(good_rows(got, q), good_rows(want, q))
    for x in (got, want):  # every mask is a view into the set's one bitmap
        assert all(np.shares_memory(mask, x.bits) for mask in x.good_by_q.values())
    assert got.bits.tobytes() == want.bits.tobytes()


@pytest.mark.parametrize("body, j", [("b0,q\n5,37\n", 1), ("q,b0\n37, 5\n 41 ,11\n", 2),
                                     ("q,b0\n", 0), ("", 0), ("q,b0\n\n# note\n37,5\n", 1)])
def test_measure_xn_accepted_bodies(capsys, tmp_path, body, j):
    path = tmp_path / "xn.csv"
    path.write_text(GOOD_HEADER + "\n" + body)
    code, out = run(capsys, "measure-xn", "--in", str(path))
    assert code == 0
    assert json.loads(out)["J"] == j


@pytest.mark.parametrize("header, body", [
    (GOOD_HEADER, "q,b0\n37,5.5\n"),
    (GOOD_HEADER.replace('"d": 1', '"d": 2'), "q,b0\n37,5\n"),
    (GOOD_HEADER, "q,b0\n37,5\n41\n"),
    (GOOD_HEADER, "q,b0\n37,5\n41,11,7\n"),
    (GOOD_HEADER, "q,b0\n37,5,9\n"),
    (GOOD_HEADER, "q,b0\nthirty-seven,5\n"),
])
def test_measure_xn_malformed_body_exit_2(capsys, tmp_path, header, body):
    path = tmp_path / "xn.csv"
    path.write_text(header + "\n" + body)
    code, out = run(capsys, "measure-xn", "--in", str(path))
    assert code == 2 and out == ""


def _module_env(**extra) -> dict:
    """Environment for `python -m weylmax` from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_python_m_weylmax():
    proc = subprocess.run([sys.executable, "-m", "weylmax", "lattice-count", "3", "5", "2"],
                          capture_output=True, text=True, env=_module_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert {key: obj[key] for key in ("count", "bound", "ok")} == {"count": 4, "bound": 4, "ok": True}
    assert obj["config"] == {"version": weylmax.__version__, "q": 3, "qp": 5, "bound": 2.0}


def test_huge_rho_exit_4_without_runtime_warning():
    # x_max is about 1.3e301: the tail check runs before any moment or Taylor coefficient
    proc = subprocess.run(
        [sys.executable, "-m", "weylmax", "ratio-experiment", "--poly", P_SQ, "--s", "0",
         "--n-ladder", "512", "--rho", "1e300", "--samples", "10", "--budget", "100"],
        capture_output=True, text=True, env=_module_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("invariant violation: Taylor tail bound")
    assert "RuntimeWarning" not in proc.stderr and "nan" not in proc.stderr


def test_stdout_closed_after_first_line_exit_1():
    # a 636 kB table through a 64 kB pipe: the write that follows the reader's close fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylmax", "weyl-table", "--poly", P_SQ, "--q", "10007"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_module_env(PYTHONUNBUFFERED=""))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, "")  # no traceback
    assert first.startswith("# {")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_selftest_into_closed_pipe_exit_1(unbuffered):
    # buffered, the error surfaces in the flush after dispatch; unbuffered, in the first print
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "weylmax", "selftest"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env=_module_env(PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")  # no traceback
