import json
import math

import pytest

from weylmax.cli import dispatch

P_SQ = '{"d":1,"terms":[{"e":[2],"c":1}]}'
P_CUBE = '{"d":1,"terms":[{"e":[3],"c":1}]}'


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_selftest_green(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def test_lattice_count_output(capsys):
    code, out = run(capsys, "lattice-count", "3", "5", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"count": 4, "bound": 4, "ok": True}


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


def test_input_error_exit_2(capsys):
    code, _ = run(capsys, "verify-deligne", "--poly", "not json", "--q", "7")
    assert code == 2
    code, _ = run(capsys, "good-set", "--poly", P_SQ, "--q", "13", "--c", "2.0")
    assert code == 2


def test_resource_guard_exit_3(capsys):
    poly2 = '{"d":2,"terms":[{"e":[2,0],"c":1},{"e":[0,2],"c":1}]}'
    code, _ = run(capsys, "weyl-table", "--poly", poly2, "--q", "65537")
    assert code == 3


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


def _xn_file(tmp_path, header: str) -> str:
    path = tmp_path / "xn.csv"
    path.write_text(header + "\nq,b0\n37,5\n")
    return str(path)


GOOD_HEADER = '# {"Q": 32, "c": 0.5, "d": 1, "n": 1024, "rho": 0.03125}'


def test_measure_xn_missing_file_exit_2(capsys, tmp_path):
    code, _ = run(capsys, "measure-xn", "--in", str(tmp_path / "absent.csv"))
    assert code == 2


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


def test_fit_read_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "fit", "--in", str(tmp_path / "absent.csv"))[0] == 2
    short = tmp_path / "short.csv"
    short.write_text("N,Q,J,measure,measure_err,sup_lb,hs_norm,ratio,wall_ms\n1024,32\n")
    assert run(capsys, "fit", "--in", str(short))[0] == 2


@pytest.mark.parametrize("command", ["solution-eval", "decompose"])
def test_non_integer_residue_exit_2(capsys, command):
    base = [command, "--poly", P_SQ, "--n", "256", "--q", "17"]
    assert run(capsys, *base, "--b", "3")[0] == 0
    assert run(capsys, *base, "--b", "1.7")[0] == 2
