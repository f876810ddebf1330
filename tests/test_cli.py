import json
import os

import pytest

from juliadim import cli, transfer
from juliadim.cli import _fit_d0, main
from juliadim.errors import NoConvergenceError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(argv):
    return main(argv)


def test_dim_circle(capsys):
    assert run(["dim", "--delta", "1.0", "--level", "10"]) == 0
    out = capsys.readouterr().out
    assert "dimension 1.000000000000" in out


def test_dim_json(capsys):
    assert run(["dim", "--delta", "1.0", "--level", "10", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau0"] == pytest.approx(1.0, abs=1e-9)
    assert doc["version"]


def test_parse_error_exit_code(capsys):
    assert run(["dim", "--delta", "nonsense"]) == 2


def test_invalid_dimension_exit_code(capsys):
    assert run(["theta0", "--d0", "1.6"]) == 3


def test_theta0_output(capsys):
    assert run(["theta0", "--d0", "1.08"]) == 0
    out = capsys.readouterr().out
    val = float(out.split("=")[1].split("(")[0])
    assert 1.15 < val < 1.45


def test_theta0_uncertainty_propagation(capsys):
    assert run(["theta0", "--d0", "1.08", "--d0-err", "0.005"]) == 0
    out = capsys.readouterr().out
    assert "+-" in out
    spread = float(out.split("+-")[1].split("(")[0])
    assert 0 < spread < 0.1


def test_threads_deterministic(tmp_path):
    outs = []
    for i, threads in enumerate(("1", "3")):
        out = str(tmp_path / f"d{i}.csv")
        assert run(["d0", "--level", "12", "--t-start", "0.4", "--t-min", "0.2",
                    "--threads", threads, "--out", out]) == 0
        outs.append(open(out).read())
    assert outs[0] == outs[1]


def test_omega_row_count(tmp_path, capsys):
    out = str(tmp_path / "om.csv")
    assert run(["omega", "--d0", "1.08", "--theta-min", "-3", "--theta-max", "3",
                "--step", "0.05", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 122  # header + 121 rows
    header = lines[0].split(",")
    assert header == ["theta", "omega", "err", "status"]
    rows = [ln.split(",") for ln in lines[1:]]
    by_theta = {round(float(r[0]), 9): float(r[1]) for r in rows}
    assert by_theta[0.0] < 0
    # sign change between 1.2 and 1.4
    assert by_theta[1.2] < 0 < by_theta[1.4]
    assert os.path.exists(out + ".manifest.json")


def test_omega_determinism_and_manifest_replay(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["omega", "--d0", "1.08", "--theta-min", "-1", "--theta-max", "1",
            "--step", "0.25"]
    assert run(args + ["--out", out1]) == 0
    manifest = json.load(open(out1 + ".manifest.json"))
    params = manifest["params"]
    replay = ["omega", "--d0", str(params["d0"]),
              "--theta-min", str(params["theta_min"]),
              "--theta-max", str(params["theta_max"]),
              "--step", str(params["step"]), "--out", out2]
    assert run(replay) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_config_file_defaults_and_override(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("level = 9\nd0 = 1.08\n")
    assert run(["--config", str(conf), "dim", "--delta", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "level 9" in out
    # explicit flag beats the config value
    assert run(["--config", str(conf), "dim", "--delta", "1.0",
                "--level", "10"]) == 0
    out = capsys.readouterr().out
    assert "level 10" in out


def test_config_flag_without_path(capsys):
    assert run(["dim", "--delta", "0.3", "--config"]) == 2
    assert "PARSE_ERROR" in capsys.readouterr().err


def test_ray_scan_csv(tmp_path, capsys):
    out = str(tmp_path / "ray.csv")
    assert run(["ray", "--alpha", "0.0", "--t-start", "0.4", "--t-end", "0.2",
                "--level", "12", "--out", out, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fitted_A"] > 0
    lines = open(out).read().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t" and "r" in header
    # ratio column recomputes from the emitted derivative column
    expo = 2.0 * doc["params"]["d0"] - 2.0
    for ln in lines[1:]:
        parts = ln.split(",")
        t, dp_ext, r = float(parts[0]), float(parts[4]), float(parts[6])
        assert r == pytest.approx(dp_ext / t ** expo, rel=1e-12)
        assert r < 0


def test_ray_golden_and_one_solve_per_point(tmp_path, monkeypatch):
    calls = {"build_table": 0, "phi_dot_table": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "build_table")
    counted(cli, "phi_dot_table")
    counted(transfer, "phi_dot_table")
    out = str(tmp_path / "ray.csv")
    assert run(["ray", "--alpha", "0.5236", "--level", "10", "--out", out]) == 0
    # the fixture was written by the allocating kernels with one table and
    # root solve per use; the shared solve must not move a single bit
    with open(os.path.join(FIXTURES, "ray_alpha0.5236_L10.csv"), "rb") as fh:
        golden = fh.read()
    with open(out, "rb") as fh:
        assert fh.read() == golden
    points = len(golden.splitlines()) - 1
    assert points == 7
    # per point: its own table plus the two finite-difference tables, and
    # one phi-dot table shared by the three stencil levels
    assert calls == {"build_table": 3 * points, "phi_dot_table": points}


def test_ray_rejects_bad_alpha():
    assert run(["ray", "--alpha", "2.0", "--level", "12"]) == 2


def test_d0_smoke(tmp_path, capsys):
    out = str(tmp_path / "d0.csv")
    assert run(["d0", "--level", "12", "--t-start", "0.4", "--t-min", "0.2",
                "--out", out, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1.0 < doc["estimate"] < 1.3
    assert os.path.exists(out)


def test_fit_d0_reports_no_convergence():
    # dimensions rising linearly in t admit no self-consistent power law:
    # the fixed-point iteration wanders instead of settling
    with pytest.raises(NoConvergenceError):
        _fit_d0([0.4, 0.3, 0.2, 0.1], [1.3, 1.2, 1.1, 1.0])


def test_convexity_smoke(tmp_path, capsys):
    out = str(tmp_path / "cx.csv")
    code = run(["convexity", "--eps-min", "-0.05", "--eps-max", "-0.02",
                "--points", "5", "--level", "12", "--out", out])
    assert code == 0
    assert "second differences positive: True" in capsys.readouterr().out


def test_convexity_rejects_positive_eps():
    assert run(["convexity", "--eps-min", "-0.01", "--eps-max", "0.01"]) == 2


def test_mandelbrot_grid(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    assert run(["mandelbrot", "--grid", "21", "--max-iter", "200",
                "--out", out]) == 0
    rows = [ln.split(",") for ln in open(out).read().splitlines()[1:]]
    assert len(rows) == 441
    table = {(float(r[0]), float(r[1])): int(r[2]) for r in rows}
    assert table[(1.0, 0.0)] == 1
    # symmetric under delta -> -delta
    for (re, im), v in table.items():
        assert table[(-re, -im)] == v


def test_mandelbrot_eps_family(tmp_path):
    out = str(tmp_path / "me.csv")
    assert run(["mandelbrot", "--grid", "11", "--family", "eps",
                "--max-iter", "200", "--out", out]) == 0
    rows = [ln.split(",") for ln in open(out).read().splitlines()[1:]]
    table = {(float(r[0]), float(r[1])): int(r[2]) for r in rows}
    assert table[(-1.0, 0.0)] == 1   # c = -3/4, inside the main body
    # positive real eps beyond the cusp escapes
    assert table[(0.25, 0.0)] == 0
    assert table[(0.5, 0.0)] == 0


def test_verify_exit_codes(capsys):
    assert run(["verify", "--suite", "appendix"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
