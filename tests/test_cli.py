import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliadim import __version__, cli, transfer
from juliadim.cli import _fit_d0, main
from juliadim.errors import NoConvergenceError
from juliadim.maps import delta_from_epsilon, in_mandelbrot_grid

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


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


@pytest.mark.parametrize("cmd", ["theta0", "omega", "ray"])
def test_invalid_dimension_exit_code(tmp_path, capsys, cmd):
    # --d0 outside (1, 1.5) is refused before the first row: exit 3 and no
    # CSV or manifest
    out = tmp_path / "out.csv"
    assert run([cmd, "--d0", "1.6", "--out", str(out)]) == 3
    assert "error[INVALID_DIMENSION]" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


def test_theta0_rejects_negative_d0_err(tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert run(["theta0", "--d0", "1.08", "--d0-err", "-0.005",
                "--out", str(out)]) == 2
    assert "error[PARSE_ERROR]" in capsys.readouterr().err
    assert not out.exists()


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
    # a range that is not a whole number of steps ends at the last step
    # inside it
    assert run(["omega", "--theta-min", "0", "--theta-max", "1",
                "--step", "0.6", "--out", out]) == 0
    thetas = [float(ln.split(",")[0]) for ln in open(out).read().splitlines()[1:]]
    assert thetas == [0.0, 0.6]


@pytest.mark.parametrize("argv", [
    ["omega", "--d0", "1.08", "--theta-min", "-1", "--theta-max", "1",
     "--step", "0.25"],
    ["ray", "--alpha", "0.3", "--t-start", "0.4", "--t-end", "0.2",
     "--level", "10"],
    ["d0", "--level", "10", "--t-start", "0.4", "--t-min", "0.2"],
    ["convexity", "--points", "3", "--level", "10"],
    ["mandelbrot", "--grid", "7", "--family", "eps", "--max-iter", "50"]],
    ids=lambda argv: argv[0])
def test_manifest_replay_is_byte_identical(tmp_path, argv):
    # the manifest records every option of the run, so replaying its
    # params alone rewrites the CSV byte for byte
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run([*argv, "--out", out1]) == 0
    with open(out1 + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == argv[0] and manifest["outputs"] == [out1]
    assert manifest["version"] == __version__ and manifest["duration_ms"] >= 0
    replay = [argv[0]]
    for key, value in manifest["params"].items():
        replay += ["--" + key.replace("_", "-"), str(value)]
    assert run([*replay, "--out", out2]) == 0
    with open(out1, "rb") as fa, open(out2, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("argv", [
    ["dim", "--delta", "-0.3", "--level", "10"],
    ["d0", "--level", "10", "--t-start", "0.4", "--t-min", "0.2"],
    ["ray", "--alpha", "0.3", "--t-start", "0.4", "--t-end", "0.2",
     "--level", "10"]], ids=lambda argv: argv[0])
def test_json_document_holds_the_record(tmp_path, capsys, argv):
    # --json prints the record the manifest holds; dim, which writes no
    # CSV, writes the printed document to --out
    out = str(tmp_path / "out")
    assert run([*argv, "--json", "--out", out]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == argv[0] and doc["version"] == __version__
    assert doc["duration_ms"] >= 0
    with open(out if argv[0] == "dim" else out + ".manifest.json") as fh:
        saved = json.load(fh)
    if argv[0] == "dim":
        assert saved == doc
        assert doc["params"] == {"delta": "(0.3+0j)", "level": 10,
                                 "tol": transfer.PRESSURE_TOL}
    else:
        assert saved["params"] == doc["params"]


def test_config_file_defaults_and_override(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("level = 9\nd0 = 1.08\n")
    # every spelling argparse accepts for --config loads the file
    for spelling in (["--config", str(conf)], [f"--config={conf}"],
                     ["--conf", str(conf)]):
        assert run([*spelling, "dim", "--delta", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "level 9" in out
        # explicit flag beats the config value
        assert run([*spelling, "dim", "--delta", "1.0", "--level", "10"]) == 0
        out = capsys.readouterr().out
        assert "level 10" in out


def test_config_satisfies_required_option(tmp_path, capsys):
    # a config line for a required option stands in for the flag, and the
    # flag still wins; without either the run exits 2
    conf = tmp_path / "run.conf"
    conf.write_text("delta = 0.3\nlevel = 10\n")
    assert run(["--config", str(conf), "dim"]) == 0
    assert "level 10" in capsys.readouterr().out
    assert run(["--config", str(conf), "dim", "--delta", "1.0"]) == 0
    assert "dimension 1.000000000000" in capsys.readouterr().out
    conf.write_text("level = 10\n")
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(conf), "dim"])
    assert exc.value.code == 2
    assert "required: --delta" in capsys.readouterr().err


def test_config_flag_without_path(capsys):
    assert run(["dim", "--delta", "0.3", "--config"]) == 2
    assert "PARSE_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("text, argv", [
    (b"level = abc\n", ["dim", "--delta", "0.3"]),
    (b"suite = nope\n", ["verify"]),
    (b"family = xyz\n", ["mandelbrot", "--grid", "3"]),
    (b"json = ture\n", ["dim", "--delta", "0.3", "--out", "d.json"]),
    (b"\xff = 1\n", ["theta0"])],
    ids=["level", "suite", "family", "bool", "not-utf8"])
def test_config_values_checked_like_flags(tmp_path, monkeypatch, capsys, text, argv):
    # a value argparse would refuse as a flag, or a file that is not UTF-8,
    # is refused before any work: exit 2 and no output file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_bytes(text)
    assert run(["--config", "run.conf", *argv]) == 2
    err = capsys.readouterr().err
    assert "error[PARSE_ERROR]" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["run.conf"]


@pytest.mark.parametrize("word, printed", [("On", True), ("YES", True),
                                            ("1", True), ("off", False),
                                            ("No", False), ("0", False)])
def test_config_booleans(tmp_path, capsys, word, printed):
    conf = tmp_path / "run.conf"
    conf.write_text(f"json = {word}\n")
    assert run(["--config", str(conf), "dim", "--delta", "1.0", "--level", "10"]) == 0
    assert capsys.readouterr().out.startswith("{") == printed


def _config_valid(pairs) -> bool:
    """Whether the mandelbrot options take these config values as flags."""
    conf = {k.replace("-", "_"): v.strip() for k, v in pairs}
    try:
        for key in ("grid", "max_iter"):
            int(conf.get(key, "1"))
    except ValueError:
        return False
    return conf.get("family", "delta") in ("delta", "eps")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["grid", "family", "max_iter", "max-iter", "out", "nope"]),
    st.one_of(st.sampled_from(["delta", " eps ", "3", "-1", "1e3", "true"]),
              st.text(st.characters(exclude_categories=("Cs",),
                                    exclude_characters="#\r\n"), max_size=8))),
    max_size=5))
def test_config_values_property(pairs):
    # flags win over the config, so --grid and --max-iter keep the run
    # small whatever the config says; every value is still checked
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = os.path.join(tmp, "run.conf"), os.path.join(tmp, "m.csv")
        with open(conf, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in pairs)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--config", conf, "mandelbrot", "--grid", "1",
                         "--max-iter", "50", "--out", out])
        if _config_valid(pairs):
            assert code == 0 and os.path.exists(out)
        else:
            assert code == 2 and not os.path.exists(out)
            assert "error[PARSE_ERROR]: config " in err.getvalue()


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

    counted(transfer, "build_table")
    counted(transfer, "phi_dot_table")
    out = str(tmp_path / "ray.csv")
    assert run(["ray", "--alpha", "0.5236", "--level", "10", "--out", out]) == 0
    # the fixture was written with one table and root solve per use, before
    # the Perron loop's Aitken step; compare at the benchmark's output gates:
    # dimensions within 1e-10, derived values within 1e-5 relative
    with open(os.path.join(FIXTURES, "ray_alpha0.5236_L10.csv")) as fh:
        golden = list(csv.DictReader(fh))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(golden[0])
    points = len(golden)
    assert points == 7 and len(rows) == points
    for row, ref in zip(rows, golden):
        assert row["t"] == ref["t"] and row["status"] == ref["status"]
        for col in ("dim_raw", "dim_extrapolated"):
            assert float(row[col]) == pytest.approx(float(ref[col]),
                                                    rel=0, abs=1e-10)
        for col in ("dprime_raw", "dprime_extrapolated", "dprime_fd", "r"):
            assert float(row[col]) == pytest.approx(float(ref[col]), rel=1e-5)
    # per point: its own table plus the two finite-difference tables, and
    # one phi-dot table for each of the three stencil levels
    assert calls == {"build_table": 3 * points, "phi_dot_table": 3 * points}


@pytest.mark.parametrize("failing, code", [(3, 3), (1, 0)], ids=["none", "some"])
def test_ray_unsolved_points(tmp_path, monkeypatch, capsys, failing, code):
    # the first `failing` points raise: the CSV still lists every point
    # with its status, no numpy warning is raised, and a scan with no
    # solved point has nothing to fit and exits 3
    real = cli.ray_point
    calls = []

    def flaky(delta, level):
        calls.append(delta)
        if len(calls) <= failing:
            raise NoConvergenceError("no root")
        return real(delta, level)
    monkeypatch.setattr(cli, "ray_point", flaky)
    out = tmp_path / "ray.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["ray", "--level", "10", "--t-start", "0.4", "--t-end", "0.2",
                    "--out", str(out), "--json"]) == code
    doc = json.loads(capsys.readouterr().out)
    with open(out) as fh:
        status = [row["status"] for row in csv.DictReader(fh)]
    assert status == ["NO_CONVERGENCE"] * failing + ["ok"] * (3 - failing)
    assert os.path.exists(str(out) + ".manifest.json")
    assert math.isnan(doc["planar_A_refit"]) == (failing == 3)


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


def test_mandelbrot_grid_pinned_digest(tmp_path):
    # the benchmark's survey grid against the seed commit's inside column
    ref_path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "reference.json")
    with open(ref_path) as fh:
        ref = json.load(fh)["mandelbrot"]
    out = str(tmp_path / "m.csv")
    assert run(["mandelbrot", "--grid", "201", "--family", "delta",
                "--out", out]) == 0
    bits = [ln.rsplit(",", 1)[1] for ln in open(out).read().splitlines()[1:]]
    assert len(bits) == ref["points"]
    assert hashlib.sha256("".join(bits).encode()).hexdigest() == ref["sha256"]


def test_mandelbrot_eps_pinned_digest(tmp_path):
    # the whole CSV of the eps family, as written before delta_from_epsilon
    # replaced Param.from_epsilon: every eps reaches c = 1/4 - delta^2/4
    # through the same roundings; its im = 0 row holds the real eps > 0
    # whose root the choice flips from -i sqrt(eps) to +i sqrt(eps)
    out = str(tmp_path / "m.csv")
    assert run(["mandelbrot", "--family", "eps", "--grid", "21",
                "--out", out]) == 0
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == ("88f729e62783f56ed41500fe62c917a1"
                      "84780b2a76e79bbbd0b26295b8fba34f")


@pytest.mark.parametrize("family", ["delta", "eps"])
@pytest.mark.parametrize("grid", [1, 7])
def test_mandelbrot_csv_matches_per_row_formatting(tmp_path, family, grid):
    # byte for byte the CSV of one formatted row per grid point
    out = str(tmp_path / "m.csv")
    assert run(["mandelbrot", "--grid", str(grid), "--family", family,
                "--out", out]) == 0
    if family == "delta":
        res, ims = np.linspace(-2.5, 2.5, grid), np.linspace(-2.5, 2.5, grid)
    else:
        res, ims = np.linspace(-2.0, 0.5, grid), np.linspace(-1.25, 1.25, grid)
    deltas = [complex(re, im) for re in res for im in ims]
    if family == "eps":
        deltas = [delta_from_epsilon(e) for e in deltas]
    inside = in_mandelbrot_grid(deltas, 1000)
    rows = [[re, im, 1 if inside[i * grid + j] else 0]
            for i, re in enumerate(res) for j, im in enumerate(ims)]
    ref = str(tmp_path / "ref.csv")
    cli._write_csv(ref, ["re", "im", "inside"], rows)
    with open(out, "rb") as fh, open(ref, "rb") as fr:
        assert fh.read() == fr.read()


@pytest.mark.parametrize("argv", [["--grid", "0"], ["--grid", "-3"],
                                  ["--grid", "3", "--max-iter", "0"]])
def test_mandelbrot_rejects_bad_sizes(tmp_path, argv):
    out = str(tmp_path / "m.csv")
    assert run(["mandelbrot", *argv, "--out", out]) == 2
    assert not os.path.exists(out)


def test_dim_minus_delta_shares_dimension(capsys):
    # a value with a leading minus and more than one part needs the = form
    for plus, minus in ((["--delta", "0.3"], ["--delta", "-0.3"]),
                        (["--delta", "0.3-0.1j"], ["--delta=-0.3+0.1j"])):
        taus = []
        for delta in (plus, minus):
            assert run(["dim", *delta, "--level", "10", "--json"]) == 0
            taus.append(json.loads(capsys.readouterr().out)["tau0"])
        assert taus[0] == taus[1]


@pytest.mark.parametrize("delta", ["0.3j", "0", "2.236"])
def test_dim_rejects_delta_outside_disk(capsys, delta):
    assert run(["dim", "--delta", delta, "--level", "10"]) == 2
    assert "PARSE_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "0.1", "1e-12"])
def test_dim_tol_only_tightens(capsys, tol):
    # 0 < --tol <= PRESSURE_TOL: a looser tolerance accepts the bracket end
    # tau = 1 as the root, and a nonpositive or nan one can never be met
    code = run(["dim", "--delta", "0.3", "--level", "10", "--tol", tol,
                "--json"])
    out, err = capsys.readouterr()
    if tol == "1e-12":
        assert code == 0
        assert json.loads(out)["pressure_residual"] <= 1e-12
    else:
        assert code == 2
        assert "error[PARSE_ERROR]" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["convexity", "--eps-min", "-1.2", "--eps-max", "-1.0", "--points", "3"],
    ["d0", "--t-start", "2.5", "--t-min", "1.5"],
    # the grid point 1.995 is inside, its finite-difference point 2.015 is not
    ["ray", "--alpha", "0", "--t-start", "1.995", "--t-end", "1.995"]])
def test_scans_reject_grid_outside_disk(tmp_path, capsys, argv):
    # the whole grid is checked before any solve: exit 2 and no CSV
    out = str(tmp_path / "scan.csv")
    assert run([*argv, "--level", "10", "--out", out]) == 2
    assert "PARSE_ERROR" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["omega", "--step", "0"],
    ["omega", "--step", "-0.05"],
    ["omega", "--theta-min", "1", "--theta-max", "-1"],
    ["convexity", "--points", "1", "--level", "10"],
    ["convexity", "--points", "2", "--level", "10"],
    # two grid points leave one for the refit that gives the uncertainty
    ["d0", "--t-start", "0.4", "--t-min", "0.28", "--level", "10"],
    ["convexity", "--eps-min", "-0.03", "--eps-max", "-0.03", "--points", "3",
     "--level", "10"]])
def test_grids_reject_empty_or_degenerate(tmp_path, capsys, argv):
    # a grid with no point, a convexity grid with no second difference (too
    # few points, or all at one eps) or a d0 grid too short for its refit is
    # refused before any work: exit 2 and no CSV
    out = str(tmp_path / "grid.csv")
    assert run([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "PARSE_ERROR" in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_dim_reports_bracket_failure(monkeypatch, capsys):
    # a pressure that is not positive at tau = 1 has no root in the bracket
    monkeypatch.setattr(transfer.TransferOperator, "pressure_with_state",
                        lambda self, tau, u0=None, rtol=None:
                        (-tau, np.full(self.size, 1.0 / self.size)))
    assert run(["dim", "--delta", "0.3", "--level", "10"]) == 3
    assert "error[BRACKET_FAILURE]" in capsys.readouterr().err


@pytest.mark.parametrize("solver", [transfer.hausdorff_dim, transfer.ray_point])
@pytest.mark.parametrize("delta", [2.19, 0.3j, 0.0])
def test_scan_solvers_reject_delta_outside_disk(solver, delta):
    with pytest.raises(ValueError, match="outside the attracting disk"):
        solver(delta, 10)


@pytest.mark.parametrize("delta", [1.995, 1.0 + 0.9995j, 2.19, 0.0])
def test_dprime_fd_rejects_stencil_outside_disk(delta):
    with pytest.raises(ValueError, match="outside the attracting disk"):
        transfer.dprime_fd(delta, 10)


@pytest.mark.parametrize("argv", [
    ["d0", "--level", "7", "--t-start", "0.4", "--t-min", "0.2"],
    ["ray", "--level", "3", "--t-start", "0.4", "--t-end", "0.2"],
    ["convexity", "--level", "7", "--points", "3"]])
def test_scans_reject_level_below_eight(tmp_path, capsys, argv):
    out = str(tmp_path / "scan.csv")
    assert run([*argv, "--out", out]) == 2
    assert "level must be >= 8" in capsys.readouterr().err
    assert not os.path.exists(out)


# the shared flags each command reads; --out is on every command
COMMAND_FLAGS = {
    "dim": {"--level", "--tol", "--out", "--json"},
    "omega": {"--out"},
    "theta0": {"--out"},
    "ray": {"--level", "--out", "--json"},
    "d0": {"--level", "--out", "--json"},
    "verify": {"--out"},
    "convexity": {"--level", "--out"},
    "mandelbrot": {"--out"},
}
# --threads is on none: a large solve splits on its own
FLAG_ARGS = {"--level": ["12"], "--tol": ["1e-8"], "--out": ["x.csv"],
             "--threads": ["2"], "--json": []}


@pytest.mark.parametrize("cmd", sorted(COMMAND_FLAGS))
def test_commands_take_only_the_flags_they_read(cmd, capsys):
    base = [cmd, "--delta", "0.3"] if cmd == "dim" else [cmd]
    for flag, value in FLAG_ARGS.items():
        argv = [*base, flag, *value]
        if flag in COMMAND_FLAGS[cmd]:
            cli._build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_config_check_skips_commands_without_the_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("level = abc\n")
    # keys a command lacks stay ignored; a command that reads them checks them
    assert run(["--config", str(conf), "theta0", "--d0", "1.08"]) == 0
    assert run(["--config", str(conf), "d0", "--level", "12"]) == 2
    assert "config level = 'abc'" in capsys.readouterr().err


def test_quadrature_not_finite_is_an_error(tmp_path, capsys):
    # d0 = 1.49 is admissible, but the stretched integrand overflows
    out = str(tmp_path / "omega.csv")
    assert run(["omega", "--d0", "1.49", "--theta-min", "0", "--theta-max", "0",
                "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["TOLERANCE_NOT_MET"]
    for argv in (["theta0", "--d0", "1.49"],
                 ["ray", "--d0", "1.49", "--level", "10",
                  "--out", str(tmp_path / "ray.csv")]):
        capsys.readouterr()
        assert run(argv) == 3
        assert "error[TOLERANCE_NOT_MET]" in capsys.readouterr().err


def test_iteration_budget_is_an_error(monkeypatch, capsys):
    # a Perron solve that runs out of steps is a numeric error, exit 3
    monkeypatch.setattr(transfer, "EIG_MAXIT", 3)
    assert run(["dim", "--delta", "0.3", "--level", "10"]) == 3
    err = capsys.readouterr().err
    assert "error[NO_CONVERGENCE]" in err and "Traceback" not in err


def _modules_loaded_after(code, prefixes):
    """The modules under any of ``prefixes`` loaded once ``code`` has run
    in a fresh interpreter."""
    code += ("\nimport sys; print(sorted(m for m in sys.modules if any("
             f"m == p or m.startswith(p + '.') for p in {prefixes!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the package must run on numpy alone.
    # Only verify runs the checks and the Fatou coordinates, and nothing
    # draws from numpy.random, so no command pays to load them
    assert _modules_loaded_after("import juliadim.cli", (
        "scipy", "juliadim.checks", "juliadim.fatou", "numpy.random")) == "[]"


def test_verify_loads_no_numpy_random():
    # the suites draw their samples from random.Random
    code = ("import contextlib, io\nfrom juliadim.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--suite', 'all']) == 0")
    assert _modules_loaded_after(code, ("numpy.random",)) == "[]"


def test_verify_refuses_an_unknown_suite(tmp_path, monkeypatch, capsys):
    # the suite runner's own message names every suite; nothing is written
    from juliadim import checks
    monkeypatch.chdir(tmp_path)
    assert run(["verify", "--suite", "nope", "--out", "verify.txt"]) == 2
    err = capsys.readouterr().err
    assert "error[PARSE_ERROR]" in err and "Traceback" not in err
    assert all(name in err for name in [*checks.SUITES, "all"])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [["theta0", "--d0", "1.08", "--d0-err", "0.005"],
                                  ["verify", "--suite", "appendix"]])
def test_out_holds_the_printed_lines(tmp_path, capsys, argv):
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == printed
    assert out.read_text() == printed


def test_verify_exit_codes(capsys):
    assert run(["verify", "--suite", "appendix"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
