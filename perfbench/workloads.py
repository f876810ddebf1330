"""The three benchmark workloads: their CLI inputs per seed and their checks.

A workload is a list of ``juliadim`` CLI argument vectors, run in order in
one fresh interpreter. Seed 0 is the canonical input set; other seeds draw
nearby inputs of the same cost class from ``random.Random(seed)``.

Every produced result is one *operation*: a ray row, a ``d0`` row, the
``d0`` estimate, a convexity point, the dimension, an ``omega`` row, the
theta0 root, the Mandelbrot grid, or a ``verify`` check. An operation fails
on an unexpected exit code, a status other than ``ok``, or a value outside
tolerance. Pinned references (``reference.json``, written by ``pin.py`` at
the seed commit) apply to a command only when its argv equals the seed-0
argv; the independent routes below apply to every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import re

# Pressure-root tolerance of the solver (juliadim.transfer.PRESSURE_TOL).
PRESSURE_TOL = 1e-10
# Dimensions (pressure roots) must reproduce within this, absolutely.
DIM_ATOL = 1e-10
# Derived floats (derivatives, ratios, second differences, fits, Aitken
# values). The largest amplification of a root error among them is the
# convexity second difference, 4 * DIM_ATOL / h^2 with h = 0.005, i.e.
# 1.6e-5 absolute on values >= 8.8, or 1.8e-6 relative; the central finite
# difference gives 2 * DIM_ATOL / (2 * 0.01 * 0.05) = 2e-7 on values
# >= 0.076, or 2.6e-6 relative. 1e5 * PRESSURE_TOL keeps a 4x margin.
DERIVED_RTOL = 1e5 * PRESSURE_TOL
# omega rows: the quadrature's own targets (abs 1e-10, rel 1e-9), times 10.
QUAD_ATOL, QUAD_RTOL = 1e-9, 1e-8
# theta0 is printed with 6 decimals and bisected to xtol 1e-6.
THETA_ATOL = 2e-6
# Route check for the ray: formula derivative against the central finite
# difference at rel_step 1e-2, whose O(step^2) truncation is ~1e-5 relative.
FD_RTOL = 1e-4

OMEGA_STEP = 0.05
D0_BRACKET = (1.0, 1.295)
THETA0_WINDOW = (1.15, 1.45)
VERIFY_CHECKS = 49

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _num(x: float) -> str:
    return repr(round(x, 6))


def inputs(seed: int) -> dict:
    """The varied inputs: ray angle, deep |delta|, omega grid offset.

    The phase of delta is not varied: any phase above ~1e-4 rad multiplies
    the deep workload's operator applications by 5-13x (see NOTES.md), so
    nearby inputs of the same cost class vary |delta| instead.
    """
    if seed == 0:
        return {"alpha": 0.5236, "delta": 0.05, "theta_shift": 0.0}
    rng = random.Random(seed)
    return {"alpha": (math.pi / 4) * (1.0 - rng.random()),     # (0, pi/4]
            "delta": 0.05 * (1.0 + 0.05 * (2.0 * rng.random() - 1.0)),
            "theta_shift": OMEGA_STEP * rng.random()}


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argv lists of one pass; every output goes to an explicit --out."""
    x = inputs(seed)
    if workload == "scan":
        return [["ray", "--alpha", _num(x["alpha"]), "--level", "14",
                 "--json", "--out", "ray.csv"],
                ["d0", "--level", "16", "--json", "--out", "d0.csv"],
                ["convexity", "--points", "9", "--level", "14",
                 "--out", "convexity.csv"]]
    if workload == "deep":
        return [["dim", "--delta", _num(x["delta"]), "--level", "20",
                 "--json", "--out", "dim.json"]]
    if workload == "survey":
        omega = ["omega", "--out", "omega.csv"]
        if x["theta_shift"]:
            omega[1:1] = ["--theta-min", _num(-3.0 + x["theta_shift"]),
                          "--theta-max", _num(3.0 + x["theta_shift"])]
        return [omega,
                ["theta0", "--d0", "1.08", "--d0-err", "0.005",
                 "--out", "theta0.txt"],
                ["mandelbrot", "--grid", "201", "--family", "delta",
                 "--out", "mandelbrot.csv"],
                ["verify", "--suite", "all", "--out", "verify.txt"]]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scan", "deep", "survey")


# ---------------------------------------------------------------------------
# output parsing

def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def json_doc(stdout: str) -> dict:
    return json.loads(stdout[stdout.index("{"):stdout.rindex("}") + 1])


def grid_digest(path: str) -> tuple[int, str, list[str]]:
    """(points, sha256 of the inside column, inside column) of a grid CSV."""
    bits = [row["inside"] for row in read_rows(path)]
    return len(bits), hashlib.sha256("".join(bits).encode()).hexdigest(), bits


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks: each records one tally entry per operation

class _Tally:
    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{self.name} {label}: " + "; ".join(problems))

    def fail_all(self, n: int, why: str) -> None:
        self.attempted += n
        self.failures.extend(f"{self.name} op {i}: {why}" for i in range(n))


def _close(value: float, ref: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def _pin(problems, name, value, ref, atol=0.0, rtol=0.0):
    if not _close(value, ref, atol, rtol):
        problems.append(f"{name} {value!r} != pinned {ref!r}")


# Operations each command produces, charged as failed when the command
# itself fails or its output cannot be read.
EXPECTED_OPS = {"ray": 7, "d0": 8, "convexity": 9, "dim": 1, "omega": 121,
                "theta0": 1, "mandelbrot": 1, "verify": VERIFY_CHECKS}


def _check_ray(res, ref, tally, workdir):
    doc = json_doc(res["stdout"])
    rows = read_rows(os.path.join(workdir, "ray.csv"))
    if len(rows) != EXPECTED_OPS["ray"]:
        tally.fail_all(EXPECTED_OPS["ray"], f"{len(rows)} rows")
        return
    for i, row in enumerate(rows):
        p = []
        if row["status"] != "ok":
            p.append(f"status {row['status']}")
        else:
            raw, fd = float(row["dprime_raw"]), float(row["dprime_fd"])
            if not _close(raw, fd, rtol=FD_RTOL):
                p.append(f"dprime_raw {raw!r} vs dprime_fd {fd!r}")
            if not 1.0 < float(row["dim_raw"]) < 1.5:
                p.append(f"dim_raw {row['dim_raw']} outside (1, 1.5)")
            if not doc.get("planar_A_consistent"):
                p.append("planar_A refit inconsistent")
            if ref is not None:
                r = ref["rows"][i]
                for col in ("t", "dim_raw", "dim_extrapolated"):
                    _pin(p, col, float(row[col]), r[col], atol=DIM_ATOL)
                for col in ("dprime_raw", "dprime_extrapolated", "dprime_fd", "r"):
                    _pin(p, col, float(row[col]), r[col], rtol=DERIVED_RTOL)
        tally.op(f"row {i}", p)


def _check_d0(res, ref, tally, workdir):
    doc = json_doc(res["stdout"])
    rows = read_rows(os.path.join(workdir, "d0.csv"))
    if len(rows) != EXPECTED_OPS["d0"] - 1:
        tally.fail_all(EXPECTED_OPS["d0"], f"{len(rows)} rows")
        return
    for i, row in enumerate(rows):
        p = []
        raw = float(row["dim_raw"])
        if not 1.0 < raw < 1.5:
            p.append(f"dim_raw {raw!r} outside (1, 1.5)")
        if i and not raw > float(rows[i - 1]["dim_raw"]):
            p.append("dim_raw not increasing as t decreases")
        if not 0.0 < float(row["level_gap"]) < 1e-2:
            p.append(f"level_gap {row['level_gap']}")
        if ref is not None:
            r = ref["rows"][i]
            for col in ("t", "dim_raw", "dim_extrapolated"):
                _pin(p, col, float(row[col]), r[col], atol=DIM_ATOL)
            _pin(p, "level_gap", float(row["level_gap"]), r["level_gap"],
                 rtol=DERIVED_RTOL)
        tally.op(f"row {i}", p)
    p = []
    est = doc["estimate"]
    if not (D0_BRACKET[0] < est < D0_BRACKET[1] and doc["in_expected_bracket"]):
        p.append(f"estimate {est!r} outside {D0_BRACKET}")
    if ref is not None:
        _pin(p, "estimate", est, ref["estimate"], rtol=DERIVED_RTOL)
        _pin(p, "uncertainty", doc["uncertainty"], ref["uncertainty"],
             rtol=DERIVED_RTOL)
    tally.op("estimate", p)


def _check_convexity(res, ref, tally, workdir):
    rows = read_rows(os.path.join(workdir, "convexity.csv"))
    if len(rows) != EXPECTED_OPS["convexity"]:
        tally.fail_all(EXPECTED_OPS["convexity"], f"{len(rows)} rows")
        return
    for i, row in enumerate(rows):
        p = []
        dim = float(row["dim"])
        if not 1.0 < dim < 1.5:
            p.append(f"dim {dim!r} outside (1, 1.5)")
        d2 = float(row["second_difference"]) if row["second_difference"] else None
        if 0 < i < len(rows) - 1 and not (d2 is not None and d2 > 0):
            p.append(f"second difference {d2!r} not > 0")
        if ref is not None:
            r = ref["rows"][i]
            _pin(p, "eps", float(row["eps"]), r["eps"], atol=DIM_ATOL)
            _pin(p, "dim", dim, r["dim"], atol=DIM_ATOL)
            if d2 is not None:
                _pin(p, "second_difference", d2, r["second_difference"],
                     rtol=DERIVED_RTOL)
        tally.op(f"point {i}", p)


def _check_dim(res, ref, tally, workdir):
    doc = json_doc(res["stdout"])
    with open(os.path.join(workdir, "dim.json")) as fh:
        saved = json.load(fh)
    p = []
    tau, rich, gap = doc["tau0"], doc["richardson_estimate"], doc["error_bound"]
    if saved["tau0"] != tau:
        p.append("--out document disagrees with stdout")
    if not doc["pressure_residual"] <= PRESSURE_TOL:
        p.append(f"pressure residual {doc['pressure_residual']!r}")
    if not 1.0 < tau < 1.5:
        p.append(f"tau0 {tau!r} outside (1, 1.5)")
    if not (0.0 < gap < 1e-3 and abs(rich - tau) <= 10.0 * gap):
        p.append(f"level extrapolation inconsistent: tau0 {tau!r}, "
                 f"Aitken {rich!r}, gap {gap!r}")
    if ref is not None:
        _pin(p, "tau0", tau, ref["tau0"], atol=DIM_ATOL)
        _pin(p, "richardson_estimate", rich, ref["richardson_estimate"],
             rtol=DERIVED_RTOL)
        _pin(p, "error_bound", gap, ref["error_bound"], rtol=DERIVED_RTOL)
    tally.op("dimension", p)


_THETA_RE = re.compile(r"theta0 = ([-+0-9.eE]+) \+- ([-+0-9.eE]+)")


def parse_theta0(stdout: str) -> tuple[float, float]:
    m = _THETA_RE.search(stdout)
    return float(m.group(1)), float(m.group(2))


def _check_omega(res, ref, tally, workdir, theta0):
    rows = read_rows(os.path.join(workdir, "omega.csv"))
    if len(rows) != EXPECTED_OPS["omega"]:
        tally.fail_all(EXPECTED_OPS["omega"], f"{len(rows)} rows")
        return
    for i, row in enumerate(rows):
        p = []
        if row["status"] != "ok":
            p.append(f"status {row['status']}")
        else:
            th, om, err = float(row["theta"]), float(row["omega"]), float(row["err"])
            if not err <= QUAD_ATOL * 10:
                p.append(f"error estimate {err!r}")
            # sign pattern implied by the theta0 root (criterion 3 on |theta| <= 1)
            if theta0 is not None and abs(abs(th) - theta0) > THETA_ATOL:
                if (om < 0) != (abs(th) < theta0):
                    p.append(f"omega({th!r}) = {om!r} has the wrong sign "
                             f"for theta0 = {theta0}")
            if ref is not None:
                r = ref["rows"][i]
                _pin(p, "theta", th, r["theta"], atol=1e-15)
                _pin(p, "omega", om, r["omega"], atol=QUAD_ATOL, rtol=QUAD_RTOL)
        tally.op(f"row {i}", p)


def _check_theta0(res, ref, tally, workdir):
    root, spread = parse_theta0(res["stdout"])
    p = []
    if not THETA0_WINDOW[0] <= root <= THETA0_WINDOW[1]:
        p.append(f"theta0 {root} outside {THETA0_WINDOW}")
    if ref is not None:
        _pin(p, "theta0", root, ref["theta0"], atol=THETA_ATOL)
        _pin(p, "spread", spread, ref["spread"], atol=THETA_ATOL)
    tally.op("root", p)


def _check_mandelbrot(res, ref, tally, workdir):
    n_pts, digest, bits = grid_digest(os.path.join(workdir, "mandelbrot.csv"))
    p = []
    n = math.isqrt(n_pts)
    if n * n != n_pts:
        p.append(f"{n_pts} points is not a square grid")
    else:
        grid = [bits[i * n:(i + 1) * n] for i in range(n)]
        # c = 1/4 - delta^2/4 is invariant under delta -> -delta and conj
        if any(grid[i][j] != grid[n - 1 - i][n - 1 - j] or
               grid[i][j] != grid[i][n - 1 - j]
               for i in range(n) for j in range(n)):
            p.append("grid not symmetric under delta -> -delta, conj(delta)")
    if ref is not None and (n_pts, digest) != (ref["points"], ref["sha256"]):
        p.append(f"grid digest {digest[:12]} ({n_pts} points) != pinned")
    tally.op("grid", p)


def verify_lines(stdout: str) -> list[tuple[str, str]]:
    """(line, check name) of every ``[PASS]``/``[FAIL]`` line of ``verify``."""
    return [(ln, ln.split("]", 1)[1].split(":", 1)[0].strip())
            for ln in stdout.splitlines() if ln.startswith("[")]


def _check_verify(res, ref, tally, workdir):
    lines = verify_lines(res["stdout"])
    if len(lines) != VERIFY_CHECKS:
        tally.fail_all(VERIFY_CHECKS, f"{len(lines)} check lines")
        return
    for i, (ln, name) in enumerate(lines):
        p = []
        if not ln.startswith("[PASS]"):
            p.append(ln)
        if ref is not None and name != ref["names"][i]:
            p.append(f"check {name!r} != pinned {ref['names'][i]!r}")
        tally.op(name, p)


_CHECKS = {"ray": _check_ray, "d0": _check_d0, "convexity": _check_convexity,
           "dim": _check_dim, "theta0": _check_theta0,
           "mandelbrot": _check_mandelbrot, "verify": _check_verify}
# Exit codes after which the outputs are still checked operation by
# operation: convexity exits 3 and verify 4 when they report a failure.
_CHECKED_RC = {"convexity": (0, 3), "verify": (0, 4)}


def check_pass(workload: str, results: list[dict], workdir: str,
               reference: dict) -> tuple[int, list[str]]:
    """Check one pass's command results; returns (attempted, failures)."""
    canonical = commands(workload, 0)
    tally = _Tally(workload)
    theta0 = None       # the omega rows are checked against this root
    for res in results:
        if res["argv"][0] == "theta0" and res["rc"] == 0:
            try:
                theta0 = parse_theta0(res["stdout"])[0]
            except (AttributeError, ValueError):
                pass
    for res in results:
        cmd = res["argv"][0]
        ref = reference.get(cmd) if res["argv"] in canonical else None
        sub = _Tally(cmd)
        if res["rc"] not in _CHECKED_RC.get(cmd, (0,)):
            sub.fail_all(EXPECTED_OPS[cmd], f"exit code {res['rc']!r}")
        else:
            try:
                if cmd == "omega":
                    _check_omega(res, ref, sub, workdir, theta0)
                else:
                    _CHECKS[cmd](res, ref, sub, workdir)
            except (OSError, ValueError, KeyError, IndexError, TypeError,
                    AttributeError) as exc:
                sub = _Tally(cmd)
                sub.fail_all(EXPECTED_OPS[cmd],
                             f"unreadable output ({type(exc).__name__}: {exc})")
        tally.attempted += sub.attempted
        tally.failures += sub.failures
    return tally.attempted, tally.failures
