"""Command-line entry points: dimension queries, ray scans, verification.

Every CSV-emitting command drops a JSON manifest next to its output with
the full parameter set, so a scan can be reproduced byte-for-byte (modulo
the timestamp field) by replaying the recorded arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, checks
from .boettcher import MAX_LEVEL, build_table
from .errors import JuliaDimError, NoConvergenceError, ParseError
from .maps import in_mandelbrot, in_mandelbrot_eps, in_main_disk
from .perturbation import phi_dot_table
from .quadrature import QuadratureSpec, find_theta0, omega
from .transfer import (EquilibriumWeights, TransferOperator, _aitken,
                       _bowen_root, directional_derivative_formula,
                       equilibrium, hausdorff_dim)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

D0_BRACKET = (1.0, 1.295)
D0_FIT_MAXIT = 60
DEFAULT_RAY_T_START = 0.4
DEFAULT_RAY_T_END = 0.05
RAY_GRID_RATIO = 1.0 / math.sqrt(2.0)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else _fmt(c)
                              for c in row) + "\n")


def _write_manifest(command: str, params: dict, outputs: list[str],
                    duration_ms: float) -> str | None:
    if not outputs:
        return None
    path = outputs[0] + ".manifest.json"
    doc = {
        "command": command,
        "params": params,
        "outputs": outputs,
        "duration_ms": duration_ms,
        "version": __version__,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ParseError(f"cannot parse complex number {text!r}") from exc


def _geometric_grid(t_start: float, t_end: float, ratio: float) -> list[float]:
    if not 0 < t_end <= t_start:
        raise ParseError("need 0 < t_end <= t_start")
    ts = [t_start]
    while ts[-1] * ratio >= t_end * (1.0 - 1e-12):
        ts.append(ts[-1] * ratio)
    return ts


def _map_maybe_parallel(fn, items, threads: int):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(it) for it in items]


# ---------------------------------------------------------------------------
# extrapolated solvers shared by the scan commands

def _stencil_roots(delta: complex, table, level: int):
    """Operators and pressure roots at levels L-4, L-2, L."""
    ops = [TransferOperator(delta, table, lev)
           for lev in (level - 4, level - 2, level)]
    return ops, [_bowen_root(op)[0] for op in ops]


def _dim_summary(taus) -> tuple[float, float, float]:
    return taus[-1], _aitken(*taus), abs(taus[-1] - taus[-2])


def _dim_extrapolated(delta: complex, level: int) -> tuple[float, float, float]:
    """(raw, extrapolated, error bound) dimension using levels L-4, L-2, L."""
    _, taus = _stencil_roots(delta, build_table(delta, level), level)
    return _dim_summary(taus)


@dataclass(frozen=True, eq=False)
class RayPoint:
    dim: tuple[float, float, float]     # raw, extrapolated, level gap
    dprime: tuple[float, float]         # raw, extrapolated
    weights: EquilibriumWeights         # equilibrium state at level L
    op: TransferOperator                # operator at level L


def _ray_point(delta: complex, level: int) -> RayPoint:
    """Dimension and directional derivative from one table and one root
    per stencil level.

    Near the parabolic point the word discretization converges only
    geometrically per level, so both series are Aitken-extrapolated and the
    raw top-level values are reported alongside.
    """
    table = build_table(delta, level)
    ops, taus = _stencil_roots(delta, table, level)
    v = delta / abs(delta)
    pdot = phi_dot_table(delta, table)
    vals = []
    for op, tau in zip(ops, taus):
        weights = equilibrium(delta, tau, table, op.level)
        vals.append(directional_derivative_formula(delta, v, table, weights,
                                                   pdot=pdot))
    return RayPoint(_dim_summary(taus), (vals[-1], _aitken(*vals)), weights,
                    ops[-1])


def _dprime_extrapolated(delta: complex, level: int):
    """(raw, extrapolated) directional derivative using levels L-4, L-2, L."""
    return _ray_point(delta, level).dprime


def _dprime_fd(delta: complex, level: int, rel_step: float = 1e-2) -> float:
    """Central finite difference of the raw top-level dimension on the ray."""
    v = delta / abs(delta)
    h = rel_step * abs(delta)
    vals = []
    for sgn in (1.0, -1.0):
        d = delta + sgn * h * v
        table = build_table(d, level)
        op = TransferOperator(d, table, level)
        vals.append(_bowen_root(op)[0])
    return (vals[0] - vals[1]) / (2.0 * h)


# ---------------------------------------------------------------------------
# subcommands

def cmd_dim(args) -> int:
    delta = _parse_complex(args.delta)
    t0 = time.monotonic()
    res = hausdorff_dim(delta, args.level, args.tol)
    dur = (time.monotonic() - t0) * 1e3
    doc = {
        "command": "dim",
        "params": {"delta": str(delta), "level": args.level, "tol": args.tol},
        "tau0": res.tau0,
        "richardson_estimate": res.richardson_estimate,
        "error_bound": res.error_bound,
        "pressure_residual": res.pressure_residual,
        "duration_ms": dur,
        "version": __version__,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"dimension {res.tau0:.12f}  (extrapolated {res.richardson_estimate:.12f}, "
              f"level {res.level}, inter-level gap {res.error_bound:.2e})")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_omega(args) -> int:
    t0 = time.monotonic()
    spec = QuadratureSpec()
    rows = []
    n_steps = int(round((args.theta_max - args.theta_min) / args.step))
    for i in range(n_steps + 1):
        th = args.theta_min + i * args.step
        try:
            res = omega(th, args.d0, spec)
            rows.append([th, res.value, res.err_estimate, "ok"])
        except JuliaDimError as exc:
            rows.append([th, "", "", exc.code])
    out = args.out or "omega.csv"
    _write_csv(out, ["theta", "omega", "err", "status"], rows)
    dur = (time.monotonic() - t0) * 1e3
    _write_manifest("omega", {"d0": args.d0, "theta_min": args.theta_min,
                              "theta_max": args.theta_max, "step": args.step},
                    [out], dur)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_theta0(args) -> int:
    root = find_theta0(args.d0)
    if args.d0_err:
        lo = find_theta0(args.d0 - args.d0_err)
        hi = find_theta0(args.d0 + args.d0_err)
        spread = max(abs(root - lo), abs(root - hi))
        print(f"theta0 = {root:.6f} +- {spread:.6f} (d0 = {args.d0} +- {args.d0_err})")
    else:
        print(f"theta0 = {root:.6f} (d0 = {args.d0})")
    return EXIT_OK


def _fit_d0(ts, dims, n_use: int = 4) -> float:
    """Power-law extrapolation d(t) = d0 + c*t^(2*d0-1), self-consistent in d0."""
    ts = np.asarray(ts, dtype=float)[-n_use:]
    dims = np.asarray(dims, dtype=float)[-n_use:]
    d0 = float(dims[-1])
    for _ in range(D0_FIT_MAXIT):
        q = 2.0 * d0 - 1.0
        X = np.vstack([np.ones_like(ts), ts ** q]).T
        coef, *_ = np.linalg.lstsq(X, dims, rcond=None)
        if abs(coef[0] - d0) < 1e-13:
            return float(coef[0])
        d0 = float(coef[0])
    raise NoConvergenceError(
        f"d0 power-law fit did not settle in {D0_FIT_MAXIT} iterations "
        f"(last estimate {d0!r})")


def cmd_d0(args) -> int:
    t0 = time.monotonic()
    ts = _geometric_grid(args.t_start, args.t_min, RAY_GRID_RATIO)

    def solve(t):
        return _dim_extrapolated(t, args.level)

    sols = _map_maybe_parallel(solve, ts, args.threads)
    dims = [s[1] for s in sols]
    est = _fit_d0(ts, dims)
    est_drop = _fit_d0(ts[:-1], dims[:-1])
    uncertainty = abs(est - est_drop)
    rows = [[t, raw, ext, gap] for t, (raw, ext, gap) in zip(ts, sols)]
    outputs = []
    if args.out:
        _write_csv(args.out, ["t", "dim_raw", "dim_extrapolated", "level_gap"], rows)
        outputs.append(args.out)
    in_bracket = D0_BRACKET[0] < est < D0_BRACKET[1]
    dur = (time.monotonic() - t0) * 1e3
    doc = {
        "command": "d0",
        "params": {"level": args.level, "t_start": args.t_start,
                   "t_min": args.t_min},
        "estimate": est,
        "uncertainty": uncertainty,
        "in_expected_bracket": in_bracket,
        "duration_ms": dur,
        "version": __version__,
    }
    if outputs:
        _write_manifest("d0", doc["params"], outputs, dur)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"d0 estimate = {est:.6f} +- {uncertainty:.1e} "
              f"(level {args.level}, t in [{ts[-1]:.3f}, {ts[0]:.3f}])")
    if not in_bracket:
        print(f"warning: OUT_OF_KNOWN_BRACKET: estimate {est:.6f} outside "
              f"({D0_BRACKET[0]}, {D0_BRACKET[1]})", file=sys.stderr)
    return EXIT_OK


def cmd_ray(args) -> int:
    t0 = time.monotonic()
    alpha = args.alpha
    if not -math.pi / 2 < alpha < math.pi / 2:
        raise ParseError("alpha must lie in (-pi/2, pi/2)")
    v = complex(math.cos(alpha), math.sin(alpha))
    ts = _geometric_grid(args.t_start, args.t_end, RAY_GRID_RATIO)
    for t in ts:
        if not in_main_disk(t * v):
            raise ParseError(f"t*v = {t * v} outside the attracting disk")
    d0 = args.d0
    om = omega(math.tan(alpha), d0).value
    expo = 2.0 * d0 - 2.0

    def solve(t):
        """CSV row and expansion rate chi at level L of one ray point."""
        delta = t * v
        try:
            pt = _ray_point(delta, args.level)
            fd = _dprime_fd(delta, args.level)
        except JuliaDimError as exc:
            return [t, "", "", "", "", "", "", exc.code], float("nan")
        (dim_raw, dim_ext, _), (dp_raw, dp_ext) = pt.dim, pt.dprime
        r = dp_ext / t ** expo
        chi = float(np.sum(pt.weights.mu * pt.op.log_deriv))
        return [t, dim_raw, dim_ext, dp_raw, dp_ext, fd, r, "ok"], chi

    solved = _map_maybe_parallel(solve, ts, args.threads)
    rows = [row for row, _ in solved]
    good = [row for row in rows if row[-1] == "ok"]
    chis = [chi for row, chi in solved if row[-1] == "ok"]
    rs = [row[6] for row in good]
    fitted_A = float(np.mean([r / om for r in rs[-3:]])) if len(rs) >= 1 else float("nan")
    # expansion rate at the innermost point: with the fitted amplitude it
    # implies the measure constant; both are fitted quantities, never inputs
    t_min = good[-1][0] if good else ts[-1]
    chi = chis[-1] if chis else float("nan")
    implied_H_mu = fitted_A * chi * 2.0 ** d0 / d0
    planar_A = 2.0 ** (2.0 * d0 - 2.0) * fitted_A
    # refit in the other family's normalization: each ray point delta = t v
    # is eps = -t^2 v^2 / 4, and d'(eps) = -2 D'(delta)/delta, so the
    # refitted amplitude must land on 2^(2 d0 - 2) times the ray amplitude
    r_eps = [2.0 * abs(row[4]) / row[0] / (row[0] ** 2 / 4.0) ** (d0 - 1.5)
             for row in good[-3:]]
    planar_A_refit = float(np.mean([r / abs(om) for r in r_eps]))
    out = args.out or "ray.csv"
    _write_csv(out, ["t", "dim_raw", "dim_extrapolated", "dprime_raw",
                     "dprime_extrapolated", "dprime_fd", "r", "status"], rows)
    dur = (time.monotonic() - t0) * 1e3
    params = {"alpha": alpha, "t_start": args.t_start, "t_end": args.t_end,
              "level": args.level, "d0": d0}
    _write_manifest("ray", params, [out], dur)
    doc = {
        "command": "ray",
        "params": params,
        "omega": om,
        "fitted_A": fitted_A,
        "chi": chi,
        "implied_H_mu": implied_H_mu,
        "planar_A": planar_A,
        "planar_A_refit": planar_A_refit,
        "planar_A_consistent": bool(abs(planar_A_refit - abs(planar_A))
                                    < 1e-9 * abs(planar_A)),
        "ratios": rs,
        "duration_ms": dur,
        "version": __version__,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"ray alpha={alpha:.4f}: {len(good)}/{len(rows)} points, "
              f"Omega({math.tan(alpha):.3f})={om:.6f}, fitted A={fitted_A:.4f}")
        print(f"chi({t_min:.3f})={chi:.4f}, implied H_mu={implied_H_mu:.4f}, "
              f"planar-family A={planar_A:.4f}")
        print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = checks.run_suite(args.suite)
    n_fail = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        n_fail += 0 if r.passed else 1
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def cmd_convexity(args) -> int:
    t0 = time.monotonic()
    eps = np.linspace(args.eps_min, args.eps_max, args.points)
    if np.any(eps >= 0):
        raise ParseError("convexity probe needs eps < 0")

    def solve(e):
        delta = 2.0 * math.sqrt(-e)
        return _dim_extrapolated(delta, args.level)

    sols = _map_maybe_parallel(solve, list(eps), args.threads)
    dims = np.array([s[1] for s in sols])
    gaps = np.array([s[2] for s in sols])
    h = eps[1] - eps[0]
    d2 = (dims[2:] - 2.0 * dims[1:-1] + dims[:-2]) / h ** 2
    noise_flag = np.max(gaps) > 0.1 * np.min(np.abs(d2)) * h ** 2 if len(d2) else False
    rows = []
    for i, e in enumerate(eps):
        val = d2[i - 1] if 1 <= i <= len(eps) - 2 else ""
        rows.append([e, dims[i], val])
    out = args.out or "convexity.csv"
    _write_csv(out, ["eps", "dim", "second_difference"], rows)
    dur = (time.monotonic() - t0) * 1e3
    _write_manifest("convexity", {"eps_min": args.eps_min, "eps_max": args.eps_max,
                                  "points": args.points, "level": args.level},
                    [out], dur)
    all_positive = bool(np.all(d2 > 0))
    print(f"second differences positive: {all_positive}"
          + ("  (noise flag: level gap near difference scale)" if noise_flag else ""))
    print(f"wrote {out}")
    return EXIT_OK if all_positive else EXIT_NUMERIC


def cmd_mandelbrot(args) -> int:
    t0 = time.monotonic()
    n = args.grid
    rows = []
    if args.family == "delta":
        res = np.linspace(-2.5, 2.5, n)
        ims = np.linspace(-2.5, 2.5, n)
        member = in_mandelbrot
    else:
        res = np.linspace(-2.0, 0.5, n)
        ims = np.linspace(-1.25, 1.25, n)
        member = in_mandelbrot_eps
    for re in res:
        for im in ims:
            rows.append([re, im, 1 if member(complex(re, im), args.max_iter) else 0])
    out = args.out or f"mandelbrot_{args.family}.csv"
    _write_csv(out, ["re", "im", "inside"], rows)
    dur = (time.monotonic() - t0) * 1e3
    _write_manifest("mandelbrot", {"grid": n, "family": args.family,
                                   "max_iter": args.max_iter}, [out], dur)
    print(f"wrote {n * n} grid points to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing

def _load_config(path: str) -> dict:
    """Flat key-value config: 'key = value' lines, '#' comments."""
    conf = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"bad config line {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                conf[key.replace("-", "_")] = val
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    return conf


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="juliadim",
        description="Dimension of quadratic Julia set boundaries near the "
                    "parabolic parameter: solvers, ray scans, verification.")
    parser.add_argument("--config", help="flat key=value defaults file")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, level=16):
        p.add_argument("--level", type=int, default=level,
                       help=f"word length / table level (<= {MAX_LEVEL})")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--out", help="output file")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("dim", help="Hausdorff dimension at one parameter")
    p.add_argument("--delta", required=True, help="complex, e.g. 0.3+0.2j")
    common(p)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("omega", help="master integral over a theta range")
    p.add_argument("--d0", type=float, default=1.08)
    p.add_argument("--theta-min", type=float, default=-3.0)
    p.add_argument("--theta-max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.05)
    common(p)
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("theta0", help="positive zero of the master integral")
    p.add_argument("--d0", type=float, default=1.08)
    p.add_argument("--d0-err", type=float, default=0.0,
                   help="propagate a d0 uncertainty through the root")
    common(p)
    p.set_defaults(fn=cmd_theta0)

    p = sub.add_parser("ray", help="dimension-derivative scan along a ray")
    p.add_argument("--alpha", type=float, default=0.0, help="ray angle (radians)")
    p.add_argument("--t-start", type=float, default=DEFAULT_RAY_T_START)
    p.add_argument("--t-end", type=float, default=DEFAULT_RAY_T_END)
    p.add_argument("--d0", type=float, default=1.0812,
                   help="limit dimension used in the ratio normalization")
    common(p, level=14)
    p.set_defaults(fn=cmd_ray)

    p = sub.add_parser("d0", help="extrapolate the dimension limit on the real ray")
    p.add_argument("--t-start", type=float, default=0.4)
    p.add_argument("--t-min", type=float, default=0.05)
    common(p)
    p.set_defaults(fn=cmd_d0)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(checks.SUITES) + ["all"])
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("convexity", help="second differences on the eps ray")
    p.add_argument("--eps-min", type=float, default=-0.05)
    p.add_argument("--eps-max", type=float, default=-0.01)
    p.add_argument("--points", type=int, default=9)
    common(p, level=14)
    p.set_defaults(fn=cmd_convexity)

    p = sub.add_parser("mandelbrot", help="membership grid for either family")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--family", choices=("delta", "eps"), default="delta")
    p.add_argument("--max-iter", type=int, default=1000)
    common(p)
    p.set_defaults(fn=cmd_mandelbrot)
    return parser


def _coerce(value: str, current_default):
    if isinstance(current_default, bool):
        return value.lower() in ("1", "true", "yes", "on")
    if isinstance(current_default, int):
        return int(value)
    if isinstance(current_default, float):
        return float(value)
    return value


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        if "--config" in argv:
            pos = argv.index("--config") + 1
            if pos == len(argv):
                raise ParseError("--config needs a file path")
            conf = _load_config(argv[pos])
            args_probe, _ = parser.parse_known_args(argv)
            defaults = {}
            for key, raw in conf.items():
                if hasattr(args_probe, key):
                    defaults[key] = _coerce(raw, getattr(args_probe, key))
            parser.set_defaults(**defaults)
            for action in parser._subparsers._group_actions:
                for sp in action.choices.values():
                    sp.set_defaults(**{k: v for k, v in defaults.items()
                                       if any(a.dest == k for a in sp._actions)})
        args = parser.parse_args(argv)
    except ParseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except JuliaDimError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error[VALUE]: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
