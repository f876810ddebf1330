"""Command-line entry points: dimension queries, ray scans, verification.

Every command runs through ``_run``, which times it and records its
parsed parameters: as a JSON manifest next to the first CSV it writes, so
a scan can be reproduced byte-for-byte (modulo the duration field) by
replaying them, and in its ``--json`` document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .boettcher import MAX_LEVEL
from .errors import (InvalidDimensionError, JuliaDimError,
                     NoConvergenceError, ParseError)
from .maps import delta_from_epsilon, in_mandelbrot_grid
from .quadrature import find_theta0, omega
from .transfer import (PRESSURE_TOL, check_disk, dprime_fd, fd_stencil,
                       hausdorff_dim, ray_point)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

D0_BRACKET = (1.0, 1.295)
D0_FIT_MAXIT = 60
D0_FIT_POINTS = 4   # the innermost grid points the d0 power law is fitted to
DEFAULT_RAY_T_START = 0.4
DEFAULT_RAY_T_END = 0.05
RAY_GRID_RATIO = 1.0 / math.sqrt(2.0)
# the words a config file may give a flag, in any case
CONFIG_TRUE = ("1", "true", "yes", "on")
CONFIG_FALSE = ("0", "false", "no", "off")


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Writes ``rows``, an iterable of lists, as CSV; str cells are written
    as they are, numbers through ``_fmt``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else _fmt(c)
                              for c in row) + "\n")


def _print_lines(lines: list[str], out: str | None) -> None:
    """Prints ``lines``, and writes them to ``out`` as well when given."""
    for line in lines:
        print(line)
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run(args) -> int:
    """Runs ``args.fn``, which prints its lines, writes its CSVs and returns
    ``(exit code, CSV paths, summary)``, and times it. The record (every
    parsed option but the command and its outputs) plus the CSV paths is
    the first CSV's manifest; the record plus the summary is the document
    that --json prints, and that a command with a summary but no CSV
    writes to --out."""
    t0 = time.monotonic()
    code, outputs, summary = args.fn(args)
    record = {
        "command": args.cmd,
        "params": {k: v for k, v in vars(args).items()
                   if k not in ("cmd", "fn", "config", "out", "json")},
        "duration_ms": (time.monotonic() - t0) * 1e3,
        "version": __version__,
    }
    doc = {**record, **summary}
    if outputs:
        _write_json(outputs[0] + ".manifest.json", {**record, "outputs": outputs})
    elif summary and args.out:
        _write_json(args.out, doc)
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2, sort_keys=True))
    return code


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


# ---------------------------------------------------------------------------
# subcommands

def cmd_dim(args) -> tuple[int, list[str], dict]:
    delta = _parse_complex(args.delta)
    # +delta and -delta share one eps; solve at the root with Re delta >= 0
    # (negated part by part so that a zero imaginary part stays +0.0)
    if delta.real < 0:
        delta = complex(0.0 - delta.real, 0.0 - delta.imag)
    check_disk([delta], ParseError)
    # --tol may tighten the root's |P| acceptance, never loosen it
    if not 0 < args.tol <= PRESSURE_TOL:
        raise ParseError(f"need 0 < --tol <= {PRESSURE_TOL:g}")
    args.delta = str(delta)     # the record holds the delta solved
    res = hausdorff_dim(delta, args.level, args.tol)
    if not args.json:
        print(f"dimension {res.tau0:.12f}  (extrapolated {res.aitken_estimate:.12f}, "
              f"level {res.level}, inter-level gap {res.error_bound:.2e})")
    return EXIT_OK, [], {
        "tau0": res.tau0,
        "richardson_estimate": res.aitken_estimate,     # published key name
        "error_bound": res.error_bound,
        "pressure_residual": res.pressure_residual,
    }


def cmd_omega(args) -> tuple[int, list[str], dict]:
    if not args.step > 0:
        raise ParseError("--step must be > 0")
    if not args.theta_min <= args.theta_max:
        raise ParseError("need theta_min <= theta_max")
    rows = []
    # the steps that fit in the range; 1e-9 absorbs the rounding of a range
    # that is a whole number of steps
    n_steps = math.floor((args.theta_max - args.theta_min) / args.step + 1e-9)
    for i in range(n_steps + 1):
        th = args.theta_min + i * args.step
        try:
            res = omega(th, args.d0)
            rows.append([th, res.value, res.err_estimate, "ok"])
        except InvalidDimensionError:
            raise       # --d0 itself: no row can be solved
        except JuliaDimError as exc:
            rows.append([th, "", "", exc.code])
    out = args.out or "omega.csv"
    _write_csv(out, ["theta", "omega", "err", "status"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK, [out], {}


def cmd_theta0(args) -> tuple[int, list[str], dict]:
    if not args.d0_err >= 0:
        raise ParseError("--d0-err must be >= 0")
    root = find_theta0(args.d0)
    if args.d0_err:
        lo = find_theta0(args.d0 - args.d0_err)
        hi = find_theta0(args.d0 + args.d0_err)
        spread = max(abs(root - lo), abs(root - hi))
        line = f"theta0 = {root:.6f} +- {spread:.6f} (d0 = {args.d0} +- {args.d0_err})"
    else:
        line = f"theta0 = {root:.6f} (d0 = {args.d0})"
    _print_lines([line], args.out)
    return EXIT_OK, [], {}


def _fit_d0(ts, dims) -> float:
    """Power-law extrapolation d(t) = d0 + c*t^(2*d0-1), self-consistent in d0."""
    ts = np.asarray(ts, dtype=float)[-D0_FIT_POINTS:]
    dims = np.asarray(dims, dtype=float)[-D0_FIT_POINTS:]
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


def cmd_d0(args) -> tuple[int, list[str], dict]:
    ts = _geometric_grid(args.t_start, args.t_min, RAY_GRID_RATIO)
    # the uncertainty refits without the innermost point: two fits of two
    # parameters need three points
    if len(ts) < 3:
        raise ParseError(f"d0 needs >= 3 grid points, got {len(ts)} "
                         f"(lower --t-min or raise --t-start)")
    check_disk(ts, ParseError)

    sols = [hausdorff_dim(t, args.level, step=2) for t in ts]
    dims = [s.aitken_estimate for s in sols]
    est = _fit_d0(ts, dims)
    est_drop = _fit_d0(ts[:-1], dims[:-1])
    uncertainty = abs(est - est_drop)
    rows = [[t, s.tau0, s.aitken_estimate, s.error_bound]
            for t, s in zip(ts, sols)]
    if args.out:
        _write_csv(args.out, ["t", "dim_raw", "dim_extrapolated", "level_gap"], rows)
    in_bracket = D0_BRACKET[0] < est < D0_BRACKET[1]
    if not args.json:
        print(f"d0 estimate = {est:.6f} +- {uncertainty:.1e} "
              f"(level {args.level}, t in [{ts[-1]:.3f}, {ts[0]:.3f}])")
    if not in_bracket:
        print(f"warning: OUT_OF_KNOWN_BRACKET: estimate {est:.6f} outside "
              f"({D0_BRACKET[0]}, {D0_BRACKET[1]})", file=sys.stderr)
    return EXIT_OK, [args.out] if args.out else [], {
        "estimate": est, "uncertainty": uncertainty,
        "in_expected_bracket": in_bracket}


def cmd_ray(args) -> tuple[int, list[str], dict]:
    alpha = args.alpha
    if not -math.pi / 2 < alpha < math.pi / 2:
        raise ParseError("alpha must lie in (-pi/2, pi/2)")
    v = complex(math.cos(alpha), math.sin(alpha))
    ts = _geometric_grid(args.t_start, args.t_end, RAY_GRID_RATIO)
    check_disk([d for t in ts for d in [t * v, *fd_stencil(t * v)]], ParseError)
    d0 = args.d0
    om = omega(math.tan(alpha), d0).value
    expo = 2.0 * d0 - 2.0

    def solve(t):
        """CSV row and expansion rate chi at level L of one ray point."""
        delta = t * v
        try:
            pt = ray_point(delta, args.level)
            fd = dprime_fd(delta, args.level, near=pt.near)
        except JuliaDimError as exc:
            return [t, "", "", "", "", "", "", exc.code], float("nan")
        dp_raw, dp_ext = pt.dprime
        r = dp_ext / t ** expo
        return [t, pt.dim.tau0, pt.dim.aitken_estimate, dp_raw, dp_ext,
                fd, r, "ok"], pt.weights.chi

    solved = [solve(t) for t in ts]
    rows = [row for row, _ in solved]
    good = [row for row in rows if row[-1] == "ok"]
    chis = [chi for row, chi in solved if row[-1] == "ok"]
    rs = [row[6] for row in good]
    fitted_A = float(np.mean([r / om for r in rs[-3:]])) if rs else float("nan")
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
    planar_A_refit = float(np.mean([r / abs(om) for r in r_eps])) if r_eps else float("nan")
    out = args.out or "ray.csv"
    _write_csv(out, ["t", "dim_raw", "dim_extrapolated", "dprime_raw",
                     "dprime_extrapolated", "dprime_fd", "r", "status"], rows)
    if not args.json:
        print(f"ray alpha={alpha:.4f}: {len(good)}/{len(rows)} points, "
              f"Omega({math.tan(alpha):.3f})={om:.6f}, fitted A={fitted_A:.4f}")
        print(f"chi({t_min:.3f})={chi:.4f}, implied H_mu={implied_H_mu:.4f}, "
              f"planar-family A={planar_A:.4f}")
        print(f"wrote {out}")
    # no solved point leaves nothing to fit: a numeric failure
    return (EXIT_OK if good else EXIT_NUMERIC), [out], {
        "omega": om,
        "fitted_A": fitted_A,
        "chi": chi,
        "implied_H_mu": implied_H_mu,
        "planar_A": planar_A,
        "planar_A_refit": planar_A_refit,
        "planar_A_consistent": bool(abs(planar_A_refit - abs(planar_A))
                                    < 1e-9 * abs(planar_A)),
        "ratios": rs,
    }


def cmd_verify(args) -> tuple[int, list[str], dict]:
    # imported here: only verify runs the checks (and fatou with them)
    from . import checks
    results = checks.run_suite(args.suite)
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}"
             for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    _print_lines(lines, args.out)
    return (EXIT_OK if n_fail == 0 else EXIT_VERIFY), [], {}


def cmd_convexity(args) -> tuple[int, list[str], dict]:
    if args.points < 3:
        raise ParseError("--points must be >= 3 for a second difference")
    if args.eps_min == args.eps_max:
        raise ParseError("need --eps-min != --eps-max for a second difference")
    eps = np.linspace(args.eps_min, args.eps_max, args.points)
    if np.any(eps >= 0):
        raise ParseError("convexity probe needs eps < 0")
    deltas = [delta_from_epsilon(e) for e in eps]
    check_disk(deltas, ParseError)

    sols = [hausdorff_dim(d, args.level, step=2) for d in deltas]
    dims = np.array([s.aitken_estimate for s in sols])
    gaps = np.array([s.error_bound for s in sols])
    h = eps[1] - eps[0]
    d2 = (dims[2:] - 2.0 * dims[1:-1] + dims[:-2]) / h ** 2
    noise_flag = np.max(gaps) > 0.1 * np.min(np.abs(d2)) * h ** 2
    rows = []
    for i, e in enumerate(eps):
        val = d2[i - 1] if 1 <= i <= len(eps) - 2 else ""
        rows.append([e, dims[i], val])
    out = args.out or "convexity.csv"
    _write_csv(out, ["eps", "dim", "second_difference"], rows)
    all_positive = bool(np.all(d2 > 0))
    print(f"second differences positive: {all_positive}"
          + ("  (noise flag: level gap near difference scale)" if noise_flag else ""))
    print(f"wrote {out}")
    return (EXIT_OK if all_positive else EXIT_NUMERIC), [out], {}


def cmd_mandelbrot(args) -> tuple[int, list[str], dict]:
    n = args.grid
    if n < 1:
        raise ParseError("--grid must be >= 1")
    if args.family == "delta":
        res = np.linspace(-2.5, 2.5, n)
        ims = np.linspace(-2.5, 2.5, n)
    else:
        res = np.linspace(-2.0, 0.5, n)
        ims = np.linspace(-1.25, 1.25, n)
    deltas = (complex(re, im) for re in res for im in ims)
    if args.family == "eps":
        deltas = map(delta_from_epsilon, deltas)
    inside = in_mandelbrot_grid(deltas, args.max_iter).tolist()
    out = args.out or f"mandelbrot_{args.family}.csv"
    # one write per grid row, from the 2n row tails formatted once each
    tails = [[f",{_fmt(im)},{bit}\n" for im in ims] for bit in "01"]
    with open(out, "w", newline="\n") as fh:
        fh.write("re,im,inside\n")
        for i, re in enumerate(map(_fmt, res)):
            fh.write("".join(re + tails[b][j] for j, b in enumerate(inside[i * n:(i + 1) * n])))
    print(f"wrote {n * n} grid points to {out}")
    return EXIT_OK, [out], {}


# ---------------------------------------------------------------------------
# parser plumbing

def _load_config(path: str) -> dict:
    """Flat key-value config: 'key = value' lines, '#' comments."""
    conf = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"bad config line {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                conf[key.replace("-", "_")] = val
    except (OSError, UnicodeDecodeError) as exc:
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

    def common(p, *flags, level=16):
        """--out, and those of --level, --tol, --json named in
        ``flags``: each command takes only the flags it reads."""
        if "level" in flags:
            p.add_argument("--level", type=int, default=level,
                           help=f"word length / table level (<= {MAX_LEVEL})")
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=PRESSURE_TOL)
        p.add_argument("--out", help="output file")
        if "json" in flags:
            p.add_argument("--json", action="store_true")

    p = sub.add_parser("dim", help="Hausdorff dimension at one parameter")
    p.add_argument("--delta", required=True, help="complex, e.g. 0.3+0.2j; "
                   "solved at +delta if negative, given as --delta=-0.3+0.1j")
    common(p, "level", "tol", "json")
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
                   help="propagate a d0 uncertainty (>= 0) through the root")
    common(p)
    p.set_defaults(fn=cmd_theta0)

    p = sub.add_parser("ray", help="dimension-derivative scan along a ray")
    p.add_argument("--alpha", type=float, default=0.0, help="ray angle (radians)")
    p.add_argument("--t-start", type=float, default=DEFAULT_RAY_T_START)
    p.add_argument("--t-end", type=float, default=DEFAULT_RAY_T_END)
    p.add_argument("--d0", type=float, default=1.0812,
                   help="limit dimension used in the ratio normalization")
    common(p, "level", "json", level=14)
    p.set_defaults(fn=cmd_ray)

    p = sub.add_parser("d0", help="extrapolate the dimension limit on the real ray")
    p.add_argument("--t-start", type=float, default=0.4)
    p.add_argument("--t-min", type=float, default=0.05)
    common(p, "level", "json")
    p.set_defaults(fn=cmd_d0)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", default="all",
                   help="a suite name (an unknown one lists them), or all")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("convexity", help="second differences on the eps ray")
    p.add_argument("--eps-min", type=float, default=-0.05)
    p.add_argument("--eps-max", type=float, default=-0.01)
    p.add_argument("--points", type=int, default=9)
    common(p, "level", level=14)
    p.set_defaults(fn=cmd_convexity)

    p = sub.add_parser("mandelbrot", help="membership grid for either family")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--family", choices=("delta", "eps"), default="delta")
    p.add_argument("--max-iter", type=int, default=1000)
    common(p)
    p.set_defaults(fn=cmd_mandelbrot)
    return parser


def _config_defaults(sub: argparse.ArgumentParser, conf: dict) -> dict:
    """The config values of the options ``sub`` takes, converted and checked
    against ``choices`` as argparse does a flag's value; other keys are
    ignored. A required option that the config sets is no longer required
    of the command line."""
    defaults = {}
    for action in sub._actions:
        if action.dest not in conf or action.default is argparse.SUPPRESS:
            continue
        action.required = False
        raw = conf[action.dest]
        if action.nargs == 0:   # a store_true flag
            if raw.lower() not in CONFIG_TRUE + CONFIG_FALSE:
                raise ParseError(f"config {action.dest} = {raw!r}: not one of "
                                 f"{', '.join(CONFIG_TRUE + CONFIG_FALSE)}")
            defaults[action.dest] = raw.lower() in CONFIG_TRUE
            continue
        try:
            value = action.type(raw) if action.type else raw
        except ValueError as exc:
            raise ParseError(f"config {action.dest} = {raw!r}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise ParseError(f"config {action.dest} = {raw!r}: not one of "
                             f"{', '.join(action.choices)}")
        defaults[action.dest] = value
    return defaults


def _config_and_command(argv: list) -> tuple[str | None, str | None]:
    """The --config path, in any spelling argparse takes, and the command
    that ``argv`` names, read before a config can satisfy any of the
    command's required options."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    pre.add_argument("cmd", nargs="?")
    try:
        known = pre.parse_known_args(argv)[0]
    except argparse.ArgumentError as exc:
        raise ParseError(str(exc)) from None
    return known.config, known.cmd


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        path, cmd = _config_and_command(argv)
        if path is not None:
            conf = _load_config(path)
            subs = parser._subparsers._group_actions[0].choices
            if cmd in subs:
                subs[cmd].set_defaults(**_config_defaults(subs[cmd], conf))
        args = parser.parse_args(argv)
    except ParseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _run(args)
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
