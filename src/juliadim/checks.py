"""Property-suite batteries behind the ``verify`` subcommand.

Each check samples one structural fact (an identity, an inequality
envelope, a two-regime bound) and returns a pass/fail record with a short
numeric detail string.  Sampling is seeded, one ``random.Random`` per
suite, so suites are deterministic.  A sampled check draws each variate for
all its samples at once (``perturbation.uniform_draws``); only the library
routine under test is called sample by sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import fatou, maps, perturbation, quadrature, transfer
from .boettcher import anchor_point, build_table, cylinders
from .errors import ParseError
from .perturbation import uniform_draws
from .transfer import (TransferOperator, backward_anchor_tower,
                       cylinder_measures, equilibrium, hausdorff_dim,
                       partition_residual, pressure, pressure_oracle)

SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# appendix: hyperbolic identities and the exponential lemmas

def _random_z(rng, n, rmin=1e-3, rmax=30.0):
    r = np.exp(uniform_draws(rng, np.log(rmin), np.log(rmax), n))
    th = uniform_draws(rng, 0, 2 * np.pi, n)
    return r * np.exp(1j * th)


def _per_sample(n, *axes):
    """Every combination of the axes' values, each repeated for n samples."""
    return (np.repeat(g.ravel(), n) for g in np.meshgrid(*axes, indexing="ij"))


def _random_disc(rng, n):
    """Points of the closed unit disc, uniform in radius and in angle."""
    return uniform_draws(rng, 0, 1, n) * np.exp(1j * uniform_draws(rng, 0, 2 * np.pi, n))


def _pole_distance(x, ks):
    """Distance from each x to the nearest of the points 2 pi i k, k in ks."""
    return np.min(np.abs(x[:, None] - 2j * np.pi * np.asarray(ks)), axis=1)


def _each(fn, *args, skip=()):
    """fn at each sample in turn, as the library routines under test take
    one point at a time; nan where it raises one of ``skip``."""
    out = []
    for a in zip(*(x.tolist() for x in args)):
        try:
            out.append(fn(*a))
        except skip:
            out.append(np.nan)
    return np.array(out)


def _well_conditioned(z):
    """Keep samples where cosh x - cos y is not a catastrophic difference."""
    cond = (np.cosh(z.real) + 1.0) / (np.cosh(z.real) - np.cos(z.imag))
    return z[cond < 1e3]


def check_half_angle_modulus(rng) -> CheckResult:
    z = _well_conditioned(_random_z(rng, 10_000))
    lhs = np.abs(np.sinh(z / 2.0)) ** 2
    rhs = 0.5 * (np.cosh(z.real) - np.cos(z.imag))
    err = np.max(np.abs(lhs - rhs) / np.abs(rhs))
    return _result("appendix.half_angle_modulus", err < 1e-12,
                   f"max rel err {err:.2e} over {len(z)} samples")


def check_coth_half_angle(rng) -> CheckResult:
    z = _well_conditioned(_random_z(rng, 10_000, rmin=1e-2, rmax=20.0))
    lhs = np.cosh(z / 2.0) / np.sinh(z / 2.0)
    rhs = (np.sinh(z.real) - 1j * np.sin(z.imag)) / (np.cosh(z.real) - np.cos(z.imag))
    err = np.max(np.abs(lhs - rhs) / np.abs(rhs))
    return _result("appendix.coth_half_angle", err < 1e-12,
                   f"max rel err {err:.2e} over {len(z)} samples")


def check_exp_inequalities(rng) -> CheckResult:
    n = 4000
    eps, teps = uniform_draws(rng, 1e-3, 1 - 1e-3, (2, n))
    e1, te1 = uniform_draws(rng, 0.0, 2.0, (2, n))
    z = _random_z(rng, n, 1e-3, 3.0)
    ux, uy, u3 = _random_disc(rng, (3, n))
    az = np.abs(z)
    # (1): e^|z|(1+eps) - 1 < e^{2|z|} - 1 + 2 eps
    m1 = (np.exp(2 * az) - 1 + 2 * eps) - (np.exp(az) * (1 + eps) - 1)
    # (2): product bound
    X = 1.0 + (np.exp(e1 * az) - 1 + eps) * ux
    Y = 1.0 + (np.exp(te1 * az) - 1 + teps) * uy
    m2 = (np.exp((2 * e1 + 2 * te1) * az) - 1 + 2 * (eps + teps)) - np.abs(X * Y - 1)
    # (3): |X e^z - 1| < e^{2|z|} - 1 + 2 eps when |X-1| < eps
    X3 = 1.0 + eps * u3
    m3 = (np.exp(2 * az) - 1 + 2 * eps) - np.abs(X3 * np.exp(z) - 1)
    worst = min(m1.min(), m2.min(), m3.min())
    return _result("appendix.exp_inequalities", worst > 0, f"min margin {worst:.2e}")


def check_sum_alignment(rng) -> CheckResult:
    """|sum (e^{-k delta} - 1)| dominates half the sum of moduli."""
    worst = np.inf
    for alpha in (0.0, 0.1, np.pi / 6, np.pi / 4, 1.2, -0.7):
        for t in (1e-3, 1e-2, 0.05):
            delta = t * np.exp(1j * alpha)
            for m_lo in (1, 2, 5):
                for m_hi in (m_lo + 1, 50, 500, 3000):
                    k = np.arange(m_lo, m_hi + 1)
                    terms = np.exp(-k * delta) - 1.0
                    lhs = abs(terms.sum())
                    rhs = 0.5 * np.abs(terms).sum()
                    worst = min(worst, lhs - rhs)
    return _result("appendix.sum_alignment", worst > 0, f"min margin {worst:.2e}")


def check_wedge_membership(rng) -> CheckResult:
    n = 10_000
    alphas = uniform_draws(rng, -np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, n)
    alphas = alphas[np.abs(alphas) > 1e-4]
    rr = np.exp(uniform_draws(rng, np.log(1e-3), np.log(1e3), len(alphas)))
    w = rr * np.exp(1j * alphas)
    far = w.real > 50.0
    val = np.empty_like(w)
    val[far] = 0.5 + np.exp(-w[far])  # 1/(e^w - 1) ~ e^-w, overflow-free
    val[~far] = 1.0 / np.expm1(w[~far]) + 0.5
    bad = np.count_nonzero(~_each(fatou.w_region_contains, alphas, val))
    return _result("appendix.wedge_membership", bad == 0, f"{bad} violations / {len(alphas)}")


def check_exp_ratio_ball(rng) -> CheckResult:
    """(e^{w~ d} - 1)/(e^{w d} - 1) stays eps-close to 1 on the stated balls."""
    alpha, t, eps = _per_sample(200, (0.0, np.pi / 6, 1.1, -0.9), (1e-3, 0.05, 0.3),
                                (0.1, 0.3, 0.5, 0.9))
    delta = t * np.exp(1j * alpha)
    w = -np.exp(uniform_draws(rng, np.log(1e-2), np.log(1e3), len(alpha)))
    u = eps * np.abs(w) * np.cos(alpha) * _random_disc(rng, len(alpha))
    den = np.expm1(w * delta)
    dev = np.abs(np.expm1((w + u) * delta) / den - 1.0)
    # interchanged roles at half radius
    dev2 = np.abs(den / np.expm1((w + 0.5 * u) * delta) - 1.0)
    worst = np.min(eps - np.maximum(dev, dev2))
    return _result("appendix.exp_ratio_ball", worst > 0, f"min margin {worst:.2e}")


def check_deriv_ratio_ball(rng) -> CheckResult:
    """psi' ratio bound with wedge constant K(alpha) = 16/cos(alpha)."""
    alpha, t, eps = _per_sample(300, (0.0, np.pi / 6, 1.0), (1e-3, 0.05), (0.2, 0.5, 0.9))
    K = 16.0 / np.cos(alpha)
    delta = t * np.exp(1j * alpha)
    w = -np.exp(uniform_draws(rng, np.log(1e-1), np.log(1e3), len(alpha)))
    wt = w + eps * np.abs(w) / K * _random_disc(rng, len(alpha))
    ratio = _each(fatou.psi_prime, delta, wt) / _each(fatou.psi_prime, delta, w)
    bound = np.exp(eps * np.abs(w * delta)) - 1.0 + eps
    worst = min(np.min(bound - np.abs(ratio - 1.0)),
                np.min(bound - np.abs(1.0 / ratio - 1.0)))
    return _result("appendix.deriv_ratio_ball", worst > 0, f"min margin {worst:.2e}")


def suite_appendix() -> list[CheckResult]:
    rng = random.Random(SEED)
    return [
        check_half_angle_modulus(rng),
        check_coth_half_angle(rng),
        check_exp_inequalities(rng),
        check_sum_alignment(rng),
        check_wedge_membership(rng),
        check_exp_ratio_ball(rng),
        check_deriv_ratio_ball(rng),
    ]


# ---------------------------------------------------------------------------
# fatou: coordinate identities and the near-translation contract

def check_round_trip(rng) -> CheckResult:
    n = 1000
    t = np.exp(uniform_draws(rng, math.log(1e-4), math.log(0.5), n))
    delta = t * np.exp(1j * uniform_draws(rng, -1.3, 1.3, n))
    w = (-np.exp(uniform_draws(rng, 0, np.log(200), n))
         * np.exp(1j * uniform_draws(rng, -0.6, 0.6, n)))
    inside = np.abs((w * delta).imag) <= 2.5  # stay inside the principal strip
    delta, w = delta[inside], w[inside]
    w2 = _each(lambda d, x: fatou.phi_fatou(d, fatou.psi(d, x)), delta, w)
    worst = np.max(np.abs(w2 - w) / np.abs(w), initial=0.0)
    return _result("fatou.round_trip", worst < 1e-10, f"max rel err {worst:.2e}")


def check_psi_limit(rng) -> CheckResult:
    r = np.exp(uniform_draws(rng, math.log(1e-2), math.log(1e6), 500))
    psi_val = _each(lambda x: fatou.psi(1e-8, -x), r)
    worst = np.max(np.abs(psi_val - 1.0 / r))
    return _result("fatou.psi_limit", worst < 1e-6, f"max abs err {worst:.2e}")


def check_psi_prime_forms(rng) -> CheckResult:
    n = 2000
    delta = _random_z(rng, n, 1e-3, 0.8)
    w = _random_z(rng, n, 1e-2, 50.0)
    x = w * delta
    keep = (np.abs(x) >= 2e-4) & (_pole_distance(x, (-1, 1)) >= 1e-2)
    delta, w, x = delta[keep], w[keep], x[keep]
    f1 = (delta / np.expm1(-x)) ** 2 * np.exp(-x)
    f2 = (delta / np.expm1(x)) ** 2 * np.exp(x)
    f3 = (delta / 2.0 / np.sinh(x / 2.0)) ** 2
    lib = _each(fatou.psi_prime, delta, w)
    ref = np.abs(f3)
    worst = max(np.max(np.abs(f - f3) / ref, initial=0.0) for f in (f1, f2, lib))
    return _result("fatou.psi_prime_forms", worst < 1e-12, f"max rel spread {worst:.2e}")


def check_psi_prime_ratio(rng) -> CheckResult:
    n = 1000
    delta = _random_z(rng, n, 1e-3, 0.5)
    w = _random_z(rng, n, 1e-1, 30.0)
    wt = _random_z(rng, n, 1e-1, 30.0)
    lhs = (_each(fatou.psi_prime, delta, wt, skip=fatou.PoleError)
           / _each(fatou.psi_prime, delta, w, skip=fatou.PoleError))
    keep = ~np.isnan(lhs)  # off the poles
    delta, w, wt, lhs = delta[keep], w[keep], wt[keep], lhs[keep]
    rhs = (np.sinh(w * delta / 2.0) / np.sinh(wt * delta / 2.0)) ** 2
    worst = np.max(np.abs(lhs - rhs) / np.abs(rhs), initial=0.0)
    return _result("fatou.psi_prime_ratio", worst < 1e-11, f"max rel err {worst:.2e}")


def check_anchor_formulas(rng) -> CheckResult:
    worst = 0.0
    for delta in (0.3, 0.1 * np.exp(1j * np.pi / 6), 0.02 * np.exp(-1j * 0.4)):
        ns = np.arange(1, 60)
        direct = np.array([fatou.psi_prime(delta, -float(n)) for n in ns])
        closed = (delta / np.expm1(ns * delta)) ** 2 * np.exp(ns * delta)
        worst = max(worst, float(np.max(np.abs(direct - closed) / np.abs(closed))))
    return _result("fatou.anchor_formulas", worst < 1e-12, f"max rel err {worst:.2e}")


def _sample_sector_minus(rng, theta, cutoff, n):
    psis = uniform_draws(rng, np.pi - theta + 1e-3, np.pi + theta - 1e-3, n)
    rho_min = cutoff / np.abs(np.cos(psis)) + 0.1
    rho = rho_min * np.exp(uniform_draws(rng, 0, np.log(3.0), n))
    return rho * np.exp(1j * psis)


def check_near_translation(rng) -> CheckResult:
    """Backward steps track w - n within 0.1*n over 100 steps, small |delta|."""
    worst = -np.inf
    n_steps = 100
    cutoffs = []
    for alpha, ts in ((np.pi / 6, (0.0, 0.005, 0.02)), (0.0, (0.0, 0.01))):
        theta = np.pi / 4 - abs(alpha) / 2
        cutoff = _smallest_stable_cutoff(alpha, theta, n_steps)
        cutoffs.append(cutoff)
        sec = fatou.Sector(fatou.Sector.MINUS, theta, cutoff=cutoff)
        for t in ts:
            delta = t * np.exp(1j * alpha)
            for w0 in _sample_sector_minus(rng, theta, cutoff, 12):
                w = complex(w0)
                for n in range(1, n_steps + 1):
                    w = fatou.fatou_step(delta, w, fatou.Direction.BWD)
                    if not fatou.sector_contains(sec, w):
                        return _result("fatou.near_translation", False,
                                       f"left sector at step {n}, delta={delta}")
                    dev = abs(w - (w0 - n)) / n
                    worst = max(worst, dev)
    return _result("fatou.near_translation", worst < 0.1,
                   f"max |F^-n(w)-(w-n)|/n = {worst:.3f}, "
                   f"measured cutoffs {cutoffs}")


def _smallest_stable_cutoff(alpha, theta, n_steps, candidates=(2.0, 3.0, 5.0, 8.0, 12.0, 20.0)):
    """Empirical sector cutoff keeping a probe orbit in-sector for n_steps."""
    for R in candidates:
        sec = fatou.Sector(fatou.Sector.MINUS, theta, cutoff=R)
        w = complex(-(R + 0.5) / math.cos(theta / 2) * np.exp(-1j * (theta / 2)))
        w = -abs(w) * np.exp(1j * (np.pi - theta / 2))
        ok = True
        for _ in range(n_steps):
            try:
                w = fatou.fatou_step(0.0, w, fatou.Direction.BWD)
            except fatou.BranchCutError:
                ok = False
                break
            if not fatou.sector_contains(sec, w):
                ok = False
                break
        if ok:
            return R
    return candidates[-1]


def check_step_inverse(rng) -> CheckResult:
    n = 300
    t = np.exp(uniform_draws(rng, math.log(1e-3), math.log(0.3), n))
    delta = t * np.exp(1j * uniform_draws(rng, -1.2, 1.2, n))
    w = _sample_sector_minus(rng, np.pi / 5, 4.0, n)
    # the identity holds where phi inverts psi: the principal strip
    inside = np.abs((w * delta).imag) < np.pi
    delta, w = delta[inside], w[inside]
    fwd, bwd = fatou.Direction.FWD, fatou.Direction.BWD
    again = _each(lambda d, x: fatou.fatou_step(d, fatou.fatou_step(d, x, bwd), fwd),
                  delta, w, skip=(fatou.BranchCutError, fatou.PoleError))
    keep = ~np.isnan(again)
    worst = np.max(np.abs(again[keep] - w[keep]) / np.abs(w[keep]), initial=0.0)
    return _result("fatou.step_inverse", worst < 1e-10, f"max rel err {worst:.2e}")


def suite_fatou() -> list[CheckResult]:
    rng = random.Random(SEED + 1)
    return [
        check_round_trip(rng),
        check_psi_limit(rng),
        check_psi_prime_forms(rng),
        check_psi_prime_ratio(rng),
        check_anchor_formulas(rng),
        check_near_translation(rng),
        check_step_inverse(rng),
    ]


# ---------------------------------------------------------------------------
# cylinders: table geometry, size laws

def check_circular_order(level=12) -> CheckResult:
    """Angle order traces the boundary once: winding one around an interior
    point, no spikes (a flipped preimage branch would jump across the set),
    and exact angular order on the circle case."""
    bad = []
    for delta in (1.0, 0.5, 0.3 + 0.4j, 0.0):
        table = build_table(delta, level)
        pts = table.points
        interior = maps.critical_point(delta)
        closed = np.append(pts, pts[0])
        winding = np.sum(np.diff(np.unwrap(np.angle(closed - interior)))) / (2 * np.pi)
        gaps = np.abs(np.diff(closed))
        chord = np.abs(closed[2:] - closed[:-2])
        spike = np.max((gaps[:-1] + gaps[1:]) / np.maximum(chord, 1e-12))
        if not (abs(abs(winding) - 1.0) < 1e-9 and spike < 50.0
                and gaps.max() < 0.2 * table.diameter()):
            bad.append(delta)
    pts1 = build_table(1.0, level).points
    ang = np.angle(pts1 + 1.0)  # exact circle |z+1| = 1
    if not np.all(np.diff(np.unwrap(ang)) > 0):
        bad.append("circle-order")
    return _result("cylinders.circular_order", not bad, f"violations at {bad}")


def check_real_symmetry(level=12) -> CheckResult:
    """Conjugate parameters give conjugate tables, angle k to -k:
    points(conj delta)[-k] == conj(points(delta)[k]). At real delta this is
    the symmetry that lets a table store only the angles in [0, 1/2], so it
    is checked on full tables off the real axis."""
    worst = 0.0
    for delta in (0.6 + 0.1j, 0.15 + 0.05j, 0.02 + 0.01j):
        pts = build_table(delta, level).points
        conj_pts = build_table(delta.conjugate(), level).points
        mirrored = np.conj(np.roll(conj_pts[::-1], 1))  # angle k -> -k
        worst = max(worst, float(np.max(np.abs(pts - mirrored))))
    return _result("cylinders.real_symmetry", worst < 1e-12, f"max err {worst:.2e}")


def check_motion_continuity(level=10) -> CheckResult:
    base = build_table(0.3, level).points
    devs = []
    for h in (0.02, 0.01, 0.005):
        devs.append(float(np.max(np.abs(build_table(0.3 + h, level).points - base))))
    decreasing = devs[0] > devs[1] > devs[2]
    return _result("cylinders.motion_continuity", decreasing, f"deviations {devs}")


def check_parabolic_sizes(level=16) -> CheckResult:
    prods = [c.size * c.index * c.index
             for c in cylinders(build_table(0.0, level), level - 2)[10:]]
    lo, hi = min(prods), max(prods)
    ok = hi < 20.0 and lo > 1.0 / 20.0
    return _result("cylinders.parabolic_sizes", ok, f"n^2*size in [{lo:.2f}, {hi:.2f}]")


def check_size_vs_deriv(level=12) -> CheckResult:
    """Cylinder size over |psi'(-n)| within the e^{0.2 n|delta|} + 0.2 envelope.

    The envelope is asymptotic in n (the anchor drifts from -n by a log
    term that only fades like log(n)/n; the measured crossover is n ~ 40),
    so the window starts at n = 41; anchors beyond the table resolution
    come from the backward tower.
    """
    details = []
    worst = 0.0
    for alpha in (0.0, np.pi / 6):
        for t in (0.005, 0.01, 0.02):
            delta = t * np.exp(1j * alpha)
            table = build_table(delta, level)
            tower = backward_anchor_tower(delta, table, 8, 200)  # z_8 .. z_208
            for n in range(41, 200, 7):
                size = abs(tower[n - 8] - tower[n - 7])
                ratio = size / abs(fatou.psi_prime(delta, -n))
                bound = math.exp(0.2 * n * t) + 0.2
                if not 1.0 / bound < ratio < bound:
                    details.append((alpha, t, n, round(ratio, 3), round(bound, 3)))
                worst = max(worst, ratio / bound)
    return _result("cylinders.size_vs_deriv", not details,
                   f"violations {details[:3]}" if details else
                   f"inside envelope, max ratio/bound {worst:.2f}")


def check_two_regime_sizes(level=16) -> CheckResult:
    """Exponential size decay once n|delta| > 1, power law before."""
    delta = 0.2
    sizes = [c.size for c in cylinders(build_table(delta, level), level - 2)[6:]]
    ns = np.arange(6, level - 1)

    def envelope_ok(K):
        lo = (delta ** 2 / K) * np.exp(-K * ns * delta)
        hi = K * delta ** 2 * np.exp(-ns * delta / K)
        return np.all((sizes > lo) & (sizes < hi))

    K = next((k for k in (2.0, 3.0, 5.0, 10.0, 20.0, 50.0) if envelope_ok(k)), None)
    return _result("cylinders.two_regime_sizes", K is not None and K <= 50.0,
                   f"smallest working K = {K}")


def suite_cylinders() -> list[CheckResult]:
    return [
        check_circular_order(),
        check_real_symmetry(),
        check_motion_continuity(),
        check_parabolic_sizes(),
        check_size_vs_deriv(),
        check_two_regime_sizes(),
    ]


# ---------------------------------------------------------------------------
# transfer: pressure behavior, oracle agreement, measure laws

def check_pressure_monotone() -> CheckResult:
    table = build_table(0.5, 12)
    taus = np.linspace(0.6, 2.2, 9)
    vals = [pressure(0.5, tau, table) for tau in taus]
    ok = all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    return _result("transfer.pressure_monotone", ok,
                   f"P from {vals[0]:.3f} to {vals[-1]:.3f}")


def check_oracle_agreement() -> CheckResult:
    worst = 0.0
    for delta, tau in ((1.0, 1.0), (0.8, 1.05), (0.5 * np.exp(1j * np.pi / 6), 1.1)):
        table = build_table(delta, 16)
        a = pressure(delta, tau, table, 16)
        b = pressure_oracle(delta, tau, table, 16)
        worst = max(worst, abs(a - b))
    return _result("transfer.oracle_agreement", worst < 5e-2, f"max |diff| {worst:.2e}")


def check_root_level_stability() -> CheckResult:
    delta = 0.5
    table = build_table(delta, 16)
    roots = {}
    for lev in (10, 12, 14, 16):
        op = TransferOperator(delta, table, lev)
        roots[lev] = transfer._bowen_root(op)[0]
    gaps = [abs(roots[n] - roots[n + 2]) for n in (10, 12, 14)]
    ok = gaps[0] > gaps[1] > gaps[2]
    return _result("transfer.root_level_stability", ok, f"gaps {['%.1e' % g for g in gaps]}")


def check_shift_invariance() -> CheckResult:
    delta = 0.4
    table = build_table(delta, 12)
    dim = hausdorff_dim(delta, 12, table=table)
    w = equilibrium(delta, dim.tau0, table)
    mu = w.mu
    n = len(mu)
    half = n // 2
    refine = mu[0::2] + mu[1::2]
    coarse_op = equilibrium(delta, dim.tau0, table, level=11).mu
    refine_err = float(np.max(np.abs(refine - coarse_op)))
    pre = mu[: half] + mu[half:]
    inv_err = float(np.max(np.abs(pre - refine)))
    passed = inv_err < 1e-8 and refine_err < 5e-3
    return _result("transfer.shift_invariance", passed,
                   f"T-invariance err {inv_err:.1e}, refinement err {refine_err:.1e}")


def check_partition_sum() -> CheckResult:
    delta = 0.3
    table = build_table(delta, 12)
    dim = hausdorff_dim(delta, 12, table=table)
    w = equilibrium(delta, dim.tau0, table)
    total = float(cylinder_measures(w).sum() + partition_residual(w))
    return _result("transfer.partition_sum", abs(total - 1.0) < 1e-12,
                   f"sum = {total!r}")


def check_measure_two_regimes() -> CheckResult:
    details = []
    # power-law regime: small real delta, n|delta| <= 1
    delta = 0.05
    table = build_table(delta, 16)
    dim = hausdorff_dim(delta, 16, table=table)
    w = equilibrium(delta, dim.tau0, table)
    masses = cylinder_measures(w)
    expo = 2 * dim.aitken_estimate - 1
    ns = np.arange(6, 13)
    ratios = masses[ns] * ns.astype(float) ** expo
    K1 = max(ratios.max(), 1.0 / ratios.min())
    if K1 > 20.0:
        details.append(f"power-law K {K1:.1f}")
    # exponential regime: n|delta| > 1
    delta2 = 0.35
    table2 = build_table(delta2, 16)
    dim2 = hausdorff_dim(delta2, 16, table=table2)
    w2 = equilibrium(delta2, dim2.tau0, table2)
    masses2 = cylinder_measures(w2)
    ns2 = np.arange(4, 13)
    pref = delta2 ** (2 * dim2.tau0 - 1)

    def env_ok(K):
        lo = pref / K * np.exp(-K * ns2 * delta2)
        hi = pref * K * np.exp(-ns2 * delta2 / K)
        return np.all((masses2[ns2] > lo) & (masses2[ns2] < hi))

    K2 = next((k for k in (2.0, 3.0, 5.0, 10.0, 20.0, 50.0) if env_ok(k)), None)
    if K2 is None:
        details.append("no exponential envelope K <= 50")
    return _result("transfer.measure_two_regimes", not details,
                   f"K_power {K1:.1f}, K_exp {K2}" if not details else "; ".join(details))


def check_orbit_expansion() -> CheckResult:
    delta = 0.05
    table = build_table(delta, 12)
    rep = transfer.orbit_expansion_check(delta, table, 8, k_max=200)
    ok = (rep["min_deriv_over_k2"] > 0 and rep["min_full_deriv"] > 1.0
          and rep["min_partial_deriv"] > 0)
    return _result("transfer.orbit_expansion", ok,
                   f"min |Df^k|/k^2 {rep['min_deriv_over_k2']:.2e}, "
                   f"min |Df^k| {rep['min_full_deriv']:.2f}, "
                   f"inf partial {rep['min_partial_deriv']:.2e}")


def check_conjugation_symmetry() -> CheckResult:
    d1 = hausdorff_dim(0.3 + 0.2j, 12)
    d2 = hausdorff_dim(0.3 - 0.2j, 12)
    err = abs(d1.tau0 - d2.tau0)
    return _result("transfer.conjugation_symmetry", err < 1e-10, f"|diff| {err:.1e}")


def check_power_iteration_decay() -> CheckResult:
    """Eigenvalue increments shrink geometrically (simple leading root)."""
    delta = 0.5
    table = build_table(delta, 12)
    op = TransferOperator(delta, table, 12)
    w = op.weights(1.1)
    u = np.full(op.size, 1.0 / op.size)
    lams = []
    for _ in range(60):
        v = np.empty_like(u)
        s = op.apply(u, w, v)
        lams.append(s / u.sum())
        u = v / s
    diffs = np.abs(np.diff(lams))
    diffs = diffs[diffs > 0]
    ratios = diffs[1:] / diffs[:-1]
    ok = len(ratios) > 10 and np.median(ratios) < 0.95
    return _result("transfer.power_iteration_decay", ok,
                   f"median contraction {np.median(ratios):.3f}")


def check_formula_vs_fd_grid() -> CheckResult:
    """Derivative formula against ray finite differences over a (t, angle) grid."""
    worst = 0.0
    for alpha in (0.0, np.pi / 6, np.pi / 4):
        for t in (0.2, 0.4, 0.6):
            delta = t * np.exp(1j * alpha)
            level = 11
            table = build_table(delta, level)
            op = TransferOperator(delta, table, level)
            tau, _, h = transfer._bowen_root(op)
            w = equilibrium(delta, tau, table, level, h)
            formula = transfer.directional_derivative_formula(delta, table, w)
            fd = transfer.dprime_fd(delta, level, near=(tau, h, w.chi))
            worst = max(worst, abs(formula - fd) / abs(fd))
    return _result("transfer.formula_vs_fd_grid", worst < 0.05,
                   f"max rel deviation {worst:.1e}")


def suite_transfer() -> list[CheckResult]:
    return [
        check_pressure_monotone(),
        check_oracle_agreement(),
        check_root_level_stability(),
        check_shift_invariance(),
        check_partition_sum(),
        check_measure_two_regimes(),
        check_orbit_expansion(),
        check_conjugation_symmetry(),
        check_power_iteration_decay(),
        check_formula_vs_fd_grid(),
    ]


# ---------------------------------------------------------------------------
# perturbation: model function and series envelopes

def check_gamma_forms(rng) -> CheckResult:
    # comparison restricted to |z| <= 8: beyond, the value is exponentially
    # small and the sinh/cosh form loses it to O(1) cancellation
    z = _random_z(rng, 3000, 0.3, 8.0)
    z = z[_pole_distance(z, (-2, -1, 1, 2)) >= 0.3]
    f1 = 0.5 * (-1.0 + (np.sinh(z) - z) / (np.cosh(z) - 1.0))
    f2 = 0.5 * (-_each(perturbation.g_fn, z)) / (np.cosh(z) - 1.0)
    f3 = (np.exp(z) - z * np.exp(z) - 1.0) / (np.exp(z) - 1.0) ** 2
    lib = perturbation.gamma_fn(z)
    ref = np.abs(f1)
    worst = max(np.max(np.abs(f - f1) / ref, initial=0.0) for f in (f2, f3, lib))
    return _result("perturbation.gamma_forms", worst < 1e-12, f"max rel spread {worst:.2e}")


def check_gamma_small_z() -> CheckResult:
    devs = []
    for r in (1e-2, 1e-3, 1e-4):
        z = r * np.exp(1j * 0.7)
        devs.append(abs(perturbation.one_plus_two_gamma(z) * 3.0 / z - 1.0))
    quadratic = devs[0] / devs[1] > 50 and devs[1] / devs[2] > 50
    ok = devs[2] < 1e-7 and quadratic
    return _result("perturbation.gamma_small_z", ok,
                   f"|3(1+2G)/z - 1| = {['%.1e' % d for d in devs]}")


def check_gamma_ray_decay() -> CheckResult:
    vals = [abs(perturbation.gamma_fn(t * np.exp(1j * np.pi / 4))) for t in (10, 100, 1000)]
    ok = vals[-1] < 1e-2 and vals[0] > vals[1] > vals[2]
    return _result("perturbation.gamma_ray_decay", ok, f"|Gamma| {['%.1e' % v for v in vals]}")


def check_g_nonvanishing(rng) -> CheckResult:
    z = _random_z(rng, 100, 1e-2, 50.0)
    z = np.abs(z.real) + 1j * z.imag  # push into Re > 0
    vals = np.abs(_each(perturbation.g_fn, z))
    return _result("perturbation.g_nonvanishing", np.min(vals) > 0,
                   f"min |g| {np.min(vals):.1e}")


def check_sinh_nonvanishing() -> CheckResult:
    ok = perturbation.sinh_z_minus_z_nonvanishing(2.0, 10_000)
    return _result("perturbation.sinh_nonvanishing", ok, "floor 1e-3 on 0<|z|<=2")


def check_phi_dot_recursion(rng) -> CheckResult:
    from .boettcher import DyadicAngle
    delta = 0.35 * np.exp(1j * 0.3)
    table = build_table(delta, 12)
    worst = 0.0
    for k in (rng.randrange(1, 1 << 12) for _ in range(50)):
        s = DyadicAngle(k, 12)
        v1 = perturbation.phi_dot_series(delta, table, s).value
        v2 = perturbation.phi_dot_series(delta, table, s.doubled()).value
        fp = maps.evaluate_deriv(delta, table.points[s.numerator << (12 - s.level)])
        rhs = (delta / 2.0) / fp + (v2 + 0.5) / fp
        worst = max(worst, abs((v1 + 0.5) - rhs))
    return _result("perturbation.phi_dot_recursion", worst < 1e-10, f"max err {worst:.1e}")


def check_phi_dot_fd(rng) -> CheckResult:
    """Series derivative against central differences of whole tables."""
    from .boettcher import DyadicAngle
    delta, h = 0.4, 1e-5
    level = 10
    base = build_table(delta, level)
    plus = build_table(delta + h, level)
    minus = build_table(delta - h, level)
    fd = (plus.points - minus.points) / (2.0 * h)
    worst = 0.0
    for k in (rng.randrange(1, 1 << level) for _ in range(40)):
        s = DyadicAngle(k, level)
        val = perturbation.phi_dot_series(delta, base, s).value
        worst = max(worst, abs(val - fd[k]))
    return _result("perturbation.phi_dot_fd", worst < 1e-4, f"max |diff| {worst:.1e}")


def check_psi_dot_forms(rng) -> CheckResult:
    delta = 0.2 * np.exp(1j * np.pi / 8)
    table = build_table(delta, 14)
    worst = 0.0
    for n in (5, 8, 11):
        z = anchor_point(table, n)
        res = perturbation.psi_dot(delta, n, z)
        worst = max(worst, res.agreement)
    return _result("perturbation.psi_dot_forms", worst < 1e-10, f"max spread {worst:.1e}")


def _psi_dot_on_tower(delta, table, n_lo, n_hi):
    """psi-dot at anchor points z_n for n in [n_lo, n_hi], via the tower."""
    tower = backward_anchor_tower(delta, table, 1, n_hi)  # z_1 .. z_{1+n_hi}
    anchors = {n: tower[n - 1] for n in range(1, n_hi + 1)}
    out = {}
    for n in range(n_lo, n_hi + 1):
        res = perturbation.psi_dot(delta, n, complex(anchors[n]), agreement_tol=1e-6)
        out[n] = res.value
    return out


def check_psi_dot_vs_gamma() -> CheckResult:
    """psi-dot tracks Gamma(n delta) within the stated envelope."""
    table = build_table(0.02 * np.exp(1j * np.pi / 6), 10)
    delta = 0.02 * np.exp(1j * np.pi / 6)
    vals = _psi_dot_on_tower(delta, table, 20, 200)
    worst = -np.inf
    for n in range(20, 201, 5):
        dev = abs(vals[n] / perturbation.gamma_fn(n * delta) - 1.0)
        bound = math.exp(0.2 * n * abs(delta)) - 1.0 + 0.2
        worst = max(worst, dev / bound)
    return _result("perturbation.psi_dot_vs_gamma", worst < 1.0,
                   f"max dev/bound = {worst:.2f}")


def check_psi_dot_drift_ratio() -> CheckResult:
    """(1+2 psi-dot)/(1+2 Gamma(n delta)) within 0.2 of 1 for n <= 2/|delta|."""
    delta = 0.01 * np.exp(1j * np.pi / 6)
    table = build_table(delta, 10)
    vals = _psi_dot_on_tower(delta, table, 25, 200)
    ns = np.arange(25, 201, 5)
    psi_dots = np.array([vals[n] for n in ns])
    ratio = (1.0 + 2.0 * psi_dots) / perturbation.one_plus_two_gamma(ns * delta)
    worst = np.max(np.abs(ratio - 1.0))
    return _result("perturbation.psi_dot_drift_ratio", worst < 0.2,
                   f"max |ratio-1| = {worst:.3f}")


def suite_perturbation() -> list[CheckResult]:
    rng = random.Random(SEED + 2)
    return [
        check_gamma_forms(rng),
        check_gamma_small_z(),
        check_gamma_ray_decay(),
        check_g_nonvanishing(rng),
        check_sinh_nonvanishing(),
        check_phi_dot_recursion(rng),
        check_phi_dot_fd(rng),
        check_psi_dot_forms(rng),
        check_psi_dot_vs_gamma(),
        check_psi_dot_drift_ratio(),
    ]


# ---------------------------------------------------------------------------
# quadrature: master-integral identities and decay envelopes

def check_omega_even() -> CheckResult:
    worst = 0.0
    for th in (0.3, 0.7, 1.2):
        a = quadrature.omega(th, 1.08)
        b = quadrature.omega(-th, 1.08)
        worst = max(worst, abs(a.value - b.value))
    return _result("quadrature.omega_even", worst < 1e-9, f"max |diff| {worst:.1e}")


def check_omega_sign() -> CheckResult:
    vals = [quadrature.omega(th, 1.08).value for th in (0.0, 0.5, 1.0)]
    return _result("quadrature.omega_sign", all(v < 0 for v in vals),
                   f"values {['%.4f' % v for v in vals]}")


def check_omega_self_consistency() -> CheckResult:
    spec1 = quadrature.QuadratureSpec()
    spec2 = quadrature.QuadratureSpec(abs_tol=spec1.abs_tol / 2,
                                      rel_tol=spec1.rel_tol / 2)
    ok = True
    detail = []
    for th in (0.0, 0.9):
        a = quadrature.omega(th, 1.08, spec1)
        b = quadrature.omega(th, 1.08, spec2)
        shift = abs(a.value - b.value)
        ok = ok and shift <= max(a.err_estimate, 1e-13)
        detail.append(f"{shift:.1e}/{a.err_estimate:.1e}")
    return _result("quadrature.omega_self_consistency", ok, " ".join(detail))


def check_identity_chain() -> CheckResult:
    worst = 0.0
    for alpha in (0.0, np.pi / 6, np.pi / 4, 3 * np.pi / 8):
        for D0 in (1.05, 1.08, 1.2):
            om = quadrature.omega(math.tan(alpha), D0).value
            da = quadrature.delta_alpha(alpha, D0).value
            qi = quadrature.q_integral(D0, alpha).value
            worst = max(worst,
                        abs(da + 2.0 ** (-D0) * om) / abs(om),
                        abs(qi - da) / abs(da))
    return _result("quadrature.identity_chain", worst < 1e-6, f"max rel dev {worst:.1e}")


def check_inner_integral_identity(rng) -> CheckResult:
    worst = 0.0
    for _ in range(25):
        alpha = rng.uniform(-1.3, 1.3)
        s = math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
        v = complex(math.cos(alpha), math.sin(alpha))
        val = float(quadrature._gk21(lambda t: quadrature._ray_drift(v, t),
                                     0.0, s, 1e-12, 1e-11, 200)[0])
        z = v * s
        closed = (z * np.sinh(z) / (np.cosh(z) - 1.0)).real - 2.0
        worst = max(worst, abs(val - closed) / max(abs(closed), 1e-10))
    return _result("quadrature.inner_integral_identity", worst < 1e-8,
                   f"max rel err {worst:.1e}")


def check_series_positivity() -> CheckResult:
    # at theta = +-1 the leading term vanishes exactly, so partial sums are
    # required nonnegative and the full sum strictly positive
    xs = np.linspace(1e-3, 3.0, 60)
    ths = np.linspace(-1.0, 1.0, 21)
    worst_partial = np.inf
    worst_total = np.inf
    for th in ths:
        for x in xs:
            tot = 0.0
            x2n = x ** 4
            t2n = th ** 4
            fact = 6.0
            for n in range(2, 12):
                tot += (1 - 1 / n) * (1 - (-1) ** n * t2n) * x2n / fact
                worst_partial = min(worst_partial, tot)
                x2n *= x * x
                t2n *= th * th
                fact *= (2 * n) * (2 * n + 1)
            worst_total = min(worst_total, tot)
    ok = worst_partial >= 0 and worst_total > 0
    return _result("quadrature.series_positivity", ok,
                   f"min partial {worst_partial:.1e}, min total {worst_total:.1e}")


def check_lambda_bounds() -> CheckResult:
    ok = True
    details = []
    for alpha in (0.0, np.pi / 6, np.pi / 3):
        ca = math.cos(alpha)
        for h, eps in ((1.08, 0.0), (1.2, 0.5), (1.4, -0.5)):
            ts = np.geomspace(1.01, 50.0, 40)
            ratio = np.max(quadrature.lambda_fn(h, eps, ts * np.exp(1j * alpha))
                           / np.exp(ts * (-h + eps) * ca))
            ts_small = np.geomspace(1e-3, 1.0, 40)
            ratio_small = np.max(
                quadrature.lambda_fn(h, eps, ts_small * np.exp(1j * alpha))
                * ts_small ** (2 * h))
            if not (np.isfinite(ratio) and np.isfinite(ratio_small)):
                ok = False
            details.append(f"K>{max(ratio, ratio_small):.1f}")
            ok = ok and ratio < 1e3 and ratio_small < 1e3
    return _result("quadrature.lambda_bounds", ok, ", ".join(details[:3]))


def check_tail_bounds() -> CheckResult:
    ok = True
    h, eps, alpha = 1.08, 0.0, np.pi / 6
    ca = math.cos(alpha)
    Ks = []
    for t in np.geomspace(1e-3, 0.9, 12):
        tail = quadrature.lambda_tail(h, eps, alpha, t).value
        Ks.append(tail * t ** (2 * h - 1))
    for t in np.geomspace(1.1, 30.0, 8):
        tail = quadrature.lambda_tail(h, eps, alpha, t).value
        ok = ok and tail < 1e3 * math.exp(t * (-h + eps) * ca)
    ok = ok and max(Ks) < 1e3
    # small-t law: t^{2h-1} tail -> 1/(2h-1)
    law = quadrature.lambda_tail(h, 0.0, alpha, 1e-3).value * (1e-3) ** (2 * h - 1) * (2 * h - 1)
    ok = ok and abs(law - 1.0) < 0.01
    # monotone in the lower limit
    tails = [quadrature.lambda_tail(h, eps, alpha, t).value for t in (0.1, 0.5, 2.0)]
    ok = ok and tails[0] > tails[1] > tails[2]
    return _result("quadrature.tail_bounds", ok, f"small-t law dev {abs(law-1):.1e}")


def check_q_bounds() -> CheckResult:
    h, alpha = 1.08, np.pi / 6
    ca = math.cos(alpha)
    ok = True
    for t in np.geomspace(1e-3, 0.9, 8):
        q = quadrature.q_fn(h, alpha, t)
        ok = ok and abs(q) < 1e3 * t ** (-2 * h + 2)
    decay = [abs(quadrature.q_fn(h, alpha, t)) for t in (5.0, 10.0, 20.0)]
    ok = ok and decay[0] > decay[1] > decay[2]
    ok = ok and decay[2] < 10 * math.exp(-20.0 * h * ca)
    return _result("quadrature.q_bounds", ok, f"|Q| at t=20: {decay[2]:.1e}")


def suite_quadrature() -> list[CheckResult]:
    rng = random.Random(SEED + 3)
    return [
        check_omega_even(),
        check_omega_sign(),
        check_omega_self_consistency(),
        check_identity_chain(),
        check_inner_integral_identity(rng),
        check_series_positivity(),
        check_lambda_bounds(),
        check_tail_bounds(),
        check_q_bounds(),
    ]


SUITES = {
    "appendix": suite_appendix,
    "fatou": suite_fatou,
    "cylinders": suite_cylinders,
    "transfer": suite_transfer,
    "perturbation": suite_perturbation,
    "quadrature": suite_quadrature,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise ParseError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
