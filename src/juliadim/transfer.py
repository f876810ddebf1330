"""Dimension via weighted angle-doubling transfer operators.

Words of length N are dyadic intervals [k/2^N, (k+1)/2^N); each word k
maps onto words 2k and 2k+1 (mod 2^N), so every word has the two shift
preimages k>>1 and (k>>1) + 2^(N-1).  Weighting preimages by
|Df(point(k))|^(-tau) at the word's representative landing point gives a
nonnegative irreducible operator whose Perron eigenvalue e^P discretizes
the weighted preimage-sum growth rate; the dimension is the root of
tau -> P(tau), which is strictly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import maps
from .boettcher import BoettcherTable, anchor_point, build_table
from .errors import (BracketFailureError, LevelExceededError,
                     NoConvergenceError)
from .perturbation import phi_dot_table

EIG_RTOL = 1e-12
EIG_MAXIT = 100_000
PRESSURE_TOL = 1e-10


def _reps_from_table(table: BoettcherTable, level: int) -> np.ndarray:
    """Representative landing points of all level-``level`` words.

    Representatives are the words' left-endpoint angles; those are exactly
    the stride-subsampled table entries.
    """
    if level > table.level:
        raise LevelExceededError(
            f"level {level} exceeds table level {table.level}")
    stride = 1 << (table.level - level)
    return table.points[::stride]


class TransferOperator:
    """Weighted doubling-word operator at a fixed parameter and word length."""

    def __init__(self, delta: complex, table: BoettcherTable,
                 level: int | None = None, tau: float | None = None):
        self.delta = complex(delta)
        self.level = table.level if level is None else int(level)
        reps = _reps_from_table(table, self.level)
        deriv = maps.evaluate_deriv(maps.f_delta(self.delta), reps)
        mag = np.abs(deriv)
        if not np.all(mag > 0):
            raise ValueError("representative hit the critical point")
        # average over the word's two endpoint angles: keeps the weight
        # array index-aligned with the table and, unlike a one-endpoint
        # rule, commutes exactly with complex conjugation of delta
        ld = np.log(mag)
        self.log_deriv = 0.5 * (ld + np.roll(ld, -1))
        self.tau = tau

    @property
    def size(self) -> int:
        return 1 << self.level

    def weights(self, tau: float) -> np.ndarray:
        return np.exp(-tau * self.log_deriv)

    def apply(self, u: np.ndarray, w: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """Sum over the two shift preimages of each word.

        Words 2k and 2k+1 share the preimages k and k + n/2, so both get
        u[k]*w[k] + u[k+n/2]*w[k+n/2]. With ``out`` (contiguous, not
        aliasing ``u``) nothing is allocated.
        """
        half = len(u) // 2
        if out is None:
            out = np.empty_like(u)
        pairs = out.reshape(half, 2)
        even, odd = pairs[:, 0], pairs[:, 1]
        np.multiply(u[:half], w[:half], out=even)
        np.multiply(u[half:], w[half:], out=odd)
        even += odd
        odd[...] = even
        return out

    def apply_dual(self, om: np.ndarray, w: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Dual action on mass vectors: word k collects words 2k and 2k+1
        (mod n). With ``out`` (not aliasing ``om``) nothing is allocated."""
        half = len(om) // 2
        if out is None:
            out = np.empty_like(om)
        np.add(om[0::2], om[1::2], out=out[:half])
        out[half:] = out[:half]
        out *= w
        return out

    def _perron(self, w: np.ndarray, u0: np.ndarray | None = None,
                rtol: float = EIG_RTOL, maxit: int = EIG_MAXIT):
        """Leading eigenvalue and eigenvector by power iteration.

        The eigenvalue error of plain power iteration decays like the ratio
        of the two leading eigenvalues; successive differences estimate that
        ratio, giving a stopping rule on the *remaining* error rather than
        on the last step size.
        """
        n = self.size
        u = np.full(n, 1.0 / n) if u0 is None else np.array(u0, dtype=float)
        v = np.empty(n)
        lam_old = None
        diff_old = None
        for _ in range(maxit):
            self.apply(u, w, out=v)
            s = v.sum()
            lam = s / u.sum()
            np.divide(v, s, out=v)
            u, v = v, u
            if lam_old is not None:
                diff = abs(lam - lam_old)
                if diff == 0.0:
                    return lam, u
                if diff_old is not None and diff < diff_old:
                    rho = diff / diff_old
                    if diff * rho / (1.0 - rho) < rtol * abs(lam):
                        return lam, u
                diff_old = diff
            lam_old = lam
        raise NoConvergenceError("power iteration did not converge")

    def pressure(self, tau: float, u0: np.ndarray | None = None) -> float:
        lam, _ = self._perron(self.weights(tau), u0)
        return float(np.log(lam))

    def pressure_with_state(self, tau: float, u0=None):
        lam, u = self._perron(self.weights(tau), u0)
        return float(np.log(lam)), u


def pressure(delta: complex, tau: float, table: BoettcherTable,
             level: int | None = None) -> float:
    """Log of the Perron eigenvalue of the level-``level`` weighted operator."""
    if not 0.5 <= tau <= 2.5:
        raise ValueError("tau outside [0.5, 2.5]")
    return TransferOperator(delta, table, level).pressure(tau)


def pressure_oracle(delta: complex, tau: float, table: BoettcherTable,
                    n: int) -> float:
    """Brute-force preimage-sum pressure at depth n, an independent oracle.

    Enumerates all 2^n preimages of the landing point of angle 1/2 and
    returns (1/n) log sum |Df^n|^(-tau) over them.
    """
    if n > 18:
        raise ValueError("depth capped at 18 (2^n preimages)")
    delta = complex(delta)
    qmap = maps.f_delta(delta)
    z = np.array([anchor_point(table, 0)])  # landing point of angle 1/2
    deriv = np.array([1.0 + 0j])
    for _ in range(n):
        w1, w2 = maps.preimage_pair(qmap, z)
        z = np.concatenate([w1, w2])
        deriv = np.concatenate([maps.evaluate_deriv(qmap, w1) * deriv,
                                maps.evaluate_deriv(qmap, w2) * deriv])
    total = float(np.sum(np.abs(deriv) ** (-tau)))
    return np.log(total) / n


@dataclass(frozen=True)
class DimensionResult:
    tau0: float
    pressure_residual: float
    level: int
    richardson_estimate: float
    error_bound: float


def _bowen_root(op: TransferOperator, lo: float = 1.0, hi: float = 2.0,
                ptol: float = PRESSURE_TOL):
    """Root of the pressure by bracketed secant with bisection fallback."""
    u0 = None
    p_lo, u0 = op.pressure_with_state(lo, u0)
    if abs(p_lo) <= ptol:
        return lo, p_lo
    p_hi, u0 = op.pressure_with_state(hi, u0)
    if abs(p_hi) <= ptol:
        return hi, p_hi
    if not p_lo > 0 > p_hi:
        raise BracketFailureError(
            f"pressure does not change sign on [{lo}, {hi}]: "
            f"P({lo})={p_lo}, P({hi})={p_hi}")
    a, b = lo, hi
    x0, f0, x1, f1 = lo, p_lo, hi, p_hi
    x, fx = x1, f1
    for _ in range(200):
        if f1 != f0:
            x = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx, u0 = op.pressure_with_state(x, u0)
        if fx > 0:
            a = x
        else:
            b = x
        x0, f0, x1, f1 = x1, f1, x, fx
        if abs(fx) <= ptol:
            return x, fx
    raise NoConvergenceError("dimension root solve stalled")


def _aitken(d1: float, d2: float, d3: float) -> float:
    den = (d3 - d2) - (d2 - d1)
    if den == 0:
        return d3
    return d3 - (d3 - d2) ** 2 / den


def hausdorff_dim(delta: complex, level: int, tol: float = PRESSURE_TOL,
                  table: BoettcherTable | None = None,
                  cache_dir: str | None = None) -> DimensionResult:
    """Dimension of the boundary curve at delta, with level extrapolation.

    Solves the pressure root at word lengths level-2, level-1, level (sharing
    one landing-point table) and extrapolates the geometric level error;
    ``error_bound`` is the last inter-level difference.
    """
    if level < 8:
        raise ValueError("level must be >= 8")
    delta = complex(delta)
    if table is None or table.level < level:
        table = build_table(delta, level, cache_dir=cache_dir)
    roots = []
    resid = 0.0
    for lev in (level - 2, level - 1, level):
        op = TransferOperator(delta, table, lev)
        tau, p = _bowen_root(op, ptol=tol)
        roots.append(tau)
        resid = abs(p)
    rich = _aitken(*roots)
    return DimensionResult(tau0=roots[-1], pressure_residual=resid,
                           level=level, richardson_estimate=rich,
                           error_bound=abs(roots[-1] - roots[-2]))


@dataclass(frozen=True, eq=False)
class EquilibriumWeights:
    delta: complex
    level: int
    tau: float
    mu: np.ndarray      # word masses of the invariant state, sums to 1
    omega: np.ndarray   # word masses of the conformal state, sums to 1


def equilibrium(delta: complex, tau: float, table: BoettcherTable,
                level: int | None = None) -> EquilibriumWeights:
    """Left and right Perron vectors, combined into the invariant state."""
    op = TransferOperator(delta, table, level, tau=tau)
    w = op.weights(tau)
    n = op.size
    h = np.full(n, 1.0 / n)
    om = np.full(n, 1.0 / n)
    v = np.empty(n)
    vo = np.empty(n)
    lam_old = None
    diff_old = None
    for _ in range(EIG_MAXIT):
        op.apply(h, w, out=v)
        lam = v.sum()
        np.divide(v, lam, out=v)
        h, v = v, h
        op.apply_dual(om, w, out=vo)
        np.divide(vo, vo.sum(), out=vo)
        om, vo = vo, om
        if lam_old is not None:
            diff = abs(lam - lam_old)
            if diff == 0.0:
                break
            if diff_old is not None and diff < diff_old:
                rho = diff / diff_old
                if diff * rho / (1.0 - rho) < EIG_RTOL * abs(lam):
                    break
            diff_old = diff
        lam_old = lam
    else:
        raise NoConvergenceError("equilibrium power iteration did not converge")
    mu = h * om
    mu /= mu.sum()
    return EquilibriumWeights(complex(delta), op.level, float(tau), mu, om)


def _cylinder_bins(level: int) -> np.ndarray:
    """Cylinder index of every word: word k belongs to the cylinder whose
    folded angle band [2^-(n+2), 2^-(n+1)) contains k/2^level (words fold
    across the real axis; word 0 holds the fixed angle and is the residual).
    """
    n = 1 << level
    ks = np.arange(1, n)
    m = np.minimum(ks, n - ks)
    bins = level - 2 - np.floor(np.log2(m)).astype(int)
    return np.maximum(bins, 0)


def cylinder_measure(weights: EquilibriumWeights, n: int) -> float:
    """Invariant mass of cylinder n (both half-circle arcs)."""
    if n + 1 >= weights.level:
        raise LevelExceededError(f"cylinder {n} needs level > {n + 1}")
    bins = _cylinder_bins(weights.level)
    return float(np.sum(weights.mu[1:][bins == n]))


def cylinder_measures(weights: EquilibriumWeights) -> np.ndarray:
    """All cylinder masses 0..level-2 in one pass; residual is mu[0]."""
    bins = _cylinder_bins(weights.level)
    out = np.zeros(weights.level - 1)
    np.add.at(out, bins, weights.mu[1:])
    return out


def partition_residual(weights: EquilibriumWeights) -> float:
    """Mass not assigned to any cylinder (the fixed-angle word)."""
    return float(weights.mu[0])


def lyapunov_integral(delta: complex, weights: EquilibriumWeights,
                      table: BoettcherTable) -> float:
    """Average expansion rate against the invariant state; positive here."""
    reps = _reps_from_table(table, weights.level)
    logd = np.log(np.abs(maps.evaluate_deriv(maps.f_delta(delta), reps)))
    logd = 0.5 * (logd + np.roll(logd, -1))
    return float(np.sum(weights.mu * logd))


def directional_derivative_formula(delta: complex, v: complex,
                                   table: BoettcherTable,
                                   weights: EquilibriumWeights,
                                   pdot: np.ndarray | None = None) -> float:
    """Dimension derivative along the unit ray v through delta.

    Evaluates -tau/chi times the invariant average of
    Re((v + 2 v phi_dot) / Df(point)), with phi_dot the parameter
    derivative of the landing points. This is the exact derivative of the
    discretized dimension at the operator's word length. ``pdot`` is
    ``phi_dot_table(delta, table)`` if the caller already has it.
    """
    delta = complex(delta)
    v = complex(v)
    if abs(v - delta / abs(delta)) > 1e-9:
        raise ValueError("v must be delta/|delta|")
    reps = _reps_from_table(table, weights.level)
    deriv = maps.evaluate_deriv(maps.f_delta(delta), reps)
    stride = 1 << (table.level - weights.level)
    if pdot is None:
        pdot = phi_dot_table(delta, table)
    pdot = pdot[::stride]
    integrand = np.real((v + 2.0 * v * pdot) / deriv)
    # endpoint-averaged, matching the operator's weight rule, so this is
    # the exact parameter derivative of the discretized dimension
    integrand = 0.5 * (integrand + np.roll(integrand, -1))
    logd = np.log(np.abs(deriv))
    logd = 0.5 * (logd + np.roll(logd, -1))
    num = float(np.sum(weights.mu * integrand))
    chi = float(np.sum(weights.mu * logd))
    return -weights.tau / chi * num


def backward_anchor_tower(delta: complex, table: BoettcherTable,
                          n_start: int, count: int) -> np.ndarray:
    """Anchors z_n for n = n_start .. n_start+count by inverse iteration.

    Extends the anchor sequence past the table's angular resolution: each
    next anchor is the preimage of the previous one on the branch marching
    into the fixed point.
    """
    qmap = maps.f_delta(complex(delta))
    z = anchor_point(table, n_start)
    out = [z]
    for _ in range(count):
        z = complex(maps.inverse_branch(qmap, z, z))
        out.append(z)
    return np.array(out)


def orbit_expansion_check(delta: complex, table: BoettcherTable,
                          n_base: int, k_max: int = 200) -> dict:
    """Expansion statistics for orbits escaping the fixed-point region.

    For z in cylinder n_base+k (anchor points, generated to arbitrary depth
    by inverse iteration), f^k maps z into cylinder n_base; reports the
    minimum of |Df^k(z)|, of |Df^k(z)|/k^2, and the infimum of |Df^j(z)|
    over partial orbits.
    """
    delta = complex(delta)
    qmap = maps.f_delta(delta)
    tower = backward_anchor_tower(delta, table, n_base, k_max)
    dmags = np.abs(maps.evaluate_deriv(qmap, tower))   # |Df(z_n)|, n_base..
    min_ratio = np.inf
    min_full = np.inf
    min_partial = np.inf
    for k in range(1, k_max + 1):
        # orbit of z_{n_base+k} passes z_{n_base+k-1}, ..., z_{n_base}
        prods = np.cumprod(dmags[k:0:-1])
        min_partial = min(min_partial, float(np.min(prods)))
        full = float(prods[-1])
        min_full = min(min_full, full)
        min_ratio = min(min_ratio, full / (k * k))
    return {"min_deriv_over_k2": min_ratio,
            "min_full_deriv": min_full,
            "min_partial_deriv": min_partial,
            "k_max": k_max, "n_base": n_base}
