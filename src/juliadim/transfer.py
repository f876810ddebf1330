"""Dimension via weighted angle-doubling transfer operators.

Words of length N are dyadic intervals [k/2^N, (k+1)/2^N); each word k
maps onto words 2k and 2k+1 (mod 2^N), so every word has the two shift
preimages k>>1 and (k>>1) + 2^(N-1).  Weighting preimages by
|Df(point(k))|^(-tau) at the word's representative landing point gives a
nonnegative irreducible operator whose Perron eigenvalue e^P discretizes
the weighted preimage-sum growth rate; the dimension is the root of
tau -> P(tau), which is strictly decreasing.

At real delta the weights are mirror-symmetric, w[k] == w[n-1-k], so the
operator commutes with the reflection k -> n-1-k and its Perron vectors are
mirror-symmetric. On such vectors the reflection quotient is the tent map on
the n/2 lower words, and the binary-reflected Gray code g(j) = j ^ (j >> 1)
conjugates it onto the ordinary doubling operator on n/2 words. So a real
delta is solved on n/2 words by the same kernels: the operator keeps
``log_deriv[:n/2]`` in Gray order (``_gray_fold``), and ``unfold`` turns its
vectors back into masses of all n words.

Pair-sum space. On its n words the operator is L = D S W: W multiplies by
the weights, S adds the two shift preimages, (S x)[k] = x[k] + x[k + n/2],
and D writes each of those n/2 sums to both words 2k and 2k+1. So L has rank
n/2, and K = S W D on n/2 words has the same nonzero spectrum. The Perron
loop iterates K on the pair sums c = S W u: every step, check and pass
touches n/2 words, and D K c = L D c word for word. ``expand`` turns a
Perron vector of K into one of L (D c / 2), and ``conformal`` a Perron
vector of K^T into one of L^T (W S^T mu, unit sum). The weights stay in
word order, and the kernels read each half of them as complex pairs, words
2j and 2j+1 as one value: pair sums 2j and 2j+1 of K c are the pair
lo[j] * (w[2j], w[2j+1]) + hi[j] * (w[n/2+2j], w[n/2+2j+1]), with lo and hi
the halves of c. A real times a complex value, (x+0i)(a+bi), is x*a + i x*b
exactly for finite operands, so each product and sum is the one the step
on all words makes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import maps
from .boettcher import (BLOCK_WORDS, BoettcherTable, anchor_point,
                        build_table, unmirror)
from .errors import (BracketFailureError, LevelExceededError,
                     NoConvergenceError)
from .perturbation import phi_dot_table

EIG_RTOL = 1e-12
EIG_MAXIT = 100_000
PRESSURE_TOL = 1e-10
# the dimension of every Julia curve solved for lies in [1, 2)
ROOT_BRACKET = (1.0, 2.0)
# From an operator of this many weights on, every pass of the Perron loop
# works on two halves at once when the process may run on two CPUs: each
# step, which reads all the weights, and each pass over the iterates, which
# have half as many words. Below it the thread handoff costs more than the
# half it saves.
SPLIT_MIN_WORDS = 1 << 18
# The primal step works in blocks of at least this many complex pairs and
# at most four per call, through one scratch of a block: within the
# temporary of the step on real halves, yet few ufunc calls, each of which
# hands the interpreter lock between the halves of a split step.
PAIR_BLOCK = 1 << 12
# The Collatz-Wielandt check divides in chunks of this many words, which
# stay in cache, instead of into an n-word ratio array.
CW_CHUNK = 1 << 16
# Aitken step of the Perron loop: once two estimates of the ratio of
# successive eigenvalue changes agree, sign included, within
# AITKEN_RATIO_AGREE * (1 - |ratio|), that mode is removed from the vector.
AITKEN_RATIO_AGREE = 1e-2
# The power loop keeps its iterate unnormalised and multiplies it by a power
# of two, which is exact, only when its sum leaves
# [1/RESCALE_WINDOW, RESCALE_WINDOW].
RESCALE_WINDOW = 2.0 ** 256
# Eigenvalue changes this small relative to the eigenvalue are rounding: one
# proposes a stop, so that the power loop ends where its iterate is an exact
# eigenvector.
ROUNDING_RTOL = 4 * np.finfo(float).eps
# Inexact solves on the way to a pressure root (the forcing term of Dembo,
# Eisenstat and Steihaug, Inexact Newton methods, 1982): a pressure that
# steers the next tau is solved to FORCING times the smaller of the last two
# |P|, and the cold pair P(1), P(2), of order one, to FORCING; none tighter
# than EIG_RTOL.
FORCING = 1e-6
# A pressure solved to rtol > EIG_RTOL with |P| < SIGN_MARGIN * rtol is
# finished at EIG_RTOL: its sign, or its acceptance, would rest on its error.
SIGN_MARGIN = 1e3
# pressure_oracle enumerates subtrees of at most 2^ORACLE_SUBTREE_DEPTH
# preimages one at a time
ORACLE_SUBTREE_DEPTH = 14


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity on this platform
        return os.cpu_count() or 1


# iterates of this many words or more are split; never on a single CPU
_SPLIT_FROM = SPLIT_MIN_WORDS // 2 if _usable_cpus() >= 2 else float("inf")
# takes the upper half of a split pass; its thread starts on first use
_HALF_POOL = ThreadPoolExecutor(max_workers=1,
                                thread_name_prefix="juliadim-half")


def _halves(fn, arrays: tuple, *args) -> tuple:
    """``(fn(*arrays, *args),)``, or, when ``arrays[0]`` has ``_SPLIT_FROM``
    words or more, ``fn`` on the lower halves of ``arrays`` on this thread
    while the pool runs it on the upper halves: both results, lower first.
    ``fn`` must not call this function: the pool's one worker would wait
    for itself.

    Elementwise work, min and max come out the same either way, and so do
    sums of power-of-two arrays of 256 words or more: numpy sums a
    contiguous float64 array pairwise, and the top split of its tree falls
    at ``len(x) // 2``, so the two half sums add up to the whole bit for
    bit."""
    if len(arrays[0]) < _SPLIT_FROM:
        return (fn(*arrays, *args),)
    fut = _HALF_POOL.submit(fn, *(a[len(a) // 2:] for a in arrays), *args)
    try:
        lower = fn(*(a[:len(a) // 2] for a in arrays), *args)
    finally:
        upper = fut.result()
    return lower, upper


def _rescale(s: float, x: np.ndarray) -> float:
    """Multiplies ``x`` by the power of two that takes ``s`` into [1/2, 1),
    in place, and returns ``s`` times it; both exactly."""
    m, e = math.frexp(s)
    x *= math.ldexp(1.0, -e)
    return m


def _pair_step(out, lo, hi, w_lo, w_hi) -> float:
    """out[2j] = lo[j]*w_lo[2j] + hi[j]*w_hi[2j] and out[2j+1] =
    lo[j]*w_lo[2j+1] + hi[j]*w_hi[2j+1], with ``out``, ``w_lo`` and ``w_hi``
    read as complex pairs; returns the sum of ``out``. Works in blocks of
    at least ``PAIR_BLOCK`` pairs, at most four, through one scratch."""
    oc, wl, wh = out.view(complex), w_lo.view(complex), w_hi.view(complex)
    b = max(PAIR_BLOCK, -(-len(oc) // 4))
    t = np.empty(min(len(oc), b), complex)
    for i in range(0, len(oc), b):
        o = oc[i:i + b]
        s = t[:len(o)]
        np.multiply(lo[i:i + b], wl[i:i + b], out=o)
        np.multiply(hi[i:i + b], wh[i:i + b], out=s)
        o += s
    return out.sum()


def _dual_sums(out: np.ndarray, w: np.ndarray, mu: np.ndarray) -> float:
    """out[i/2 + j] = mu[k+2j] * w[i+2j] + mu[k+2j+1] * w[i+2j+1] for each
    run of ``len(out)`` weights from i, with k = i mod ``len(mu)``: ``w`` is
    the operator's weights or one half of them, and on all pair sums each
    run is one half. Returns the sum of ``out``. Allocates one temporary the
    size of ``out``."""
    k = len(out)
    p = np.empty(k)
    for i in range(0, len(w), k):
        j = i % len(mu)
        np.multiply(mu[j:j + k], w[i:i + k], out=p)
        np.add(p[0::2], p[1::2], out=out[i // 2:(i + k) // 2])
    return out.sum()


def _divide(x: np.ndarray, s: float) -> None:
    x /= s


def _neg_exp(x: np.ndarray, out: np.ndarray, tau: float) -> None:
    """out = exp(-tau * x)."""
    np.multiply(x, -tau, out=out)
    np.exp(out, out=out)


def _remove_mode(u: np.ndarray, v: np.ndarray, rho: float) -> None:
    """Aitken step in place: ``u += rho/(1-rho) * (u - v)``, with ``v`` as
    scratch. Removes from ``u`` the mode that the step from ``v`` to ``u``
    multiplied by ``rho``, which may be negative."""
    np.subtract(u, v, out=v)
    v *= rho / (1.0 - rho)
    u += v


def _aitken_pass(u: np.ndarray, v: np.ndarray, s: float, s_old: float,
                 rho: float) -> float:
    """``_remove_mode`` on ``u / s`` and ``v / s_old``, both in place, so
    that the two iterates are on one scale; returns the sum of ``u``."""
    u /= s
    v /= s_old
    _remove_mode(u, v, rho)
    return u.sum()


def _ratios_agree(rho, rho_old) -> bool:
    """True iff two successive estimates of one ratio agree, sign included,
    within ``AITKEN_RATIO_AGREE * (1 - |rho|)``."""
    return (rho is not None and rho_old is not None and
            abs(rho - rho_old) <= AITKEN_RATIO_AGREE * (1.0 - abs(rho)))


def _ratio_range(u: np.ndarray, v: np.ndarray) -> tuple:
    """min and max of ``u/v`` and the first words that reach them,
    ``(lo, i_lo, hi, i_hi)``, or (0, 0, inf, 0) unless ``v`` and ``u/v``
    are positive; divides ``CW_CHUNK`` words at a time."""
    buf = np.empty(min(len(v), CW_CHUNK))
    lo, i_lo, hi, i_hi = math.inf, 0, 0.0, 0
    for i in range(0, len(v), CW_CHUNK):
        vc = v[i:i + CW_CHUNK]
        if not vc.min() > 0.0:
            return 0.0, 0, math.inf, 0
        ratio = buf[:len(vc)]
        np.divide(u[i:i + CW_CHUNK], vc, out=ratio)
        j = int(ratio.argmin())
        if not ratio[j] > 0.0:
            return 0.0, 0, math.inf, 0
        if ratio[j] < lo:
            lo, i_lo = float(ratio[j]), i + j
        j = int(ratio.argmax())
        if ratio[j] > hi:
            hi, i_hi = float(ratio[j]), i + j
    return lo, i_lo, hi, i_hi


def _cw_spread(u: np.ndarray, v: np.ndarray, q: float):
    """Collatz-Wielandt spread ``max(u/v) / min(u/v) - 1`` of a positive
    ``v`` and ``u``, a positive multiple of ``L v`` for a nonnegative ``L``,
    and the word whose ``u/v`` lies relatively farthest from ``q > 0``, the
    lowest such word on a tie: ``(spread, word)``. The Perron eigenvalue of
    ``L`` and the ratio of the sums of ``L v`` and ``v`` both lie in
    ``[min, max]`` of ``(L v)/v``, so the spread bounds the relative error
    of that ratio. ``(inf, None)`` unless ``v`` is positive and ``u/v``
    positive and finite."""
    # the upper half numbers its words from len(v) // 2
    ranges = [(lo, i_lo + k, hi, i_hi + k) for (lo, i_lo, hi, i_hi), k
              in zip(_halves(_ratio_range, (u, v)), (0, len(v) // 2))]
    # min and max return the first extreme, so the lower half wins ties
    lo, i_lo = min((r[:2] for r in ranges), key=lambda r: r[0])
    hi, i_hi = max((r[2:] for r in ranges), key=lambda r: r[0])
    if not (lo > 0.0 and hi < math.inf):
        return math.inf, None
    if q - lo > hi - q or (q - lo == hi - q and i_lo < i_hi):
        word = i_lo
    else:
        word = i_hi
    return hi / lo - 1.0, word


def _gray_fold(x: np.ndarray, inverse: bool = False) -> None:
    """``x[j ^ (j >> 1)] = x[j]`` in place for ``len(x)`` a power of two,
    or, with ``inverse``, the inverse permutation: reverses the upper half
    of every block of 4, 8, ... ``len(x)`` words, coarsest block first (last
    when ``inverse``)."""
    sizes = [1 << k for k in range(2, len(x).bit_length())]
    for b in (sizes if inverse else reversed(sizes)):
        upper = x.reshape(-1, b)[:, b // 2:]
        upper[...] = upper[:, ::-1]


def _endpoint_mean(x: np.ndarray, m: int) -> np.ndarray:
    """``(x[k] + x[k+1]) / 2`` for k < ``m``, with ``x[len(x)]`` read as
    ``x[0]``."""
    out = np.empty(m)
    np.add(x[:m - 1], x[1:m], out=out[:-1])
    out[-1] = x[m - 1] + x[m % len(x)]
    out *= 0.5
    return out


def _operator_words(delta: complex, level: int) -> int:
    """Words of the level-``level`` operator. At real delta words k and
    n-1-k carry the same weight bit for bit (the endpoint-averaged weight
    commutes with conjugation), so from level 2 on the operator keeps only
    the n/2 lower ones, formed from the angles in [0, 1/2], all that a
    mirrored table stores; else all n = 2^level."""
    n = 1 << level
    return n // 2 if delta.imag == 0 and n >= 4 else n


def _log_abs_deriv(delta: complex, table: BoettcherTable,
                   level: int) -> np.ndarray:
    """log|Df| at the representatives of the level-``level`` operator's
    words, and of the next word when the table stores it,
    ``BLOCK_WORDS`` points at a time. Raises ValueError for a table built
    at another delta.

    Representatives are the words' left-endpoint angles; those are exactly
    the stride-subsampled table entries. So the array of a coarser level
    ``lev`` is this one's ``[::2^(level-lev)]``, bit for bit.
    """
    delta = table.require_delta(delta)
    if level < 1:
        raise ValueError(f"level {level} below 1")
    if level > table.level:
        raise LevelExceededError(
            f"level {level} exceeds table level {table.level}")
    m = _operator_words(delta, level)
    reps = table.stored[::1 << (table.level - level)][:m + 1]
    ld = np.empty(len(reps))
    for i in range(0, len(reps), BLOCK_WORDS):
        np.abs(maps.evaluate_deriv(delta, reps[i:i + BLOCK_WORDS]),
               out=ld[i:i + BLOCK_WORDS])
    if not np.all(ld > 0):
        raise ValueError("representative hit the critical point")
    np.log(ld, out=ld)
    return ld


class TransferOperator:
    """Weighted doubling-word operator at a fixed parameter and word length.

    At real delta, from level 2 on, it is folded: its words are the
    2^(level-1) lower words in Gray order (see the module docstring), else
    all 2^level words. ``weights`` lives on those words, in that order;
    ``apply``, ``apply_dual`` and the Perron vectors live in pair-sum space,
    half as many words. ``expand`` and ``conformal`` give vectors on the
    operator's words, and ``unfold`` the masses of all 2^level words.
    Raises ValueError for a table built at another delta."""

    def __init__(self, delta: complex, table: BoettcherTable,
                 level: int | None = None):
        level = table.level if level is None else int(level)
        self._set_log_deriv(complex(delta), level,
                            _log_abs_deriv(delta, table, level), in_place=True)

    @classmethod
    def _of_log_abs(cls, delta: complex, level: int, ld: np.ndarray, *,
                    in_place: bool = False) -> "TransferOperator":
        """The level-``level`` operator at ``delta`` from ``ld``, its
        ``_log_abs_deriv`` or a strided view of a finer level's; with
        ``in_place`` formed in ``ld``'s buffer, which it overwrites."""
        op = cls.__new__(cls)
        op._set_log_deriv(delta, level, ld, in_place=in_place)
        return op

    def _set_log_deriv(self, delta: complex, level: int, ld: np.ndarray, *,
                       in_place: bool) -> None:
        """Forms ``log_deriv`` from ``ld`` (``_log_abs_deriv``): with
        ``in_place`` in ``ld``'s buffer, else in a new array."""
        self.delta, self.level = delta, level
        m = _operator_words(delta, level)
        # average over the word's two endpoint angles: keeps the weight
        # array index-aligned with the table and, unlike a one-endpoint
        # rule, commutes exactly with complex conjugation of delta
        mean = _endpoint_mean(ld, m)
        if m < 1 << level:
            _gray_fold(mean)
        if in_place:            # copy into ld, then keep ld's view
            ld[:m], mean = mean, ld[:m]
        self.log_deriv = mean

    @property
    def size(self) -> int:
        """Words of the pair-sum space the Perron loop works on: half the
        operator's words, 2^(level-1), or 2^(level-2) folded."""
        return len(self.log_deriv) // 2

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """A unit-sum vector on the operator's words as unit-sum masses of
        all 2^level words: ``x`` itself unless folded, else the lower half
        in word order, its mirror image as the upper half, halved."""
        m = len(x)
        if m == 1 << self.level:
            return x
        out = np.empty(2 * m)
        lower, upper = out[:m], out[m:]
        lower[...] = x
        _gray_fold(lower, inverse=True)
        upper[...] = lower[::-1]
        out *= 0.5
        return out

    def expand(self, c: np.ndarray) -> np.ndarray:
        """The unit-sum Perron vector on the operator's words, D c / 2, of
        the unit-sum Perron vector ``c`` of ``apply``."""
        return np.repeat(c * 0.5, 2)

    def conformal(self, mu: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The unit-sum Perron vector on the operator's words, W S^T mu up
        to scale, of the Perron vector ``mu`` of ``apply_dual`` at the
        weights ``w``: word k gets w[k] * mu[k mod n/2]."""
        om = (w.reshape(2, -1) * mu).ravel()
        om /= om.sum()
        return om

    def weights(self, tau: float) -> np.ndarray:
        """The weights on the operator's words."""
        w = np.empty(len(self.log_deriv))
        _halves(_neg_exp, (self.log_deriv, w), tau)
        return w

    def apply(self, c: np.ndarray, w: np.ndarray,
              out: np.ndarray | None = None) -> float:
        """K = S W D on pair sums, into ``out``; returns the sum of ``out``.

        With lo and hi the halves of ``c``, pair sum 2j collects lo[j] and
        hi[j] weighted by the words 2j of the two halves of the operator,
        and 2j+1 the same two weighted by the words 2j+1: D K c = L D c.
        ``out`` (contiguous, not aliasing ``c``) is written in place, as
        complex pairs through a scratch of one block (``_pair_step``). From ``SPLIT_MIN_WORDS`` weights on, on two CPUs,
        the pool computes and sums the upper half of ``out`` while this
        thread does the lower; the results are the same.
        """
        if out is None:
            out = np.empty_like(c)
        q = len(c) // 2
        if q == 0:              # one word, which is both its preimages
            out[0] = c[0] * w[0] + c[0] * w[1]
            return out[0]
        return sum(_halves(_pair_step,
                           (out, c[:q], c[q:], w[:2 * q], w[2 * q:])))

    def apply_dual(self, mu: np.ndarray, w: np.ndarray,
                   out: np.ndarray | None = None) -> float:
        """K^T = D^T W S^T on pair-sum masses, into ``out``: pair sum k
        collects pair sums 2k and 2k+1 (mod n/2), weighted by the words 2k
        and 2k+1 of the operator. Returns the sum of ``out``. ``out`` (not
        aliasing ``mu``) is written in place, through one temporary of its
        size (``_dual_sums``); split like ``apply``."""
        if out is None:
            out = np.empty_like(mu)
        if len(mu) == 1:
            out[0] = mu[0] * w[0] + mu[0] * w[1]
            return out[0]
        return sum(_halves(_dual_sums, (out, w), mu))

    def _perron(self, w: np.ndarray, u0: np.ndarray | None = None,
                rtol: float = EIG_RTOL, *, dual: bool = False):
        """Leading eigenvalue and eigenvector by power iteration, of the
        operator or, with ``dual``, of its transpose ``apply_dual``.

        The eigenvalue error of plain power iteration decays like the ratio
        of the two leading eigenvalues; successive differences estimate that
        ratio, which proposes a stop once the *remaining* error it predicts
        is below ``rtol``. A change at rounding level (``ROUNDING_RTOL``)
        proposes one too. Every stop is certified: the loop
        returns only when the Collatz-Wielandt spread of its last step
        (``_cw_spread``) is at most ``rtol``, which bounds the relative
        eigenvalue error. After a failed check the next one waits until the
        ratio estimate predicts the spread has shrunk to ``rtol``.

        Each step is one apply, which returns the sum of its output: the
        iterate, ``size`` pair sums, stays unnormalised, the eigenvalue is
        the ratio of its successive sums, and it is rescaled by an exact
        power of two only when its sum leaves the ``RESCALE_WINDOW``. From
        ``_SPLIT_FROM`` pair sums on every full-length pass runs in halves on
        two threads (``_halves``), with bit-identical results.

        When two estimates of the ratio agree, sign included, the last
        step's change lies along one mode and is multiplied by the ratio per
        step, so an Aitken step removes it.

        A slow mode can hold the spread up after the eigenvalue changes have
        sunk to rounding level, where their ratios say nothing. So after a
        check fails with a finite spread the loop watches the word whose
        ``(L v)/v`` lay relatively farthest from the eigenvalue estimate:
        the ratios of that word's successive deviations, taken while the
        deviation falls, estimate the slow mode's ratio, and once two agree
        the same Aitken step removes that mode.

        The loop starts from the uniform vector or iterates in ``u0``, a
        float64 vector of ``size`` words, which it overwrites.

        Raises NoConvergenceError after ``EIG_MAXIT`` steps.
        """
        n = self.size
        step = self.apply_dual if dual else self.apply
        hi = RESCALE_WINDOW
        lo = 1.0 / hi
        # u is the iterate before the step and s_old its sum
        u = np.full(n, 1.0 / n) if u0 is None else u0
        s_old = sum(_halves(np.ndarray.sum, (u,)))
        v = np.empty(n)
        lam_old = None
        d_old = None            # the previous eigenvalue change, signed
        rho_old = None
        r = None                # remaining-error ratio estimate
        spread = 0.0            # spread of the last failed check, or 0
        since = 0               # steps since that check
        word = None             # the word watched since that check
        e_old = rho_w_old = None
        for _ in range(EIG_MAXIT):
            s = step(u, w, v)
            lam = s / s_old
            if not lo <= s <= hi:
                s = _rescale(s, v)
            u, v = v, u
            since += 1
            mode = None             # ratio of a mode to remove this step
            rho_w = None            # ratio of the watched word's deviations
            if word is not None:
                # the watched word's deviation from the eigenvalue estimate
                e = u[word] / v[word] * (s_old / s) - 1.0
                if e_old is not None and abs(e) < abs(e_old):
                    rho_w = e / e_old
                e_old = e
            if lam_old is not None:
                d = lam - lam_old
                diff = abs(d)
                rho = None
                if d_old is not None and diff < abs(d_old):
                    rho = d / d_old     # negative on a negative mode
                    r = abs(rho)
                propose = (diff <= ROUNDING_RTOL * abs(lam) or
                           (rho is not None and
                            diff * r / (1.0 - r) < rtol * abs(lam)))
                # after a failed check, the next waits for the ratio estimate
                if propose and (r is None or spread == math.inf or
                                spread * r ** since <= rtol):
                    # v is the iterate before the step, u is L v up to scale
                    spread, word = _cw_spread(u, v, s / s_old)
                    if spread <= rtol:
                        _halves(_divide, (u,), s)
                        return lam, u
                    since = 0
                    e_old = rho_w = None
                if rho is not None:
                    if _ratios_agree(rho, rho_old):
                        mode = rho
                    rho_old = rho
                d_old = d
            # the slow mode that the eigenvalue no longer resolves, seen at
            # the word that held the last check up
            if mode is None and _ratios_agree(rho_w, rho_w_old):
                mode = rho_w
                word = None
            rho_w_old = rho_w
            if mode is not None:
                s_old = sum(_halves(_aitken_pass, (u, v), s, s_old, mode))
                lam_old = d_old = rho_old = e_old = rho_w_old = None
                spread = 0.0
                continue
            lam_old = lam
            s_old = s
        step(u, w, v)           # a pair to report, also after an Aitken step
        raise NoConvergenceError(
            f"power iteration did not converge in {EIG_MAXIT} steps: "
            f"Collatz-Wielandt spread {_cw_spread(v, u, 1.0)[0]:.3g}, "
            f"ratio estimate {'none' if r is None else format(r, '.6g')}")

    def pressure(self, tau: float) -> float:
        lam, _ = self._perron(self.weights(tau))
        return float(np.log(lam))

    def pressure_with_state(self, tau: float, u0=None, rtol: float = EIG_RTOL):
        """``(P(tau), unit-sum Perron vector)`` from the start ``u0``, the
        Perron eigenvalue certified to relative error ``rtol`` by the
        Collatz-Wielandt spread (``_perron``), so P to about ``rtol``. A
        solve looser than ``EIG_RTOL`` that gives |P| < ``SIGN_MARGIN *
        rtol`` is finished at ``EIG_RTOL`` from its own vector, in this
        call: the sign of the P returned is certain. The solve iterates in
        ``u0``, a float64 vector of ``size`` words, and overwrites it."""
        w = self.weights(tau)
        lam, u = self._perron(w, u0, rtol)
        del u0                  # u, or the loop's spent other buffer
        p = float(np.log(lam))
        if rtol > EIG_RTOL and abs(p) < SIGN_MARGIN * rtol:
            lam, u = self._perron(w, u)
            p = float(np.log(lam))
        return p, u


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
    returns (1/n) log sum |Df^n|^(-tau) over them. The preimage tree is
    walked breadth-first down to the last ``ORACLE_SUBTREE_DEPTH`` levels,
    then one subtree at a time, so at most 2^ORACLE_SUBTREE_DEPTH
    preimages are held at once.
    """
    if not 1 <= n <= 18:
        raise ValueError(f"depth {n} outside 1..18 (2^n preimages)")
    delta = complex(delta)

    def preimages(z, deriv, depth):
        """The 2^depth preimages of the points z, and Df^depth times deriv
        at each."""
        for _ in range(depth):
            w1, w2 = maps.preimage_pair(delta, z)
            z = np.concatenate([w1, w2])
            deriv = np.concatenate([maps.evaluate_deriv(delta, w1) * deriv,
                                    maps.evaluate_deriv(delta, w2) * deriv])
        return z, deriv

    top = max(n - ORACLE_SUBTREE_DEPTH, 0)
    roots, root_derivs = preimages(np.array([anchor_point(table, 0)]),  # angle 1/2
                                   np.array([1.0 + 0j]), top)
    total = 0.0
    for k in range(len(roots)):
        _, deriv = preimages(roots[k:k + 1], root_derivs[k:k + 1], n - top)
        total += float(np.sum(np.abs(deriv) ** (-tau)))
    return np.log(total) / n


def check_disk(deltas, error=ValueError) -> None:
    """Raise ``error`` unless every delta lies in B(1, 1)."""
    for delta in deltas:
        if not maps.in_main_disk(delta):
            raise error(f"delta = {delta} outside the attracting disk")


@dataclass(frozen=True)
class DimensionResult:
    tau0: float
    pressure_residual: float
    level: int
    aitken_estimate: float
    error_bound: float
    roots: tuple[float, float, float]   # the three stencil levels, coarsest first


def _extrapolate(u, v0, v1, c: float) -> bool:
    """u = v1 + c * (v1 - v0); True iff u is positive."""
    np.subtract(v1, v0, out=u)
    u *= c
    u += v1
    return u.min() > 0.0


def _start_vector(path: list, tau: float, h):
    """The start of the Perron solve at ``tau``, a new vector that the solve
    overwrites, or None for the uniform one: on an empty ``path`` a copy of
    ``h``, unless None; else the linear extrapolation in tau of the two
    ``(tau, unit-sum Perron vector)`` pairs of ``path``, or, if there is one
    or the extrapolation is not positive, a copy of the last vector, which
    the next extrapolation reads. Drops the older pair: it is spent."""
    if not path:
        return None if h is None else np.array(h, dtype=float)
    t1, v1 = path[-1]
    u = np.empty_like(v1)
    if len(path) == 2:
        t0, v0 = path.pop(0)
        if all(_halves(_extrapolate, (u, v0, v1), (tau - t1) / (t1 - t0))):
            return u
    u[...] = v1
    return u


def _bowen_root(op: TransferOperator, near: tuple | None = None,
                ptol: float = PRESSURE_TOL):
    """Root of the pressure: ``(root, pressure there, unit-sum Perron vector
    there)`` once |P| <= ``ptol``. Secant steps through the last two points;
    a step that leaves the bracket (a, b) the signs have given so far, or
    that is undefined, bisects it. Each Perron solve starts from the
    extrapolation of the last two solves' vectors (``_start_vector``),
    to a tolerance forced by the last two |P| (``FORCING``); a point that
    could be accepted is certified to ``EIG_RTOL`` (``SIGN_MARGIN``).

    Without ``near`` the first two points are the ends of ``ROOT_BRACKET``.
    ``near``, the state ``(tau, h, chi)`` of a nearby parameter at the same
    word length (its root, unit-sum Perron vector and Lyapunov exponent),
    starts at P(tau) solved from a copy of ``h`` instead, with
    ``ROOT_BRACKET`` narrowed by its sign, and takes the Newton step ``tau +
    P/chi`` (P' = -chi there) first.

    The Perron vectors, ``h`` of ``near`` and the one returned, are the
    operator's unit-sum pair sums (``TransferOperator.apply``).

    Raises BracketFailureError if P does not change sign on
    ``ROOT_BRACKET``, and NoConvergenceError once (a, b) holds no midpoint.
    """
    h = None
    path = []

    def pressure_at(tau, scale):
        rtol = max(EIG_RTOL, FORCING * scale)
        # the refine covers every |P| <= ptol only below this
        if SIGN_MARGIN * rtol <= ptol:
            rtol = EIG_RTOL
        # the start is handed over: no name here keeps it alive
        p, u = op.pressure_with_state(tau, _start_vector(path, tau, h), rtol)
        path.append((tau, u))
        return p

    a, b = ROOT_BRACKET
    if near is None:
        f0 = pressure_at(a, 1.0)
        if abs(f0) <= ptol:
            return a, f0, path[-1][1]
        f1 = pressure_at(b, 1.0)
        if abs(f1) <= ptol:
            return b, f1, path[-1][1]
        if not f0 > 0 > f1:
            raise BracketFailureError(
                f"pressure does not change sign on [{a}, {b}]: "
                f"P({a})={f0}, P({b})={f1}")
        x0, x1 = a, b
    else:
        x1, h, chi = near
        f1 = pressure_at(x1, 0.0)
        if abs(f1) <= ptol:
            return x1, f1, path[-1][1]
        if f1 > 0:
            a = x1
        else:
            b = x1
        x0 = f0 = None
    for _ in range(200):
        if x0 is None:
            x = x1 + f1 / chi
        elif f1 != f0:
            x = x1 - f1 * (x1 - x0) / (f1 - f0)
        else:
            x = x1              # an end of (a, b): bisects
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                raise NoConvergenceError(
                    f"pressure root bracket ({a!r}, {b!r}) holds no "
                    f"midpoint; P = {f1:.3g} at its end {x1!r}")
        fx = pressure_at(x, abs(f1) if f0 is None else min(abs(f0), abs(f1)))
        if fx > 0:
            a = x
        else:
            b = x
        x0, f0, x1, f1 = x1, f1, x, fx
        if abs(fx) <= ptol:
            return x, fx, path[-1][1]
    raise NoConvergenceError("dimension root solve stalled")


def _aitken(d1: float, d2: float, d3: float) -> float:
    den = (d3 - d2) - (d2 - d1)
    if den == 0:
        return d3
    return d3 - (d3 - d2) ** 2 / den


def hausdorff_dim(delta: complex, level: int, tol: float = PRESSURE_TOL,
                  table: BoettcherTable | None = None,
                  step: int = 1, at_root=None) -> DimensionResult:
    """Dimension of the boundary curve at delta, with level extrapolation.

    Solves the pressure root at word lengths level - 2*step, level - step
    and level and extrapolates the geometric level error; ``error_bound``
    is the last inter-level difference. The three operators come from one
    log|Df| array at the top level's representatives (``_log_abs_deriv``),
    and a table built here is released once that array is formed. ``dim``
    uses step 1, the scans step 2. ``at_root(level, root, h)``, if given,
    is called after each root with the unit-sum Perron vector ``h`` there,
    the pair sums of that level's operator, which is dropped after the
    call. Raises ValueError for delta outside B(1, 1), where -delta is not
    attracting (delta = 0 included).
    """
    if level < 8:
        raise ValueError("level must be >= 8")
    delta = complex(delta)
    check_disk([delta])
    if table is None or table.level < level:
        table = build_table(delta, level)
    ld = _log_abs_deriv(delta, table, level)
    del table                   # released here if built here
    levels = (level - 2 * step, level - step, level)
    # the coarser operators read ld strided, so the top level's, formed in
    # the buffer of ld, is made last
    ops = [TransferOperator._of_log_abs(delta, lev, ld[::1 << (level - lev)])
           for lev in levels[:-1]]
    ops.append(TransferOperator._of_log_abs(delta, level, ld, in_place=True))
    del ld                      # the top operator holds its buffer
    roots = []
    resid = 0.0
    for lev in levels:
        # each operator is released once its root is found
        tau, p, h = _bowen_root(ops.pop(0), ptol=tol)
        if at_root is not None:
            at_root(lev, tau, h)
        del h
        roots.append(tau)
        resid = abs(p)
    rich = _aitken(*roots)
    return DimensionResult(tau0=roots[-1], pressure_residual=resid,
                           level=level, aitken_estimate=rich,
                           error_bound=abs(roots[-1] - roots[-2]),
                           roots=tuple(roots))


@dataclass(frozen=True, eq=False)
class EquilibriumWeights:
    level: int
    tau: float
    mu: np.ndarray      # word masses of the invariant state, sums to 1
    omega: np.ndarray   # word masses of the conformal state, sums to 1
    chi: float          # Lyapunov exponent: mu-average of the operator's log|Df|


def equilibrium(delta: complex, tau: float, table: BoettcherTable,
                level: int | None = None,
                h: np.ndarray | None = None) -> EquilibriumWeights:
    """Left and right Perron vectors, combined into the invariant state.

    Two ``_perron`` solves from the uniform vector: the primal one gives the
    eigenvector h, the dual one the mass vector omega (``conformal``), and
    mu = h * omega on the operator's words. A caller that has h at ``tau``
    already, such as the unit-sum pair sums ``_bowen_root`` returns with
    its root, passes it and saves the primal solve. chi is computed on the
    operator's words, and mu and omega are unfolded to all 2^level words.
    """
    op = TransferOperator(delta, table, level)
    w = op.weights(tau)
    if h is None:
        h = op._perron(w)[1]
    om = op.conformal(op._perron(w, dual=True)[1], w)
    mu = op.expand(h) * om
    mu /= mu.sum()
    chi = float(np.sum(mu * op.log_deriv))
    return EquilibriumWeights(op.level, float(tau),
                              op.unfold(mu), op.unfold(om), chi)


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


def cylinder_measures(weights: EquilibriumWeights) -> np.ndarray:
    """All cylinder masses 0..level-2 in one pass; residual is mu[0]."""
    bins = _cylinder_bins(weights.level)
    out = np.zeros(weights.level - 1)
    np.add.at(out, bins, weights.mu[1:])
    return out


def partition_residual(weights: EquilibriumWeights) -> float:
    """Mass not assigned to any cylinder (the fixed-angle word)."""
    return float(weights.mu[0])


def directional_derivative_formula(delta: complex, table: BoettcherTable,
                                   weights: EquilibriumWeights) -> float:
    """Dimension derivative along the unit ray v = delta/|delta|.

    Evaluates -tau/chi times the invariant average of
    Re((v + 2 v phi_dot) / Df(point)), with phi_dot the parameter
    derivative of the landing points. This is the exact derivative of the
    discretized dimension at the operator's word length.
    """
    delta = table.require_delta(delta)
    v = delta / abs(delta)
    stride = 1 << (table.level - weights.level)
    deriv = maps.evaluate_deriv(delta, table.stored[::stride])
    pdot = phi_dot_table(delta, table)[::stride]
    integrand = np.real((v + 2.0 * v * pdot) / deriv)
    if table.mirrored:
        # at real delta the integrand is mirror-symmetric bit for bit
        integrand = unmirror(integrand)
    # endpoint-averaged, matching the operator's weight rule, so this is
    # the exact parameter derivative of the discretized dimension
    integrand = _endpoint_mean(integrand, len(integrand))
    num = float(np.sum(weights.mu * integrand))
    return -weights.tau / weights.chi * num


@dataclass(frozen=True, eq=False)
class RayPoint:
    dim: DimensionResult                # levels L-4, L-2, L
    dprime: tuple[float, float]         # raw, extrapolated
    weights: EquilibriumWeights         # equilibrium state at level L
    # unit-sum Perron vector at level L, the operator's pair sums
    # (weights.mu and .omega are masses of all words)
    h: np.ndarray

    @property
    def near(self) -> tuple:
        """The level-L state ``(tau, h, chi)`` that ``dprime_fd`` starts
        its stencil roots from."""
        return self.dim.tau0, self.h, self.weights.chi


def ray_point(delta: complex, level: int) -> RayPoint:
    """Dimension and directional derivative from one table and one root
    per stencil level.

    Near the parabolic point the word discretization converges only
    geometrically per level, so both series are Aitken-extrapolated and the
    raw top-level values are reported alongside.
    """
    check_disk([delta])
    table = build_table(delta, level)
    vals = []
    weights = top_h = None

    def derivative(lev, tau, h):
        nonlocal weights, top_h
        weights, top_h = equilibrium(delta, tau, table, lev, h), h
        vals.append(directional_derivative_formula(delta, table, weights))
    dim = hausdorff_dim(delta, level, table=table, step=2, at_root=derivative)
    return RayPoint(dim, (vals[-1], _aitken(*vals)), weights, top_h)


FD_REL_STEP = 1e-2


def fd_stencil(delta: complex):
    """The two points delta +- FD_REL_STEP * delta of the ray finite difference."""
    v = delta / abs(delta)
    h = FD_REL_STEP * abs(delta)
    return [delta + sgn * h * v for sgn in (1.0, -1.0)]


def dprime_fd(delta: complex, level: int, near: tuple | None = None) -> float:
    """Central finite difference of the raw top-level dimension on the ray.
    ``near``, the level-``level`` state ``(tau, h, chi)`` at ``delta`` (such
    as ``RayPoint.near``), starts each stencil root there
    (``_bowen_root``)."""
    check_disk([delta])
    stencil = fd_stencil(delta)
    check_disk(stencil)
    h = FD_REL_STEP * abs(delta)
    vals = []
    for d in stencil:
        op = TransferOperator(d, build_table(d, level), level)
        vals.append(_bowen_root(op, near)[0])
    return (vals[0] - vals[1]) / (2.0 * h)


def backward_anchor_tower(delta: complex, table: BoettcherTable,
                          n_start: int, count: int) -> np.ndarray:
    """Anchors z_n for n = n_start .. n_start+count by inverse iteration.

    Extends the anchor sequence past the table's angular resolution: each
    next anchor is the preimage of the previous one on the branch marching
    into the fixed point.
    """
    delta = complex(delta)
    z = anchor_point(table, n_start)
    out = [z]
    for _ in range(count):
        z = complex(maps.inverse_branch(delta, z, z))
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
    tower = backward_anchor_tower(delta, table, n_base, k_max)
    dmags = np.abs(maps.evaluate_deriv(delta, tower))   # |Df(z_n)|, n_base..
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
