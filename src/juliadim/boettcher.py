"""Boundary conjugacy tables by angle-doubling pullback.

A table of level N holds the landing points of all dyadic angles k/2^N:
``points[k]`` is the image of exp(2*pi*i*k/2^N) under the conjugacy that
carries angle doubling on the circle to f_delta on its Julia set.  Dyadic
angles are strictly pre-periodic to the fixed angle 0, so the continuation
construction below is exact up to branch selection: each level seeds new
points as hint-guided quadratic preimages of the previous level.  The
semiconjugacy f(points[k]) = points[2k mod 2^N] is checked on every table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import maps
from .errors import LevelExceededError, NoConvergenceError

MAX_LEVEL = 24
# a table's semiconjugacy residual must stay below this times its diameter
RESIDUAL_RTOL = 1e-12
# slope c of the sort key re + c*im of the repeated-point check: far from
# small rationals, so that points on grid lines rarely share keys
REPEAT_KEY_SLOPE = math.sqrt(2.0) - 1.0
# the continuation and the residual check work on this many words at a time,
# so their temporaries stay small next to the table
BLOCK_WORDS = 1 << 16


@dataclass(frozen=True)
class DyadicAngle:
    """The angle numerator/2^level in turns, canonically reduced."""

    numerator: int
    level: int

    def __post_init__(self):
        if self.level < 0 or not 0 <= self.numerator < (1 << self.level):
            raise ValueError(f"bad dyadic angle {self.numerator}/2^{self.level}")
        k, lev = self.numerator, self.level
        while lev > 0 and k % 2 == 0:
            if k == 0:
                lev = 0
                break
            k //= 2
            lev -= 1
        object.__setattr__(self, "numerator", k)
        object.__setattr__(self, "level", lev)

    @property
    def turns(self) -> float:
        return self.numerator / (1 << self.level)

    def doubled(self) -> "DyadicAngle":
        if self.level == 0:
            return self
        return DyadicAngle((2 * self.numerator) % (1 << self.level), self.level)


def anchor_angle(n: int) -> DyadicAngle:
    """The angle 1/2^(n+1) turns whose landing point anchors cylinder n."""
    return DyadicAngle(1, n + 1)


@dataclass(frozen=True, eq=False)
class BoettcherTable:
    delta: complex
    level: int
    points: np.ndarray      # shape (2^level,), complex
    residual: float

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.points)

    def diameter(self) -> float:
        return _diameter(self.points)


def _seed_by_continuation(delta: complex, level: int) -> np.ndarray:
    """Exact level-by-level pullback seeding, orientation pinned at level 2.

    The points are bit for bit those that one refinement sweep (every
    point replaced by the preimage of its image point nearest to itself)
    made of this seeding with the angle-1/2 point written as -h, as earlier
    builds did: the sweep recomputed that point as the preimage of 0
    nearest -h, which can differ from -h in the last bit, and returned
    every other point unchanged."""
    h = 1.0 + complex(delta)
    half = maps.inverse_branch_array(delta, np.zeros(1, dtype=complex), -h)[0]
    pts = np.array([0.0 + 0j, half])
    if level == 0:
        return pts[:1]
    if level >= 2:
        # preimages of -(1+delta); pick the quarter-angle point so that the
        # triple (0, z_{1/4}, z_{1/2}) winds counterclockwise
        r = np.sqrt(np.complex128(h * h / 4.0 - h))
        wa, wb = -h / 2.0 + r, -h / 2.0 - r
        if (np.conj(wa) * (-h)).imag > 0:
            q14, q34 = wa, wb
        else:
            q14, q34 = wb, wa
        pts = np.array([0.0 + 0j, q14, half, q34])
    for lev in range(3, level + 1):
        n_old = 1 << (lev - 1)
        new = np.empty(1 << lev, dtype=complex)
        new[0::2] = pts
        odd = new[1::2]
        for i in range(0, n_old, BLOCK_WORDS):
            kk = np.arange(2 * i + 1, 2 * min(i + BLOCK_WORDS, n_old), 2)
            target = pts[kk % n_old]
            hint = 0.5 * (pts[(kk - 1) // 2] + pts[((kk + 1) // 2) % n_old])
            odd[i:i + len(kk)] = maps.inverse_branch_array(delta, target, hint)
        pts = new
    return pts


def _has_repeats(pts: np.ndarray) -> bool:
    """True iff two entries are equal, i.e. ``np.unique(pts).size <
    pts.size`` for NaN-free input.

    Equal points have equal float keys ``re + c*im``, so distinct sorted
    keys prove the points distinct; only a tie, which distinct points
    rarely give, needs the several times slower complex sort."""
    keys = pts.imag * REPEAT_KEY_SLOPE
    keys += pts.real
    keys.sort()
    if not np.any(keys[1:] == keys[:-1]):
        return False
    s = np.sort(pts)
    return bool(np.any(s[1:] == s[:-1]))


def _diameter(pts: np.ndarray) -> float:
    """Diameter of the points' bounding box."""
    re, im = pts.real, pts.imag
    return float(np.hypot(re.max() - re.min(), im.max() - im.min()))


def _residual(delta: complex, pts: np.ndarray) -> float:
    """max |f(pts[i]) - pts[2i mod n]|, ``BLOCK_WORDS`` words at a time;
    NaN if any term is NaN."""
    n = len(pts)
    residual = 0.0
    for i in range(0, n, BLOCK_WORDS):
        z = pts[i:i + BLOCK_WORDS]
        image = pts[(2 * np.arange(i, i + len(z))) % n]
        # np.maximum, unlike max(), keeps a NaN of any block
        residual = np.maximum(residual,
                              np.max(np.abs(maps.evaluate(delta, z) - image)))
    return float(residual)


def build_table(delta: complex, level: int) -> BoettcherTable:
    """Build the landing-point table at the given level by continuation
    (``_seed_by_continuation``). Raises NoConvergenceError when the
    semiconjugacy residual reaches ``RESIDUAL_RTOL`` times the table's
    diameter or the repeated-point check fails, as happens for parameters
    whose Julia set is not a Jordan curve.
    """
    delta = complex(delta)
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")

    pts = _seed_by_continuation(delta, level)
    bound = RESIDUAL_RTOL * max(_diameter(pts), 1e-300)
    residual = _residual(delta, pts)
    if not np.isfinite(residual) or residual >= bound:
        raise NoConvergenceError(
            f"semiconjugacy residual {residual} above {bound} "
            f"for delta={delta}")
    if level >= 1 and _has_repeats(pts):
        # a collapsed (e.g. constant) table satisfies the semiconjugacy
        # trivially; landing points of distinct angles must stay distinct
        raise NoConvergenceError(
            f"pullback degenerated to repeated points for delta={delta}")
    return BoettcherTable(delta, level, pts, residual)


def landing_point(table: BoettcherTable, angle: DyadicAngle) -> complex:
    """Exact table lookup of the landing point of a dyadic angle."""
    if angle.level > table.level:
        raise LevelExceededError(
            f"angle level {angle.level} exceeds table level {table.level}")
    return complex(table.points[angle.numerator << (table.level - angle.level)])


def anchor_point(table: BoettcherTable, n: int) -> complex:
    """Landing point of the angle 1/2^(n+1): the cylinder-n anchor."""
    return landing_point(table, anchor_angle(n))


@dataclass(frozen=True)
class Cylinder:
    index: int
    endpoints: tuple[complex, complex]
    size: float


def cylinders(table: BoettcherTable, n_max: int) -> list[Cylinder]:
    """Cylinders 0..n_max with endpoints (z_n, z_{n+1}) and their sizes."""
    if n_max + 1 > table.level - 1:
        raise LevelExceededError(
            f"cylinder {n_max} needs level >= {n_max + 2}, have {table.level}")
    out = []
    for n in range(n_max + 1):
        a = anchor_point(table, n)
        b = anchor_point(table, n + 1)
        out.append(Cylinder(n, (a, b), abs(a - b)))
    return out
