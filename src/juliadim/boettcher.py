"""Boundary conjugacy tables by angle-doubling pullback.

A table of level N holds the landing points of all dyadic angles k/2^N:
``points[k]`` is the image of exp(2*pi*i*k/2^N) under the conjugacy that
carries angle doubling on the circle to f_delta on its Julia set.  Dyadic
angles are strictly pre-periodic to the fixed angle 0, so the continuation
construction below is exact up to branch selection: each level seeds new
points as hint-guided quadratic preimages of the previous level.  The
semiconjugacy f(points[k]) = points[2k mod 2^N] is checked on every table.

At real delta f_delta commutes with complex conjugation. For delta in
(-1, 3), where the two quarter-angle points are a conjugate pair, so does
every step of the construction: points[2^N - k] == conj(points[k]) bit for
bit. From level 2 on such a table stores only the angles in [0, 1/2], the
2^(N-1) + 1 points ``stored``, and builds and checks only those.
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
BLOCK_WORDS = 1 << 14


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


@dataclass(frozen=True, eq=False)
class BoettcherTable:
    delta: complex
    level: int
    # all 2^level points, or the 2^(level-1) + 1 of the angles in [0, 1/2]
    # when mirrored (real delta in (-1, 3), level >= 2)
    stored: np.ndarray
    residual: float

    def __post_init__(self):
        self.stored.setflags(write=False)

    @property
    def size(self) -> int:
        return 1 << self.level

    @property
    def mirrored(self) -> bool:
        """True iff ``stored`` holds only the angles in [0, 1/2]."""
        return len(self.stored) < self.size

    @property
    def points(self) -> np.ndarray:
        """The landing points of all 2^level angles, read-only: ``stored``
        itself, or rebuilt from it (``unmirror``) when mirrored; only the
        checks read it."""
        if not self.mirrored:
            return self.stored
        out = unmirror(self.stored)
        out.setflags(write=False)
        return out

    def require_delta(self, delta: complex) -> complex:
        """``complex(delta)``; ValueError unless it is the table's delta."""
        delta = complex(delta)
        if delta != self.delta:
            raise ValueError(
                f"table built for delta={self.delta}, not delta={delta}")
        return delta

    def diameter(self) -> float:
        return _diameter(self.stored, self.mirrored)


def unmirror(x: np.ndarray) -> np.ndarray:
    """``x ++ conj(x[-2:0:-1])``: the values at all angles of a function
    that commutes with conjugation, from ``x``, its values at the angles in
    [0, 1/2] that a mirrored table stores."""
    return np.concatenate([x, np.conj(x[-2:0:-1])])


def _at(pts: np.ndarray, k, n: int):
    """``points[k]`` of a table of ``n`` points from ``pts``, which holds
    them all or only the angles in [0, 1/2]: angle k > n/2 is then read as
    the conjugate of angle n - k."""
    if len(pts) == n:
        return pts[k]
    j = np.minimum(k, n - k)
    z = pts[j]
    return np.where(j == k, z, np.conj(z))


def _seed_by_continuation(delta: complex, level: int) -> np.ndarray:
    """Exact level-by-level pullback seeding, orientation pinned at level 2:
    the points of all 2^level angles or, at real delta in (-1, 3) from
    level 2 on, of those in [0, 1/2] (``BoettcherTable.stored``).

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
        wa, wb = maps.preimage_pair(delta, -h)
        if (np.conj(wa) * (-h)).imag > 0:
            q14, q34 = wa, wb
        else:
            q14, q34 = wb, wa
        pts = np.array([0.0 + 0j, q14, half, q34])
        if h.imag == 0 and q34 == np.conj(q14):
            # real delta in (-1, 3): every later step commutes with
            # conjugation too, so only the angles in [0, 1/2] are built; a
            # delta just off the axis can give a conjugate pair here too,
            # yet its later steps do not commute
            pts = pts[:3]
    for lev in range(3, level + 1):
        n_old = 1 << (lev - 1)
        # the old points at the even angles, new ones at the odd angles
        new = np.empty(2 * n_old if len(pts) == n_old else n_old + 1,
                       dtype=complex)
        new[0::2] = pts
        odd = new[1::2]
        for i in range(0, len(odd), BLOCK_WORDS):
            kk = np.arange(2 * i + 1, 2 * min(i + BLOCK_WORDS, len(odd)), 2)
            target = _at(pts, kk % n_old, n_old)
            # the neighbours of an angle in [0, 1/2] lie in [0, 1/2] too
            hint = 0.5 * (pts[(kk - 1) // 2] + pts[((kk + 1) // 2) % n_old])
            odd[i:i + len(kk)] = maps.inverse_branch_array(delta, target, hint)
        pts = new
    return pts


def _has_repeats(pts: np.ndarray, mirrored: bool = False) -> bool:
    """True iff two entries are equal, i.e. ``np.unique(pts).size <
    pts.size`` for NaN-free input. With ``mirrored``, the same of the
    conjugate-symmetric array ``pts ++ conj(pts[-2:0:-1])``, whose first
    and middle entries are real.

    Equal points have equal float keys ``re + c*im``, so distinct sorted
    keys prove the points distinct; only a tie, which distinct points
    rarely give, needs the several times slower complex sort. Mirrored, a
    point equals its conjugate or another's exactly when the two share
    ``re`` and ``|im|``: the keys read ``|im|``, and an interior real point
    is a repeat, of its own mirror image."""
    keys = np.abs(pts.imag) if mirrored else pts.imag.copy()
    if mirrored and np.any(keys[1:-1] == 0.0):
        return True
    keys *= REPEAT_KEY_SLOPE
    keys += pts.real
    keys.sort()
    if not np.any(keys[1:] == keys[:-1]):
        return False
    s = np.sort(pts.real + 1j * np.abs(pts.imag) if mirrored else pts)
    return bool(np.any(s[1:] == s[:-1]))


def _diameter(pts: np.ndarray, mirrored: bool = False) -> float:
    """Diameter of the points' bounding box; with ``mirrored``, of theirs
    and their conjugates', whose imaginary span is 2 max |im|."""
    re, im = pts.real, pts.imag
    if mirrored:
        im_span = 2.0 * max(im.max(), -im.min())
    else:
        im_span = im.max() - im.min()
    return float(np.hypot(re.max() - re.min(), im_span))


def _residual(delta: complex, pts: np.ndarray, n: int) -> float:
    """max |f(points[i]) - points[2i mod n]| over the ``n`` points of which
    ``pts`` holds all or the angles in [0, 1/2] (``_at``), ``BLOCK_WORDS``
    words at a time; NaN if any term is NaN. At real delta a conjugate
    pair's terms are equal, so the lower half's maximum is the table's."""
    residual = 0.0
    for i in range(0, len(pts), BLOCK_WORDS):
        z = pts[i:i + BLOCK_WORDS]
        image = _at(pts, (2 * np.arange(i, i + len(z))) % n, n)
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
    n = 1 << level
    mirrored = len(pts) < n
    bound = RESIDUAL_RTOL * max(_diameter(pts, mirrored), 1e-300)
    residual = _residual(delta, pts, n)
    if not np.isfinite(residual) or residual >= bound:
        raise NoConvergenceError(
            f"semiconjugacy residual {residual} above {bound} "
            f"for delta={delta}")
    if level >= 1 and _has_repeats(pts, mirrored):
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
    k = angle.numerator << (table.level - angle.level)
    return complex(_at(table.stored, k, table.size))


def anchor_point(table: BoettcherTable, n: int) -> complex:
    """Landing point of the angle 1/2^(n+1): the cylinder-n anchor."""
    return landing_point(table, DyadicAngle(1, n + 1))


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
