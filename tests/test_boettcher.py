import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from juliadim import boettcher, maps
from juliadim.boettcher import (DyadicAngle, anchor_point, build_table,
                                cylinders, landing_point)
from juliadim.errors import LevelExceededError, NoConvergenceError


def test_dyadic_angle_reduction():
    a = DyadicAngle(2, 4)
    assert (a.numerator, a.level) == (1, 3)
    assert DyadicAngle(0, 5).level == 0
    assert DyadicAngle(3, 3).turns == pytest.approx(3 / 8)
    assert DyadicAngle(3, 3).doubled() == DyadicAngle(3, 2)


def test_dyadic_angle_validation():
    with pytest.raises(ValueError):
        DyadicAngle(8, 3)
    with pytest.raises(ValueError):
        DyadicAngle(-1, 3)


def test_circle_case_closed_form():
    # f_1 is conjugate to the squaring map; the boundary is |z+1| = 1
    table = build_table(1.0, 3)
    k = np.arange(8)
    expect = np.exp(2j * np.pi * k / 8) - 1.0
    assert np.max(np.abs(table.points - expect)) < 1e-14


def test_fixed_point_entry():
    for delta in (1.0, 0.5, 0.0, 0.2 + 0.3j):
        assert build_table(delta, 6).points[0] == 0.0


def test_semiconjugacy_residual():
    table = build_table(0.5, 10)
    assert table.residual < boettcher.RESIDUAL_RTOL * table.diameter()
    idx2 = (2 * np.arange(table.size)) % table.size
    direct = np.max(np.abs(maps.evaluate(0.5, table.points) - table.points[idx2]))
    assert direct == pytest.approx(table.residual)


def test_landing_point_lookup():
    table = build_table(1.0, 8)
    assert landing_point(table, DyadicAngle(0, 0)) == 0.0
    assert landing_point(table, DyadicAngle(1, 1)) == pytest.approx(-2.0)
    with pytest.raises(LevelExceededError):
        landing_point(table, DyadicAngle(1, 9))


@pytest.mark.parametrize("delta", [0.3, 0.3 + 0.2j, 0.25 + 1e-17j])
def test_landing_point_of_every_angle_is_the_table_entry(delta):
    # at real delta the lookup reads the stored half, mirroring angles
    # above 1/2; the rebuilt points agree with it bit for bit. Just off the
    # axis the level-2 points are still a conjugate pair, but the table,
    # and so the unfolded TransferOperator, holds every angle
    table = build_table(delta, 8)
    assert table.mirrored == (delta.imag == 0)
    pts = table.points
    for k in range(table.size):
        z = landing_point(table, DyadicAngle(k, 8))
        assert np.array_equal(np.array([z]).view(np.uint64),
                              pts[k:k + 1].view(np.uint64)), k


# sha256 of build_table(delta, level).points.tobytes(), written when every
# table stored all its points
PARENT_DIGESTS = {
    (0.05, 16): "1ec86c506d6c3218392c79e06242ae520e5486ff923fccdfe2afc11a45fff454",
    (0.3, 12): "76f11641e624e6a541b2a72808899f859f112675a377a6664a973f37ad2648ba",
    (1.0, 10): "04c8420637f62a4e0ee94f5d24eb5cf3c01305315450767a6db1201d88f68397",
    (0.0, 12): "98a782ba5b6d4dbc29f0c6a893a42ad566f59a20cc416b3cf0a9c32ddb65ea0b",
}


@pytest.mark.parametrize("delta, level", list(PARENT_DIGESTS))
def test_real_tables_are_the_full_builds_bytes(delta, level):
    table = build_table(delta, level)
    assert table.mirrored and len(table.stored) == (1 << (level - 1)) + 1
    assert table.size == 1 << level
    digest = hashlib.sha256(table.points.tobytes()).hexdigest()
    assert digest == PARENT_DIGESTS[(delta, level)]
    assert not table.points.flags.writeable
    # the checks on the stored half give what they give on all the points
    full = table.points
    assert table.diameter() == boettcher._diameter(full)
    assert table.residual == boettcher._residual(delta, full, full.size)


def test_table_for_real_delta_outside_the_interval_stores_every_point():
    # at delta >= 3 the quarter-angle points are both real, not a conjugate
    # pair, so the table is not conjugate-symmetric and stores them all
    table = build_table(3.5, 6)
    assert not table.mirrored and len(table.stored) == 64


def test_anchor_backward_orbit_pattern():
    # f(z_{n+1}) = z_n: doubling the anchor angle climbs one cylinder
    delta = 0.4 + 0.2j
    table = build_table(delta, 12)
    for n in range(0, 10):
        lhs = maps.evaluate(delta, anchor_point(table, n + 1))
        assert abs(lhs - anchor_point(table, n)) < 1e-11


def test_cylinders_basic():
    table = build_table(0.5, 10)
    cyls = cylinders(table, 8)
    assert [c.index for c in cyls] == list(range(9))
    for c in cyls:
        assert c.size > 0
        assert c.size == abs(c.endpoints[0] - c.endpoints[1])
    with pytest.raises(LevelExceededError):
        cylinders(table, 9)


def test_parabolic_size_law():
    # inverse-square sizes at the parabolic parameter, bounded ratio
    table = build_table(0.0, 16)
    for n in range(10, 15):
        size = abs(anchor_point(table, n) - anchor_point(table, n + 1))
        assert 1.0 / 20.0 < size * n * n < 20.0


def test_degenerate_seed_rejected(monkeypatch):
    # a collapsed table has residual 0: only the repeated-point check can
    # reject it; at real delta the seeding gives the angles in [0, 1/2]
    for delta, size in ((0.3, (1 << 7) + 1), (0.3 + 0.1j, 1 << 8)):
        monkeypatch.setattr(boettcher, "_seed_by_continuation",
                            lambda delta, level: np.zeros(size, dtype=complex))
        with pytest.raises(NoConvergenceError, match="repeated"):
            build_table(delta, 8)


def test_repeat_check_matches_unique():
    rng = np.random.default_rng(3)
    distinct = np.unique(rng.standard_normal(512) + 1j * rng.standard_normal(512))
    shared_re = 0.25 + 1j * np.arange(100.0)      # equal real parts
    cases = {
        "distinct": (distinct, False),
        "shared real parts": (shared_re, False),
        "shared real parts, one repeat": (np.append(shared_re, 0.25 + 7j), True),
        "signed zero real part": (np.array([0.0 + 1j, complex(-0.0, 1.0), 2.0]), True),
        "signed zero imaginary part": (np.array([complex(1.0, 0.0),
                                                 complex(1.0, -0.0)]), True),
        "all zero": (np.array([0j, complex(-0.0, -0.0), complex(0.0, -0.0)]), True),
        # distinct points whose sort keys re + c*im tie
        "tied keys": (np.array([boettcher.REPEAT_KEY_SLOPE + 0j, 1j, 2.0]), False),
        "tied keys, one repeat": (np.array([boettcher.REPEAT_KEY_SLOPE + 0j,
                                            1j, 1j]), True),
    }
    for i in range(20):
        pts = distinct.copy()
        j, k = rng.choice(pts.size, 2, replace=False)
        pts[j] = pts[k]
        cases[f"injected {i}"] = (pts, True)
    for name, (pts, expect) in cases.items():
        assert bool(np.unique(pts).size < pts.size) == expect, name
        assert boettcher._has_repeats(pts) == expect, name


def _mirror(half):
    """The conjugate-symmetric array ``half ++ conj(half[-2:0:-1])``."""
    return np.concatenate([half, np.conj(half[-2:0:-1])])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(complex, st.integers(2, 40),
                  elements=st.complex_numbers(max_magnitude=1e3,
                                              allow_nan=False,
                                              allow_infinity=False)),
       st.sampled_from(["none", "copy", "conjugate", "real"]), st.data())
def test_mirrored_repeat_check_matches_unique_of_full_array(half, inject, data):
    # the first and middle entries of a conjugate-symmetric array are real
    half[[0, -1]] = half[[0, -1]].real
    n = half.size
    j = data.draw(st.integers(0, n - 1), label="to")
    k = data.draw(st.integers(0, n - 1), label="from")
    if inject == "copy":
        half[j] = half[k]
    elif inject == "conjugate":
        half[j] = np.conj(half[k])
    elif inject == "real":
        half[j] = half[j].real
    full = _mirror(half)
    assert (boettcher._has_repeats(half, mirrored=True)
            == (np.unique(full).size < full.size))


def test_mirrored_repeat_check_cases():
    shared_re = 0.25 + 1j * np.arange(1.0, 9.0)
    cases = {
        "distinct": (np.concatenate([[0j], shared_re, [3.0]]), False),
        "interior real point": (np.array([0j, 1 + 1j, 2.0, 3 + 1j, 4.0]), True),
        "signed zero interior": (np.array([0j, 1 + 1j, complex(2.0, -0.0),
                                           4.0]), True),
        "conjugate pair": (np.array([0j, 1 + 1j, 2 + 2j, 1 - 1j, 4.0]), True),
        "endpoint twice": (np.array([0j, 1 + 1j, 0j]), True),
        # distinct points whose sort keys re + c*|im| tie
        "tied keys": (np.array([boettcher.REPEAT_KEY_SLOPE + 0j, 1j, 2.0]),
                      False),
        "tied keys, one repeat": (np.array([boettcher.REPEAT_KEY_SLOPE + 0j,
                                            1j, 1j, 2.0]), True),
    }
    for name, (half, expect) in cases.items():
        full = _mirror(half)
        assert bool(np.unique(full).size < full.size) == expect, name
        assert boettcher._has_repeats(half, mirrored=True) == expect, name


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(complex, st.integers(1, 40),
                  elements=st.complex_numbers(max_magnitude=1e3,
                                              allow_nan=False,
                                              allow_infinity=False)),
       st.booleans(), st.data())
def test_repeat_check_matches_unique_property(pts, conjugates, data):
    if conjugates:
        # conjugate-symmetric, as tables at real delta are: real parts repeat
        pts = np.concatenate([pts, pts.conj()])
    if data.draw(st.booleans(), label="inject"):
        j = data.draw(st.integers(0, pts.size - 1), label="to")
        k = data.draw(st.integers(0, pts.size - 1), label="from")
        pts[j] = pts[k]
    assert boettcher._has_repeats(pts) == (np.unique(pts).size < pts.size)


def _one_sweep(delta, pts):
    """One refinement sweep of a table: every point replaced by the
    preimage of its image point nearest to itself."""
    n = pts.size
    idx2 = (2 * np.arange(n)) % n
    new = maps.inverse_branch_array(delta, pts[idx2], pts)
    new[0] = 0.0
    return new


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.99), st.floats(-np.pi, np.pi), st.integers(1, 12))
@example(0.5, 1.5, 2)       # there the sweep moves the angle-1/2 point
@example(0.75, np.pi, 3)    # delta = 0.25 + 9.2e-17i, not real
def test_unseeded_table_equals_one_sweep_build(r, phi, level):
    # builds once ran one sweep on a continuation whose angle-1/2 point was
    # exactly -(1 + delta); that sweep changed only this point, which the
    # continuation now computes as the sweep did, so the unseeded build,
    # which runs no sweep, is the one-sweep build bit for bit
    _check_one_sweep_build(r, phi, level)


def _check_one_sweep_build(r, phi, level):
    delta = complex(1.0 + r * complex(np.cos(phi), np.sin(phi)))
    table = build_table(delta, level)
    pts = table.points.copy()
    pts[pts.size // 2] = -(1.0 + delta)
    assert np.array_equal(_one_sweep(delta, pts), table.points)
    # the seeding gives what the table stores: at real delta from level 2
    # on, the angles in [0, 1/2]
    assert np.array_equal(boettcher._seed_by_continuation(delta, level),
                          table.stored)


@pytest.mark.parametrize("block", [3, 4])
@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 0.99), st.floats(-np.pi, np.pi), st.integers(1, 12))
@example(0.5, 1.5, 2)
def test_blocked_table_equals_one_sweep_build(block, r, phi, level):
    # many blocks per level, and with 3 a partial last block: the
    # continuation and the residual check come out the same block by block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boettcher, "BLOCK_WORDS", block)
        _check_one_sweep_build(r, phi, level)


def _full_array_continuation(delta, level):
    """``_seed_by_continuation`` as one n-word pass per level over all the
    angles, with no blocks and no mirror: the reference for the blocked
    pass."""
    pts = build_table(delta, min(level, 2)).points
    for lev in range(3, level + 1):
        n_old = 1 << (lev - 1)
        new = np.empty(1 << lev, dtype=complex)
        new[0::2] = pts
        kk = np.arange(1, 1 << lev, 2)
        target = pts[kk % n_old]
        hint = 0.5 * (pts[(kk - 1) // 2] + pts[((kk + 1) // 2) % n_old])
        new[1::2] = maps.inverse_branch_array(delta, target, hint)
        pts = new
    return pts


@pytest.fixture(scope="module")
def full_array_level_20():
    return _full_array_continuation(0.05 + 0.0j, 20)


def test_blocked_continuation_equals_full_array_at_level_20(full_array_level_20):
    # 16 blocks of the default size at the top level, which holds the
    # angles in [0, 1/2] at real delta
    half = boettcher._seed_by_continuation(0.05 + 0.0j, 20)
    assert half.size == (1 << 19) + 1
    assert np.array_equal(half, full_array_level_20[:half.size])


def test_rebuilt_points_equal_full_array_at_level_20(full_array_level_20):
    # bit for bit, so the upper half, each lower point's conjugate, is what
    # the full continuation computes there
    points = build_table(0.05, 20).points
    assert np.array_equal(points.view(np.uint64),
                          full_array_level_20.view(np.uint64))


def test_nan_seeding_raises(monkeypatch):
    # with no sweep on an unseeded build, the residual check catches a
    # broken continuation, also when the NaN lies only in the last of many
    # residual blocks, after finite ones
    seed = boettcher._seed_by_continuation
    for block, word in ((boettcher.BLOCK_WORDS, 3), (4, -1)):
        def broken(delta, level):
            pts = seed(delta, level)
            pts[word] = complex(np.nan, 0.0)
            return pts
        with monkeypatch.context() as mp:
            mp.setattr(boettcher, "_seed_by_continuation", broken)
            mp.setattr(boettcher, "BLOCK_WORDS", block)
            with pytest.raises(NoConvergenceError):
                build_table(0.3, 8)


def test_build_table_peak_memory():
    # the continuation and the residual check work in blocks: the build
    # holds little more than the last two levels' stored points at once (an
    # unblocked build peaked at 5.25 times the table)
    tracemalloc.start()
    try:
        table = build_table(0.05, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.mirrored
    assert peak <= 2.0 * table.stored.nbytes


def test_seed_continuation_tracks_nearby_parameter():
    base = build_table(0.4, 10)
    moved = build_table(0.4 + 1e-4, 10)
    assert np.max(np.abs(moved.points - base.points)) < 1e-2
    assert moved.residual < 1e-12 * moved.diameter()


def test_level_cap():
    with pytest.raises(ValueError):
        build_table(0.5, 25)
