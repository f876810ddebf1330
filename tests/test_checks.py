import dataclasses
import random

import pytest

from juliadim import checks, fatou, perturbation

PINNED_NAMES = [
    "appendix.half_angle_modulus", "appendix.coth_half_angle",
    "appendix.exp_inequalities", "appendix.sum_alignment",
    "appendix.wedge_membership", "appendix.exp_ratio_ball",
    "appendix.deriv_ratio_ball",
    "fatou.round_trip", "fatou.psi_limit", "fatou.psi_prime_forms",
    "fatou.psi_prime_ratio", "fatou.anchor_formulas",
    "fatou.near_translation", "fatou.step_inverse",
    "cylinders.circular_order", "cylinders.real_symmetry",
    "cylinders.motion_continuity", "cylinders.parabolic_sizes",
    "cylinders.size_vs_deriv", "cylinders.two_regime_sizes",
    "transfer.pressure_monotone", "transfer.oracle_agreement",
    "transfer.root_level_stability", "transfer.shift_invariance",
    "transfer.partition_sum", "transfer.measure_two_regimes",
    "transfer.orbit_expansion", "transfer.conjugation_symmetry",
    "transfer.power_iteration_decay", "transfer.formula_vs_fd_grid",
    "perturbation.gamma_forms", "perturbation.gamma_small_z",
    "perturbation.gamma_ray_decay", "perturbation.g_nonvanishing",
    "perturbation.sinh_nonvanishing", "perturbation.phi_dot_recursion",
    "perturbation.phi_dot_fd", "perturbation.psi_dot_forms",
    "perturbation.psi_dot_vs_gamma", "perturbation.psi_dot_drift_ratio",
    "quadrature.omega_even", "quadrature.omega_sign",
    "quadrature.omega_self_consistency", "quadrature.identity_chain",
    "quadrature.inner_integral_identity", "quadrature.series_positivity",
    "quadrature.lambda_bounds", "quadrature.tail_bounds", "quadrature.q_bounds",
]


def test_all_suites_give_the_pinned_checks_in_order():
    results = checks.run_suite("all")
    assert [r.name for r in results] == PINNED_NAMES
    assert all(r.passed for r in results)


def _off_by_1e6(fn):
    """fn with each value v moved to v (1 + 1e-6 v/|v|): 1e-6 relative, in
    a direction that varies with v, so a ratio of two values moves too."""
    def moved(*args):
        v = fn(*args)
        return v * (1.0 + 1e-6 * v / abs(v))
    return moved


def _first_value(change):
    """fn with only its first value replaced by change(value)."""
    def wrap(fn):
        calls = []

        def changed(*args):
            calls.append(args)
            v = fn(*args)
            return change(v) if len(calls) == 1 else v
        return changed
    return wrap


# Identity checks compare the routine to a closed form within 1e-10 or
# tighter, so a 1e-6 relative change fails them. The envelope checks
# (margins of order 0.1, a predicate, a nonvanishing floor) cannot see such
# a change; there one sample's value is broken instead.
PERTURBED = [
    ("check_round_trip", fatou, "psi", _off_by_1e6),
    ("check_round_trip", fatou, "phi_fatou", _off_by_1e6),
    ("check_psi_limit", fatou, "psi", _off_by_1e6),
    ("check_psi_prime_forms", fatou, "psi_prime", _off_by_1e6),
    ("check_psi_prime_ratio", fatou, "psi_prime", _off_by_1e6),
    ("check_step_inverse", fatou, "fatou_step", _off_by_1e6),
    ("check_gamma_forms", perturbation, "gamma_fn", _off_by_1e6),
    ("check_gamma_forms", perturbation, "g_fn", _off_by_1e6),
    ("check_wedge_membership", fatou, "w_region_contains",
     _first_value(lambda inside: not inside)),
    ("check_deriv_ratio_ball", fatou, "psi_prime", _first_value(lambda v: 2.0 * v)),
    ("check_g_nonvanishing", perturbation, "g_fn", _first_value(lambda v: 0.0 * v)),
]


@pytest.mark.parametrize("check, module, routine, perturb", PERTURBED,
                         ids=[f"{c[6:]}-{r}" for c, _, r, _ in PERTURBED])
def test_batched_check_reads_its_routine(monkeypatch, check, module, routine, perturb):
    run = getattr(checks, check)
    assert run(random.Random(checks.SEED)).passed
    monkeypatch.setattr(module, routine, perturb(getattr(module, routine)))
    assert not run(random.Random(checks.SEED)).passed


def test_real_symmetry_check_reads_both_tables(monkeypatch):
    # the check compares the tables at delta and at conj(delta), both stored
    # in full: moving the points of either one by 1e-10 fails it
    assert checks.check_real_symmetry().passed
    build = checks.build_table
    for lower in (False, True):
        def moved(delta, level):
            table = build(delta, level)
            if (complex(delta).imag < 0) == lower:
                table = dataclasses.replace(table, stored=table.stored + 1e-10)
            return table
        with monkeypatch.context() as m:
            m.setattr(checks, "build_table", moved)
            assert not checks.check_real_symmetry().passed


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 42, 1234, 99_991, 2**31 - 1, 20260811])
@pytest.mark.parametrize("suite", ["appendix", "fatou", "perturbation"])
def test_sampled_suites_pass_at_other_seeds(monkeypatch, suite, seed):
    monkeypatch.setattr(checks, "SEED", seed)
    failed = [f"{r.name}: {r.detail}" for r in checks.run_suite(suite) if not r.passed]
    assert not failed
