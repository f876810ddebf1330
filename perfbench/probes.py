"""Fixed-size probes of public functions, timed with tracing off.

Each probe is the median of several repetitions on fixed inputs at t = 0.01
(the scan's hardest parameter), tau = 1.05. The arrays of every probe fit
in the last-level cache, so ``apply_ns_per_word`` measures cache, not DRAM,
bandwidth. Probe -> workload whose ``wall_s`` it feeds is listed in
NOTES.md.
"""

from __future__ import annotations

import statistics
import time

T = 0.01
TAU = 1.05


def _timed(fn, reps: int):
    """(median seconds of ``reps`` calls, result of the last call)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _median_s(fn, reps: int) -> float:
    return _timed(fn, reps)[0]


def _apply_ns_per_word(op, batch: int, reps: int) -> float:
    import numpy as np
    w = op.weights(TAU)
    u = np.full(op.size, 1.0 / op.size)

    def run():
        for _ in range(batch):
            op.apply(u, w)
    return _median_s(run, reps) / (batch * op.size) * 1e9


def run() -> dict:
    """Probe name -> value; a probe whose function is missing is None."""
    out: dict = {}

    def probe(names, fn):
        try:
            values = fn()
        except (ImportError, AttributeError, TypeError):
            values = [None] * len(names)
        out.update(zip(names, values))

    def tables():
        from juliadim.boettcher import build_table
        from juliadim.transfer import TransferOperator
        t14, tab14 = _timed(lambda: build_table(T, 14), 9)
        t20, tab20 = _timed(lambda: build_table(T, 20), 1)
        a14 = _apply_ns_per_word(TransferOperator(T, tab14, 14), 200, 9)
        a20 = _apply_ns_per_word(TransferOperator(T, tab20, 20), 4, 9)
        return t14 * 1e3, t20 * 1e3, a14, a20
    probe(["boettcher.build_table_ms.L14", "boettcher.build_table_ms.L20",
           "transfer.apply_ns_per_word.L14", "transfer.apply_ns_per_word.L20"],
          tables)

    def level16():
        from juliadim.boettcher import build_table
        from juliadim.perturbation import phi_dot_table
        from juliadim.transfer import TransferOperator, equilibrium
        tab = build_table(T, 16)
        op = TransferOperator(T, tab, 16)
        return (_median_s(lambda: op.pressure(TAU), 7) * 1e3,
                _median_s(lambda: equilibrium(T, TAU, tab, 16), 5) * 1e3,
                _median_s(lambda: phi_dot_table(T, tab), 7) * 1e3)
    probe(["transfer.pressure_ms.L16", "transfer.equilibrium_ms.L16",
           "perturbation.phi_dot_table_ms.L16"], level16)

    def quadrature():
        from juliadim.quadrature import omega, q_integral
        om = _median_s(lambda: [omega(0.5, 1.08) for _ in range(20)], 9) / 20
        qi = _median_s(lambda: q_integral(1.08, 0.5236), 5)
        return (om * 1e3, omega(0.5, 1.08).evaluations,
                qi * 1e3, q_integral(1.08, 0.5236).evaluations)
    probe(["quadrature.omega_ms", "quadrature.omega_evals",
           "quadrature.q_integral_ms", "quadrature.q_integral_evals"],
          quadrature)

    def escape():
        from juliadim.maps import in_mandelbrot
        # delta = 0.5 is inside: the full max_iter = 1000 of the survey grid
        return (_median_s(lambda: [in_mandelbrot(0.5, 1000) for _ in range(20)],
                          9) / 20 * 1e6,)
    probe(["maps.in_mandelbrot_us"], escape)
    return out


# probe name -> unit, in the order reported
UNITS = {
    "boettcher.build_table_ms.L14": "ms",
    "boettcher.build_table_ms.L20": "ms",
    "transfer.apply_ns_per_word.L14": "ns/word",
    "transfer.apply_ns_per_word.L20": "ns/word",
    "transfer.pressure_ms.L16": "ms",
    "transfer.equilibrium_ms.L16": "ms",
    "perturbation.phi_dot_table_ms.L16": "ms",
    "quadrature.omega_ms": "ms",
    "quadrature.omega_evals": "count",
    "quadrature.q_integral_ms": "ms",
    "quadrature.q_integral_evals": "count",
    "maps.in_mandelbrot_us": "us",
}
