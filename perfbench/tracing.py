"""Per-module counts and self times from a cProfile run of the workload.

The profiler is the stdlib ``cProfile`` hook, switched on around the CLI
calls by ``child.py``; nothing inside ``juliadim`` is edited. Counts come
from calls to the public names in ``COUNTS``: a metric whose names cannot
all be resolved reports ``None`` (absent), never 0, so a later rename does
not read as a 100% cut.

A module's self time is the time spent in its own functions plus the time
of non-``juliadim`` code (numpy, scipy, builtins) that it called, excluding
calls back into other ``juliadim`` modules. cProfile records callers one
level deep, so time of a non-``juliadim`` function reached through another
non-``juliadim`` function is split by that function's caller shares.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict

MODULES = ("cli", "transfer", "boettcher", "perturbation", "quadrature",
           "maps", "fatou", "checks")

# metric name -> public names whose calls it counts (module-relative)
COUNTS = {
    "transfer.applications": ["transfer.TransferOperator.apply"],
    "transfer.dual_applications": ["transfer.TransferOperator.apply_dual"],
    "transfer.pressure_evals": ["transfer.TransferOperator.pressure_with_state",
                                "transfer.TransferOperator.pressure"],
    "transfer.equilibria": ["transfer.equilibrium"],
    "boettcher.tables": ["boettcher.build_table"],
    "perturbation.phi_dot_tables": ["perturbation.phi_dot_table"],
    "maps.escape_tests": ["maps.in_mandelbrot"],
    "quadrature.omega_calls": ["quadrature.omega"],
}


def _code_key(dotted: str):
    """cProfile's key (file, first line, name) of a public name, or None."""
    mod_name, *attrs = dotted.split(".")
    try:
        obj = importlib.import_module("juliadim." + mod_name)
        for attr in attrs:
            obj = getattr(obj, attr)
    except (ImportError, AttributeError):
        return None
    code = getattr(getattr(obj, "__wrapped__", obj), "__code__", None)
    if code is None:
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


def _module_of(package_dir: str):
    prefix = os.path.join(package_dir, "")

    def module_of(func):
        path = func[0]
        if not path.startswith(prefix):
            return None
        name = os.path.splitext(os.path.basename(path))[0]
        return name if name in MODULES else "other"
    return module_of


def summarize(stats: dict, package_dir: str) -> dict:
    """Counts and per-module self seconds from ``pstats.Stats(...).stats``."""
    counts = {}
    for metric, names in COUNTS.items():
        keys = [_code_key(n) for n in names]
        if any(k is None for k in keys):
            counts[metric] = None
        else:
            counts[metric] = sum(stats[k][1] if k in stats else 0 for k in keys)

    module_of = _module_of(package_dir)
    shares_memo: dict = {}

    def owner_shares(func, depth=0):
        """Fractions of a non-juliadim function's time owed to each module."""
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
        out: dict = defaultdict(float)
        if total <= 0 or depth > 20:
            out["other"] = 1.0
        else:
            shares_memo[func] = {"other": 1.0}  # cycle guard
            for caller, w in weights.items():
                mod = module_of(caller)
                if mod is not None:
                    out[mod] += w / total
                else:
                    for m, s in owner_shares(caller, depth + 1).items():
                        out[m] += s * w / total
        shares_memo[func] = dict(out)
        return shares_memo[func]

    self_s: dict = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        mod = module_of(func)
        if mod is not None:
            self_s[mod] += tt
        else:
            for m, s in owner_shares(func).items():
                self_s[m] += s * tt
    return {"counts": counts,
            "self_s": {m: self_s.get(m, 0.0) for m in MODULES},
            "other_s": self_s.get("other", 0.0)}
