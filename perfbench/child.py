"""One measured process of the benchmark, started by run.py in a fresh
interpreter with its working directory set to a temporary pass directory.

    python3 child.py '<spec json>'

The spec names a mode: ``import`` only times ``import juliadim.cli``;
``pass`` also runs each CLI argv in-process through ``juliadim.cli.main``
(under cProfile when ``trace`` is set); ``probes`` runs probes.py. The
result is written as JSON to the spec's ``result`` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def _run_commands(cli, argvs, profiler):
    out = []
    for argv in argvs:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if profiler is not None:
                profiler.enable()
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # reported as a failed command
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                if profiler is not None:
                    profiler.disable()
        out.append({"argv": argv, "rc": rc, "stdout": buf.getvalue(),
                    "seconds": time.perf_counter() - t0})
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import juliadim.cli as cli
    result = {"setup_s": time.perf_counter() - t0}
    if spec["mode"] == "pass":
        profiler = None
        if spec["trace"]:
            import cProfile
            profiler = cProfile.Profile()
        t1 = time.perf_counter()
        result["commands"] = _run_commands(cli, spec["commands"], profiler)
        result["wall_s"] = time.perf_counter() - t1
        if profiler is not None:
            import pstats
            import tracing
            stats = pstats.Stats(profiler).stats
            result["trace"] = tracing.summarize(
                stats, os.path.dirname(os.path.abspath(cli.__file__)))
    elif spec["mode"] == "probes":
        import probes
        result["probes"] = probes.run()
    import numpy
    import scipy
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
