"""Write reference.json: the seed-0 outputs the correctness checks pin.

    python3 perfbench/pin.py

Run once on the commit whose outputs are the reference (the seed commit of
this benchmark). Later commits must reproduce these values within the
tolerances in workloads.py.
"""

from __future__ import annotations

import json
import os
import time

import run
import workloads


def _floats(row: dict) -> dict:
    return {k: float(v) for k, v in row.items() if v not in ("", "ok")}


def extract(results: list[dict], workdir: str) -> dict:
    """Reference values of one seed-0 pass, keyed by command."""
    ref = {}
    for res in results:
        cmd = res["argv"][0]
        if res["rc"] != 0:
            raise SystemExit(f"{cmd} exited {res['rc']!r}; nothing pinned")
        path = os.path.join(workdir, res["argv"][res["argv"].index("--out") + 1])
        if cmd in ("ray", "convexity", "omega"):
            ref[cmd] = {"rows": [_floats(r) for r in workloads.read_rows(path)]}
        elif cmd == "d0":
            doc = workloads.json_doc(res["stdout"])
            ref[cmd] = {"rows": [_floats(r) for r in workloads.read_rows(path)],
                        "estimate": doc["estimate"],
                        "uncertainty": doc["uncertainty"]}
        elif cmd == "dim":
            doc = workloads.json_doc(res["stdout"])
            ref[cmd] = {k: doc[k] for k in ("tau0", "richardson_estimate",
                                            "error_bound")}
        elif cmd == "theta0":
            root, spread = workloads.parse_theta0(res["stdout"])
            ref[cmd] = {"theta0": root, "spread": spread}
        elif cmd == "mandelbrot":
            n_pts, digest, _bits = workloads.grid_digest(path)
            ref[cmd] = {"points": n_pts, "sha256": digest}
        elif cmd == "verify":
            ref[cmd] = {"names": [name for _line, name
                                  in workloads.verify_lines(res["stdout"])]}
    return ref


def main() -> int:
    runner = run.Runner(time.monotonic() + 600.0, reference={})
    ref = {}
    try:
        for name in workloads.WORKLOADS:
            ref.update(runner.child("pass", workloads.commands(name, 0),
                                    check=extract)["check"])
    finally:
        runner.close()
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}: {sorted(ref)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
