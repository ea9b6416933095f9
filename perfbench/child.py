"""One pass of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/child.py SPEC_JSON OUT_PATH``
with ``PYTHONPATH=src``. It imports the package, parses the symbol,
runs the workload once through the package's public entry points and
writes what it saw to OUT_PATH as JSON: set-up end time, per-operation
wall times, the outputs to check, rusage and, when traced, the spans.
A spec with ``setup_only`` set stops after set-up and writes only the
set-up end time. A spec with ``calibrate`` set never imports the
package: it times a fixed piece of interpreter and numpy work and
writes that time, which tracks how fast the host runs at the moment.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback


def _gc_hooks(stats: dict):
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            stats["gc_s"] += time.perf_counter() - started.pop()
            stats["gc_collections"] += 1

    return hook


def calibrate() -> float:
    """Seconds for fixed work shaped like the package's: an interpreter
    loop, tuple and dict allocation, and numpy FFTs."""
    import numpy as np

    a = np.arange(1 << 16, dtype=float)
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    table = {i: (i, i + 1) for i in range(100_000)}
    for _ in range(20):
        np.fft.fft(a)
    wall = time.perf_counter() - t0
    del table
    return wall


def run_ladder(spec, poly, experiment):
    cfg = experiment.ExperimentConfig(
        seed=spec["seed"], sample_budget=spec["budget"],
        mc_samples=spec["samples"], threads=spec["threads"],
    )
    t0 = time.perf_counter()
    rows = experiment.ratio_experiment(poly, spec["s"], spec["ladder"], cfg)
    wall = time.perf_counter() - t0
    ops = [{"name": f"N={r.N}", "wall_s": r.wall_ms / 1e3, "error": r.fail_reason if r.failed else ""}
           for r in rows]
    outputs = [{key: getattr(r, key) for key in
                ("N", "Q", "J", "measure", "measure_err", "sup_lb", "hs_norm", "ratio", "failed")}
               for r in rows]
    return wall, ops, outputs


def run_xn(spec, cli):
    tmp = tempfile.mkdtemp(dir=spec["workdir"])
    xn = os.path.join(tmp, "xn.csv")
    res = os.path.join(tmp, "measure.json")
    commands = [
        ("build-xn", ["build-xn", "--poly", spec["poly"], "--n", str(spec["n"]), "--out", xn]),
        ("measure-xn", ["measure-xn", "--in", xn, "--samples", str(spec["samples"]),
                        "--seed", str(spec["seed"]), "--out", res]),
    ]
    ops = []
    t0 = time.perf_counter()
    for name, argv in commands:
        ta = time.perf_counter()
        code = cli.dispatch(argv)
        ops.append({"name": name, "wall_s": time.perf_counter() - ta,
                    "error": "" if code == 0 else f"exit code {code}"})
        if code != 0:
            break
    wall = time.perf_counter() - t0
    outputs = {}
    if all(not op["error"] for op in ops):
        with open(res) as fh:
            outputs = json.load(fh)
        outputs.pop("config", None)
        outputs["csv_bytes"] = os.path.getsize(xn)
    shutil.rmtree(tmp)
    return wall, ops, outputs


def main(spec_json: str, out_path: str) -> int:
    spec = json.loads(spec_json)
    if spec.get("calibrate"):
        with open(out_path, "w") as fh:
            json.dump({"cal_s": calibrate(), "error": ""}, fh)
        return 0
    from weylmax import cli, experiment, poly  # noqa: F401  (imports every layer)

    tracer = None
    gc_stats = {"gc_s": 0.0, "gc_collections": 0}
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        gc.callbacks.append(_gc_hooks(gc_stats))
    symbol = poly.parse_polynomial(spec["poly"])
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    result = {"ready": ready, "error": ""}
    if spec.get("setup_only"):
        with open(out_path, "w") as fh:
            json.dump(result, fh)
        return 0
    try:
        if spec["kind"] == "ladder":
            wall, ops, outputs = run_ladder(spec, symbol, experiment)
        else:
            wall, ops, outputs = run_xn(spec, cli)
        result.update(wall_s=wall, ops=ops, outputs=outputs)
    except Exception:  # noqa: BLE001 -- a crash is reported as failed operations
        result["error"] = traceback.format_exc()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
        result["events"] = dict(tracer.events)
        result.update(gc_stats)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
