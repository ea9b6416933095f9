"""End-to-end and per-layer benchmark of the weylmax ratio pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload d1-ladder --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run is a closed loop with one client: it starts a fresh interpreter
(``PYTHONPATH=src``, the package is not installed) for one pass of the
workload, waits for it, checks its outputs, and starts the next pass
until ``--seconds`` would be exceeded. A fresh process per pass keeps
the garbage collector from walking a previous pass's tuples.

``--trace 0`` reports the end-to-end metrics as medians over passes.
After each pass it also starts a child that stops once it is set up,
so ``setup_s`` is the median of twice as many samples, and a child that
times ``child.calibrate()`` without importing the package. The times
are scaled by ``REFERENCE_CAL_S`` / the run's median calibration time,
which cancels the host's drift in speed; the unscaled medians are
printed above the result line.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, the tracing overhead and the
share of each operation's wall time the layer spans cover. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation is a ladder row
or a CLI command; it fails if the program marks it failed, raises,
exits non-zero, or fails the correctness gate in ``workloads.py``.

``--smoke`` runs every workload at a tiny size with and without tracing
and checks that every metric named in BENCHMARK.json is emitted with
its unit; a traced function that no longer exists fails it loudly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracer import op_coverage, summarize

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PASS_TIMEOUT_S = 150
MIN_COVERAGE = 0.95

END_TO_END = {"wall_ref_s": "s", "max_op_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Times are scaled to a host that runs child.calibrate() in this many
# seconds (about its median on the machine in PROVENANCE.json). The
# host's speed drifts by up to 1.4x for minutes at a time, so raw times of
# runs minutes apart differ by more than any change worth detecting.
REFERENCE_CAL_S = 0.1

# span name + field, read from the traced pass's span summary
SPAN_METRICS = [
    "decomp.fold_axis.calls", "decomp.fold_axis.s",
    "experiment.solution_scan.s", "experiment.solution_scan.self_s",
    "experiment.ratio_experiment.self_s",
    "divset.ball_list.calls", "divset.ball_list.s", "divset.overlap_pair_count.s",
    "divset.measure.self_s", "divset.from_balls.s", "divset.build_divergence_set.self_s",
    "weyl.good_set_for.calls", "weyl.good_set_for.s",
    "datum.datum_coefficients.s", "datum.sobolev_norm_sq.s",
    "numtheory.close_fraction_pairs.calls", "numtheory.close_fraction_pairs.s",
    "poly.parse_polynomial.s",
    "cli.build_xn.s", "cli.build_xn.self_s", "cli.measure_xn.s", "cli.measure_xn.self_s",
]
COUNT_METRICS = {
    "experiment.scan.balls": "count", "divset.scan_used_frac": "ratio",
    "divset.overlap_pairs": "count", "divset.J": "count",
    "weyl.table_entries": "count", "weyl.good_density": "ratio", "cli.csv_bytes": "bytes",
    "process.cpu_s": "s", "process.gc_s": "s", "process.gc_collections": "count",
    "trace.overhead_s": "s", "trace.span_coverage": "ratio",
}
PER_LAYER = {name: ("count" if name.endswith(".calls") else "s") for name in SPAN_METRICS}
PER_LAYER.update(COUNT_METRICS)


def run_pass(root: Path, spec: dict, traced: bool, workdir: str) -> dict:
    """Start one child, wait for it, return what it reported. A child
    that crashed or timed out comes back with ``error`` set."""
    fd, out_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    payload = dict(spec, trace=traced, workdir=workdir)
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(payload), out_path],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        end = time.clock_gettime(time.CLOCK_MONOTONIC)
        if proc.returncode != 0:
            return {"error": f"child exit code {proc.returncode}: {proc.stderr[-2000:]}",
                    "traced": traced, "pass_s": end - spawn}
        with open(out_path) as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {PASS_TIMEOUT_S} s", "traced": traced,
                "pass_s": PASS_TIMEOUT_S}
    finally:
        os.remove(out_path)
    result.update(traced=traced, pass_s=end - spawn)
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawn
    return result


def _op_count(spec: dict) -> int:
    return len(spec["ladder"]) if spec["kind"] == "ladder" else 2


def check_pass(name: str, spec: dict, ref: dict, default_seed: bool, p: dict) -> list[str]:
    """One failure reason per operation of the pass, "" when it passes."""
    n_ops = _op_count(spec)
    if p.get("error"):
        return [p["error"].strip().splitlines()[-1]] * n_ops
    reasons = [op["error"] for op in p["ops"]] + ["not run"] * (n_ops - len(p["ops"]))
    if spec["kind"] == "ladder":
        traced = p["events"].get("divset.measure", []) if p["traced"] else None
        if traced is not None and len(traced) != n_ops:
            reasons = [r or "traced measure calls do not match rows" for r in reasons]
            traced = None
        gate = workloads.check_ladder(name, p["outputs"], ref, default_seed, traced)
        reasons = [r or g for r, g in zip(reasons, gate)]
    elif not any(reasons):
        reasons = workloads.check_xn(p["outputs"], ref, default_seed)
    if p["traced"]:
        cover = op_coverage(p["spans"])
        if len(cover) != n_ops:
            cover = [0.0] * n_ops
        reasons = [r or (f"layer spans cover {c:.1%} of the operation" if c < MIN_COVERAGE else "")
                   for r, c in zip(reasons, cover)]
    return reasons


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    summary = summarize(p["spans"])
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = summary.get(span, {}).get(field, 0)
    c = p["counters"]
    out["experiment.scan.balls"] = c.get("experiment.scan.balls", 0)
    out["divset.J"] = c.get("divset.J", 0)
    out["divset.scan_used_frac"] = out["experiment.scan.balls"] / out["divset.J"] if out["divset.J"] else 0.0
    out["divset.overlap_pairs"] = sum(e["overlap_pairs"] for e in p["events"].get("divset.measure", []))
    out["weyl.table_entries"] = c.get("weyl.table_entries", 0)
    out["weyl.good_density"] = (c.get("weyl.good_members", 0) / out["weyl.table_entries"]
                                if out["weyl.table_entries"] else 0.0)
    out["cli.csv_bytes"] = p["outputs"].get("csv_bytes", 0) if isinstance(p["outputs"], dict) else 0
    out["process.cpu_s"] = p["cpu_s"]
    out["process.gc_s"] = p["gc_s"]
    out["process.gc_collections"] = p["gc_collections"]
    cover = op_coverage(p["spans"])
    out["trace.span_coverage"] = min(cover) if cover else 0.0
    return out


def run_workload(root: Path, name: str, size: str, bench_seed: int, seconds: float,
                 trace: bool, workdir: str) -> dict | None:
    """Closed loop of passes; returns the result object, or None when no
    pass produced a measurement."""
    spec = workloads.child_spec(name, size, bench_seed)
    ref = workloads.load_reference(name, size)
    default_seed = bench_seed == 0
    if size == "smoke":
        min_passes = 2 if trace else 1
    else:
        min_passes = 4 if trace else 3
    passes, probes, calibrations, rounds = [], [], [], []
    run_pass(root, dict(spec, setup_only=True), False, workdir)  # warm-up: byte code and page cache
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_pass(root, spec, trace and len(passes) % 2 == 1, workdir))
        if not trace:
            # a child that stops once ready doubles the set-up samples for little time
            probes.append(run_pass(root, dict(spec, setup_only=True), False, workdir))
            calibrations.append(run_pass(root, {"calibrate": True}, False, workdir))
        rounds.append(time.monotonic() - began)
        if len(passes) >= min_passes and time.monotonic() - start + statistics.median(rounds) > seconds:
            break

    reasons = [check_pass(name, spec, ref, default_seed, p) for p in passes]
    good = [p for p in passes if not p.get("error")]
    for i, p in enumerate(passes):
        if p.get("error"):
            print(f"pass {i} error: {p['error']}", file=sys.stderr)
        else:
            print(f"pass {i} traced={int(p['traced'])} setup_s={p['setup_s']!r} wall_s={p['wall_s']!r} "
                  f"ops_s={[op['wall_s'] for op in p['ops']]!r} cpu_s={p['cpu_s']!r}", file=sys.stderr)
    for i, p in enumerate(probes + calibrations):
        if p.get("error"):
            print(f"probe {i} error: {p['error']}", file=sys.stderr)
    untraced = [p for p in good if not p["traced"]]
    if not untraced or (trace and len(untraced) == len(good)):
        return None
    baseline = untraced[0]["outputs"]
    for i, p in enumerate(passes):
        if not p.get("error") and p["outputs"] != baseline:
            what = "traced outputs differ from untraced" if p["traced"] else "outputs differ between passes"
            reasons[i] = [r or what for r in reasons[i]]

    if trace:
        traced = [p for p in good if p["traced"]]
        per_pass = [layer_metrics(p) for p in traced]
        # counts repeat exactly, so take a value that occurred rather than a mean of two
        metrics = {m: (statistics.median_low if isinstance(per_pass[0][m], int) else statistics.median)(
            [v[m] for v in per_pass]) for m in per_pass[0]}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in untraced))
        units = PER_LAYER
        raw = {}
    else:
        cal = [p["cal_s"] for p in calibrations if not p.get("error")]
        if not cal:
            return None
        raw = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            # the operation that is slowest in the median, so one slow pass of a fast op cannot set it
            "max_op_s": max(statistics.median(p["ops"][j]["wall_s"] for p in untraced)
                            for j in range(min(len(p["ops"]) for p in untraced))),
            "setup_s": statistics.median([p["setup_s"] for p in untraced]
                                         + [p["setup_s"] for p in probes if not p.get("error")]),
            "calibration_s": statistics.median(cal),
        }
        scale = REFERENCE_CAL_S / raw["calibration_s"]
        metrics = {
            "wall_ref_s": raw["wall_s"] * scale,
            "max_op_ref_s": raw["max_op_s"] * scale,
            "setup_s": raw["setup_s"] * scale,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        }
        units = END_TO_END
    flat = [r for rs in reasons for r in rs]
    failed = sum(1 for r in flat if r)
    for i, rs in enumerate(reasons):
        for j, r in enumerate(rs):
            if r:
                print(f"failed: pass {i} op {j}: {r}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(flat),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        "passes": len(passes),
        "raw": raw,
    }


def provenance(root: Path) -> dict:
    info = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "commit": None, "src_dirty": None}
    if (root / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                                capture_output=True, text=True)
        if head.returncode == 0:
            info["commit"] = head.stdout.strip()
            info["src_dirty"] = bool(status.stdout.strip())
    return info


def report(name: str, result: dict) -> None:
    for metric, v in result["metrics"].items():
        print(f"{name} {metric} = {v['value']!r} {v['unit']}")
    print(f"{name} passes = {result['passes']}, operations attempted = {result['attempted']}, "
          f"failed = {result['failed']}, failed_frac = {result['failed'] / result['attempted']!r}")
    for metric, value in result["raw"].items():
        print(f"{name} unscaled {metric} = {value!r} s")


def smoke(root: Path, workdir: str) -> int:
    """Tiny runs of every workload, traced and untraced; checks that each
    declared metric is emitted with its declared unit."""
    with open(root / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        for name in workloads.WORKLOADS:
            result = run_workload(root, name, "smoke", 0, 0, trace, workdir)
            if result is None:
                problems.append(f"{name} trace={int(trace)}: no pass completed")
                continue
            report(f"{name}[trace={int(trace)}]", result)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != declared {want}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} operations failed")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny runs of every workload")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "weylmax" / "__init__.py").is_file():
        print(f"error: no weylmax sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        if args.smoke:
            return smoke(root, workdir)
        result = run_workload(root, args.workload, "full", args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    if result is None:
        print("error: no pass completed; nothing measured", file=sys.stderr)
        return 1
    report(args.workload, result)
    print("provenance " + json.dumps(provenance(root), sort_keys=True))
    del result["passes"], result["raw"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
