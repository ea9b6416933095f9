"""Workload inputs and the correctness gate.

A workload's inputs are fixed apart from the program seed, which is the
workload's default seed plus the benchmark seed, so ``--seed 0`` runs
the defaults and is also checked against the recorded seed-dependent
values in ``reference.json``. ``smoke`` sizes are tiny versions of the
same workloads for a check that finishes in seconds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

REL_TOL = 1e-9  # the package's own relative tolerance
MC_SIGMAS = 4.0

X_SQUARED = '{"d":1,"terms":[{"e":[2],"c":1}]}'
SUM_OF_SQUARES_2D = '{"d":2,"terms":[{"e":[2,0],"c":1},{"e":[0,2],"c":1}]}'
SUM_OF_CUBES_2D = '{"d":2,"terms":[{"e":[3,0],"c":1},{"e":[0,3],"c":1}]}'

RHO = 1.0 / 32.0  # the package default, used by every workload

# Sizes are cut down from the full acceptance ladders so that one pass
# takes seconds and a run can take the median of several fresh passes.
WORKLOADS = {
    "d1-ladder": {
        "kind": "ladder", "poly": X_SQUARED, "s": 0.0, "budget": 10_000,
        "samples": 200_000, "threads": 1, "seed": 42,
        "sizes": {"full": [1024, 2048, 4096, 8192], "smoke": [1024, 2048, 4096]},
        "slope_band": (0.18, 0.32),
    },
    "d2-ladder": {
        "kind": "ladder", "poly": SUM_OF_SQUARES_2D, "s": 1.0 / 3.0, "budget": 1500,
        "samples": 60_000, "threads": 1, "seed": 5,
        "sizes": {"full": [512, 724, 1024], "smoke": [512]},
    },
    "xn-roundtrip": {
        "kind": "xn", "poly": SUM_OF_CUBES_2D, "samples": 200_000, "seed": 7,
        "sizes": {"full": 1024, "smoke": 512},
    },
}


def child_spec(name: str, size: str, bench_seed: int) -> dict:
    """Everything the child process needs for one pass."""
    w = WORKLOADS[name]
    spec = {"kind": w["kind"], "poly": w["poly"], "samples": w["samples"],
            "seed": w["seed"] + bench_seed}
    if w["kind"] == "ladder":
        spec.update(s=w["s"], budget=w["budget"], threads=w["threads"], ladder=w["sizes"][size])
    else:
        spec["n"] = w["sizes"][size]
    return spec


def load_reference(name: str, size: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[f"{name}/{size}"]


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


def _mc_within_bounds(est: float, err: float, lower: float, upper: float) -> bool:
    return lower - MC_SIGMAS * err <= est <= upper + MC_SIGMAS * err


def _bounds(j: int, pairs: int, n: int, d: int) -> tuple[float, float]:
    """Disjoint-sum upper and Cauchy-Schwarz lower bound on the measure,
    as ``divset.measure`` defines them."""
    vol = (2.0 * RHO / n) ** d
    ordered = 2 * pairs - j
    return (j * j * vol / ordered) if ordered > 0 else 0.0, j * vol


def log_corrected_slope(ns, ratios) -> float:
    """Least-squares slope of log(ratio) + (1/2) log log N against log N."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(r) + 0.5 * math.log(math.log(n)) for n, r in zip(ns, ratios)]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def check_ladder(name: str, rows: list[dict], ref: dict, default_seed: bool,
                 traced_measures: list[dict] | None = None) -> list[str]:
    """One failure reason per row, "" for a row that passes."""
    w = WORKLOADS[name]
    d = json.loads(w["poly"])["d"]
    ref_rows = ref["rows"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"] * max(len(rows), 1)
    reasons = []
    for i, (row, want) in enumerate(zip(rows, ref_rows)):
        why = []
        if row["failed"]:
            why.append("row marked failed")
        for key in ("N", "Q", "J"):
            if row[key] != want[key]:
                why.append(f"{key} = {row[key]}, reference gives {want[key]}")
        if not _close(row["hs_norm"], want["hs_norm"]):
            why.append(f"hs_norm {row['hs_norm']!r} != {want['hs_norm']!r}")
        lower, upper = _bounds(want["J"], want["overlap_pairs"], want["N"], d)
        if d == 1:
            if row["measure"] != want["measure"]:
                why.append(f"exact measure {row['measure']!r} != {want['measure']!r}")
            if not lower * (1 - REL_TOL) <= row["measure"] <= upper * (1 + REL_TOL):
                why.append(f"exact measure {row['measure']!r} outside [{lower!r}, {upper!r}]")
            usable = row["measure"]
        else:
            if not _mc_within_bounds(row["measure"], row["measure_err"], lower, upper):
                why.append(f"MC measure {row['measure']!r} +- {row['measure_err']!r} "
                           f"not within {MC_SIGMAS:g} stderr of [{lower!r}, {upper!r}]")
            usable = max(row["measure"] - 2.0 * row["measure_err"], 0.0)
        if not (row["sup_lb"] > 0 and _close(row["ratio"], row["sup_lb"] * math.sqrt(usable) / row["hs_norm"])):
            why.append(f"ratio {row['ratio']!r} inconsistent with sup_lb, measure and hs_norm")
        if default_seed:
            for key in ("sup_lb", "measure", "ratio"):
                if not _close(row[key], want[key]):
                    why.append(f"{key} {row[key]!r} != reference {want[key]!r} at the default seed")
        if traced_measures is not None:
            got = traced_measures[i]
            if got["overlap_pairs"] != want["overlap_pairs"]:
                why.append(f"overlap_pairs {got['overlap_pairs']}, reference gives {want['overlap_pairs']}")
            if not (_close(got["upper_bound"], upper) and _close(got["lower_bound"], lower)):
                why.append("measure bounds differ from J and overlap_pairs")
        reasons.append("; ".join(why))
    band = w.get("slope_band")
    if band and not any(reasons):
        slope = log_corrected_slope([r["N"] for r in rows], [r["ratio"] for r in rows])
        if not band[0] <= slope <= band[1]:
            reasons = [f"log-corrected slope {slope:.4f} outside {list(band)}"] * len(rows)
    return reasons


def check_xn(out: dict, ref: dict, default_seed: bool) -> list[str]:
    """Failure reasons for build-xn and measure-xn, "" for one that passes."""
    built = "" if out["csv_bytes"] == ref["csv_bytes"] else \
        f"csv_bytes = {out['csv_bytes']}, reference gives {ref['csv_bytes']}"
    why = []
    for key in ("J", "overlap_pairs"):
        if out[key] != ref[key]:
            why.append(f"{key} = {out[key]}, reference gives {ref[key]}")
    for key in ("upper_bound", "lower_bound"):
        if not _close(out[key], ref[key]):
            why.append(f"{key} {out[key]!r} != {ref[key]!r}")
    if not _mc_within_bounds(out["estimate"], out["stderr"], out["lower_bound"], out["upper_bound"]):
        why.append(f"MC estimate {out['estimate']!r} +- {out['stderr']!r} not within "
                   f"{MC_SIGMAS:g} stderr of [{out['lower_bound']!r}, {out['upper_bound']!r}]")
    if default_seed:
        for key in ("estimate", "stderr"):
            if not _close(out[key], ref[key]):
                why.append(f"{key} {out[key]!r} != reference {ref[key]!r} at the default seed")
    return [built, "; ".join(why)]
