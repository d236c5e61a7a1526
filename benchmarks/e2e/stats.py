"""Percentiles, quartiles and the ``compare`` / ``baseline`` commands.

Stdlib only, so result sets can be compared on a machine without the
program under test.  Percentiles are computed here rather than with
the program's own histogram, so a change to the program's metrics code
cannot move the benchmark's numbers.

``compare PARENT CHANGE [--claim METRIC:WORKLOAD]``
    PARENT and CHANGE are result sets: ``--out`` files, or directories
    of them.  Runs pair up by workload and seed.  For each workload
    and end-to-end metric:

    * ``gain`` — at least 10 pairs, the change wins at least 9 of
      every 10 (ties count for neither) and the medians differ, in the
      better direction, by more than the parent's IQR;
    * ``unresolved`` — either side's relative IQR exceeds the metric's
      bound, unless every change run beats every parent run;
    * ``REGRESSION`` — the change's median is worse than the parent's
      by more than the bound;
    * ``ok`` otherwise.

    Any rise in the failed-op ratio fails the workload.  A claimed
    (metric, workload) must read ``gain``.  Exit 0 when nothing
    regressed and the claim, if any, holds.

``baseline SET... [--out FILE]``
    Median, quartiles and relative IQR per workload and metric of the
    given result sets, and the bounds :func:`bound_for` derives for the
    metrics BENCHMARK.json does not list (the calibration stored in
    ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from pathlib import Path

#: Metrics outside BENCHMARK.json's end_to_end list (only some
#: workloads have them); their bounds live in baseline.json.
EXTRA_METRICS = {"op_p99_ms": "lower", "ingest_p99_ms": "lower",
                 "ingest_per_s": "higher"}
MIN_PAIRS = 10           # a gain needs at least this many seed pairs


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default);
    0.0 for an empty sample."""
    xs = sorted(values)
    if not xs:
        return 0.0
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them (the exclusive method)."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load_runs(paths) -> list[dict]:
    """Every run in the given ``--out`` files or directories."""
    runs = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            if file.name == "ledger.json" or file.name.startswith("trace-"):
                continue
            doc = json.loads(file.read_text())
            runs += doc["runs"] if "runs" in doc else [doc]
    return [r for r in runs if not r.get("trace")]


def _by_workload(runs) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def bound_for(rel_iqrs) -> float:
    """A metric's regression bound: three times its worst relative IQR
    (so a same-commit spread stays under a third of the bound), rounded
    up to a percent, at least 10% against drift between sets on a
    shared host, at most the benchmark contract's 25%."""
    return min(0.25, max(0.10, math.ceil(300 * max(rel_iqrs)) / 100))


def _metric_rules(benchmark: dict, baseline: dict) -> dict:
    rules = {m["name"]: (m["better"], m["bound"])
             for m in benchmark["end_to_end"]}
    for name, better in EXTRA_METRICS.items():
        bound = baseline.get("bounds", {}).get(name)
        if bound is not None:
            rules[name] = (better, bound)
    return rules


def judge(parent: list[dict], change: list[dict], metric: str,
          better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change of the median, + = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    p = [r[metric] for r in parent]
    c = [r[metric] for r in change]
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    worse = sign * (cm - pm) / pm
    paired = {r["seed"]: r[metric] for r in parent}
    pairs = [(paired[r["seed"]], r[metric]) for r in change
             if r["seed"] in paired]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) \
            and worse < 0 and abs(cm - pm) > p3 - p1:
        return "gain", worse
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound:
        if all(sign * (b - a) < 0 for a in p for b in c):
            return "ok", worse
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    return "ok", worse


def compare_main(argv, benchmark_path: Path, baseline_path: Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    benchmark = json.loads(benchmark_path.read_text())
    baseline = json.loads(baseline_path.read_text()) \
        if baseline_path.exists() else {}
    rules = _metric_rules(benchmark, baseline)
    parent = _by_workload(load_runs([args.parent]))
    change = _by_workload(load_runs([args.change]))
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    status = 0
    for workload in sorted(set(parent) & set(change)):
        p, c = parent[workload], change[workload]
        seeds = {r["seed"] for r in p} & {r["seed"] for r in c}
        p_err = sum(r["failed"] for r in p) / sum(r["attempted"] for r in p)
        c_err = sum(r["failed"] for r in c) / sum(r["attempted"] for r in c)
        cells = [f"{workload:<16} pairs {len(seeds):>2}  "
                 f"errors {p_err:.3g}->{c_err:.3g}"]
        if c_err > p_err:
            cells.append("ERROR-RISE")
            status = 1
        for metric, (better, bound) in rules.items():
            if not all(metric in r for r in p + c):
                continue
            verdict, worse = judge(p, c, metric, better, bound)
            if (metric, workload) == claim and verdict != "gain":
                verdict = "CLAIM-NOT-MET"
            if verdict in ("REGRESSION", "CLAIM-NOT-MET"):
                status = 1
            cells.append(f"{metric} {-worse:+.1%} {verdict}")
        print("  ".join(cells))
    if claim and claim[1] not in set(parent) & set(change):
        print(f"claimed workload {claim[1]} missing from a result set")
        status = 1
    print("PASS" if status == 0 else "FAIL")
    return status


def baseline_main(argv, benchmark_path: Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py baseline")
    parser.add_argument("results", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    benchmark = json.loads(benchmark_path.read_text())
    names = [m["name"] for m in benchmark["end_to_end"]] \
        + list(EXTRA_METRICS)
    table, spreads = {}, {}
    for workload, runs in sorted(_by_workload(
            load_runs(args.results)).items()):
        table[workload] = {"runs": len(runs),
                           "seeds": sorted(r["seed"] for r in runs)}
        for name in names:
            if all(name in r for r in runs):
                q1, median, q3 = quartiles(r[name] for r in runs)
                table[workload][name] = {
                    "median": median, "q1": q1, "q3": q3,
                    "rel_iqr": (q3 - q1) / median}
                spreads.setdefault(name, []).append((q3 - q1) / median)
    # A metric whose relative IQR exceeds 10% on some workload is too
    # noisy to gate at this run length: it gets no bound, and compare
    # leaves it out.
    bounds = {name: bound_for(xs) for name, xs in spreads.items()
              if name in EXTRA_METRICS and max(xs) <= 0.10}
    text = json.dumps({"bounds": bounds, "workloads": table},
                      indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0
