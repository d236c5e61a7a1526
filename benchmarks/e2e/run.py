"""End-to-end benchmark with a per-layer ledger.

Run one workload (the form the benchmark contract uses)::

    python3 benchmarks/e2e/run.py --workload serve-closed --seed 1 \
        --seconds 10 --trace 0 [--out result.json]

or every workload, each in a fresh process, by leaving out
``--workload``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics, or with ``--trace 1`` the per-layer ledger.  A failed check
exits 1 and reports no metrics.  ``compare`` applies the gain and
regression rules to two result sets (see README.md)::

    python3 benchmarks/e2e/run.py compare PARENT CHANGE [--claim M:W]
"""

import time

T_START = time.perf_counter_ns()   # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: (name, unit) of every end-to-end metric; BENCHMARK.json mirrors it.
E2E_METRICS = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
               ("op_p90_ms", "ms"), ("setup_s", "s"),
               ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 5        # cold set-ups per run: this process + 4 probes
P99_MIN_OPS = 1000       # p99 needs >= 10 samples beyond it


def measure(workload, seconds: float, traced: bool, *,
            profile_path: str | None = None) -> dict:
    """Warm up, then run timed rounds for *seconds*.  With *traced*,
    the first half runs untraced (the overhead reference) and the
    second half traced into the ledger."""
    import ledger as ledger_mod
    from stats import percentile

    t = time.perf_counter_ns()
    warm_inputs = workload.inputs(-1, workload.warmup_ops)
    gen_ns = time.perf_counter_ns() - t
    warm = workload.run(warm_inputs)
    setup_s = (warm.window[0] - T_START - gen_ns) / 1e9
    errors = list(warm.errors)
    if warm.failed:
        errors.append(f"{warm.failed} warm-up op(s) failed")

    def phase(budget, probes=None, ledger=None):
        rounds = []
        began = time.perf_counter()
        while not rounds or time.perf_counter() - began < budget:
            inputs = workload.inputs(len(rounds), workload.round_ops)
            # Start every round from the same heap: garbage left by the
            # previous round otherwise shifts when the cyclic collector
            # runs inside this one (about +-10% on serve-closed).
            gc.collect()
            if probes is None:
                rnd = workload.run(inputs)
            else:
                probes.reset()
                rnd = workload.run(inputs, edge=probes.counters)
                ledger.add_round(probes, rnd)
                if profile_path and len(rounds) == 0:
                    ledger_mod.write_profile(profile_path)
            rounds.append(rnd)
        return rounds

    def throughput(rounds):
        return sum(r.ops for r in rounds) \
            / (sum(r.window[1] - r.window[0] for r in rounds) / 1e9)

    out = {"setup_main_s": setup_s}
    if traced:
        reference = phase(seconds / 2)
        probes, ledger = ledger_mod.Probes(), ledger_mod.Ledger()
        with probes.tracing():
            traced_rounds = phase(seconds / 2, probes, ledger)
        rounds = reference + traced_rounds
        out["ledger"] = ledger.metrics(
            throughput(reference) / throughput(traced_rounds))
        out["ledger_missing"] = probes.missing
    else:
        rounds = reference = phase(seconds)
    for rnd in rounds:
        errors += rnd.errors
    # End-to-end numbers come from untraced rounds only.
    latencies = [x for r in reference for x in r.latencies]
    ingest = [x for r in reference for x in r.ingest_latencies]
    timed_s = sum(r.window[1] - r.window[0] for r in reference) / 1e9
    failed = sum(r.failed for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    if failed:
        errors.append(f"{failed} of {attempted} op(s) failed")
    ms = 1e-6
    out.update(
        errors=errors, attempted=attempted, failed=failed,
        rounds=len(reference), ops=len(latencies), timed_s=timed_s,
        round_ops_per_s=[throughput([r]) for r in reference],
        ops_per_s=len(latencies) / timed_s,
        op_p50_ms=percentile(latencies, 50) * ms,
        op_p90_ms=percentile(latencies, 90) * ms,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        error_ratio=failed / attempted)
    if len(latencies) >= P99_MIN_OPS:
        out["op_p99_ms"] = percentile(latencies, 99) * ms
    if ingest:
        out["ingest_ops"] = len(ingest)
        out["ingest_p99_ms"] = percentile(ingest, 99) * ms
        out["ingest_per_s"] = len(ingest) / timed_s
    return out


def setup_probe(workload) -> float:
    """Set-up time of this (fresh) process: start to first op, input
    generation excluded."""
    t = time.perf_counter_ns()
    inputs = workload.inputs(-1, 1)
    gen_ns = time.perf_counter_ns() - t
    rnd = workload.run(inputs)
    if rnd.errors or rnd.failed:
        raise SystemExit(f"setup probe failed: {rnd.errors}")
    return (rnd.window[0] - T_START - gen_ns) / 1e9


def probe_setups(args, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def run_one(args) -> int:
    import ledger
    from workloads import WORKLOADS

    tmpdir = ROOT / ".e2e-tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(tmpdir))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(workload)}))
            return 0
        out_dir = Path(args.out).resolve().parent if args.out else None
        profile = str(out_dir / f"trace-{args.workload}.json") \
            if out_dir and args.trace else None
        result = measure(workload, args.seconds, bool(args.trace),
                         profile_path=profile)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass
    if not args.trace:
        setups = [result["setup_main_s"]] \
            + probe_setups(args, SETUP_SAMPLES - 1)
        result["setup_samples"] = setups
        result["setup_s"] = statistics.median(setups)
    result.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=int(args.trace))
    report(result)
    correct = not result["errors"]
    if args.trace:
        metrics = {name: {"value": result["ledger"][name], "unit": unit}
                   for name, unit in ledger.METRICS}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in E2E_METRICS}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        if args.trace:
            (out_dir / "ledger.json").write_text(json.dumps(
                {args.workload: result["ledger"]}, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


def report(result: dict) -> None:
    """Every metric by name, with its unit and sample count."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{result['rounds']} rounds  {result['ops']} timed ops in "
          f"{result['timed_s']:.2f} s")
    n = result["ops"]
    rows = [("ops_per_s", "1/s", f"{n} ops"),
            ("op_p50_ms", "ms", f"n={n}"), ("op_p90_ms", "ms", f"n={n}"),
            ("op_p99_ms", "ms", f"n={n}"),
            ("ingest_per_s", "1/s", f"{result.get('ingest_ops')} ingests"),
            ("ingest_p99_ms", "ms", f"n={result.get('ingest_ops')}"),
            ("error_ratio", "ratio",
             f"{result['failed']} of {result['attempted']}"),
            ("setup_s", "s", f"median of {SETUP_SAMPLES} cold set-ups"),
            ("peak_rss_mb", "MB", "")]
    for name, unit, note in rows:
        if name in result:
            print(f"  {name:<16} {result[name]:>14.6g} {unit:<6} {note}")
    for name, value in (result.get("ledger") or {}).items():
        print(f"  {name:<28} {value:>14.6g}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")


def run_all(args) -> int:
    """Every workload in a fresh process; results merged into --out."""
    from workloads import WORKLOADS

    results, ledgers, status = [], {}, 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    out = Path(args.out).resolve() if args.out else None
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        part = out.with_name(f"{out.stem}-{name}.json") if out else None
        if part:
            cmd += ["--out", str(part)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds * 3 + 300)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            last = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            continue
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
        if part and part.exists():
            results.append(json.loads(part.read_text()))
            part.unlink()
            ledgers[name] = results[-1].get("ledger")
    if out:
        out.write_text(json.dumps({"runs": results}, indent=1) + "\n")
        if args.trace:
            (out.parent / "ledger.json").write_text(
                json.dumps(ledgers, indent=1) + "\n")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import stats
        return stats.compare_main(argv[1:], ROOT / "BENCHMARK.json",
                                  HERE / "baseline.json")
    if argv[:1] == ["baseline"]:
        import stats
        return stats.baseline_main(argv[1:], ROOT / "BENCHMARK.json")
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        # A tree without src/ (the benchmark files alone) lands here.
        print(f"e2e benchmark: {exc}", file=sys.stderr)
        sys.exit(2)
