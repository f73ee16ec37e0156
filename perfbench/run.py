"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tpch_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
every ``end_to_end`` metric of ``BENCHMARK.json``, with ``--trace 1``
every ``per_layer`` metric (a workload that does not load a layer
reports 0 for it).  A traced run also writes its spans and counts to
``perfbench/traces/``.  The lines before the JSON say what the numbers
are: sample counts, tail percentiles, instance and result sizes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STMTS = [f"q{i}{plus}" for i in range(1, 5) for plus in ("", "_plus")]


def tail(samples):
    """``(value, percentile)`` of the highest percentile that has at least
    ten samples beyond it, but never above p99 nor below the median.

    The p99 cap keeps the tail steady on long runs: the eleventh-slowest of
    thousands of operations moved by 1.6x from run to run."""
    ordered = sorted(samples)
    n = len(ordered)
    k = min(n - 10, math.ceil(0.99 * n))
    if 2 * k <= n:
        return statistics.median(ordered), 50.0
    return ordered[k - 1], round(100.0 * k / n, 1)


def end_to_end(run):
    """The ``end_to_end`` metrics and the notes that qualify them."""
    values, notes = {}, {}
    for name in ("op", "certain"):
        samples = run.scaled(name)
        values[f"{name}_p50_ms"] = statistics.median(samples)
        values[f"{name}_tail_ms"], pct = tail(samples)
        notes[f"{name}_tail_ms"] = f"p{pct} of {len(samples)}"
    values["sql_p50_ms"] = statistics.median(run.scaled("sql"))
    completed = run.attempted - run.failed
    # Busy time at the reference speed, each operation scaled as above.
    busy_speed = sum(run.scaled("op")) / sum(run.samples["op"])
    values["ops_per_s"] = completed / run.busy_s / busy_speed
    values["ok_frac"] = completed / run.attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = statistics.median(run.scaled_setup_s())
    notes["setup_s"] = f"median of {len(run.setup_s)} set-ups"
    return values, notes


def per_layer(run):
    """The ``per_layer`` metrics, from the traced blocks of the run.

    Times are scaled to the reference speed with the run's overall
    factor; counts and ratios are as read."""
    import workloads

    per_op = run.tracer.per_op()

    def median(name, scale=1.0):
        by_op = per_op.get(name)
        return statistics.median(by_op.values()) * scale if by_op else 0.0

    ms = run.speed
    values = {
        "tpch.generate_s": median("tpch.generate", ms / 1e3),
        "tpch.nullify_s": median("tpch.nullify", ms / 1e3),
        "sql.parse_ms": median("sql.parse", ms),
        "sql.rewrite_ms": median("sql.rewrite", ms),
        "engine.plan_cache_hit_ratio": run.info.get("plan_cache_hit_ratio", 0.0),
        "fp.detect_ms": median("fp.detect", ms),
        "translate.qplus_ms": median("translate.qplus", ms),
        "algebra.eval_qplus_ms": median("algebra.eval_qplus", ms),
        "certain.world_eval_ms": median("certain.world_eval_ms", ms),
        "certain.search_ms": median("certain.search_ms", ms),
    }
    for stmt in STMTS:
        values[f"engine.prepare_ms.{stmt}"] = median(f"engine.prepare.{stmt}", ms)
        values[f"engine.run_cold_ms.{stmt}"] = median(f"engine.run_cold.{stmt}", ms)
        values[f"engine.run_warm_ms.{stmt}"] = median(f"engine.run_warm.{stmt}", ms)
        cold = per_op.get(f"engine.run_cold.{stmt}", {})
        warm = per_op.get(f"engine.run_warm.{stmt}", {})
        builds = [cold[op] - warm[op] for op in warm]
        values[f"engine.build_ms.{stmt}"] = statistics.median(builds) * ms if builds else 0.0
        for counter in workloads.ENGINE_COUNTERS + ("probe_hit_ratio", "rows_out"):
            values[f"engine.{counter}.{stmt}"] = median(f"engine.{counter}.{stmt}")
    for name in ("world_checks", "candidates_considered", "sample_refuted",
                 "score_probes", "refute_ratio", "emitted"):
        values[f"certain.{name}"] = median(f"certain.{name}")
    for i in range(1, 5):
        ratios = run.samples.get(f"poc.q{i}")
        values[f"poc.q{i}"] = statistics.median(ratios) if ratios else 0.0
    untraced, traced = run.samples["op"], run.traced_op_ms
    values["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        if traced and untraced else 0.0
    )
    return values


def result(run, trace):
    """The JSON object the last output line carries, plus printable notes."""
    kind = "per_layer" if trace else "end_to_end"
    if trace:
        values, notes = per_layer(run), {}
    else:
        values, notes = end_to_end(run)
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(wanted):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in wanted.items()}
    payload = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return payload, notes


def main(argv=None, **sizes):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    run = workloads.Run(trace=bool(args.trace))
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.seconds, run, **sizes)
    finally:
        gc.unfreeze()
    payload, notes = result(run, args.trace)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={run.attempted} failed={run.failed} busy_s={run.busy_s:.2f}")
    print(f"  reference kernel: median {statistics.median(run.ref_ms):.4f} ms of "
          f"{len(run.ref_ms)}; times below are scaled to {workloads.REF_MS} ms "
          f"(overall factor {run.speed:.4f})")
    for key, value in run.info.items():
        print(f"  {key}: {value}")
    for name, metric in payload["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for error in run.errors:
        print(f"  FAILED {error}")
    if args.trace:
        out = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        run.tracer.dump(out)
        print(f"  trace written to {out.relative_to(ROOT)}")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
