"""Fast self-test of the benchmark itself.

    python3 -m pytest perfbench -q

Runs each workload for a fraction of a second on tiny inputs and checks
the output contract, that a corrupted answer is counted as failed, and
that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from repro.data import Relation  # noqa: E402

SEED = 7
TINY = {
    "tpch_cold": {"scale": 0.3, "draws": 2, "setups": 1},
    "recall_small": {"pool": 3, "setups": 1},
    "cert_oracle": {"nulls": 2, "pool": 4, "setups": 1},
}


def test_workloads_match_benchmark_json():
    assert sorted(TINY) == sorted(workloads.WORKLOADS) == sorted(w["name"] for w in bench.SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_appears_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.4", "--trace", str(trace)]
    assert bench.main(argv, **TINY[workload]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] and payload["failed"] == 0 and payload["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench.SPEC[kind]}
    assert {name: m["unit"] for name, m in payload["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in payload["metrics"].values())


def _empty_answer(real):
    def corrupted(query, db, *args, **kwargs):
        answer = real(query, db, *args, **kwargs)
        return Relation(answer.attributes, [])

    return corrupted


CORRUPTIONS = {
    # Q+ := Q: the plain SQL answers, false positives included.
    "tpch_cold": ("rewrite_certain", lambda real: lambda query, schema: query),
    "recall_small": ("rewrite_certain", lambda real: lambda query, schema: query),
    # cert(Q, D) := {}: the Q+ answers are no longer contained in it.
    "cert_oracle": ("certain_answers_with_nulls", _empty_answer),
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_a_corrupted_answer_is_counted_as_failed(workload, monkeypatch):
    name, corrupt = CORRUPTIONS[workload]
    monkeypatch.setattr(workloads, name, corrupt(getattr(workloads, name)))
    run = workloads.Run(trace=False)
    workloads.WORKLOADS[workload](SEED, 0.4, run, **TINY[workload])
    assert run.attempted >= 1
    assert run.failed >= 1
    payload, _notes = bench.result(run, trace=0)
    assert not payload["correct"]
    assert payload["metrics"]["ok_frac"]["value"] < 1.0


def test_a_raising_operation_is_counted_and_the_run_ends(monkeypatch):
    def broken(query, db, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "certain_answers_with_nulls", broken)
    run = workloads.Run(trace=False)
    workloads.cert_oracle(SEED, 0.05, run, **TINY["cert_oracle"])
    assert run.attempted >= 1
    assert run.failed == run.attempted
    assert "injected" in run.errors[0]


def test_scaling_keeps_an_injected_slowdown_visible(monkeypatch):
    """A busy-loop delay in the searched call raises the scaled ``op_p50_ms``
    by that delay at the reference speed: the reference kernel does not
    absorb it."""
    delay_s = 0.02

    def p50_and_speed():
        run = workloads.Run(trace=False)
        workloads.cert_oracle(SEED, 0.5, run, **TINY["cert_oracle"])
        values, _notes = bench.end_to_end(run)
        return values["op_p50_ms"], run.speed

    base_ms, speed = p50_and_speed()
    real = workloads.certain_answers_with_nulls

    def slowed(query, db, **kwargs):
        end = perf_counter() + delay_s
        while perf_counter() < end:
            pass
        return real(query, db, **kwargs)

    monkeypatch.setattr(workloads, "certain_answers_with_nulls", slowed)
    slowed_ms, _speed = p50_and_speed()
    expected_ms = delay_s * 1e3 * speed
    assert 0.7 * expected_ms < slowed_ms - base_ms < 1.3 * expected_ms, (base_ms, slowed_ms, expected_ms)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench.tail(list(range(100))) == (89, 90.0)
    assert bench.tail(list(range(2000))) == (1979, 99.0)  # capped at p99
    assert bench.tail(list(range(12))) == (5.5, 50.0)  # too few: the median
    assert bench.tail(list(range(20))) == (9.5, 50.0)
    assert bench.tail(list(range(22))) == (11, 54.5)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cert_oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
