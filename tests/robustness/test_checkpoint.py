"""Incremental JSON checkpointing and resume for the harnesses."""

import json

import pytest

from repro.experiments import performance, scaling
from repro.experiments.runner import load_checkpoint, run_tasks
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_faults():
    yield
    faults.clear_faults()


def _identity(task):
    return task[0]


def _guarded(task):
    faults.check_task_fault(task[0])
    return task[0]


class TestRunnerCheckpoint:
    def test_checkpoint_written_incrementally(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        run_tasks(_identity, {"a": ("a",), "b": ("b",)}, checkpoint=path)
        data = json.loads((tmp_path / "ckpt.json").read_text())
        assert data["results"] == {"a": "a", "b": "b"}

    def test_resume_skips_completed_tasks(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        # First run: "b" fails and is left out of the checkpoint.
        faults.install_task_fault("b", error=RuntimeError("boom"))
        _, report1 = run_tasks(
            _guarded, {"a": ("a",), "b": ("b",)}, retries=0, backoff=0.0,
            checkpoint=path,
        )
        assert report1.completed == 1 and report1.failed == 1
        faults.clear_faults()
        # Resume: "a" is loaded, only "b" runs.
        results, report2 = run_tasks(
            _guarded, {"a": ("a",), "b": ("b",)}, retries=0, checkpoint=path
        )
        assert results == {"a": "a", "b": "b"}
        assert report2.resumed == 1 and report2.completed == 1

    def test_fully_checkpointed_run_does_no_work(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        run_tasks(_identity, {"a": ("a",)}, checkpoint=path)
        faults.install_task_fault("a", error=RuntimeError("must not run"))
        results, report = run_tasks(_guarded, {"a": ("a",)}, checkpoint=path)
        assert results == {"a": "a"}
        assert report.resumed == 1 and report.completed == 0

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "absent.json")) == {}
        assert load_checkpoint(None) == {}


class TestHarnessCheckpoint:
    KWARGS = dict(
        null_rates=(0.03,),
        scale=0.05,
        instances=2,
        param_draws=1,
        repeats=1,
        seed=4,
        query_ids=("Q1",),
        retries=0,
        backoff=0.0,
    )

    def test_interrupted_figure4_resumes_without_remeasuring(self, tmp_path):
        path = str(tmp_path / "fig4.json")
        # First run: instance 1 fails, instance 0 lands in the checkpoint.
        faults.install_task_fault("0.03:1", error=RuntimeError("interrupted"))
        _series, report = performance.run_price_of_correctness(
            checkpoint=path, **self.KWARGS
        )
        assert report.failed == 1
        ckpt = json.loads((tmp_path / "fig4.json").read_text())
        assert sorted(ckpt["results"]) == ["0.03:0"]
        faults.clear_faults()
        # Resume: instance 0 must NOT re-run (a fault on it would fire).
        faults.install_task_fault("0.03:0", error=RuntimeError("re-measured!"))
        series, report = performance.run_price_of_correctness(
            checkpoint=path, **self.KWARGS
        )
        assert report.resumed == 1 and report.completed == 1 and report.failed == 0
        ((x, ratio),) = series["Q1"]
        assert x == 3.0 and ratio > 0

    def test_checkpointed_rerun_is_deterministic(self, tmp_path):
        path = str(tmp_path / "fig4.json")
        a, _ = performance.run_price_of_correctness(checkpoint=path, **self.KWARGS)
        # Second run resumes everything: identical series, zero work.
        b, report = performance.run_price_of_correctness(
            checkpoint=path, **self.KWARGS
        )
        assert report.resumed == 2
        assert a == b

    def test_table1_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "table1.json")
        kwargs = dict(
            scales=(1.0,),
            null_rates=(0.03,),
            param_draws=1,
            repeats=1,
            base_scale=0.05,
            seed=2,
            query_ids=("Q1",),
            retries=0,
            backoff=0.0,
        )
        first, report = scaling.run_scaling_experiment(checkpoint=path, **kwargs)
        assert report.completed == 1
        faults.install_task_fault("1:0.03", error=RuntimeError("re-measured!"))
        second, report = scaling.run_scaling_experiment(checkpoint=path, **kwargs)
        assert report.resumed == 1 and report.failed == 0
        assert first == second
