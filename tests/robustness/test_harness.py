"""Fault-tolerant task runner and hardened experiment harnesses."""

import math
import time

import pytest

from repro.engine.limits import CancelToken
from repro.experiments import performance
from repro.experiments.runner import RunReport, TaskFailure, run_tasks
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_faults():
    yield
    faults.clear_faults()


# --- module-level workers: must be picklable for the process pool ---------

def _double(task):
    return task[0] * 2


def _flaky(task):
    faults.check_task_fault(task[0])
    return task[0]


def _crash(task):
    faults.check_task_fault(str(task[0]))
    return task[0]


def _sleepy(task):
    time.sleep(task[0])
    return task[0]


class TestRunTasksInline:
    def test_all_succeed(self):
        results, report = run_tasks(_double, {"a": (1,), "b": (2,)})
        assert results == {"a": 2, "b": 4}
        assert report.completed == 2 and report.failed == 0
        assert report.total == 2

    def test_failure_is_recorded_not_raised(self):
        faults.install_task_fault("bad", error=RuntimeError("boom"))
        results, report = run_tasks(
            _flaky, {"ok": ("ok",), "bad": ("bad",)}, retries=0, backoff=0.0
        )
        assert results == {"ok": "ok"}
        (failure,) = report.failed_instances
        assert failure.key == "bad"
        assert "boom" in failure.error
        assert failure.attempts == 1

    def test_retry_recovers_transient_failure(self):
        # The fault fires once; the first retry succeeds.
        faults.install_task_fault("flaky", error=RuntimeError("blip"), times=1)
        results, report = run_tasks(
            _flaky, {"flaky": ("flaky",)}, retries=2, backoff=0.0
        )
        assert results == {"flaky": "flaky"}
        assert report.retries == 1
        assert report.failed == 0

    def test_retries_exhausted(self):
        faults.install_task_fault("doomed", error=RuntimeError("always"))
        results, report = run_tasks(
            _flaky, {"doomed": ("doomed",)}, retries=2, backoff=0.0
        )
        assert results == {}
        (failure,) = report.failed_instances
        assert failure.attempts == 3  # initial try + 2 retries
        assert report.retries == 2


class TestRunTasksPool:
    def test_pool_results_match_inline(self):
        tasks = {str(i): (i,) for i in range(6)}
        inline, _ = run_tasks(_double, tasks)
        pooled, report = run_tasks(_double, tasks, workers=2)
        assert pooled == inline
        assert report.completed == 6

    def test_worker_exception_is_retried_then_recorded(self):
        faults.install_task_fault("bad", error=RuntimeError("boom"))
        tasks = {"ok": ("ok",), "bad": ("bad",)}
        results, report = run_tasks(
            _flaky, tasks, workers=2, retries=1, backoff=0.0
        )
        assert results == {"ok": "ok"}
        (failure,) = report.failed_instances
        assert failure.key == "bad" and "boom" in failure.error
        assert report.retries == 1

    def test_hung_worker_times_out(self):
        # One task sleeps far beyond the timeout; the other completes.
        tasks = {"fast": (0.0,), "slow": (60.0,)}
        results, report = run_tasks(
            _sleepy, tasks, workers=2, task_timeout=1.0, retries=0
        )
        assert results == {"fast": 0.0}
        (failure,) = report.failed_instances
        assert failure.key == "slow"
        assert "no result within" in failure.error

    def test_crashed_worker_is_contained(self):
        # os._exit kills the worker outright — no exception crosses the
        # pipe, so the timeout is the detector; the pool repopulates and
        # the other tasks complete.
        faults.install_task_fault("1", exit_code=1)
        tasks = {str(i): (i,) for i in range(4)}
        results, report = run_tasks(
            _crash, tasks, workers=2, task_timeout=5.0, retries=0
        )
        assert set(results) == {"0", "2", "3"}
        (failure,) = report.failed_instances
        assert failure.key == "1"


class TestRunReportSummary:
    def test_clean_run_has_no_footer(self):
        assert RunReport(total=2, completed=2).summary("cells") == ""

    def test_footer_reports_cancellation_and_failures(self):
        token = CancelToken()
        token.cancel(reason="budget")
        report = RunReport(
            total=4,
            completed=1,
            resumed=1,
            cancelled=True,
            failed_instances=[TaskFailure("0.03:1", "RuntimeError: boom", 1)],
        )
        assert report.summary("instances", token) == (
            "\ncancelled after 2/4 instances (budget)"
            "\nfailed instances: 0.03:1 (RuntimeError: boom)"
        )


class TestHardenedFigure4:
    def test_crashing_instance_reported_others_measured(self):
        """The acceptance scenario: figure4 with workers=2 and one
        fault-injected crashing instance completes, reports that
        instance in failed_instances, and keeps the other measurements.
        """
        faults.install_task_fault("0.03:1", exit_code=1)
        series, report = performance.run_price_of_correctness(
            null_rates=(0.03,),
            scale=0.05,
            instances=3,
            param_draws=1,
            repeats=1,
            seed=1,
            query_ids=("Q1",),
            workers=2,
            task_timeout=10.0,
            retries=0,
            backoff=0.0,
        )
        assert [f.key for f in report.failed_instances] == ["0.03:1"]
        assert report.completed == 2
        ((x, ratio),) = series["Q1"]
        assert x == 3.0
        assert ratio > 0 and not math.isnan(ratio)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_instances_failing_yields_nan_not_crash(self, workers):
        faults.install_task_fault("0.05:0", error=RuntimeError("boom"))
        series, report = performance.run_price_of_correctness(
            null_rates=(0.05,),
            scale=0.05,
            instances=1,
            param_draws=1,
            repeats=1,
            seed=2,
            query_ids=("Q1",),
            workers=workers,
            task_timeout=30.0,
            retries=0,
            backoff=0.0,
        )
        assert report.failed == 1
        ((_x, ratio),) = series["Q1"]
        assert math.isnan(ratio)

    def test_serial_run_reports_discarded_and_completed(self):
        _series, report = performance.run_price_of_correctness(
            null_rates=(0.03,),
            scale=0.05,
            instances=1,
            param_draws=1,
            repeats=1,
            seed=3,
            query_ids=("Q1",),
        )
        assert isinstance(report, RunReport)
        assert report.completed == 1
        assert report.discarded_samples >= 0
