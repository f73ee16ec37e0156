"""Fault-tolerant task execution for the experiment harnesses.

The figure4/table1 harnesses used to fan instances out with a bare
``pool.map``: one crashed or hung worker sank the whole run, and an
interrupted run lost every measurement.  :func:`run_tasks` replaces
that with per-task submission, adding:

* a **per-task timeout** (``task_timeout``) — a crashed pool worker
  surfaces as a lost task that never delivers its result, so the
  timeout is also the crash detector;
* up to ``retries`` **re-submissions** with exponential, jittered
  backoff, so transient failures don't count as losses;
* a per-task **failure record** (:class:`RunReport.failed_instances`)
  instead of a crashed run — the surviving tasks' measurements are
  kept;
* incremental **JSON checkpointing**: after every completed task the
  result map is atomically rewritten to ``checkpoint``, and a later
  run with the same checkpoint file skips completed tasks (their
  results are loaded instead of re-measured);
* cooperative **cancellation** (``cancel``) — a
  :class:`~repro.engine.limits.CancelToken` fired from another thread
  stops the run at the next task boundary with the completed results
  (and their checkpoint) intact, ``RunReport.cancelled = True``.

Tasks are an ordered ``{key: payload}`` mapping; the worker callable
must be picklable and return JSON-serialisable results (they round-trip
through the checkpoint file).  ``workers > 1`` uses a
``multiprocessing`` pool; otherwise tasks run inline (retries and
checkpointing still apply, but a hard worker crash or hang cannot be
contained in-process — use the pool for that).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.limits import CancelToken

__all__ = ["TaskFailure", "RunReport", "run_tasks", "load_checkpoint"]


@dataclass
class TaskFailure:
    """One task that exhausted its retries."""

    key: str
    error: str
    attempts: int


@dataclass
class RunReport:
    """What happened to a fault-tolerant harness run.

    Returned by :func:`run_tasks`, and by the Figure 4 / Table 1
    harnesses next to their results.
    """

    total: int = 0
    completed: int = 0
    #: tasks skipped because the checkpoint already held their result
    resumed: int = 0
    retries: int = 0
    failed_instances: List[TaskFailure] = field(default_factory=list)
    #: harness-level samples dropped by quality guards (``t_orig > 0``)
    discarded_samples: int = 0
    #: a ``cancel`` token fired mid-run; completed results (and their
    #: checkpoint) were kept, remaining tasks were never attempted
    cancelled: bool = False

    @property
    def failed(self) -> int:
        return len(self.failed_instances)

    def summary(self, unit: str, cancel: Optional[CancelToken] = None) -> str:
        """Footer lines for a rendered run: cancellation and failures.

        Empty for a clean run; each line starts with a newline so the
        result appends directly to the rendered figure or table.
        """
        text = ""
        if self.cancelled:
            reason = f" ({cancel.reason})" if cancel is not None and cancel.reason else ""
            text += (
                f"\ncancelled after {self.completed + self.resumed}/{self.total}"
                f" {unit}{reason}"
            )
        if self.failed_instances:
            failures = ", ".join(f"{f.key} ({f.error})" for f in self.failed_instances)
            text += f"\nfailed instances: {failures}"
        return text


def load_checkpoint(path: Optional[str]) -> Dict[str, object]:
    """Completed-task results from ``path``; ``{}`` if absent/unset."""
    if path is None or not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return dict(data.get("results", {}))


def _write_checkpoint(path: str, results: Dict[str, object]) -> None:
    """Atomic rewrite so an interrupt never leaves a torn file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"results": results}, handle)
    os.replace(tmp, path)


def run_tasks(
    worker: Callable[[tuple], object],
    tasks: Dict[str, tuple],
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    rng: Optional[random.Random] = None,
    cancel: Optional[CancelToken] = None,
) -> Tuple[Dict[str, object], RunReport]:
    """Run ``worker`` over ``tasks``; return ``(results, report)``.

    ``results`` maps each *successful* task key to its result (including
    results loaded from the checkpoint); tasks that exhausted their
    ``retries`` appear in ``report.failed_instances`` instead.  The
    timeout clock for a task starts when the collector begins waiting on
    it, which overcounts queueing time behind a saturated pool — set it
    generously relative to a single task's cost.  Without a timeout a
    crashed worker's task waits forever; always pair crash tolerance
    with ``task_timeout``.

    ``cancel`` is consulted at every task boundary (before each serial
    task, before each pool collection wait): once fired, no further
    tasks are attempted, in-flight pool work is discarded, and the
    already-completed results are returned with
    ``report.cancelled = True``.  Because the checkpoint is rewritten
    after every completion, a cancelled run with a ``checkpoint`` can be
    resumed later from exactly where it stopped.
    """
    report = RunReport(total=len(tasks))
    rng = rng or random.Random(0)
    results: Dict[str, object] = {}
    done = load_checkpoint(checkpoint)
    for key in tasks:
        if key in done:
            results[key] = done[key]
            report.resumed += 1
    pending = [key for key in tasks if key not in results]

    def record_success(key: str, result: object) -> None:
        results[key] = result
        report.completed += 1
        if checkpoint is not None:
            _write_checkpoint(checkpoint, results)

    def sleep_backoff(attempt: int) -> None:
        if backoff > 0:
            time.sleep(backoff * (2 ** (attempt - 1)) * (0.5 + rng.random()))

    if workers is not None and workers > 1:
        attempts = {key: 1 for key in pending}
        with multiprocessing.Pool(workers) as pool:
            inflight = {
                key: pool.apply_async(worker, (tasks[key],)) for key in pending
            }
            queue = deque(pending)
            while queue:
                if cancel is not None and cancel.cancelled:
                    # Pool.__exit__ terminates the workers; completed
                    # results (and their checkpoint) are already safe.
                    report.cancelled = True
                    break
                key = queue.popleft()
                try:
                    result = inflight[key].get(timeout=task_timeout)
                except multiprocessing.TimeoutError:
                    error = (
                        f"no result within {task_timeout:g}s "
                        "(worker hung, crashed, or pool saturated)"
                    )
                except Exception as exc:  # worker raised
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    record_success(key, result)
                    continue
                if attempts[key] <= retries:
                    report.retries += 1
                    sleep_backoff(attempts[key])
                    attempts[key] += 1
                    inflight[key] = pool.apply_async(worker, (tasks[key],))
                    queue.append(key)
                else:
                    report.failed_instances.append(
                        TaskFailure(key, error, attempts[key])
                    )
        return results, report

    for key in pending:
        if cancel is not None and cancel.cancelled:
            report.cancelled = True
            break
        for attempt in range(1, retries + 2):
            try:
                result = worker(tasks[key])
            except Exception as exc:
                if attempt <= retries:
                    report.retries += 1
                    sleep_backoff(attempt)
                    continue
                report.failed_instances.append(
                    TaskFailure(key, f"{type(exc).__name__}: {exc}", attempt)
                )
            else:
                record_success(key, result)
            break
    return results, report
