"""Experiment E2 — Figure 4: the price of correctness.

For each null rate, generate DBGen-style instances and measure the
ratio ``t+/t`` of the run time of the rewritten query ``Q+_i`` to the
original ``Q_i`` on the same engine (relative performance, as in the
paper).  A ratio near 1 means correctness is (almost) free; below 1 the
correct query is *faster* (Q2's short-circuit); above 1 it is slower
(Q4's extra correlated subqueries).
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union as TUnion

from repro.data.database import Database
from repro.engine import Executor
from repro.engine.executor import PLAN_CACHE
from repro.engine.limits import CancelToken
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.sql.rewrite import RewriteOptions, rewrite_certain
from repro.testing.faults import check_task_fault
from repro.tpch.dbgen import generate_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.queries import QUERIES, sample_parameters
from repro.tpch.schema import tpch_schema
from repro.experiments.report import format_ratio, render_series
from repro.experiments.runner import RunReport, run_tasks

__all__ = [
    "run_price_of_correctness",
    "time_query",
    "rewritten_queries",
    "main",
]


def time_query(
    db: Database,
    query: TUnion[str, ast.Query, ast.Select, ast.SetOp],
    params: Dict[str, object],
    repeats: int = 3,
) -> Tuple[float, int]:
    """Best-of-*repeats* cold execution time and result size.

    ``query`` may be SQL text (parsed once through the plan cache, so
    parsing is not timed) or an already-parsed statement.  Every repeat
    prepares and runs the statement on a fresh :class:`Executor`, so no
    hash index, probe table, memo cache or CTE materialisation survives
    from an earlier repeat: each repeat times the same cold evaluation.
    As in :mod:`timeit`, the cyclic garbage collector is paused while
    timing: a collection triggered by earlier allocations costs
    milliseconds, an order of magnitude more than a sub-millisecond
    query such as Q2+ at small scales.
    """
    if isinstance(query, str):
        query = PLAN_CACHE.get_or_parse(query, False)
    query = ast.query_of(query)
    best = float("inf")
    size = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            result = Executor(db, params).prepare(query).run()
            best = min(best, time.perf_counter() - start)
            size = len(result)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, size


def rewritten_queries(
    query_ids=("Q1", "Q2", "Q3", "Q4"),
    use_appendix: bool = False,
    options: Optional[RewriteOptions] = None,
) -> Dict[str, Tuple[ast.Query, ast.Query]]:
    """``{qid: (original AST, rewritten AST)}``.

    ``use_appendix=True`` takes the paper's hand rewrites verbatim;
    otherwise the automatic rewriter derives them (the default — tests
    assert both produce identical answers).
    """
    schema = tpch_schema()
    out: Dict[str, Tuple[ast.Query, ast.Query]] = {}
    for qid in query_ids:
        original_sql, appendix_sql, _params = QUERIES[qid]
        original = parse_sql(original_sql)
        if use_appendix:
            plus = parse_sql(appendix_sql)
        else:
            plus = rewrite_certain(original, schema, options)
        out[qid] = (original, plus)
    return out


def _cell_ratios(task: tuple) -> Dict[str, object]:
    """One cell's measurements: a fresh instance, its draws, cold timings.

    This is the task-runner worker body shared by Figure 4 and Table 1.
    Returns JSON-serialisable ``{"ratios": {qid: [t+/t, …]}, "rows":
    {qid: [[n_Q, n_Q+], …]}, "discarded": n}`` so results survive
    checkpoint round-trips; ``rows`` holds every draw's result sizes and
    ``discarded`` counts ratios dropped by the ``t_orig > 0`` guard.
    """
    (
        key, scale, rate, instance_seed, null_seed, param_seed,
        query_ids, param_draws, repeats, use_appendix, options,
    ) = task
    check_task_fault(key)
    queries = rewritten_queries(query_ids, use_appendix=use_appendix, options=options)
    base = generate_instance(scale=scale, seed=instance_seed)
    db = inject_nulls(base, rate, seed=null_seed)
    rng = random.Random(param_seed)
    ratios: Dict[str, List[float]] = {qid: [] for qid in query_ids}
    rows: Dict[str, List[List[int]]] = {qid: [] for qid in query_ids}
    discarded = 0
    for qid in query_ids:
        original, plus = queries[qid]
        for _ in range(param_draws):
            params = sample_parameters(qid, db, rng=rng)
            t_orig, n_orig = time_query(db, original, params, repeats)
            t_plus, n_plus = time_query(db, plus, params, repeats)
            rows[qid].append([n_orig, n_plus])
            if t_orig > 0:
                ratios[qid].append(t_plus / t_orig)
            else:
                discarded += 1
    return {"ratios": ratios, "rows": rows, "discarded": discarded}


def _measure_cells(
    cells: Dict[str, Tuple[float, float]],
    seed: int,
    query_ids: Tuple[str, ...],
    param_draws: int,
    repeats: int,
    use_appendix: bool = False,
    options: Optional[RewriteOptions] = None,
    **run_options,
) -> Tuple[Dict[str, Dict], RunReport]:
    """Measure ``cells`` (``{key: (generator scale, null rate)}``).

    Every cell's instance, null and parameter seeds are drawn from
    ``seed`` up front, in cell order, so a cell samples the same stream
    whatever the worker count and whether or not it resumes from a
    checkpoint.  Returns the :func:`~repro.experiments.runner.run_tasks`
    ``(results, report)`` for ``run_options``, with the cells' discarded
    samples summed into the report.
    """
    rng = random.Random(seed)
    tasks = {
        key: (
            key, scale, rate, rng.randrange(2**31), rng.randrange(2**31),
            rng.randrange(2**31), query_ids, param_draws, repeats,
            use_appendix, options,
        )
        for key, (scale, rate) in cells.items()
    }
    results, report = run_tasks(
        _cell_ratios, tasks, rng=random.Random(rng.randrange(2**31)), **run_options
    )
    report.discarded_samples = sum(res["discarded"] for res in results.values())
    return results, report


def run_price_of_correctness(
    null_rates: Iterable[float] = (0.01, 0.02, 0.03, 0.04, 0.05),
    scale: float = 1.0,
    instances: int = 2,
    param_draws: int = 2,
    repeats: int = 2,
    seed: int = 0,
    query_ids=("Q1", "Q2", "Q3", "Q4"),
    use_appendix: bool = False,
    options: Optional[RewriteOptions] = None,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    cancel: Optional[CancelToken] = None,
) -> Tuple[Dict[str, List[Tuple[float, float]]], RunReport]:
    """Return ``({query: [(null rate %, avg t+/t), …]}, report)`` (Figure 4).

    The paper uses 10 instances × 5 parameter draws × 3 runs per point
    on ≥1 GB databases; the defaults keep a bench run in seconds while
    preserving the relative-performance shape.  Each timing is the best
    of ``repeats`` cold runs (see :func:`time_query`).

    Each instance is one task of the fault-tolerant task runner
    (:mod:`repro.experiments.runner`), inline when ``workers`` is
    ``None``/``1`` and over a process pool otherwise; the sampled
    parameter stream depends on ``seed`` only.  A task gets a
    ``task_timeout`` and up to ``retries`` re-submissions with jittered
    ``backoff``; failures are recorded in ``report.failed_instances``
    (keyed ``"<rate>:<instance>"``) instead of sinking the run, and a
    point with no surviving instance is NaN.  ``checkpoint`` names a
    JSON file updated after every completed instance; re-running with
    the same file skips instances already measured.

    ``cancel`` accepts a :class:`~repro.engine.limits.CancelToken`
    another thread may fire (the CLI's ``--time-budget`` arms one on a
    timer): the harness stops at the next instance boundary, keeps the
    measurements (and checkpoint) completed so far, and reports
    ``report.cancelled = True``.
    """
    null_rates = tuple(null_rates)
    query_ids = tuple(query_ids)
    cells = {
        f"{rate:g}:{i}": (scale, rate) for rate in null_rates for i in range(instances)
    }
    results, report = _measure_cells(
        cells, seed, query_ids, param_draws, repeats, use_appendix, options,
        workers=workers, task_timeout=task_timeout, retries=retries,
        backoff=backoff, checkpoint=checkpoint, cancel=cancel,
    )
    series: Dict[str, List[Tuple[float, float]]] = {qid: [] for qid in query_ids}
    for rate in null_rates:
        at_rate = [results[k] for k in cells if k in results and cells[k][1] == rate]
        for qid in query_ids:
            values = [r for res in at_rate for r in res["ratios"][qid]]
            avg = sum(values) / len(values) if values else float("nan")
            series[qid].append((round(rate * 100, 2), avg))
    return series, report


def main(
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint: Optional[str] = None,
    cancel: Optional[CancelToken] = None,
) -> str:
    series, report = run_price_of_correctness(
        workers=workers,
        task_timeout=task_timeout,
        retries=retries,
        checkpoint=checkpoint,
        cancel=cancel,
    )
    text = render_series(
        "Figure 4 — average relative performance t(Q+)/t(Q) per null rate",
        "null rate %",
        series,
        y_format=format_ratio,
    )
    text += report.summary("instances", cancel)
    print(text)
    return text


if __name__ == "__main__":
    main()
