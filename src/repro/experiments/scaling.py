"""Experiment E3 — Table 1: relative performance across instance sizes.

The paper's hypothesis is that ``t+/t`` barely depends on instance size
(confirmed for Q1–Q3; Q4 degrades with size because its rewriting has
three extra lineitem-joining subqueries).  We reproduce the table with
scale units 1×/3×/6×/10× standing in for 1/3/6/10 GB.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.engine.limits import CancelToken
from repro.experiments.performance import _measure_cells
from repro.experiments.report import format_ratio, render_table
from repro.experiments.runner import RunReport

__all__ = ["run_scaling_experiment", "main"]


def run_scaling_experiment(
    scales: Iterable[float] = (1.0, 3.0, 6.0, 10.0),
    null_rates: Iterable[float] = (0.01, 0.03, 0.05),
    param_draws: int = 2,
    repeats: int = 1,
    seed: int = 0,
    query_ids=("Q1", "Q2", "Q3", "Q4"),
    base_scale: float = 0.5,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    cancel: Optional[CancelToken] = None,
) -> Tuple[Dict[str, Dict[float, Tuple[float, float]]], RunReport]:
    """Return ``({query: {scale: (min avg ratio, max avg ratio)}}, report)``.

    For each scale, the ratio is averaged per null rate and the reported
    range is over null rates — exactly how Table 1 summarises Figure 4's
    data at larger sizes.  ``base_scale`` maps "1 GB" onto a generator
    scale unit.  Each (scale, null rate) cell is one task of the
    fault-tolerant task runner, with the same ``workers``/
    ``task_timeout``/``retries``/``backoff``/``checkpoint``/``cancel``
    semantics and cold timings as
    :func:`~repro.experiments.performance.run_price_of_correctness`
    (failures land in ``report.failed_instances`` keyed
    ``"<scale>:<rate>"``).
    """
    scales = tuple(scales)
    null_rates = tuple(null_rates)
    query_ids = tuple(query_ids)
    cells = {
        f"{scale:g}:{rate:g}": (scale * base_scale, rate)
        for scale in scales
        for rate in null_rates
    }
    results, report = _measure_cells(
        cells, seed, query_ids, param_draws, repeats,
        workers=workers, task_timeout=task_timeout, retries=retries,
        backoff=backoff, checkpoint=checkpoint, cancel=cancel,
    )
    table: Dict[str, Dict[float, Tuple[float, float]]] = {q: {} for q in query_ids}
    for scale in scales:
        keys = (f"{scale:g}:{rate:g}" for rate in null_rates)
        at_scale = [results[key]["ratios"] for key in keys if key in results]
        for qid in query_ids:
            averages = [sum(r[qid]) / len(r[qid]) for r in at_scale if r[qid]]
            if averages:
                table[qid][scale] = (min(averages), max(averages))
    return table, report


def main(
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint: Optional[str] = None,
    cancel: Optional[CancelToken] = None,
) -> str:
    results, report = run_scaling_experiment(
        workers=workers,
        task_timeout=task_timeout,
        retries=retries,
        checkpoint=checkpoint,
        cancel=cancel,
    )
    scales = sorted({s for per in results.values() for s in per})
    header = ["Query"] + [f"{s:g}x" for s in scales]
    rows = []
    for qid in sorted(results):
        row = [qid]
        for s in scales:
            lo_hi = results[qid].get(s)
            row.append(
                "—" if lo_hi is None else f"{format_ratio(lo_hi[0])} – {format_ratio(lo_hi[1])}"
            )
        rows.append(row)
    text = render_table(
        "Table 1 — ranges of average relative performance (Q+ vs Q) per size",
        header,
        rows,
    )
    text += report.summary("cells", cancel)
    print(text)
    return text


if __name__ == "__main__":
    main()
