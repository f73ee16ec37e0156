"""Figure 4 — the price of correctness: t(Q+)/t(Q) per query.

Benchmarks the original and the automatically rewritten version of each
query on the same engine and instance (grouped per query so the
pytest-benchmark table shows the ratio), then regenerates the figure's
series and asserts the three behaviour classes of Section 7:

* Q1/Q3: overhead within a few percent;
* Q2: the rewriting is dramatically *faster* (short-circuit);
* Q4: the rewriting costs roughly 2–4x.
"""

import pytest

from repro.engine import execute_sql
from repro.experiments.performance import run_price_of_correctness
from repro.experiments.report import format_ratio, render_series


@pytest.mark.parametrize("qid", ["Q1", "Q2", "Q3", "Q4"])
class TestPerQuery:
    def test_original(self, benchmark, perf_db, compiled_queries, perf_params, qid):
        benchmark.group = f"figure4-{qid}"
        original, _auto, _hand, _unsplit = compiled_queries[qid]
        params = perf_params[qid]
        benchmark(lambda: execute_sql(perf_db, original, params))

    def test_rewritten(self, benchmark, perf_db, compiled_queries, perf_params, qid):
        benchmark.group = f"figure4-{qid}"
        _original, auto, _hand, _unsplit = compiled_queries[qid]
        params = perf_params[qid]
        benchmark(lambda: execute_sql(perf_db, auto, params))

    def test_appendix_rewrite(self, benchmark, perf_db, compiled_queries, perf_params, qid):
        benchmark.group = f"figure4-{qid}"
        _original, _auto, hand, _unsplit = compiled_queries[qid]
        params = perf_params[qid]
        benchmark(lambda: execute_sql(perf_db, hand, params))


def test_figure4_regeneration(benchmark):
    """Regenerate the Figure 4 series and check the behaviour classes."""

    def experiment():
        return run_price_of_correctness(
            null_rates=(0.01, 0.03, 0.05),
            scale=1.0,
            instances=2,
            param_draws=2,
            repeats=2,
            seed=11,
        )

    series, _report = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print()
    print(render_series(
        "Figure 4 — average relative performance t(Q+)/t(Q)",
        "null rate %",
        series,
        y_format=format_ratio,
    ))

    def avg(qid):
        ys = [y for _x, y in series[qid]]
        return sum(ys) / len(ys)

    assert avg("Q1") < 1.6          # small overhead (paper: ≤ 1.04)
    assert avg("Q3") < 1.6
    assert avg("Q2") < 0.6          # the correct query wins (paper: ~1e-3)
    assert 1.0 < avg("Q4") < 8.0    # the hard case (paper: 1.8–3.9)
