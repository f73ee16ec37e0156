"""Table 1 — ranges of relative performance across instance sizes.

Scale units 1x/3x/6x/10x stand in for the paper's 1/3/6/10 GB DBGen
instances.  The paper's finding: the ratio barely moves for Q1–Q3 and
*degrades* with size for Q4 (its rewriting has three extra subqueries
joining the biggest table).
"""

from repro.experiments.report import format_ratio, render_table
from repro.experiments.scaling import run_scaling_experiment


def test_table1_regeneration(benchmark):
    def experiment():
        return run_scaling_experiment(
            scales=(1.0, 3.0, 6.0, 10.0),
            null_rates=(0.01, 0.03, 0.05),
            param_draws=2,
            repeats=1,
            seed=5,
            base_scale=0.35,
        )

    table, _report = benchmark.pedantic(experiment, rounds=1, iterations=1)

    scales = sorted({s for per in table.values() for s in per})
    header = ["Query"] + [f"{s:g}x" for s in scales]
    rows = []
    for qid in sorted(table):
        row = [qid]
        for s in scales:
            lo, hi = table[qid][s]
            row.append(f"{format_ratio(lo)} – {format_ratio(hi)}")
        rows.append(row)
    print()
    print(render_table("Table 1 — ranges of average t(Q+)/t(Q) per size", header, rows))

    # Q1/Q3 stay in the same ballpark from the smallest to the largest size.
    for qid in ("Q1", "Q3"):
        lo_small, hi_small = table[qid][1.0]
        lo_big, hi_big = table[qid][10.0]
        assert hi_big < 4 * max(hi_small, 1.0)
    # Q2 wins at every size.
    assert all(hi < 1.0 for _lo, hi in table["Q2"].values())
    # Q4 pays at every size.
    assert all(hi > 1.0 for _lo, hi in table["Q4"].values())
