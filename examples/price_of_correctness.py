"""The price of correctness: timing original vs rewritten queries.

A condensed version of the Section 7 experiment: run Q1–Q4 and their
certain-answer rewritings on a DBGen-style instance and report the
relative performance ``t(Q+)/t(Q)``.  Every timing is cold: the best of
a few runs, each on a fresh executor with no index or cache left over
from an earlier run.  Also demonstrates the optimizer
story with EXPLAIN: the unsplit ``Q+4`` plan carries nested loops and an
astronomical cost estimate, which disjunction splitting + views repair.

Run:  python examples/price_of_correctness.py
"""

import random

from repro import RewriteOptions, certain_rewrite, explain_sql, parse_sql
from repro.experiments.performance import time_query
from repro.tpch import (
    QUERIES,
    generate_instance,
    inject_nulls,
    sample_parameters,
    tpch_schema,
)


def main() -> None:
    rng = random.Random(42)
    schema = tpch_schema()
    db = inject_nulls(generate_instance(scale=1.0, seed=7), 0.03, seed=8)

    print("Relative cold performance t(Q+)/t(Q) at null rate 3% (scale unit 1):\n")
    for qid in ("Q1", "Q2", "Q3", "Q4"):
        original_sql, _appendix, _names = QUERIES[qid]
        original = parse_sql(original_sql)
        plus = certain_rewrite(original, schema)
        params = sample_parameters(qid, db, rng=rng)
        t_orig, n_orig = time_query(db, original, params, repeats=3)
        t_plus, n_plus = time_query(db, plus, params, repeats=3)
        ratio = t_plus / t_orig if t_orig else float("nan")
        print(
            f"  {qid}: t={t_orig * 1000:7.1f} ms ({n_orig} rows)   "
            f"t+={t_plus * 1000:7.1f} ms ({n_plus} rows)   ratio={ratio:.3f}"
        )

    print("\n--- the optimizer story (Section 7, Q4) ---\n")
    params = sample_parameters("Q4", db, rng=rng)
    q4 = parse_sql(QUERIES["Q4"][0])
    unsplit = certain_rewrite(q4, schema, RewriteOptions(split="never", fold_views="never"))
    split = certain_rewrite(q4, schema)

    print("EXPLAIN for the naive (unsplit) Q+4 — note the nested loops:\n")
    print(explain_sql(db, unsplit, params))
    print("\nEXPLAIN for the split Q+4 with views — hash probes restored:\n")
    print(explain_sql(db, split, params))

    t_unsplit, _ = time_query(db, unsplit, params, repeats=1)
    t_split, _ = time_query(db, split, params, repeats=1)
    print(
        f"\nmeasured: unsplit Q+4 = {t_unsplit * 1000:.1f} ms, "
        f"split Q+4 = {t_split * 1000:.1f} ms "
        f"({t_unsplit / max(t_split, 1e-9):.1f}x slower without the tuning)"
    )


if __name__ == "__main__":
    main()
