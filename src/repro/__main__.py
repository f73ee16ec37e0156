"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artefacts or apply the rewriter to
ad-hoc SQL against the TPC-H schema:

* ``figure1``  — false-positive percentages (Section 4, Figure 1)
* ``figure4``  — price of correctness (Section 7, Figure 4)
* ``table1``   — relative performance across sizes (Table 1)
* ``section5`` — Figure 2 vs Figure 3 feasibility
* ``recall``   — precision/recall of the rewritten queries
* ``rewrite``  — print the certain-answer rewriting ``Q+`` of a query
* ``explain``  — cost-annotated plan of a query on a generated instance
* ``lint``     — static soundness analysis of queries (see
  ``docs/analyzer.md``); exits 1 when any query is unsound

Every command exits 2 on a syntax, rewrite or engine error (for example
an unknown table), after printing it to stderr.

Each experiment accepts ``--paper-scale`` for settings closer to the
paper's (slower) and a ``--seed``.

``figure4`` and ``table1`` additionally take fault-tolerance flags,
handled by :mod:`repro.experiments.runner`:

* ``--workers N``      — fan instances out over a process pool;
* ``--task-timeout S`` — per-instance deadline in seconds (also the
  crash detector: a worker that dies never delivers its result);
* ``--retries K``      — re-submit a failed/timed-out instance up to K
  times with jittered backoff before recording it as failed;
* ``--checkpoint F``   — JSON file updated after every completed
  instance; re-running with the same file resumes, skipping completed
  instances;
* ``--time-budget S``  — whole-run wall-clock budget: a timer thread
  fires a :class:`~repro.engine.limits.CancelToken` after S seconds and
  the harness stops at the next instance boundary, printing the partial
  series (pair with ``--checkpoint`` to resume the remainder later).

Failed instances are reported per point instead of crashing the run.
"""

from __future__ import annotations

import argparse
import sys


def _armed_budget_token(args):
    """``(CancelToken, Timer)`` for ``--time-budget``, or ``(None, None)``.

    The timer thread fires the token; the harness notices at its next
    task boundary.  Caller must cancel the timer when the run finishes
    first.
    """
    if getattr(args, "time_budget", None) is None:
        return None, None
    import threading

    from repro.engine.limits import CancelToken

    token = CancelToken()
    timer = threading.Timer(
        args.time_budget,
        token.cancel,
        kwargs={"reason": f"--time-budget {args.time_budget:g}s expired"},
    )
    timer.daemon = True
    timer.start()
    return token, timer


def _cmd_figure1(args) -> int:
    from repro.experiments import falsepos

    falsepos.main(paper_scale=args.paper_scale)
    return 0


def _cmd_figure4(args) -> int:
    from repro.experiments import performance

    token, timer = _armed_budget_token(args)
    try:
        performance.main(
            workers=args.workers,
            task_timeout=args.task_timeout,
            retries=args.retries,
            checkpoint=args.checkpoint,
            cancel=token,
        )
    finally:
        if timer is not None:
            timer.cancel()
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments import scaling

    token, timer = _armed_budget_token(args)
    try:
        scaling.main(
            workers=args.workers,
            task_timeout=args.task_timeout,
            retries=args.retries,
            checkpoint=args.checkpoint,
            cancel=token,
        )
    finally:
        if timer is not None:
            timer.cancel()
    return 0


def _cmd_section5(args) -> int:
    from repro.experiments import infeasible

    infeasible.main()
    return 0


def _cmd_recall(args) -> int:
    from repro.experiments import recall

    recall.main()
    return 0


def _cmd_rewrite(args) -> int:
    from repro.sql.parser import parse_sql
    from repro.sql.printer import to_sql
    from repro.sql.rewrite import RewriteOptions, rewrite_certain
    from repro.tpch.schema import tpch_schema

    sql = args.sql or sys.stdin.read()
    options = RewriteOptions(
        split=args.split, fold_views=args.fold_views, union_views=not args.no_union_views
    )
    rewritten = rewrite_certain(parse_sql(sql), tpch_schema(), options)
    print(to_sql(rewritten))
    return 0


def _cmd_explain(args) -> int:
    import random

    from repro.engine import explain_sql
    from repro.tpch.dbgen import generate_instance
    from repro.tpch.nullify import inject_nulls
    from repro.tpch.queries import QUERIES, sample_parameters

    db = inject_nulls(
        generate_instance(scale=args.scale, seed=args.seed),
        args.null_rate,
        seed=args.seed + 1,
    )
    if args.sql in QUERIES:
        sql = QUERIES[args.sql][0]
        params = sample_parameters(args.sql, db, rng=random.Random(args.seed))
    else:
        sql = args.sql or sys.stdin.read()
        params = {}
    print(explain_sql(db, sql, params))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import UNSOUND, analyze_sql, render_json, render_pretty
    from repro.tpch.queries import QUERIES
    from repro.tpch.schema import tpch_schema

    schema = tpch_schema()
    named = []
    for item in args.queries or [None]:
        if item is not None and item.rstrip("+") in QUERIES:
            base = item.rstrip("+")
            sql = QUERIES[base][1 if item.endswith("+") else 0]
            named.append((item, sql))
        else:
            named.append(("<stdin>" if item is None else "<sql>", item or sys.stdin.read()))

    reports = [(name, analyze_sql(sql, schema)) for name, sql in named]
    if args.format == "json":
        if len(reports) == 1:
            print(render_json(reports[0][1], name=reports[0][0]))
        else:
            import json

            payload = []
            for name, report in reports:
                entry = report.to_dict()
                entry["query"] = name
                payload.append(entry)
            print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for i, (name, report) in enumerate(reports):
            if i:
                print()
            print(render_pretty(report, name=name))
    return 1 if any(report.verdict == UNSOUND for _, report in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Guagliardo & Libkin, PODS 2016",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, doc in [
        ("figure1", _cmd_figure1, "false-positive rates (Figure 1)"),
        ("figure4", _cmd_figure4, "price of correctness (Figure 4)"),
        ("table1", _cmd_table1, "scaling of the ratio (Table 1)"),
        ("section5", _cmd_section5, "Figure 2 infeasibility (Section 5)"),
        ("recall", _cmd_recall, "precision/recall (Section 7)"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument(
            "--paper-scale",
            action="store_true",
            help="use settings close to the paper's (much slower)",
        )
        if name in ("figure4", "table1"):
            p.add_argument(
                "--workers",
                type=int,
                default=None,
                help="parallelise instances over a process pool "
                "(default: serial, deterministic)",
            )
            p.add_argument(
                "--task-timeout",
                type=float,
                default=None,
                help="per-instance timeout in seconds; a crashed or hung "
                "worker is detected, retried, and finally recorded as a "
                "failed instance instead of sinking the run",
            )
            p.add_argument(
                "--retries",
                type=int,
                default=1,
                help="re-submissions per failed instance (jittered backoff)",
            )
            p.add_argument(
                "--checkpoint",
                metavar="FILE",
                default=None,
                help="JSON file updated after each completed instance; "
                "re-running with the same file resumes, skipping "
                "instances already measured",
            )
            p.add_argument(
                "--time-budget",
                type=float,
                default=None,
                metavar="S",
                help="whole-run wall-clock budget in seconds: a timer "
                "fires a CancelToken and the harness stops at the next "
                "instance boundary with partial results (combine with "
                "--checkpoint to resume later)",
            )
        p.set_defaults(handler=handler)

    p = sub.add_parser("rewrite", help="rewrite SQL into its certain-answer Q+")
    p.add_argument("sql", nargs="?", help="SQL text (stdin if omitted)")
    p.add_argument("--split", default="auto", choices=["never", "auto", "always"])
    p.add_argument("--fold-views", default="auto", choices=["never", "auto"])
    p.add_argument("--no-union-views", action="store_true")
    p.set_defaults(handler=_cmd_rewrite)

    p = sub.add_parser(
        "lint",
        help="static soundness analysis: certified / suspect / unsound",
        description=(
            "Analyze queries against the TPC-H schema with the static "
            "soundness analyzer (repro.analysis).  Arguments are query "
            "names (Q1..Q4, or Q1+..Q4+ for the rewritten versions) or "
            "literal SQL; with no argument, SQL is read from stdin.  "
            "Exit status: 0 when no query is unsound, 1 otherwise, 2 on "
            "syntax or rewrite errors."
        ),
    )
    p.add_argument("queries", nargs="*", help="query names (Q1..Q4, Q1+..Q4+) or SQL")
    p.add_argument("--format", default="pretty", choices=["pretty", "json"])
    p.set_defaults(handler=_cmd_lint)

    p = sub.add_parser("explain", help="EXPLAIN a query on a generated instance")
    p.add_argument("sql", nargs="?", help="SQL text, or Q1..Q4 (stdin if omitted)")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--null-rate", type=float, default=0.03)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_explain)

    return parser


def main(argv=None) -> int:
    from repro.engine.scope import EngineError
    from repro.sql.lexer import SqlSyntaxError
    from repro.sql.nullability import RewriteError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SqlSyntaxError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return 2
    except RewriteError as err:
        print(f"rewrite error: {err}", file=sys.stderr)
        for diag in err.diagnostics:
            print(f"  [{diag.rule}] {diag.message}", file=sys.stderr)
        return 2
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
