"""The benchmark's workloads: one process, one thread, one closed-loop client.

Each workload builds its inputs from the seed, sets up several times
(``setup_s`` is the median), then runs operations back to back until
``seconds`` of operation time have been measured.  Every operation's
output is checked outside the timed region; an operation that raises or
fails a check is counted in ``Run.failed``.

In a traced run, blocks of operations alternate between traced and
untraced, so one run yields both the per-layer figures and the tracing
overhead.  See ``WORKLOADS.md`` for why each workload exists and which
layers it loads or bypasses.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import traceback
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List

from repro.algebra import evaluate
from repro.certain import certain_answers_with_nulls, compare_answers
from repro.certain import bruteforce
from repro.data import Database, Null, Relation
from repro.engine import Executor, execute_sql, plan_cache_stats
from repro.engine.executor import PLAN_CACHE
from repro.experiments.infeasible import section6_example_query
from repro.fp.detectors import detector_for
from repro.sql import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch import (
    QUERIES,
    generate_instance,
    generate_small_instance,
    inject_nulls,
    sample_parameters,
    tpch_schema,
)
from repro.translate.improved import certain_query

from spans import NO_TRACER, Tracer

QIDS = ("Q1", "Q2", "Q3", "Q4")

#: ExecContext counters reported per statement in traced runs.
ENGINE_COUNTERS = (
    "rows_examined",
    "probe_build_rows",
    "probe_tables_built",
    "decorrelated_probes",
    "degradations",
    "table_bytes",
)


#: Times are reported at the machine speed at which :func:`reference_kernel`
#: takes this long.  On a shared 2-core machine the same operation's median
#: drifted by up to 1.5x between minutes, in CPU time as in wall time, and
#: bursts of a few seconds slowed single operations further; both swamp a
#: 25% regression bound.  Each time is scaled by the kernel timings taken
#: nearest to it, between operations of the same run.
REF_MS = 5.0
#: Seconds between reference-kernel samples.
REF_EVERY_S = 0.1
#: Kernel samples (nearest in time) that scale one measured time.
REF_NEAREST = 9

#: Null rate of the ``tpch_cold`` instance.
TPCH_NULL_RATE = 0.03
#: DataFiller scale of each ``recall_small`` instance (about 300 lineitems).
SMALL_SCALE = 0.05
#: ``cert_oracle`` constants are drawn from ``1..DOMAIN``.
DOMAIN = 3
#: ``cert_oracle`` times this many evaluations of Q+ and of Q per
#: operation: one takes about 0.2 ms, too short for a steady tail.
SIDE_REPEATS = 8


def reference_kernel() -> list:
    """Fixed pure-Python work of the program's kind: tuple-keyed dict
    inserts and a sort.  It runs no code of the program under test."""
    table = {}
    for i in range(4000):
        table[(i % 97, i)] = i * 7 % 11
    return sorted(table.items())


class Run:
    """What one workload run measured: samples, failures and the trace."""

    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.setup_s: List[float] = []
        self.setup_at: List[float] = []
        #: untraced samples in ms: "op", "certain", "sql", "poc.q1" …
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: when each "op"/"certain"/"sql" sample was recorded
        self.sample_at: List[float] = []
        #: op latencies of the traced blocks (tracing overhead)
        self.traced_op_ms: List[float] = []
        self.attempted = 0
        self.failed_ops: set = set()
        self.busy_s = 0.0
        #: instance and result sizes, printed with the metrics
        self.info: Dict[str, object] = {}
        self.errors: List[str] = []
        #: reference-kernel samples: when they ended, and how long they took
        self.ref_at: List[float] = []
        self.ref_ms: List[float] = []

    def traced(self, block: int) -> bool:
        """A traced run traces every other block of operations; the blocks
        in between measure the tracing overhead."""
        return self.tracer is not None and block % 2 == 1

    def tracer_for(self, op: str, block: int):
        if not self.traced(block):
            return NO_TRACER
        self.tracer.op = op
        return self.tracer

    def timed_setup(self, build: Callable, reps: int, freeze: bool = False):
        state = None
        for j in range(reps):
            state = None  # free the last set-up, so peak memory holds one
            # Each set-up starts from the same collector state; collections
            # its own allocations trigger still count.
            gc.collect()
            # Set-ups can be short: sample the kernel before each of them.
            self.tick(every=0.0)
            tr = self.tracer_for(f"setup{j}", 1)
            start = perf_counter()
            state = build(tr)
            self.setup_at.append(perf_counter())
            self.setup_s.append(self.setup_at[-1] - start)
        if freeze:
            # The inputs live for the whole run: keep them out of the cyclic
            # collector, so its pauses scale with each operation's own
            # garbage rather than with the size of the input pool.
            gc.collect()
            gc.freeze()
        return state

    def tick(self, every: float = REF_EVERY_S) -> None:
        """Between operations: time the reference kernel now and then."""
        if self.ref_at and perf_counter() - self.ref_at[-1] < every:
            return
        # With the collector off, the kernel's time reflects the machine's
        # speed and not the program's heap or garbage.
        gc.collect(0)
        gc.disable()
        try:
            start = perf_counter()
            reference_kernel()
            self.ref_at.append(perf_counter())
        finally:
            gc.enable()
        self.ref_ms.append((self.ref_at[-1] - start) * 1e3)

    @property
    def speed(self) -> float:
        """Factor that scales this run's times to the reference speed."""
        return REF_MS / statistics.median(self.ref_ms)

    def speed_at(self, when: float) -> float:
        """The same factor from the kernel samples nearest to *when*."""
        i = bisect.bisect_left(self.ref_at, when)
        lo = max(0, min(i - REF_NEAREST // 2, len(self.ref_at) - REF_NEAREST))
        return REF_MS / statistics.median(self.ref_ms[lo:lo + REF_NEAREST])

    def scaled(self, name: str) -> List[float]:
        """Untraced samples of *name*, each at the reference speed."""
        return [v * self.speed_at(t) for v, t in zip(self.samples[name], self.sample_at)]

    def scaled_setup_s(self) -> List[float]:
        return [v * self.speed_at(t) for v, t in zip(self.setup_s, self.setup_at)]

    def record(self, traced: bool, op_ms: float, **parts: float) -> None:
        if traced:
            self.traced_op_ms.append(op_ms)
            return
        self.sample_at.append(perf_counter())
        self.samples["op"].append(op_ms)
        for name, ms in parts.items():
            self.samples[name].append(ms)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: str, message: str) -> None:
        """Count *op* as failed (once, however many checks it fails)."""
        if op not in self.failed_ops and len(self.errors) < 5:
            self.errors.append(f"{op}: {message}")
        self.failed_ops.add(op)


def _signature(rows) -> tuple:
    """Order-independent fingerprint of a bag of rows."""
    return len(rows), hash(frozenset(Counter(rows).items()))


def _engine_counts(tr, stmt: str, ctx, rows_out: int) -> None:
    for name in ENGINE_COUNTERS:
        tr.count(f"engine.{name}.{stmt}", getattr(ctx, name))
    lookups = ctx.probe_cache_hits + ctx.probe_cache_misses
    tr.count(f"engine.probe_hit_ratio.{stmt}", ctx.probe_cache_hits / lookups if lookups else 0.0)
    tr.count(f"engine.rows_out.{stmt}", rows_out)


def _warm_rerun(tr, stmt: str, prepared) -> None:
    """Second ``run()`` of a prepared statement: indexes, probe tables and
    memos are reused, so ``cold - warm`` is the build share."""
    with tr.span(f"engine.run_warm.{stmt}"):
        prepared.run()


# ----------------------------------------------------------------------
# tpch_cold


def tpch_cold(seed: int, seconds: float, run: Run, scale: float = 10.0,
              draws: int = 4, setups: int = 5) -> None:
    """Cold Q1–Q4 and Q1+–Q4+ on one TPC-H instance.

    One operation is one statement: a fresh ``Executor``, ``prepare()``
    and ``run()``, so every runtime cache starts empty.  Statements run
    in rounds of eight; round ``r`` uses parameter draw ``r % draws``,
    so each (statement, draw) repeats and every cold repeat can be
    checked for identical work.
    """
    schema = tpch_schema()

    def build(tr):
        rng = random.Random(seed)
        with tr.span("tpch.generate"):
            base = generate_instance(scale=scale, seed=rng.randrange(2**31))
        with tr.span("tpch.nullify"):
            db = inject_nulls(base, TPCH_NULL_RATE, seed=rng.randrange(2**31))
        queries = {}
        for qid in QIDS:
            sql, appendix_sql, _names = QUERIES[qid]
            with tr.span("sql.parse"):
                original = parse_sql(sql)
            with tr.span("sql.rewrite"):
                plus = rewrite_certain(original, schema)
            with tr.span("sql.parse"):
                appendix = parse_sql(appendix_sql)
            params = [sample_parameters(qid, db, rng=rng) for _ in range(draws)]
            queries[qid] = (original, plus, appendix, params)
        return db, queries

    db, queries = run.timed_setup(build, setups)
    run.info["instance"] = {t: len(db[t]) for t in ("lineitem", "orders", "part", "supplier")}
    rows_out: Dict[str, set] = defaultdict(set)
    first_seen: Dict[tuple, tuple] = {}
    checked = set()

    r = 0
    while run.busy_s < seconds:
        d = r % draws
        round_ms = {"sql": 0.0, "certain": 0.0}
        poc = {}
        ok = True  # every statement of the round ran
        for qid in QIDS:
            original, plus, appendix, param_draws = queries[qid]
            params = param_draws[d]
            results = {}
            for kind, stmt, query in (("sql", qid.lower(), original),
                                      ("certain", qid.lower() + "_plus", plus)):
                op = f"r{r}.{stmt}"
                tr = run.tracer_for(op, r // draws)
                run.attempted += 1
                try:
                    start = perf_counter()
                    with tr.span(f"engine.prepare.{stmt}"):
                        executor = Executor(db, params)
                        prepared = executor.prepare(query)
                    with tr.span(f"engine.run_cold.{stmt}"):
                        rows = prepared.run().rows
                    elapsed = perf_counter() - start
                except Exception:
                    run.busy_s += perf_counter() - start
                    run.fail(op, traceback.format_exc(limit=3))
                    ok = False
                    continue
                run.busy_s += elapsed
                round_ms[kind] += elapsed * 1e3
                results[kind] = (rows, elapsed)
                rows_out[stmt].add(len(rows))
                # Every cold repeat of one statement on one draw must do the
                # same work and return the same rows.
                sig = (executor.ctx.rows_examined, _signature(rows))
                if first_seen.setdefault((stmt, d), sig) != sig:
                    run.fail(op, f"cold repeat differs from first run: {sig} != {first_seen[(stmt, d)]}")
                if tr.enabled:
                    _engine_counts(tr, stmt, executor.ctx, len(rows))
                    _warm_rerun(tr, stmt, prepared)
                run.tick()
            if len(results) < 2:
                continue
            poc[qid] = results["certain"][1] / results["sql"][1]
            if (qid, d) not in checked:
                checked.add((qid, d))
                try:
                    problem = _check_tpch(db, qid, params, appendix, results["sql"][0], results["certain"][0])
                except Exception:
                    problem = traceback.format_exc(limit=3)
                if problem:
                    run.fail(f"r{r}.{qid.lower()}_plus", problem)
        if ok:
            run.record(run.traced(r // draws), round_ms["sql"] + round_ms["certain"], **round_ms)
            for qid, ratio in poc.items():
                run.samples[f"poc.{qid.lower()}"].append(ratio)
        r += 1
    run.info["rows_out"] = {s: sorted(v) for s, v in rows_out.items()}
    run.info["rounds"] = r


def _check_tpch(db, qid, params, appendix, sql_rows, plus_rows) -> str:
    if not set(plus_rows) <= set(sql_rows):
        return "Q+ returned a row Q did not"
    detect = detector_for(qid)
    if any(detect(params, db, row) for row in plus_rows):
        return "Q+ returned a detected false positive"
    appendix_rows = Executor(db, params).execute(appendix).rows
    if Counter(appendix_rows) != Counter(plus_rows):
        return "automatic Q+ differs from the appendix Q+"
    return ""


# ----------------------------------------------------------------------
# recall_small


def recall_small(seed: int, seconds: float, run: Run, pool: int = 20,
                 setups: int = 9) -> None:
    """The Figure 1 / Section 7 flow on small DataFiller instances.

    One operation runs, for each of Q1–Q4 on one pooled instance:
    ``parse_sql``, ``rewrite_certain``, ``execute_sql(Q+)``,
    ``execute_sql(Q text)`` through the plan cache, the Section 4
    detector and ``compare_answers``.  Summing the four queries keeps the
    median off the boundary between cheap and expensive queries.
    """
    schema = tpch_schema()

    def build(tr):
        rng = random.Random(seed)
        instances = []
        for i in range(pool):
            with tr.span("tpch.generate"):
                base = generate_small_instance(scale=SMALL_SCALE, seed=rng.randrange(2**31))
            with tr.span("tpch.nullify"):
                rate = 0.01 + 0.09 * i / max(1, pool - 1)
                instances.append(inject_nulls(base, rate, seed=rng.randrange(2**31)))
        for qid in QIDS:
            with tr.span("sql.parse"):
                original = parse_sql(QUERIES[qid][0])
            with tr.span("sql.rewrite"):
                rewrite_certain(original, schema)
        return instances

    instances = run.timed_setup(build, setups, freeze=True)
    run.info["instance"] = {"instances": pool, "lineitem": len(instances[0]["lineitem"])}
    rows_out: Dict[str, List[int]] = defaultdict(list)
    rng = random.Random(seed + 1)
    cache_before = plan_cache_stats()

    i = 0
    while run.busy_s < seconds:
        db = instances[i % pool]
        params = {qid: sample_parameters(qid, db, rng=rng) for qid in QIDS}
        op = f"op{i}"
        tr = run.tracer_for(op, i // pool)
        run.attempted += 1
        answers = {}
        prepared = []
        certain_ms = sql_ms = 0.0
        poc = {}
        try:
            start = perf_counter()
            for qid in QIDS:
                text, stmt = QUERIES[qid][0], qid.lower()
                with tr.span("sql.parse"):
                    original = parse_sql(text)
                with tr.span("sql.rewrite"):
                    plus = rewrite_certain(original, schema)
                t0 = perf_counter()
                plus_rows = _execute(tr, db, plus, params[qid], stmt + "_plus", prepared)
                t1 = perf_counter()
                sql_rows = _execute(tr, db, text, params[qid], stmt, prepared)
                t2 = perf_counter()
                certain_ms += (t1 - t0) * 1e3
                sql_ms += (t2 - t1) * 1e3
                poc[stmt] = (t1 - t0) / (t2 - t1)
                detect = detector_for(qid)
                with tr.span("fp.detect"):
                    flagged = [row for row in sql_rows if detect(params[qid], db, row)]
                compare_answers(sql_rows, plus_rows, flagged)
                answers[qid] = (plus_rows, sql_rows)
            elapsed = perf_counter() - start
        except Exception:
            run.busy_s += perf_counter() - start
            run.fail(op, traceback.format_exc(limit=3))
            i += 1
            continue
        run.busy_s += elapsed
        run.record(tr.enabled, elapsed * 1e3, certain=certain_ms, sql=sql_ms)
        for stmt, ratio in poc.items():
            run.samples[f"poc.{stmt}"].append(ratio)
        for stmt, executor, pq, n_rows in prepared:
            _engine_counts(tr, stmt, executor.ctx, n_rows)
            _warm_rerun(tr, stmt, pq)
        for qid, (plus_rows, sql_rows) in answers.items():
            rows_out[qid.lower() + "_plus"].append(len(plus_rows))
            rows_out[qid.lower()].append(len(sql_rows))
            detect = detector_for(qid)
            if any(detect(params[qid], db, row) for row in plus_rows):
                run.fail(op, f"{qid}+ returned a detected false positive")
                break
        run.tick()
        i += 1

    cache_after = plan_cache_stats()
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    run.info["plan_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    run.info["rows_out"] = {s: [min(v), max(v)] for s, v in sorted(rows_out.items())}


def _execute(tr, db, query, params, stmt, prepared) -> list:
    """``execute_sql``; traced, the same steps split into spans."""
    if not tr.enabled:
        return execute_sql(db, query, params).rows
    if isinstance(query, str):
        with tr.span("engine.plan_cache"):
            query = PLAN_CACHE.get_or_parse(query, False)
    with tr.span(f"engine.prepare.{stmt}"):
        executor = Executor(db, params)
        pq = executor.prepare(query)
    with tr.span(f"engine.run_cold.{stmt}"):
        rows = pq.run().rows
    prepared.append((stmt, executor, pq, len(rows)))
    return rows


# ----------------------------------------------------------------------
# cert_oracle


def rst_instance(rng: random.Random, nulls: int) -> Database:
    """R(A,B), S(A,B,C), T(A,B,C) with 5–8 rows each over ``1..DOMAIN``
    and exactly ``nulls`` nulls at seeded positions.

    The search enumerates ``(|Const| + nulls) ** nulls`` worlds, so the
    null count is fixed to keep operations alike in cost."""
    widths = {"R": ("A", "B"), "S": ("A", "B", "C"), "T": ("A", "B", "C")}
    sizes = {name: rng.randint(5, 8) for name in widths}
    cells = [(n, i, j) for n, attrs in widths.items() for i in range(sizes[n]) for j in range(len(attrs))]
    null_cells = set(rng.sample(cells, nulls))
    return Database({
        name: Relation(attrs, [
            tuple(Null() if (name, i, j) in null_cells else rng.randint(1, DOMAIN)
                  for j in range(len(attrs)))
            for i in range(sizes[name])
        ])
        for name, attrs in widths.items()
    })


def cert_oracle(seed: int, seconds: float, run: Run, nulls: int = 4,
                pool: int = 512, setups: int = 15) -> None:
    """Exact ``cert(Q, D)`` for the Section 6 query ``R − (π(T) − σ(S))``.

    One operation is one ``certain_answers_with_nulls`` search run to
    completion.  Each operation also times ``SIDE_REPEATS`` runs of
    ``Q+ = certain_query(Q)`` evaluated naively (``certain``) and as many
    of ``Q`` under SQL semantics (``sql``), outside the operation's own
    time.
    """
    query = section6_example_query()

    def build(tr):
        rng = random.Random(seed)
        instances = [rst_instance(rng, nulls) for _ in range(pool)]
        with tr.span("translate.qplus"):
            certain_query(query)
        return instances

    instances = run.timed_setup(build, setups)
    run.info["instance"] = {"instances": pool, "nulls": nulls, "rows": "5-8 per relation"}
    rows_out: Dict[str, List[int]] = defaultdict(list)

    i = 0
    while run.busy_s < seconds:
        db = instances[i % pool]
        op = f"op{i}"
        tr = run.tracer_for(op, i // 8)
        run.attempted += 1
        try:
            start = perf_counter()
            with tr.span("certain.search"):
                cert = certain_answers_with_nulls(query, db)
            elapsed = perf_counter() - start
            stats = bruteforce.LAST_SEARCH
            t0 = perf_counter()
            for _ in range(SIDE_REPEATS):
                with tr.span("translate.qplus"):
                    q_plus = certain_query(query)
                with tr.span("algebra.eval_qplus"):
                    plus = evaluate(q_plus, db, semantics="naive")
            t1 = perf_counter()
            for _ in range(SIDE_REPEATS):
                with tr.span("algebra.eval_sql"):
                    evaluate(query, db, semantics="sql")
            t2 = perf_counter()
        except Exception:
            run.busy_s += perf_counter() - start
            run.fail(op, traceback.format_exc(limit=3))
            i += 1
            continue
        run.busy_s += elapsed
        run.record(tr.enabled, elapsed * 1e3, certain=(t1 - t0) * 1e3, sql=(t2 - t1) * 1e3)
        rows_out["cert"].append(len(cert))
        rows_out["q_plus"].append(len(plus))
        tr.count("certain.world_eval_ms", stats.world_elapsed * 1e3)
        tr.count("certain.search_ms", (stats.elapsed - stats.world_elapsed) * 1e3)
        for name in ("world_checks", "candidates_considered", "sample_refuted", "score_probes", "emitted"):
            tr.count(f"certain.{name}", getattr(stats, name))
        considered = stats.candidates_considered
        tr.count("certain.refute_ratio", stats.sample_refuted / considered if considered else 0.0)
        # Theorem 1: Q+ evaluated naively returns only certain answers.
        if not stats.complete:
            run.fail(op, "search did not complete")
        elif not set(plus.rows) <= set(cert.rows):
            run.fail(op, "Q+ returned a tuple outside cert(Q, D)")
        run.tick()
        i += 1
    run.info["rows_out"] = {s: [min(v), max(v)] for s, v in rows_out.items()}


WORKLOADS = {
    "tpch_cold": tpch_cold,
    "recall_small": recall_small,
    "cert_oracle": cert_oracle,
}
