"""Compiled-engine mechanics: metamorphic properties and pinned shapes.

* a run capped by ``ResourceLimits`` degrades (abandons a probe table
  or hash index) but returns the same rows as an uncapped run;
* on instances whose nulls carry pairwise-distinct labels, marked-null
  evaluation returns the same rows as standard 3VL — the oracle for
  ``marked_nulls=True`` (the label-match cases live in
  ``test_marked_nulls.py``);
* IN-list partitioning, byte-budget degradation, limits invalidation
  and join order / EXPLAIN, pinned on hand-built instances.

The engine's standard 3VL itself is checked against sqlite3
(``test_vs_sqlite.py``) and the algebra evaluator
(``test_vs_algebra_property.py``).
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data import Database, Null, Relation
from repro.engine import ResourceLimits
from repro.engine.executor import Executor
from repro.sql.parser import parse_sql
from repro.testing import gen

random_db = functools.partial(
    gen.random_db, tables=gen.RST, values=(1, 2, 3), null_rate=0.25, rows=(1, 6)
)


def run_mode(db, sql, marked=False, limits=None):
    executor = Executor(db, marked_nulls=marked, limits=limits)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


# No template compares a cell with itself (``a = a`` is TRUE on a null
# under marked nulls), so with fresh Codd nulls every one qualifies.
@pytest.mark.parametrize("template_index", range(len(gen.TEMPLATES)))
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3), d=st.integers(1, 3))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_marked_nulls_match_standard_on_distinct_labels(template_index, seed, c, d):
    sql = gen.TEMPLATES[template_index].format(c=c, d=d)
    db = random_db(random.Random(seed))
    marked, _ = run_mode(db, sql, marked=True)
    standard, _ = run_mode(db, sql)
    assert marked.attributes == standard.attributes, sql
    assert marked.rows == standard.rows, sql  # includes row order


@given(seed=st.integers(0, 3_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_capped_run_matches_uncapped_under_build_row_cap(seed):
    """A tiny probe-build budget degrades without changing the rows."""
    db = random_db(random.Random(seed))
    sql = "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)"
    capped, _ = run_mode(db, sql, limits=ResourceLimits(max_probe_build_rows=1))
    uncapped, _ = run_mode(db, sql)
    assert capped.rows == uncapped.rows


@given(seed=st.integers(0, 3_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_capped_run_matches_uncapped_under_byte_cap(seed):
    """A tiny table-byte budget degrades without changing the rows."""
    db = random_db(random.Random(seed))
    sql = (
        "SELECT r.a FROM r, s WHERE r.a = s.c "
        "AND EXISTS (SELECT * FROM t WHERE t.e = r.b)"
    )
    capped, _ = run_mode(db, sql, limits=ResourceLimits(max_probe_table_bytes=1))
    uncapped, _ = run_mode(db, sql)
    assert capped.rows == uncapped.rows


class TestInListPartition:
    """``_InValues`` pre-partitions constants into a hash set + residual.

    The fixture's nulls carry distinct labels, so the shared cases give
    the same rows under standard 3VL and marked nulls.
    """

    @pytest.fixture()
    def db(self):
        return Database(
            {"r": Relation(("a", "b"), [(1, 2), (Null(), 3), (2, Null()), (4, 4)])}
        )

    @pytest.mark.parametrize("marked", [False, True])
    def test_membership_basics(self, db, marked):
        result, _ = run_mode(db, "SELECT a FROM r WHERE a IN (1, 2)", marked=marked)
        assert result.rows == [(1,), (2,)]

    @pytest.mark.parametrize("marked", [False, True])
    def test_null_in_list_makes_misses_unknown(self, db, marked):
        # a NOT IN (1, NULL): misses compare UNKNOWN against the null
        # constant, so nothing survives the negation.
        executor = Executor(db, {"p": Null()}, marked_nulls=marked)
        result = executor.execute(
            parse_sql("SELECT a FROM r WHERE a NOT IN (1, $p)")
        )
        assert result.rows == []

    @pytest.mark.parametrize("marked", [False, True])
    def test_null_probe_is_unknown(self, db, marked):
        result, _ = run_mode(
            db, "SELECT a FROM r WHERE a NOT IN (5, 6)", marked=marked
        )
        # The null probe row is UNKNOWN (not TRUE), others pass.
        assert result.rows == [(1,), (2,), (4,)]

    @pytest.mark.parametrize("marked", [False, True])
    def test_list_valued_params_flatten(self, db, marked):
        executor = Executor(db, {"lst": [1, 4]}, marked_nulls=marked)
        result = executor.execute(parse_sql("SELECT a FROM r WHERE a IN ($lst)"))
        assert result.rows == [(1,), (4,)]

    def test_marked_null_const_matches_by_label(self, db):
        n = Null("m")
        db2 = Database({"r": Relation(("a",), [(n,), (Null("k"),), (1,)])})
        executor = Executor(db2, {"p": n}, marked_nulls=True)
        result = executor.execute(parse_sql("SELECT a FROM r WHERE a IN ($p)"))
        assert result.rows == [(n,)]


class TestByteBudgetDegradation:
    def _db(self):
        rows_r = [(i % 50, i % 7) for i in range(300)]
        rows_s = [(i % 50, i % 11) for i in range(300)]
        return Database(
            {
                "r": Relation(("a", "b"), rows_r),
                "s": Relation(("c", "d"), rows_s),
            }
        )

    def test_equi_index_degrades_to_linear_probing(self):
        db = self._db()
        sql = "SELECT r.a FROM r, s WHERE r.a = s.c AND r.b = 1"
        unlimited, _ = run_mode(db, sql)
        capped, ctx = run_mode(
            db, sql, limits=ResourceLimits(max_probe_table_bytes=1)
        )
        assert ctx.degradations > 0
        assert ctx.table_bytes == 0  # nothing was allowed to materialise
        assert capped.rows == unlimited.rows

    def test_probe_table_degrades_to_memoized_probing(self):
        db = self._db()
        sql = "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)"
        unlimited, ctx_u = run_mode(db, sql)
        assert ctx_u.decorrelated_probes > 0  # the fast path was in play
        capped, ctx = run_mode(
            db, sql, limits=ResourceLimits(max_probe_table_bytes=1)
        )
        assert ctx.degradations > 0
        assert ctx.decorrelated_probes == 0
        assert capped.rows == unlimited.rows

    def test_generous_budget_does_not_degrade(self):
        db = self._db()
        sql = "SELECT r.a FROM r, s WHERE r.a = s.c AND r.b = 1"
        _, ctx = run_mode(
            db, sql, limits=ResourceLimits(max_probe_table_bytes=1 << 30)
        )
        assert ctx.degradations == 0
        assert ctx.table_bytes > 0


class TestLimitsInvalidation:
    def _db(self):
        rows_r = [(i % 50, i % 7) for i in range(200)]
        rows_s = [(i % 50, i % 11) for i in range(200)]
        return Database(
            {
                "r": Relation(("a", "b"), rows_r),
                "s": Relation(("c", "d"), rows_s),
            }
        )

    def test_prepare_with_new_limits_replans(self):
        db = self._db()
        query = parse_sql(
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)"
        )
        executor = Executor(db)
        baseline = executor.prepare(query).run()
        assert executor.ctx.decorrelated_probes > 0
        assert executor.ctx.degradations == 0

        # Tighten: the already-built probe table baked in the old limits,
        # so prepare(limits=...) must drop it and degrade on the rerun.
        capped = executor.prepare(
            query, limits=ResourceLimits(max_probe_build_rows=1)
        ).run()
        assert executor.ctx.degradations > 0
        assert capped.rows == baseline.rows

        # Relax back to unlimited: decorrelation comes back.
        before = executor.ctx.decorrelated_probes
        relaxed = executor.prepare(query, limits=None).run()
        assert executor.ctx.decorrelated_probes > before
        assert relaxed.rows == baseline.rows

    def test_equal_limits_are_a_noop(self):
        db = self._db()
        query = parse_sql("SELECT r.a FROM r, s WHERE r.a = s.c AND r.b = 1")
        limits = ResourceLimits(max_probe_table_bytes=1 << 30)
        executor = Executor(db, limits=limits)
        executor.prepare(query).run()
        bytes_before = executor.ctx.table_bytes
        assert bytes_before > 0
        # Same caps (a fresh but equal dataclass): state must survive.
        executor.prepare(query, limits=ResourceLimits(max_probe_table_bytes=1 << 30))
        assert executor.ctx.table_bytes == bytes_before


class TestJoinOrderAndExplain:
    def test_small_filtered_side_drives_first(self):
        rows_r = [(i, i % 3) for i in range(100)]
        rows_s = [(i, i % 5) for i in range(4)]
        db = Database(
            {
                "r": Relation(("a", "b"), rows_r),
                "s": Relation(("c", "d"), rows_s),
            }
        )
        executor = Executor(db)
        prepared = executor.prepare(
            parse_sql("SELECT r.a FROM r, s WHERE r.a = s.c")
        )
        prepared.run()
        plan = prepared.explain()
        scan_pos = plan.find("scan s")
        probe_pos = plan.find("hash probe r")
        assert scan_pos != -1 and probe_pos != -1, plan
        assert scan_pos < probe_pos, plan

    def test_explain_reports_estimates_and_actuals(self):
        db = Database(
            {
                "r": Relation(("a", "b"), [(1, 1), (2, 2)]),
                "s": Relation(("c", "d"), [(1, 1)]),
            }
        )
        executor = Executor(db)
        prepared = executor.prepare(
            parse_sql("SELECT r.a FROM r, s WHERE r.a = s.c")
        )
        before = prepared.explain()
        assert "[order est≈" in before
        prepared.run()
        after = prepared.explain()
        assert "actual" in after

    def test_explain_before_run_keeps_decorrelation(self):
        # explain() prepares inner blocks; that must not silently disable
        # hash decorrelation for the subsequent run.
        rows_r = [(i % 20, i % 7) for i in range(100)]
        rows_s = [(i % 20, i % 11) for i in range(100)]
        db = Database(
            {
                "r": Relation(("a", "b"), rows_r),
                "s": Relation(("c", "d"), rows_s),
            }
        )
        executor = Executor(db)
        prepared = executor.prepare(
            parse_sql(
                "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)"
            )
        )
        prepared.explain()
        prepared.run()
        assert executor.ctx.decorrelated_probes > 0

    def test_single_table_keeps_streaming_order(self):
        db = Database({"r": Relation(("a", "b"), [(3, 1), (1, 2), (2, 3)])})
        result, _ = run_mode(db, "SELECT a FROM r WHERE a >= 1")
        assert result.rows == [(3,), (1,), (2,)]  # source order preserved
