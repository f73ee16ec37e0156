"""Hash-index builds poll the governor per row only when governed.

``CompiledBlock._index`` builds one equi-join index over a source's
filtered rows.  A governed build calls :meth:`LimitGovernor.check` once
per row, null-keyed rows included, so deadlines and cancel tokens fire
at the same cadence inside a long build as in the join pipeline; an
ungoverned build never reaches the governor.  A finished statement's
indexes and probe tables are freed by reference counting, without
waiting for the cyclic collector.
"""

import gc
import weakref

import pytest

from repro.data import Database, Null, Relation
from repro.engine import CancelToken, QueryCancelled, ResourceLimits
from repro.engine import blocks
from repro.engine.executor import Executor
from repro.engine.limits import CHECK_INTERVAL, LimitGovernor
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch.queries import QUERIES, sample_parameters

N = 3000


def _db():
    """A large ``r`` (every tenth key null) joined to a small ``s``."""
    r_rows = [(Null() if i % 10 == 0 else i % 500, i) for i in range(N)]
    s_rows = [(k,) for k in range(5)]
    return Database({"r": Relation(("a", "b"), r_rows), "s": Relation(("a",), s_rows)})


def _planned_block(db, limits, where=""):
    executor = Executor(db, limits=limits)
    executor.prepare(parse_sql(f"SELECT r.b FROM r, s WHERE r.a = s.a{where}"))
    (block,) = executor.ctx._blocks
    block._prepare(env_available=False)
    assert block._order[1][0] == "r"  # s first, then probe r's index
    return block


@pytest.fixture
def governor_calls(monkeypatch):
    calls = []
    original = LimitGovernor.check

    def counting(self, rows_consumed):
        calls.append(rows_consumed)
        return original(self, rows_consumed)

    monkeypatch.setattr(LimitGovernor, "check", counting)
    return calls


@pytest.mark.parametrize("columns", [("a",), ("a", "b")])
def test_governed_build_checks_every_row(columns, governor_calls):
    block = _planned_block(_db(), ResourceLimits(deadline_seconds=60.0))
    rows = block._get_filtered("r")
    governor_calls.clear()
    index = block._index("r", columns)
    assert len(governor_calls) == len(rows) == N
    assert sum(len(bucket) for bucket in index.values()) == N - N // 10


@pytest.mark.parametrize("columns", [("a",), ("a", "b")])
def test_ungoverned_build_never_polls(columns, governor_calls, monkeypatch):
    block = _planned_block(_db(), None)
    block._get_filtered("r")
    polls = []
    monkeypatch.setattr(block.ctx, "check", lambda: polls.append(1))
    index = block._index("r", columns)
    assert governor_calls == [] and polls == []
    assert sum(len(bucket) for bucket in index.values()) == N - N // 10


class _CancelAfterScan(list):
    """Rows that fire *token* once the filter pass has read every row."""

    def __init__(self, rows, token):
        super().__init__(rows)
        self._token = token
        self._reads = 0

    def __getitem__(self, i):
        self._reads += 1
        if self._reads == len(self):
            self._token.cancel("filter pass done")
        return super().__getitem__(i)


class _Rows:
    __slots__ = ("attributes", "rows")

    def __init__(self, relation, token):
        self.attributes = relation.attributes
        self.rows = _CancelAfterScan(relation.rows, token)


def test_cancel_token_stops_a_large_build(governor_calls, monkeypatch):
    """The token fires between the filter pass over ``r`` and the index
    build; the build stops within one check interval, uncached."""
    db = _db()
    token = CancelToken()

    def hook(name, relation):
        return _Rows(relation, token) if name == "r" else relation

    monkeypatch.setattr(blocks, "SCAN_FAULT_HOOK", hook)
    executor = Executor(db, limits=ResourceLimits(cancel=token))
    prepared = executor.prepare(
        parse_sql("SELECT r.b FROM r, s WHERE r.a = s.a AND r.b >= 0")
    )
    with pytest.raises(QueryCancelled, match="filter pass done"):
        prepared.run()
    (block,) = executor.ctx._blocks
    assert token.cancelled
    assert ("r", ("a",)) not in block._indexes
    assert len(governor_calls) <= 2 * CHECK_INTERVAL < N


@pytest.mark.parametrize("qid", ["Q1", "Q2", "Q3", "Q4"])
@pytest.mark.parametrize("plus", [False, True])
def test_finished_statement_is_freed_without_the_collector(
    qid, plus, tpch_nulls, schema
):
    query = parse_sql(QUERIES[qid][0])
    if plus:
        query = rewrite_certain(query, schema)
    params = sample_parameters(qid, tpch_nulls, seed=1)
    gc.disable()
    try:
        executor = Executor(tpch_nulls, params)
        executor.execute(query)
        compiled = [weakref.ref(block) for block in executor.ctx._blocks]
        ctx = weakref.ref(executor.ctx)
        del executor
        assert ctx() is None
        assert all(ref() is None for ref in compiled)
    finally:
        gc.enable()
