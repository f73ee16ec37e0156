"""Pinned batch-pass shapes of the TPC-H workload's pushed filters.

Every pushed single-table filter lowers to one columnar batch pass
(:func:`repro.engine.compile.build_batch_passes`).  The specialised
shapes scan one or two columns in a tight comprehension; ``generic_pass``
builds a cursor and calls the condition's closure per row, several
times slower.  This test fails when a filter of Q1–Q4 or Q1+–Q4+ changes
shape, in particular when a specialised filter falls back to
``generic_pass``.  (Timing is left to the ``tpch_cold`` workload of
``perfbench/``.)  The n-ary ``or_pass`` is also checked against the
closure compiler's 3VL on rows where either, both or neither of two
columns is null.
"""

import pytest

from repro.algebra.threevl import TRUE
from repro.data import Database, Null, Relation
from repro.engine.compile import build_batch_passes, compile_cond
from repro.engine.executor import Executor
from repro.engine.scope import EngineError
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch.queries import QUERIES, sample_parameters

#: ``(table, pass names)`` per filtered source, in block compile order.
#: Q1+'s three-way ``l_receiptdate > l_commitdate OR … IS NULL OR … IS
#: NULL`` is an n-ary ``or_pass``; the one ``generic_pass`` left is Q4's
#: ``p_name LIKE '%' || $color || '%'`` (a pattern built by ``||``).
SHAPES = {
    "Q1": [("lineitem", ("binary_pass",)), ("lineitem", ("binary_pass",))],
    "Q1+": [("lineitem", ("or_pass",)), ("lineitem", ("binary_pass",))],
    "Q2": [("customer", ("unary_pass", "unary_pass")), ("customer", ("unary_pass",))],
    "Q2+": [
        ("customer", ("unary_pass", "unary_pass")),
        ("orders", ("unary_pass",)),
        ("customer", ("unary_pass",)),
    ],
    "Q3": [("lineitem", ("unary_pass",))],
    "Q3+": [("lineitem", ("or_pass",))],
    "Q4": [("part", ("generic_pass",))],
    "Q4+": [
        ("part", ("generic_pass",)),
        ("part", ("unary_pass",)),
        ("supplier", ("unary_pass",)),
        ("lineitem", ("unary_pass",)),
        ("lineitem", ("unary_pass",)),
        ("lineitem", ("unary_pass", "unary_pass")),
    ],
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_pushed_filter_pass_shapes(name, tpch_complete, schema):
    qid = name.rstrip("+")
    query = parse_sql(QUERIES[qid][0])
    if name.endswith("+"):
        query = rewrite_certain(query, schema)
    executor = Executor(tpch_complete, sample_parameters(qid, tpch_complete, seed=1))
    executor.prepare(query)
    shapes = [
        (source.table, tuple(p.__name__ for p in block._batch_passes(source)))
        for block in executor.ctx._blocks
        for source in block.sources.values()
        if source.filters
    ]
    assert shapes == SHAPES[name]


# ----------------------------------------------------------------------
# The n-ary ``or_pass`` against the closure compiler's 3VL


def _filter_source(db, where):
    """The compiled pushed filter of ``SELECT * FROM t WHERE <where>``."""
    executor = Executor(db)
    executor.prepare(parse_sql(f"SELECT * FROM t WHERE {where}"))
    (block,) = executor.ctx._blocks
    (source,) = block.sources.values()
    (cond,) = source.filters
    return source, cond


@pytest.fixture
def null_grid_db():
    """Every combination of ``1``, ``2`` and ``NULL`` in columns a and b:
    neither, either and both cells null."""
    values = [1, 2, None]
    rows = [
        tuple(Null() if v is None else v for v in (a, b, c))
        for a in values
        for b in values
        for c in (1, 3)
    ]
    return Database({"t": Relation(("a", "b", "c"), rows)})


@pytest.mark.parametrize(
    "where",
    [
        "a > b OR a IS NULL OR b IS NULL",  # Q1+'s l3 filter shape
        "a < b OR a = 1 OR b IS NOT NULL",
        "a <> b OR c > 2",
        "a = b OR b >= 2 OR c = 1 OR a IS NULL",
        "a = 1 OR b IS NULL",  # two unary arms (Q3+'s shape)
        "a <= c OR b > c",
    ],
)
def test_or_pass_matches_compiled_3vl(where, null_grid_db):
    source, cond = _filter_source(null_grid_db, where)
    (batch_pass,) = build_batch_passes(source, [cond])
    assert batch_pass.__name__ == "or_pass"
    rows = null_grid_db["t"].rows
    slotmap = {(source.binding, col): i for i, col in enumerate(source.columns)}
    fn = compile_cond(cond)
    expected = [i for i, row in enumerate(rows) if fn((slotmap, row), {}) is TRUE]
    assert batch_pass(rows, range(len(rows))) == expected
    assert batch_pass(rows, expected[::2]) == expected[::2]


def test_or_pass_raises_like_the_compiled_condition():
    db = Database({"t": Relation(("a", "b"), [(1, Null()), (2, 3)])})
    source, cond = _filter_source(db, "b IS NULL OR a < 'x'")
    (batch_pass,) = build_batch_passes(source, [cond])
    assert batch_pass.__name__ == "or_pass"
    rows = db["t"].rows
    # Row 0 is TRUE on the first arm and never reaches the comparison.
    assert batch_pass(rows, [0]) == [0]
    with pytest.raises(EngineError, match="incomparable"):
        batch_pass(rows, [0, 1])
    slotmap = {(source.binding, col): i for i, col in enumerate(source.columns)}
    with pytest.raises(EngineError, match="incomparable"):
        compile_cond(cond)((slotmap, rows[1]), {})


def test_or_with_an_unlowered_disjunct_stays_generic(null_grid_db):
    source, cond = _filter_source(null_grid_db, "a > b OR (a = 1 AND c = 3)")
    (batch_pass,) = build_batch_passes(source, [cond])
    assert batch_pass.__name__ == "generic_pass"
