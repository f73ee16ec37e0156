"""Pinned batch-pass shapes of the TPC-H workload's pushed filters.

Every pushed single-table filter lowers to one columnar batch pass
(:func:`repro.engine.compile.build_batch_passes`).  The specialised
shapes scan one or two columns in a tight comprehension; ``generic_pass``
builds a cursor and calls the condition's closure per row, several
times slower.  This test fails when a filter of Q1–Q4 or Q1+–Q4+ changes
shape, in particular when a specialised filter falls back to
``generic_pass``.  (Timing is left to the ``tpch_cold`` workload of
``perfbench/``.)
"""

import pytest

from repro.engine.executor import Executor
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch.queries import QUERIES, sample_parameters

#: ``(table, pass names)`` per filtered source, in block compile order.
#: The two ``generic_pass`` entries are generic today: Q1+'s three-way
#: ``l_receiptdate > l_commitdate OR … IS NULL OR … IS NULL`` and Q4's
#: ``p_name LIKE '%' || $color || '%'`` (a pattern built by ``||``).
SHAPES = {
    "Q1": [("lineitem", ("binary_pass",)), ("lineitem", ("binary_pass",))],
    "Q1+": [("lineitem", ("generic_pass",)), ("lineitem", ("binary_pass",))],
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
