"""Property-based cross-validation: engine ≡ reference algebra evaluator.

For randomly generated databases and a grammar of SQL queries in the
EXISTS/NOT EXISTS fragment, the engine's answers must coincide with the
reference evaluator's 3VL semantics of the translated algebra.  (NOT IN
is excluded: algebra antijoins model ``¬∃ TRUE-match``, which is the
EXISTS semantics, while SQL's NOT IN is stricter on unknowns — the
engine implements both faithfully, see tests/engine/test_subqueries
and the sqlite3 oracle in tests/engine/test_vs_sqlite.)
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import evaluate
from repro.engine import execute_sql
from repro.sql.parser import parse_sql
from repro.sql.to_algebra import sql_to_algebra
from repro.testing import gen

random_db = functools.partial(
    gen.random_db,
    tables={"r": ("a", "b"), "s": ("c", "d")},
    values=(1, 2, 3),
    null_rate=0.25,
    rows=(1, 5),
)


@pytest.mark.parametrize("template_index", range(len(gen.ALGEBRA_TEMPLATES)))
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3), d=st.integers(1, 3))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_matches_reference_semantics(template_index, seed, c, d):
    sql = gen.ALGEBRA_TEMPLATES[template_index].format(c=c, d=d)
    rng = random.Random(seed)
    db = random_db(rng)
    query = parse_sql(sql)
    engine_rows = set(execute_sql(db, query).rows)
    algebra = sql_to_algebra(query, db)
    reference_rows = set(evaluate(algebra, db, semantics="sql").rows)
    assert engine_rows == reference_rows, sql
