"""Differential test: the engine's standard 3VL ≡ stdlib ``sqlite3``.

Each random instance is loaded into an in-memory sqlite database (nulls
as ``NULL``, ``PRAGMA case_sensitive_like=ON``) and every template runs
on both engines.  Results are compared as bags; set operations, which
deduplicate, as sets.  This covers ``NOT IN`` over nulls, which the
algebra oracle (``test_vs_algebra_property.py``) leaves out.

sqlite's ``NULL`` has no identity, so the instances give every null the
same label: the engine's standard mode ignores labels in comparisons,
and a shared label makes set operations treat nulls as one value, as
SQL does.  With Codd nulls (pairwise-distinct labels) the engine keeps
a null on the left of ``EXCEPT`` that sqlite removes; that divergence
is pinned below.
"""

import collections
import functools
import random
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data import Database, Null, Relation
from repro.data.nulls import is_null
from repro.engine import execute_sql
from repro.testing import gen

random_db = functools.partial(
    gen.random_db, tables=gen.RST, null_rate=0.25, rows=(1, 6), null_labels=("⊥",)
)

#: ``LIKE`` patterns for ``{p}``: wildcards, literals with regex
#: metacharacters, the empty pattern.
PATTERNS = ("abc", "a%", "%c", "_b_", "a_c", "%", "", "a.c", "x%")

SET_OPS = (" UNION ", " EXCEPT ", " INTERSECT ")


def to_sqlite(db: Database) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like=ON")
    for name, relation in db.items():
        columns = relation.attributes
        conn.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        conn.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            [tuple(None if is_null(v) else v for v in row) for row in relation.rows],
        )
    return conn


def assert_matches_sqlite(db: Database, sql: str) -> None:
    engine = [
        tuple(None if is_null(v) else v for v in row)
        for row in execute_sql(db, sql).rows
    ]
    conn = to_sqlite(db)
    try:
        expected = conn.execute(sql).fetchall()
    finally:
        conn.close()
    if any(op in sql for op in SET_OPS):
        assert set(engine) == set(expected), sql
    else:
        assert collections.Counter(engine) == collections.Counter(expected), sql


def quote(text: str) -> str:
    return "'" + text + "'"


@pytest.mark.parametrize("template_index", range(len(gen.TEMPLATES)))
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3), d=st.integers(1, 3))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_matches_sqlite(template_index, seed, c, d):
    db = random_db(random.Random(seed), values=(1, 2, 3))
    assert_matches_sqlite(db, gen.TEMPLATES[template_index].format(c=c, d=d))


@pytest.mark.parametrize("template_index", range(len(gen.STRING_TEMPLATES)))
@given(
    seed=st.integers(0, 10_000),
    p=st.sampled_from(PATTERNS),
    q=st.tuples(st.sampled_from(gen.STRINGS), st.sampled_from(gen.STRINGS)),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_matches_sqlite_on_strings(template_index, seed, p, q):
    db = random_db(random.Random(seed), values=gen.STRINGS)
    sql = gen.STRING_TEMPLATES[template_index].format(p=quote(p), q=quote("".join(q)))
    assert_matches_sqlite(db, sql)


def test_like_does_not_match_before_a_trailing_newline():
    db = Database({"r": Relation(("a",), [("abc",), ("abc\n",)])})
    sql = "SELECT a FROM r WHERE a LIKE 'abc'"
    assert execute_sql(db, sql).rows == [("abc",)]
    assert_matches_sqlite(db, sql)


def test_codd_nulls_stay_distinct_in_except():
    """The one pinned divergence: sqlite's NULLs are one value for set
    operations, the engine's Codd nulls are not."""
    db = Database(
        {
            "r": Relation(("a",), [(1,), (Null(),)]),
            "s": Relation(("c",), [(Null(),)]),
        }
    )
    sql = "SELECT a FROM r EXCEPT SELECT c FROM s"
    assert len(execute_sql(db, sql).rows) == 2
    conn = to_sqlite(db)
    assert conn.execute(sql).fetchall() == [(1,)]
    conn.close()
