"""The ``Q?`` side at SQL level: potential answers.

``rewrite_possible`` weakens the whole query (mode ``?`` at the top),
so its result must contain every answer produced in any possible world
— checked by enumerating valuations on miniature instances.
"""

import functools
import random

import pytest

from repro.data import Database, Relation
from repro.data.schema import DatabaseSchema, make_schema
from repro.data.valuation import enumerate_valuations
from repro.engine import execute_sql
from repro.sql.parser import parse_sql
from repro.sql.printer import to_sql
from repro.sql.rewrite import RewriteError, rewrite_certain, rewrite_possible
from repro.testing import gen


@pytest.fixture
def schema():
    schema = DatabaseSchema()
    schema.add(make_schema("r", [("a", "int"), ("b", "int")], key=["a"]))
    schema.add(make_schema("s", [("a", "int"), ("b", "int")]))
    return schema


random_db = functools.partial(
    gen.random_db,
    tables={"r": ("a", "b"), "s": ("a", "b")},
    values=(1, 2),
    null_rate=0.3,
    rows=(1, 3),
    keyed=("r",),  # r.a is r's key
)


QUERIES = [
    "SELECT a FROM r WHERE b = 2",
    "SELECT a FROM r WHERE b <> 2",
    "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.a = r.b)",
    "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.a = r.b)",
    "SELECT a FROM r WHERE b IN (SELECT b FROM s)",
]


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_possible_contains_every_world_answer(sql, seed, schema):
    rng = random.Random(hash((sql, seed)) & 0xFFFF)
    db = random_db(rng)
    query = parse_sql(sql)
    poss = rewrite_possible(query, schema)
    poss_rows = set(execute_sql(db, poss).rows)
    for valuation in enumerate_valuations(db, extra_constants=1):
        world = valuation.apply_database(db)
        for row in execute_sql(world, query).rows:
            image = {valuation.apply_row(r) for r in poss_rows}
            assert row in image, (
                f"world answer {row} outside Q? for {sql} (seed {seed})"
            )


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("seed", [5, 6])
def test_sandwich_certain_sql_possible(sql, seed, schema):
    """Q+(D) ⊆ EvalSQL(Q, D) ∪ …  and both are ⊆ Q?(D) for these
    queries (the expected containment chain)."""
    rng = random.Random(hash((sql, seed)) & 0xFF)
    db = random_db(rng)
    query = parse_sql(sql)
    plus = set(execute_sql(db, rewrite_certain(query, schema)).rows)
    sql_rows = set(execute_sql(db, query).rows)
    poss = set(execute_sql(db, rewrite_possible(query, schema)).rows)
    assert plus <= poss
    assert sql_rows <= poss


def test_identity_on_complete_databases(schema):
    db = Database(
        {
            "r": Relation(("a", "b"), [(1, 2), (2, 2)]),
            "s": Relation(("a", "b"), [(2, 1)]),
        }
    )
    for sql in QUERIES:
        query = parse_sql(sql)
        assert set(execute_sql(db, rewrite_possible(query, schema)).rows) == set(
            execute_sql(db, query).rows
        ), sql


def test_weakened_conditions_visible(schema):
    poss = rewrite_possible(parse_sql("SELECT a FROM r WHERE b = 2"), schema)
    assert "b IS NULL" in to_sql(poss)


def test_with_views_rejected(schema):
    query = parse_sql("WITH v AS (SELECT a FROM r) SELECT a FROM v")
    with pytest.raises(RewriteError, match="not supported"):
        rewrite_possible(query, schema)
