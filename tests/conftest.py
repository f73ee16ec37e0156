"""Shared fixtures: small incomplete databases and TPC-H instances."""

import random

import pytest

from repro.data import Database, Null, Relation
from repro.data.schema import DatabaseSchema, make_schema
from repro.tpch.datafiller import generate_small_instance
from repro.tpch.dbgen import generate_instance
from repro.tpch.nullify import inject_nulls
from repro.tpch.schema import tpch_schema


@pytest.fixture
def intro_db():
    """The paper's introduction example: R = {1}, S = {NULL}."""
    return Database(
        {
            "R": Relation(("A",), [(1,)]),
            "S": Relation(("A",), [(Null(),)]),
        }
    )


@pytest.fixture
def rs_schema():
    schema = DatabaseSchema()
    schema.add(make_schema("R", [("A", "int"), ("B", "int")], key=["A"]))
    schema.add(make_schema("S", [("A", "int"), ("B", "int")]))
    return schema


@pytest.fixture
def small_db():
    """Two binary relations with a couple of nulls."""
    n1, n2 = Null(), Null()
    return Database(
        {
            "R": Relation(("A", "B"), [(1, 2), (2, n1), (3, 3)]),
            "S": Relation(("C", "D"), [(1, 2), (n2, 2)]),
        }
    )


@pytest.fixture(scope="session")
def tpch_complete():
    """A complete micro TPC-H instance (shared across tests)."""
    return generate_instance(scale=0.2, seed=11)


@pytest.fixture(scope="session")
def tpch_nulls(tpch_complete):
    """The same instance with nulls at a 5% rate."""
    return inject_nulls(tpch_complete, 0.05, seed=12)


@pytest.fixture(scope="session")
def tpch_small_nulls():
    """A small DataFiller-style instance with nulls (fast detectors)."""
    base = generate_small_instance(scale=0.05, seed=21)
    return inject_nulls(base, 0.08, seed=22)


@pytest.fixture(scope="session")
def schema():
    return tpch_schema()


@pytest.fixture
def rng():
    return random.Random(123)
