"""Data substrate: nulls, relations, schemas, databases and valuations.

This package models incomplete databases in the style of the
incomplete-information literature (Imielinski & Lipski 1984) and of the
PODS'16 paper reproduced here: database entries are drawn from
``Const ∪ Null``, where nulls are *marked* (labelled) and Codd nulls are
the special case in which no label repeats.
"""

from repro.data.nulls import Null, fresh_null, is_null, codd_null_factory
from repro.data.relation import Relation
from repro.data.schema import Attribute, RelationSchema, DatabaseSchema, ForeignKey
from repro.data.database import Database
from repro.data.valuation import (
    Valuation,
    enumerate_valuations,
    orbit_valuations,
    sample_valuations,
)

__all__ = [
    "Null",
    "fresh_null",
    "is_null",
    "codd_null_factory",
    "Relation",
    "Attribute",
    "RelationSchema",
    "DatabaseSchema",
    "ForeignKey",
    "Database",
    "Valuation",
    "enumerate_valuations",
    "orbit_valuations",
    "sample_valuations",
]
