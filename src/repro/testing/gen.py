"""Random incomplete databases and SQL statement templates for tests.

One generator serves every property test: the sqlite3, algebra and
marked-null oracles of the engine, the decorrelation equivalence suite
and the translation tests.  Each caller passes its own schema, domain,
null rate, null budget and row-count ranges, so its data is fixed by
its seed alone.  The draw order is part of the contract: per table, one
``randint`` for the row count, then the cells row by row, left to
right; per cell, one ``random()`` for the null test (skipped once the
null budget is spent), then one ``choice`` for the value, or for the
null's label when labels are given.
"""

from __future__ import annotations

import random
from typing import Collection, Mapping, Optional, Sequence, Tuple, Union

from repro.data import Database, Null, Relation

__all__ = [
    "random_db",
    "RS",
    "RST",
    "ALGEBRA_TEMPLATES",
    "TEMPLATES",
    "STRINGS",
    "STRING_TEMPLATES",
]

Rows = Tuple[int, int]

#: ``R(A, B), S(C, D)``: the translation tests' schema.
RS = {"R": ("A", "B"), "S": ("C", "D")}

#: ``r(a, b), s(c, d), t(e, f)``: the schema of the SQL templates.
RST = {"r": ("a", "b"), "s": ("c", "d"), "t": ("e", "f")}


def random_db(
    rng: random.Random,
    tables: Mapping[str, Sequence[str]],
    *,
    values: Sequence[object],
    null_rate: float,
    rows: Union[Rows, Mapping[str, Rows]],
    null_budget: Optional[int] = None,
    null_labels: Optional[Sequence[object]] = None,
    keyed: Collection[str] = (),
) -> Database:
    """Draw a database with the given schema from *rng*.

    ``rows`` is one ``(min, max)`` row-count range, or one per table.
    At most ``null_budget`` cells are null (``None``: no cap).  Nulls are
    fresh Codd nulls, or drawn from ``null_labels`` when given (so they
    can repeat).  In the tables named in ``keyed`` the first column holds
    the row number ``1..n`` instead of a random cell.
    """
    budget = null_budget

    def cell():
        nonlocal budget
        if (budget is None or budget > 0) and rng.random() < null_rate:
            if budget is not None:
                budget -= 1
            return Null(rng.choice(null_labels)) if null_labels else Null()
        return rng.choice(values)

    relations = {}
    for name, columns in tables.items():
        low, high = rows[name] if isinstance(rows, Mapping) else rows
        count = rng.randint(low, high)
        if name in keyed:
            data = [
                (k,) + tuple(cell() for _ in columns[1:]) for k in range(1, count + 1)
            ]
        else:
            data = [tuple(cell() for _ in columns) for _ in range(count)]
        relations[name] = Relation(tuple(columns), data)
    return Database(relations)


#: Statements over ``r`` and ``s`` (integer cells, placeholders ``{c}``
#: and ``{d}``) in the fragment where the engine must agree with
#: :func:`repro.algebra.evaluate` on :func:`repro.sql.to_algebra.sql_to_algebra`.
#: ``NOT IN`` is outside it: algebra antijoins model ``¬∃ TRUE-match``,
#: while SQL's ``NOT IN`` is also unknown when a comparison is.
ALGEBRA_TEMPLATES = [
    "SELECT a FROM r WHERE a = {c}",
    "SELECT a, b FROM r WHERE a <> {c} AND b >= {c}",
    "SELECT a FROM r WHERE a IS NULL OR b = {c}",
    "SELECT r.a FROM r, s WHERE r.a = s.c",
    "SELECT r.a FROM r, s WHERE r.b = s.d AND s.c > {c}",
    "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)",
    "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a)",
    "SELECT a FROM r WHERE NOT EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND s.d <> {c})",
    "SELECT a FROM r WHERE EXISTS "
    "(SELECT * FROM s WHERE s.c = r.a AND (s.d = {c} OR s.d IS NULL))",
    "SELECT a FROM r WHERE a IN (SELECT c FROM s)",
    "SELECT a FROM r WHERE a IN (SELECT c FROM s WHERE d = r.b)",
    "SELECT a FROM r WHERE a IN ({c}, {d})",
    "SELECT a FROM r EXCEPT SELECT c FROM s",
    "SELECT a FROM r UNION SELECT c FROM s",
    "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a) "
    "AND NOT EXISTS (SELECT * FROM s WHERE s.d IS NULL)",
]

#: All integer templates over :data:`RST`: the algebra fragment plus
#: ``NOT IN`` over lists and subqueries, three-table joins and ``||``.
TEMPLATES = ALGEBRA_TEMPLATES + [
    "SELECT a FROM r WHERE a NOT IN ({c}, {d})",
    "SELECT a FROM r WHERE b NOT IN (SELECT d FROM s WHERE s.c = r.a)",
    "SELECT r.a, t.f FROM r, s, t WHERE r.a = s.c AND s.d = t.e AND t.f = {c}",
    "SELECT r.a FROM r, s, t WHERE r.a = s.c AND s.d <> t.e",
    "SELECT a || 'x' FROM r WHERE a IS NOT NULL",
]

#: String cells for ``LIKE`` and ``||``: regex metacharacters, the
#: empty string and a trailing newline (which a ``$``-anchored pattern
#: would wrongly accept).
STRINGS = ("abc", "abc\n", "ab", "a.c", "", "x%")

#: Templates over :data:`RST` with :data:`STRINGS` cells; ``{p}`` is a
#: ``LIKE`` pattern literal and ``{q}`` a string literal.
STRING_TEMPLATES = [
    "SELECT a FROM r WHERE a LIKE {p}",
    "SELECT a, b FROM r WHERE a NOT LIKE {p} AND b LIKE {p}",
    "SELECT a FROM r WHERE a LIKE {p} OR b NOT LIKE {p}",
    "SELECT r.a, s.c FROM r, s WHERE r.a LIKE s.c",
    "SELECT a || b FROM r",
    "SELECT a FROM r WHERE a || b = {q}",
    "SELECT a FROM r WHERE a NOT IN (SELECT c FROM s WHERE c LIKE {p})",
]
