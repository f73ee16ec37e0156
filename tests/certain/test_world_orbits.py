"""World enumeration up to renaming of the fresh constants.

:func:`repro.data.valuation.orbit_valuations` yields one valuation per
orbit of :func:`~repro.data.valuation.enumerate_valuations` under
permutations of the fresh constants, and the brute-force search
evaluates only those worlds.  These tests pin the orbit property, the
counts, ``cert(Q, D)`` against a full-product oracle, the ``LIKE``
precondition, and the one caller that must keep the full product.
"""

import random
from math import comb

import pytest

from repro.algebra import Comparison, RelationRef, Selection, evaluate
from repro.algebra.conditions import Attr, Const
from repro.certain import (
    certain_answers_with_nulls,
    possible_answer_union,
    represents_potential_answers,
)
from repro.certain import bruteforce
from repro.data import Database, Null, Relation
from repro.data.valuation import enumerate_valuations, fresh_constants, orbit_valuations
from repro.experiments.infeasible import section6_example_query
from repro.sql.parser import parse_sql
from repro.sql.to_algebra import sql_to_algebra
from repro.testing import gen


def images(db, valuations):
    """Each valuation as its tuple of images in sorted null order."""
    nulls = sorted(db.nulls(), key=lambda n: repr(n.label))
    return [tuple(v(n) for n in nulls) for v in valuations]


def relabel(db, image):
    """Rename the fresh constants of *image* to ``c•0, c•1, …`` by first use."""
    constants = db.constants()
    fresh = iter(fresh_constants(len(image)))
    renamed = {}
    out = []
    for value in image:
        if value not in constants:
            if value not in renamed:
                renamed[value] = next(fresh)
            value = renamed[value]
        out.append(value)
    return tuple(out)


def stirling2(n, k):
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def orbit_count(n, k, f):
    """``Σ_j C(n,j)·k^(n−j)·Σ_{b≤f} S(j,b)``: j nulls go to fresh constants."""
    return sum(
        comb(n, j) * k ** (n - j) * sum(stirling2(j, b) for b in range(f + 1))
        for j in range(n + 1)
    )


def db_of(rows, attrs=("A", "B")):
    return Database({"R": Relation(attrs, rows)})


x, y, z, w = (Null(label) for label in "xyzw")

INSTANCES = {
    "four_nulls_three_constants": db_of([(x, y), (z, w), (1, 2), (3, 1)]),
    "repeated_labels": db_of([(x, y), (y, x), (x, 1), (2, z)]),
    "no_nulls": db_of([(1, 2), (2, 3)]),
    "no_constants": db_of([(x, y), (z, w)]),
    "one_null": db_of([(x, 1)]),
}


@pytest.mark.parametrize("extra", [0, 1, 2, None])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_one_valuation_per_orbit(name, extra):
    db = INSTANCES[name]
    full = images(db, enumerate_valuations(db, extra_constants=extra))
    orbits = images(db, orbit_valuations(db, extra_constants=extra))
    assert len(set(orbits)) == len(orbits)
    # Representatives are already in first-use form, one per orbit.
    assert [relabel(db, image) for image in orbits] == orbits
    assert set(orbits) == {relabel(db, image) for image in full}
    # A subsequence of the full product's order.
    position = {image: i for i, image in enumerate(full)}
    indices = [position[image] for image in orbits]
    assert indices == sorted(indices)
    assert orbits[0] == full[0]


def test_pinned_counts_four_nulls_three_constants():
    db = INSTANCES["four_nulls_three_constants"]
    assert len(db.nulls()) == 4 and len(db.constants()) == 3
    assert len(list(enumerate_valuations(db))) == 2401
    assert len(list(orbit_valuations(db))) == 372 == orbit_count(4, 3, 4)


@pytest.mark.parametrize(
    "name, extra, expected",
    [
        ("four_nulls_three_constants", 0, 3**4),
        # One fresh constant has no nontrivial renaming.
        ("four_nulls_three_constants", 1, 4**4),
        ("four_nulls_three_constants", 2, orbit_count(4, 3, 2)),
        ("repeated_labels", None, orbit_count(3, 2, 3)),
        ("no_nulls", None, 1),
        ("no_constants", None, 15),  # Bell(4): set partitions of the nulls
        ("no_constants", 0, 1),  # the one-fresh-constant fallback domain
        ("one_null", None, 2),
    ],
)
def test_pinned_counts(name, extra, expected):
    db = INSTANCES[name]
    assert len(list(orbit_valuations(db, extra_constants=extra))) == expected


def test_search_reports_worlds():
    db = INSTANCES["four_nulls_three_constants"]
    certain_answers_with_nulls(RelationRef("R"), db)
    stats = bruteforce.LAST_SEARCH
    assert stats.worlds == 372
    assert stats.summary()["worlds"] == 372


# ----------------------------------------------------------------------
# cert(Q, D) against a full-product oracle


def full_product_cert(query, db):
    """``ā ∈ adom(D)^arity`` with ``v(ā) ∈ Q(v(D))`` for every ``v`` of
    :func:`enumerate_valuations` — no seeding, no orbits."""
    worlds = [
        (v, set(evaluate(query, v.apply_database(db), semantics="naive").rows))
        for v in enumerate_valuations(db)
    ]
    if not worlds[0][1]:
        return set()
    arity = len(next(iter(worlds[0][1])))
    domain = sorted(db.active_domain(), key=repr)
    candidates = [()]
    for _ in range(arity):
        candidates = [c + (value,) for c in candidates for value in domain]
    return {
        c for c in candidates if all(v.apply_row(c) in rows for v, rows in worlds)
    }


def assert_matches_oracle(query, db):
    try:
        expected = full_product_cert(query, db)
    except Exception as error:  # an order comparison met a fresh constant
        for order in ("best-first", "eager"):
            with pytest.raises(type(error)):
                certain_answers_with_nulls(query, db, order=order)
        return
    for order in ("best-first", "eager"):
        assert set(certain_answers_with_nulls(query, db, order=order).rows) == expected


random_rs = dict(
    tables={"r": ("a", "b"), "s": ("c", "d")},
    values=(1, 2, 3),
    null_rate=0.3,
    rows=(1, 3),
    null_budget=3,
)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("template", range(len(gen.ALGEBRA_TEMPLATES)))
def test_templates_match_full_product(template, seed):
    rng = random.Random(seed * 101 + template)
    db = gen.random_db(rng, **random_rs)
    sql = gen.ALGEBRA_TEMPLATES[template].format(c=rng.randint(1, 3), d=rng.randint(1, 3))
    assert_matches_oracle(sql_to_algebra(parse_sql(sql), db), db)


@pytest.mark.parametrize("seed", range(12))
def test_section6_query_matches_full_product(seed):
    rng = random.Random(seed)
    db = gen.random_db(
        rng,
        {"R": ("A", "B"), "S": ("A", "B", "C"), "T": ("A", "B", "C")},
        values=(1, 2, 3),
        null_rate=0.3,
        rows=(1, 3),
        null_budget=3,
    )
    assert_matches_oracle(section6_example_query(), db)


def test_repeated_null_labels_match_full_product():
    db = Database(
        {
            "r": Relation(("a", "b"), [(x, y), (y, 1), (2, x)]),
            "s": Relation(("c", "d"), [(x, 2), (z, z)]),
        }
    )
    for sql in ("SELECT a FROM r EXCEPT SELECT c FROM s", "SELECT r.a FROM r, s WHERE r.a = s.c"):
        assert_matches_oracle(sql_to_algebra(parse_sql(sql), db), db)


# ----------------------------------------------------------------------
# Preconditions and the full-product caller


def test_like_cannot_tell_fresh_constants_apart():
    """``σ[A LIKE '%0'](R)`` on ``R = {(⊥x, ⊥y)}``: no row is certain.

    With the tag in ``str``, the first orbit representative sends ``⊥x``
    to ``c•0`` in every world, and the pattern would call ``(⊥x, ⊥y)``
    certain."""
    db = db_of([(x, y)])
    query = Selection(RelationRef("R"), Comparison("like", Attr("A"), Const("%0")))
    assert certain_answers_with_nulls(query, db).rows == []
    assert str(fresh_constants(2)[0]) == str(fresh_constants(2)[1])
    assert repr(fresh_constants(2)[0]) != repr(fresh_constants(2)[1])


def test_possible_answer_union_keeps_every_renaming():
    a, b = fresh_constants(2)
    union = possible_answer_union(RelationRef("R"), db_of([(Null(1), Null(2))]))
    assert (a, b) in union and (b, a) in union


@pytest.mark.parametrize("seed", range(6))
def test_represents_potential_answers_matches_full_product(seed):
    rng = random.Random(seed)
    db = gen.random_db(rng, **random_rs)
    query = sql_to_algebra(parse_sql("SELECT a FROM r EXCEPT SELECT c FROM s"), db)
    for rows in ([], [(1,)], [(value,) for value in db.active_domain()]):
        candidate = Relation(("a",), rows)
        expected = all(
            set(evaluate(query, v.apply_database(db), semantics="naive").rows)
            <= {v.apply_row(row) for row in rows}
            for v in enumerate_valuations(db)
        )
        assert represents_potential_answers(candidate, query, db) == expected
