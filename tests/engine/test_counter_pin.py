"""Pinned results and work counters of cold TPC-H Q1–Q4 and Q1+–Q4+.

Each statement runs once on a fresh :class:`Executor` over the scale-1
instance with 3% nulls (``lineitem`` ≈ 6k rows) and fixed parameters.
The test compares the result multiset (as a digest) and every
``ExecContext`` work counter with values recorded before the hash-build
loops were rewritten, so a change to how indexes and probe tables are
built that alters any result, degradation decision or byte estimate
fails here.

Configurations:

* ``plain`` — no limits (the ``perfbench`` ``tpch_cold`` setting);
* ``governed`` — a generous deadline, so every build polls the governor;
* ``marked`` — marked nulls, so null keys are kept and matched by label;
* ``capped`` — a zero byte budget, so every index and probe table
  degrades (linear probing, memoized probes).  Q3/Q3+ are left out of
  it: their degraded form re-scans ``lineitem`` once per order (~10 s).
"""

import hashlib

import pytest

from repro.data import Null
from repro.engine import ResourceLimits
from repro.engine.executor import Executor
from repro.sql.parser import parse_sql
from repro.sql.rewrite import rewrite_certain
from repro.tpch import generate_instance, inject_nulls
from repro.tpch.queries import QUERIES, sample_parameters

COUNTERS = (
    "rows_examined",
    "probe_build_rows",
    "probe_tables_built",
    "decorrelated_probes",
    "probe_cache_hits",
    "probe_cache_misses",
    "degradations",
    "table_bytes",
)

CONFIGS = {
    "plain": {},
    "governed": {"limits": ResourceLimits(deadline_seconds=600.0)},
    "marked": {"marked_nulls": True},
    "capped": {"limits": ResourceLimits(max_probe_table_bytes=0)},
}

_EMPTY = (0, "e3b0c44298fc1c14")
_Q2 = (4, "b68f5b0259730ebf")
_Q3 = (34, "e033cfb634a4a20d")
_Q3_PLUS = (23, "7cf4ece067b19ac2")
_Q4 = (1500, "19593943bde52709")

#: statement -> (row count, result digest, counters in ``COUNTERS`` order)
_PLAIN = {
    "Q1": (*_EMPTY, (1, 0, 0, 0, 0, 0, 0, 4752)),
    "Q1+": (*_EMPTY, (1, 0, 0, 0, 0, 0, 0, 4752)),
    "Q2": (*_Q2, (77, 1500, 1, 18, 0, 0, 0, 14400)),
    "Q2+": (*_EMPTY, (1, 0, 0, 0, 0, 0, 0, 0)),
    "Q3": (*_Q3, (1500, 5273, 1, 1500, 0, 0, 0, 211104)),
    "Q3+": (*_Q3_PLUS, (1500, 5458, 1, 1500, 0, 0, 0, 212688)),
    "Q4": (*_Q4, (1500, 1, 1, 1500, 0, 0, 0, 4752)),
    "Q4+": (*_Q4, (1518, 2, 4, 6000, 0, 0, 0, 4752)),
}

EXPECTED = {
    "plain": _PLAIN,
    "governed": _PLAIN,
    "marked": {**_PLAIN, "Q2": (*_Q2, (77, 1500, 1, 18, 0, 0, 0, 21744))},
    "capped": {
        "Q1": (*_EMPTY, (1, 0, 0, 0, 0, 0, 2, 0)),
        "Q1+": (*_EMPTY, (1, 0, 0, 0, 0, 0, 2, 0)),
        "Q2": (*_Q2, (91, 1, 0, 0, 0, 18, 2, 0)),
        "Q2+": (*_EMPTY, (1, 0, 0, 0, 0, 0, 0, 0)),
        "Q4": (*_Q4, (1500, 1, 1, 1500, 0, 0, 2, 0)),
        "Q4+": (*_Q4, (1518, 2, 4, 6000, 0, 0, 2, 0)),
    },
}

CASES = [(config, stmt) for config in EXPECTED for stmt in EXPECTED[config]]


@pytest.fixture(scope="module")
def scale1_db():
    return inject_nulls(generate_instance(scale=1.0, seed=101), 0.03, seed=102)


def _digest(rows) -> str:
    """Order-insensitive digest of a result; nulls compare as ``NULL``
    (their labels depend on how many nulls the process drew before)."""
    canon = sorted(
        repr(tuple("NULL" if isinstance(v, Null) else v for v in row)) for row in rows
    )
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:16]


@pytest.mark.parametrize("config,stmt", CASES)
def test_cold_results_and_counters_are_pinned(config, stmt, scale1_db, schema):
    qid = stmt.rstrip("+")
    query = parse_sql(QUERIES[qid][0])
    if stmt.endswith("+"):
        query = rewrite_certain(query, schema)
    params = sample_parameters(qid, scale1_db, seed=7)
    executor = Executor(scale1_db, params, **CONFIGS[config])
    rows = executor.execute(query).rows
    got = (len(rows), _digest(rows), tuple(getattr(executor.ctx, c) for c in COUNTERS))
    assert got == EXPECTED[config][stmt]
