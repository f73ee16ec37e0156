"""Valuations of nulls: maps ``Null(D) → Const`` and their enumeration.

Under the closed-world, missing-value interpretation the semantics of an
incomplete database ``D`` is ``{v(D) | v a valuation}``.  Certain
answers quantify over *all* valuations — an infinite set — but for
first-order queries genericity lets us restrict attention to valuations
into ``Const(D)`` extended with one fresh constant per null: any two
valuations with the same equality pattern on that domain produce the
same (isomorphic) complete database, and FO queries cannot distinguish
isomorphic databases beyond the constants they mention.  The brute-force
layer in :mod:`repro.certain` relies on this.

**World enumeration up to renaming.**  The same argument goes one step
further.  Two valuations that differ only by a permutation ``π`` of the
fresh constants satisfy ``(π∘v)(ā) = π(v(ā))`` for every tuple ``ā``
over ``adom(D)``, and ``Q(π(v(D))) = π(Q(v(D)))``, so the test
``v(ā) ∈ Q(v(D))`` has the same outcome for both.
:func:`orbit_valuations` therefore yields one valuation per orbit under
that renaming: a restricted-growth assignment that, at each null (in the
sorted null order of :func:`enumerate_valuations`), offers every
constant of ``Const(D)`` and then the fresh constants ``c•0 … c•m``,
where ``m`` is the number of fresh constants used so far (capped at
``extra_constants``).  Its output is a subsequence of
:func:`enumerate_valuations`' order.  With ``n`` nulls, ``k`` constants
and ``f`` fresh constants it yields
``Σ_j C(n,j)·k^(n−j)·Σ_{b≤f} S(j,b)`` valuations (``S`` the Stirling
numbers of the second kind): 372 instead of ``7⁴ = 2401`` for
``n = 4``, ``k = 3``, ``f = 4``.

The argument needs a query that cannot tell one fresh constant from
another.  Equality can only compare them, and order comparisons raise
``TypeError`` on them in every world.  ``LIKE`` reads ``str(value)``, so
every fresh constant prints as the same untagged ``c•``, and the tag
stays in ``repr`` for sorting and display.  This changes the answer
only for ``LIKE`` patterns that match some tags but not others (say
``'%0'``); with the tag in ``str``, that answer hung on the digits of an
arbitrary tag.  Where the test is *not* renaming-invariant, keep the
full product: a union of answers over all worlds
(``possible_answer_union``) contains fresh constants, and
``(c•0, c•1)`` and ``(c•1, c•0)`` are different rows of it.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.data.database import Database
from repro.data.nulls import Null, is_null
from repro.data.relation import Relation

__all__ = [
    "Valuation",
    "enumerate_valuations",
    "orbit_valuations",
    "sample_valuations",
    "fresh_constants",
]


class Valuation:
    """A total map from a set of nulls to constants."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Dict[Null, object]):
        for null, value in mapping.items():
            if not is_null(null):
                raise TypeError(f"valuation key {null!r} is not a null")
            if is_null(value):
                raise TypeError(f"valuation value {value!r} is not a constant")
        self.mapping = dict(mapping)

    def __call__(self, value: object) -> object:
        """Apply to a single value: nulls map through, constants fixed."""
        if is_null(value):
            try:
                return self.mapping[value]
            except KeyError:
                raise KeyError(f"valuation is not defined on {value!r}") from None
        return value

    def apply_row(self, row: Sequence[object]) -> Tuple[object, ...]:
        return tuple(self(v) for v in row)

    def apply_relation(self, relation: Relation) -> Relation:
        return Relation(
            relation.attributes, (self.apply_row(row) for row in relation.rows)
        )

    def apply_database(self, db: Database) -> Database:
        return db.map_rows(self.apply_row)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k!r}→{v!r}" for k, v in self.mapping.items())
        return f"Valuation({pairs})"


class _Fresh:
    """A constant guaranteed not to collide with database constants."""

    __slots__ = ("tag", "_hash")

    def __init__(self, tag: int):
        self.tag = tag
        self._hash = hash(("fresh", tag))  # cached: hot in world answer sets

    def __eq__(self, other):
        return isinstance(other, _Fresh) and self.tag == other.tag

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"c•{self.tag}"

    def __str__(self):
        # Untagged, so ``LIKE`` (which reads ``str``) cannot tell fresh
        # constants apart; see the module docstring.
        return "c•"


def fresh_constants(count: int) -> List[object]:
    """*count* pairwise-distinct constants outside any database domain."""
    return [_Fresh(i) for i in range(count)]


def enumerate_valuations(
    db: Database,
    extra_constants: Optional[int] = None,
    domain: Optional[Iterable[object]] = None,
) -> Iterator[Valuation]:
    """All valuations of ``Null(D)`` into a finite, sufficient domain.

    The domain defaults to ``Const(D)`` plus ``extra_constants`` fresh
    values (default: one per null, the generic sufficiency bound).  The
    number of valuations is ``|domain| ** |Null(D)|`` — intended for the
    small instances used as ground truth in tests and experiments.
    """
    nulls = sorted(db.nulls(), key=lambda n: repr(n.label))
    if not nulls:
        yield Valuation({})
        return
    if domain is None:
        if extra_constants is None:
            extra_constants = len(nulls)
        domain_list = sorted(db.constants(), key=repr)
        domain_list += fresh_constants(extra_constants)
    else:
        domain_list = list(domain)
    if not domain_list:
        domain_list = fresh_constants(1)
    for combo in itertools.product(domain_list, repeat=len(nulls)):
        yield Valuation(dict(zip(nulls, combo)))


def orbit_valuations(
    db: Database, extra_constants: Optional[int] = None
) -> Iterator[Valuation]:
    """One valuation per orbit of :func:`enumerate_valuations` under
    renaming of the fresh constants.

    Same nulls, constants and fresh constants as
    :func:`enumerate_valuations` with the default domain; the fresh
    constants are handed out in first-use order (``c•0`` before
    ``c•1`` …), so each equality pattern among the nulls sent outside
    ``Const(D)`` appears once.  Depth-first in the same per-null value
    order, the output is a subsequence of :func:`enumerate_valuations`'
    order and starts with the same valuation.
    """
    nulls = sorted(db.nulls(), key=lambda n: repr(n.label))
    if not nulls:
        yield Valuation({})
        return
    if extra_constants is None:
        extra_constants = len(nulls)
    constants = sorted(db.constants(), key=repr)
    if not constants and not extra_constants:
        extra_constants = 1  # enumerate_valuations' fallback domain
    fresh = fresh_constants(extra_constants)
    images: List[object] = [None] * len(nulls)

    def assign(i: int, used: int) -> Iterator[Valuation]:
        if i == len(nulls):
            yield Valuation(dict(zip(nulls, images)))
            return
        for value in constants:
            images[i] = value
            yield from assign(i + 1, used)
        for tag in range(min(used + 1, extra_constants)):
            images[i] = fresh[tag]
            yield from assign(i + 1, max(used, tag + 1))

    yield from assign(0, 0)


def sample_valuations(
    db: Database,
    count: int,
    rng: Optional[random.Random] = None,
    extra_constants: int = 2,
) -> Iterator[Valuation]:
    """Random valuations (for probabilistic property tests)."""
    rng = rng or random.Random(0)
    nulls = sorted(db.nulls(), key=lambda n: repr(n.label))
    domain = sorted(db.constants(), key=repr) + fresh_constants(extra_constants)
    if not domain:
        domain = fresh_constants(1)
    for _ in range(count):
        yield Valuation({n: rng.choice(domain) for n in nulls})
