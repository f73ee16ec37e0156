"""Closure compilation: the engine's single predicate/expression evaluator.

``CompiledBlock`` classifies a statement into ``_Cond``/``_Expr`` node
trees that carry only structure (operands, resolved columns, local
keys).  This module gives them their semantics, at prepare time, by
lowering each tree into plain Python closures:

* **operator specialization** — each comparison operator gets its own
  closure body, ``LIKE`` patterns against constants are compiled to a
  regex once, and boolean connectives unroll their 3VL short-circuit
  loops;
* **constant folding** — condition subtrees over constants collapse to
  a precomputed truth value at compile time;
* **null-check hoisting** — when the caller proves an operand non-null
  (data-driven: the filtered column vector contains no nulls, see
  :class:`repro.engine.stats.SourceStats`), the per-row ``is_null``
  test disappears from the closure;
* **columnar batch filters** — pushed single-table filters become
  batch passes over row-id lists (one tight comprehension per
  conjunct) instead of per-row tree walks.

Stateful predicates (``[NOT] EXISTS``, ``IN (SELECT …)``, scalar
subqueries) keep one ``eval`` entry point each — their cost is
amortised by decorrelation/memoization, not dispatch — and their
children are closures built here.

Comparing values Python cannot order (``1 < 'x'``) or using a
non-string ``LIKE`` pattern raises :class:`EngineError`.  There is no
second evaluator to fall back to: the engine's 3VL is checked against
stdlib ``sqlite3`` (``tests/engine/test_vs_sqlite.py``) and against
:func:`repro.algebra.evaluate` (``tests/engine/test_vs_algebra_property.py``).
"""

from __future__ import annotations

import operator
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.algebra.conditions import _like_regex
from repro.algebra.threevl import FALSE, TRUE, UNKNOWN
from repro.data.nulls import Null
from repro.engine import blocks as B
from repro.engine.scope import EngineError

__all__ = ["compile_expr", "compile_cond", "build_batch_passes"]

Key = Tuple[str, str]
NonNull = FrozenSet[Key]
_EMPTY_NONNULL: NonNull = frozenset()
_EMPTY_ENV: dict = {}
_EMPTY_CURSOR: tuple = ({}, ())

#: one disjunct of a lowered ``OR``: ``(pos, None, keep)`` or ``(pos, pos, cmp)``
_Arm = Tuple[int, Optional[int], Callable]

_ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _incomparable(exc: TypeError) -> EngineError:
    return EngineError(f"incomparable operands: {exc}")


def _like_pattern(pattern):
    if not isinstance(pattern, str):
        raise EngineError(f"LIKE pattern must be a string, not {pattern!r}")
    return _like_regex(pattern)


def _proved_nonnull(expr: "B._Expr", nonnull: NonNull) -> bool:
    if isinstance(expr, B._Const):
        return not isinstance(expr.value, Null)
    if isinstance(expr, B._Col):
        return expr.depth == 0 and expr.key in nonnull
    return False


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


def compile_expr(expr: "B._Expr", nonnull: NonNull = _EMPTY_NONNULL) -> Callable:
    if isinstance(expr, B._Const):
        value = expr.value

        def const(cursor, env, _v=value):
            return _v

        return const
    if isinstance(expr, B._Col):
        key = expr.key
        if expr.depth == 0:

            def local(cursor, env, _k=key):
                slotmap, row = cursor
                return row[slotmap[_k]]

            return local

        def outer(cursor, env, _k=key):
            return env[_k]

        return outer
    if isinstance(expr, B._Concat):
        parts = tuple(compile_expr(p, nonnull) for p in expr.parts)

        def concat(cursor, env):
            pieces = []
            for part in parts:
                value = part(cursor, env)
                if isinstance(value, Null):
                    return value
                pieces.append(str(value))
            return "".join(pieces)

        return concat
    # _ScalarSubquery: stateful (computed once, cached).
    return expr.eval


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


def _const_result(value) -> Callable:
    def const_cond(cursor, env, _v=value):
        return _v

    return const_cond


def _compile_cmp(cond: "B._Cmp", nonnull: NonNull) -> Callable:
    op = cond.op
    left = compile_expr(cond.left, nonnull)
    right = compile_expr(cond.right, nonnull)
    if cond.marked and op in ("=", "<>"):
        # Marked-null equality is label-sensitive; every other operator
        # is unknown on any null, exactly as in standard 3VL.
        equals = B._equals

        if op == "=":

            def marked_eq(cursor, env):
                return equals(left(cursor, env), right(cursor, env), True)

            return marked_eq

        def marked_ne(cursor, env):
            return ~equals(left(cursor, env), right(cursor, env), True)

        return marked_ne
    hoist = _proved_nonnull(cond.left, nonnull) and _proved_nonnull(
        cond.right, nonnull
    )
    if op == "=":
        if hoist:

            def eq_nn(cursor, env):
                return TRUE if left(cursor, env) == right(cursor, env) else FALSE

            return eq_nn

        def eq(cursor, env):
            a = left(cursor, env)
            b = right(cursor, env)
            if isinstance(a, Null) or isinstance(b, Null):
                return UNKNOWN
            return TRUE if a == b else FALSE

        return eq
    if op == "<>":
        if hoist:

            def ne_nn(cursor, env):
                return TRUE if left(cursor, env) != right(cursor, env) else FALSE

            return ne_nn

        def ne(cursor, env):
            a = left(cursor, env)
            b = right(cursor, env)
            if isinstance(a, Null) or isinstance(b, Null):
                return UNKNOWN
            return TRUE if a != b else FALSE

        return ne
    if op in ("like", "not like"):
        want = op == "like"
        if isinstance(cond.right, B._Const) and not isinstance(cond.right.value, Null):
            regex = _like_pattern(cond.right.value)

            def like_const(cursor, env):
                a = left(cursor, env)
                if isinstance(a, Null):
                    return UNKNOWN
                hit = regex.match(str(a)) is not None
                return TRUE if hit == want else FALSE

            return like_const

        def like_dyn(cursor, env):
            a = left(cursor, env)
            b = right(cursor, env)
            if isinstance(a, Null) or isinstance(b, Null):
                return UNKNOWN
            hit = _like_pattern(b).match(str(a)) is not None
            return TRUE if hit == want else FALSE

        return like_dyn

    cmp_fn = _ORDERING[op]
    if hoist:

        def ord_nn(cursor, env):
            try:
                return TRUE if cmp_fn(left(cursor, env), right(cursor, env)) else FALSE
            except TypeError as exc:
                raise _incomparable(exc) from None

        return ord_nn

    def ord_(cursor, env):
        a = left(cursor, env)
        b = right(cursor, env)
        if isinstance(a, Null) or isinstance(b, Null):
            return UNKNOWN
        try:
            return TRUE if cmp_fn(a, b) else FALSE
        except TypeError as exc:
            raise _incomparable(exc) from None

    return ord_


def _compile_bool(cond: "B._Bool", nonnull: NonNull) -> Callable:
    fns: List[Callable] = []
    is_and = cond.op == "and"
    for item in cond.items:
        compiled = compile_cond(item, nonnull)
        if isinstance(item, B._BoolConst):
            # Constant folding: absorbing constants decide the result,
            # identity constants vanish.
            value = item.value
            if is_and and value is FALSE:
                return _const_result(FALSE)
            if not is_and and value is TRUE:
                return _const_result(TRUE)
            continue
        fns.append(compiled)
    if not fns:
        return _const_result(TRUE if is_and else FALSE)
    if len(fns) == 1:
        return fns[0]
    fns_t = tuple(fns)
    if is_and:

        def conj(cursor, env):
            result = TRUE
            for fn in fns_t:
                value = fn(cursor, env)
                if value is FALSE:
                    return FALSE
                if value is UNKNOWN:
                    result = UNKNOWN
            return result

        return conj

    def disj(cursor, env):
        result = FALSE
        for fn in fns_t:
            value = fn(cursor, env)
            if value is TRUE:
                return TRUE
            if value is UNKNOWN:
                result = UNKNOWN
        return result

    return disj


def compile_cond(cond: "B._Cond", nonnull: NonNull = _EMPTY_NONNULL) -> Callable:
    if isinstance(cond, B._BoolConst):
        return _const_result(cond.value)
    if isinstance(cond, B._Cmp):
        fn = _compile_cmp(cond, nonnull)
        if isinstance(cond.left, B._Const) and isinstance(cond.right, B._Const):
            return _const_result(fn(_EMPTY_CURSOR, _EMPTY_ENV))
        return fn
    if isinstance(cond, B._IsNull):
        expr_fn = compile_expr(cond.expr, nonnull)
        if _proved_nonnull(cond.expr, nonnull):
            return _const_result(TRUE if cond.negated else FALSE)
        if cond.negated:

            def notnull(cursor, env):
                return FALSE if isinstance(expr_fn(cursor, env), Null) else TRUE

            return notnull

        def isnull(cursor, env):
            return TRUE if isinstance(expr_fn(cursor, env), Null) else FALSE

        return isnull
    if isinstance(cond, B._Bool):
        return _compile_bool(cond, nonnull)
    if isinstance(cond, B._Not):
        inner = compile_cond(cond.item, nonnull)

        def negate(cursor, env):
            value = inner(cursor, env)
            if value is TRUE:
                return FALSE
            if value is FALSE:
                return TRUE
            return UNKNOWN

        return negate
    if isinstance(cond, B._InValues):
        expr_fn = compile_expr(cond.expr, nonnull)
        membership = cond.membership
        if cond.negated:

            def notin(cursor, env):
                value = membership(expr_fn(cursor, env), cursor, env)
                if value is TRUE:
                    return FALSE
                if value is FALSE:
                    return TRUE
                return UNKNOWN

            return notin

        def in_(cursor, env):
            return membership(expr_fn(cursor, env), cursor, env)

        return in_
    # _Exists, _InSubquery: stateful, one entry point each.
    return cond.eval


# ---------------------------------------------------------------------------
# Columnar batch filters
# ---------------------------------------------------------------------------


def _unary_pred(cond: "B._Cond", source: "B._Source") -> Optional[Tuple[int, Callable]]:
    """``(column position, value → keep?)`` for single-column filters.

    Returns ``None`` when *cond* does not specialize; the boolean
    predicate answers "does the condition evaluate to TRUE on a row
    whose column holds this value".
    """
    binding = source.binding
    if isinstance(cond, B._IsNull) and isinstance(cond.expr, B._Col):
        if cond.expr.depth != 0 or cond.expr.key[0] != binding:
            return None
        position = source.columns.index(cond.expr.key[1])
        if cond.negated:
            return position, lambda v: not isinstance(v, Null)
        return position, lambda v: isinstance(v, Null)
    if isinstance(cond, B._Cmp):
        col, const = cond.left, cond.right
        flipped = False
        if not isinstance(col, B._Col):
            col, const, flipped = cond.right, cond.left, True
        if not isinstance(col, B._Col) or not isinstance(const, B._Const):
            return None
        if col.depth != 0 or col.key[0] != binding:
            return None
        position = source.columns.index(col.key[1])
        c = const.value
        op = cond.op
        if flipped:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if cond.op in ("like", "not like"):
                # column used as the pattern — no precompiled regex
                return None
        if isinstance(c, Null):
            if cond.marked and op == "=":
                return position, lambda v: v == c  # same-label marked null
            return position, lambda v: False  # never TRUE against a null
        if op == "=":
            return position, lambda v: v == c
        if op == "<>":
            return position, lambda v: not isinstance(v, Null) and v != c
        if op == "like" or op == "not like":
            regex = _like_pattern(c)
            want = op == "like"
            return position, (
                lambda v: not isinstance(v, Null)
                and (regex.match(str(v)) is not None) == want
            )
        cmp_fn = _ORDERING[op]
        return position, lambda v: not isinstance(v, Null) and cmp_fn(v, c)
    if isinstance(cond, B._InValues) and not cond._residual:
        expr = cond.expr
        if not isinstance(expr, B._Col) or expr.depth != 0 or expr.key[0] != binding:
            return None
        position = source.columns.index(expr.key[1])
        const_set = cond._const_set
        has_null = cond._has_null_const
        marked = cond.marked
        if not cond.negated:
            if marked:
                return position, lambda v: v in const_set
            return position, lambda v: not isinstance(v, Null) and v in const_set
        # NOT IN is TRUE only when membership is definitely FALSE.
        if not const_set and not has_null:
            return position, lambda v: True  # empty IN list is FALSE
        if has_null:
            return position, lambda v: False  # a null candidate forces UNKNOWN
        return position, lambda v: not isinstance(v, Null) and v not in const_set
    return None


def _binary_pred(
    cond: "B._Cond", source: "B._Source"
) -> Optional[Tuple[int, int, Callable]]:
    """``(pos, pos, raw comparator)`` for local column-column filters.

    Covers comparisons between two columns of the *same* source (e.g.
    ``l_receiptdate > l_commitdate``): the batch pass reads both cells
    and applies the C-level operator directly, with the 3VL null guards
    inlined at the call site.  Marked-null equality stays on the generic
    path (same-label nulls compare TRUE there, which the plain operator
    plus null guard would get wrong).
    """
    if not isinstance(cond, B._Cmp):
        return None
    left, right = cond.left, cond.right
    if not (isinstance(left, B._Col) and isinstance(right, B._Col)):
        return None
    binding = source.binding
    if left.depth != 0 or right.depth != 0:
        return None
    if left.key[0] != binding or right.key[0] != binding:
        return None
    op = cond.op
    if op in ("like", "not like"):
        return None
    if cond.marked and op in ("=", "<>"):
        return None
    cmp_fn = {"=": operator.eq, "<>": operator.ne, **_ORDERING}[op]
    p1 = source.columns.index(left.key[1])
    p2 = source.columns.index(right.key[1])
    return p1, p2, cmp_fn


def _or_arms(cond: "B._Bool", source: "B._Source") -> Optional[Tuple[_Arm, ...]]:
    """One arm per disjunct of an ``OR`` filter, or ``None`` when some
    disjunct lowers to neither a unary nor a binary column test.

    An arm is ``(pos, None, keep)`` from :func:`_unary_pred` or
    ``(pos, pos, comparator)`` from :func:`_binary_pred`; a row passes
    when some arm is TRUE on it, tried in the ``OR``'s order (the 3VL
    disjunction is TRUE exactly when one disjunct is).
    """
    arms: List[_Arm] = []
    for item in cond.items:
        unary = _unary_pred(item, source)
        if unary is not None:
            arms.append((unary[0], None, unary[1]))
            continue
        binary = _binary_pred(item, source)
        if binary is None:
            return None
        arms.append(binary)
    return tuple(arms)


def _or_pass(arms: Tuple[_Arm, ...]) -> Callable:
    """The batch pass of an ``OR`` lowered by :func:`_or_arms`.

    The first arm is inlined in the comprehension; the others run, in
    order, only on rows it does not accept.  An ``OR`` whose first arm
    keeps most rows (Q3+'s ``l_suppkey <> $supp_key OR l_suppkey IS
    NULL``) then costs about as much as a single-predicate pass.
    """
    (p1, p2, test), rest = arms[0], arms[1:]

    def rest_true(row) -> bool:
        for q1, q2, arm in rest:
            if q2 is None:
                if arm(row[q1]):
                    return True
            elif (
                not isinstance((a := row[q1]), Null)
                and not isinstance((b := row[q2]), Null)
                and arm(a, b)
            ):
                return True
        return False

    if p2 is None:

        def or_pass(rows, ids):
            try:
                return [i for i in ids if test(rows[i][p1]) or rest_true(rows[i])]
            except TypeError as exc:
                raise _incomparable(exc) from None

        return or_pass

    def or_pass(rows, ids):
        try:
            return [
                i
                for i in ids
                if (
                    not isinstance((a := rows[i][p1]), Null)
                    and not isinstance((b := rows[i][p2]), Null)
                    and test(a, b)
                )
                or rest_true(rows[i])
            ]
        except TypeError as exc:
            raise _incomparable(exc) from None

    return or_pass


def build_batch_passes(
    source: "B._Source", conds: Sequence["B._Cond"]
) -> List[Callable]:
    """Compile pushed filters into ``(rows, ids) → ids`` batch passes.

    Each pass scans one column (or, for the generic fallback, builds a
    cursor per surviving row) and returns the surviving row ids, so a
    chain of passes touches only rows that survived every earlier
    conjunct.
    """
    passes: List[Callable] = []
    slotmap = {(source.binding, col): i for i, col in enumerate(source.columns)}
    for cond in conds:
        unary = _unary_pred(cond, source)
        if unary is not None:
            position, keep = unary

            def unary_pass(rows, ids, _p=position, _keep=keep):
                try:
                    return [i for i in ids if _keep(rows[i][_p])]
                except TypeError as exc:
                    raise _incomparable(exc) from None

            passes.append(unary_pass)
            continue
        binary = _binary_pred(cond, source)
        if binary is not None:
            p1, p2, cmp_fn = binary

            def binary_pass(rows, ids, _p1=p1, _p2=p2, _cmp=cmp_fn):
                try:
                    return [
                        i
                        for i in ids
                        if not isinstance((a := rows[i][_p1]), Null)
                        and not isinstance((b := rows[i][_p2]), Null)
                        and _cmp(a, b)
                    ]
                except TypeError as exc:
                    raise _incomparable(exc) from None

            passes.append(binary_pass)
            continue
        if isinstance(cond, B._Bool) and cond.op == "or":
            arms = _or_arms(cond, source)
            if arms is not None:
                passes.append(_or_pass(arms))
                continue
        fn = compile_cond(cond)

        def generic_pass(rows, ids, _fn=fn, _slotmap=slotmap):
            return [i for i in ids if _fn((_slotmap, rows[i]), _EMPTY_ENV) is TRUE]

        passes.append(generic_pass)
    return passes
