"""Constant propagation and peephole folding over generated loop bodies.

The DSL-level optimisation passes (SCC propagation, folding, inlining) run
*before* lowering to the IR, but the fused ``run_trace`` loop is assembled
*from* lowered fragments: inlining an ALU body whose condition was resolved
at generation time still leaves residue like ::

    condition_1 = 1
    if int(bool(condition_0) and bool(condition_1)):
        state_0_0[0] = pkt_1
    else:
        state_0_0[0] = pkt_1

This pass runs over the assembled loop body (where expressions are Python
source strings) and finishes the job:

* **constant propagation** — straight-line assignments of integer literals
  are tracked and substituted into later expressions (branch bodies are
  processed with a copy of the environment and invalidate their assignment
  targets afterwards, so the analysis stays sound without a fixpoint);
* **constant folding** — any subexpression whose leaves are all literals is
  evaluated at generation time, identity constants are dropped from
  ``and``/``or`` chains, ``bool()`` of a comparison is the comparison, and
  ``if`` branches whose conditions fold to constants are pruned;
* **condition stripping** — where only truthiness matters (``if``
  conditions, ternary tests), value-preserving wrappers like ``int(...)``
  and ``bool(...)`` are peeled off, including through ``and``/``or``/``not``;
* **identical-branch elimination** — an ``if`` whose branches all execute
  the same statements as its ``else`` collapses to those statements
  (generated conditions are pure, so dropping the test is safe);
* **redundant-load elimination** — a pure assignment repeating the exact
  (target, expression) pair still in effect (e.g. the operand load
  ``pkt_0 = phv[0]`` emitted once per ALU) is dropped; any write to a name
  the expression mentions — including subscript stores to its base and
  mutations via non-builtin calls — invalidates the recorded copy first;
* **dead-store elimination** — assignments to plain names that are read
  nowhere in the loop body are removed (loop-carried uses count as reads, so
  removal is safe even though the body repeats).

The pass is purely syntactic on expression strings (via :mod:`ast`) and
never touches subscript targets (state mutations) or calls it cannot prove
pure, so applying it to any fused loop body is behaviour-preserving.  An
expression that does not parse is a generator bug and raises
:class:`~repro.errors.CodegenError` rather than being skipped.

Every analysis above is a pure function of an expression string, and the
same strings recur constantly (one operand load per ALU, one invalidation
check per recorded copy per store), so the pass works through a
:class:`PeepholeMemo`: parsed name sets, purity verdicts and folds, the
latter keyed on (source, the literal bindings of the names it loads,
condition flag).  A memo lives for one :func:`peephole_block` call, the
one loop body of a generated ``run_trace``.  Nothing outlives that call, so
every generated program pays for its own analysis and memory stays flat.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ...errors import CodegenError
from ...ir import nodes as ir

#: Pure builtins that may be evaluated at generation time.
_FOLDABLE_CALLS = {"int": int, "bool": bool, "abs": abs, "min": min, "max": max}

#: Builtins folded only when called with exactly one argument; ``min`` and
#: ``max`` need at least two (one integer argument is not an iterable).
_UNARY_CALLS = frozenset({"int", "bool", "abs"})

_ALLOWED_BINOPS = (
    ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Div, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.BitOr, ast.BitXor, ast.BitAnd,
)
_ALLOWED_UNARYOPS = (ast.UAdd, ast.USub, ast.Invert, ast.Not)

_SUBSCRIPT_TARGET_RE = re.compile(r"^([A-Za-z_]\w*)\s*\[")


def _is_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, bool))


def _foldable(node: ast.AST) -> bool:
    """True when ``node`` is a pure expression over integer/bool literals."""
    if _is_literal(node):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        return _foldable(node.left) and _foldable(node.right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARYOPS):
        return _foldable(node.operand)
    if isinstance(node, ast.BoolOp):
        return all(_foldable(value) for value in node.values)
    if isinstance(node, ast.Compare):
        return _foldable(node.left) and all(_foldable(comp) for comp in node.comparators)
    if isinstance(node, ast.IfExp):
        return _foldable(node.test) and _foldable(node.body) and _foldable(node.orelse)
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id in _FOLDABLE_CALLS
            and not node.keywords
            and (len(node.args) == 1 if node.func.id in _UNARY_CALLS else len(node.args) >= 2)
            and all(_foldable(arg) for arg in node.args)
        )
    return False


def _evaluate(node: ast.AST) -> Optional[ast.AST]:
    """Evaluate a foldable node; ``None`` when evaluation fails.

    Folding leaves an expression alone when Python would raise evaluating it
    (``1 // 0``, ``1 << -1``), so the generated code raises at run time, as
    the unfolded code would.  Any other exception is a bug and propagates.
    """
    expression = ast.Expression(body=node)
    ast.fix_missing_locations(expression)
    try:
        value = eval(  # noqa: S307 - the expression is literal-only by construction
            compile(expression, "<peephole>", "eval"),
            {"__builtins__": {}},
            dict(_FOLDABLE_CALLS),
        )
    except (ArithmeticError, ValueError):
        return None
    if isinstance(value, bool) or isinstance(value, int):
        return ast.Constant(value=value)
    return None


def _truthiness(node: ast.AST) -> Optional[bool]:
    """Truth value of a literal node, or ``None`` for non-literals."""
    if _is_literal(node):
        return bool(node.value)
    return None


def _is_boolish(node: ast.AST) -> bool:
    """True when ``node`` is guaranteed to evaluate to ``True``/``False``."""
    if isinstance(node, ast.Compare):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return True
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "bool"
            and len(node.args) == 1
            and not node.keywords
        )
    if isinstance(node, ast.BoolOp):
        return all(_is_boolish(value) for value in node.values)
    return False


def _simplify_condition(node: ast.AST) -> ast.AST:
    """Strip truthiness-preserving wrappers in condition position.

    ``if int(X):`` behaves exactly like ``if X:`` for the integer-valued
    expressions dgen emits, and ``and``/``or``/``not`` only consume the
    truthiness of their operands, so the stripping distributes through them.
    """
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("int", "bool")
        and len(node.args) == 1
        and not node.keywords
    ):
        return _simplify_condition(node.args[0])
    if isinstance(node, ast.BoolOp):
        values = [_simplify_condition(value) for value in node.values]
        return ast.BoolOp(op=node.op, values=values)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return ast.UnaryOp(op=node.op, operand=_simplify_condition(node.operand))
    return node


class _Folder(ast.NodeTransformer):
    """Substitutes known constants and folds literal subexpressions bottom-up."""

    def __init__(self, env: Dict[str, int]):
        self.env = env

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if isinstance(node.ctx, ast.Load) and node.id in self.env:
            return ast.copy_location(ast.Constant(value=self.env[node.id]), node)
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        self.generic_visit(node)
        is_and = isinstance(node.op, ast.And)
        values: List[ast.AST] = []
        for position, value in enumerate(node.values):
            truth = _truthiness(value)
            last = position == len(node.values) - 1
            if truth is not None:
                if not values:
                    # A leading constant short-circuits: the identity constant
                    # is dropped, the deciding constant is the result.
                    if truth is is_and:
                        continue
                    return value
                if truth is is_and and (not last or _is_boolish(values[-1])):
                    # An identity constant mid-chain never changes the result;
                    # in last position it is the result only when the chain
                    # reaches it, which equals the previous operand's value
                    # exactly when that operand is boolean-valued.
                    continue
            values.append(value)
        if not values:
            return ast.Constant(value=is_and)
        if len(values) == 1:
            return values[0]
        folded = ast.BoolOp(op=node.op, values=values)
        return self._finish(folded)

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        # ``bool()`` of a comparison is the comparison itself.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "bool"
            and not node.keywords
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Compare)
        ):
            return node.args[0]
        return self._finish(node)

    def visit_IfExp(self, node: ast.IfExp) -> ast.AST:
        self.generic_visit(node)
        node.test = _simplify_condition(node.test)
        truth = _truthiness(node.test)
        if truth is not None:
            return node.body if truth else node.orelse
        return self._finish(node)

    def generic_visit(self, node: ast.AST) -> ast.AST:
        super().generic_visit(node)
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare)):
            return self._finish(node)
        return node

    @staticmethod
    def _finish(node: ast.AST) -> ast.AST:
        if not _is_literal(node) and _foldable(node):
            evaluated = _evaluate(node)
            if evaluated is not None:
                return evaluated
        return node


def fold_source(
    source: str, env: Optional[Dict[str, int]] = None, condition: bool = False
) -> Tuple[str, Optional[int]]:
    """Fold one expression string; returns ``(new source, literal value or None)``.

    With ``condition=True`` the expression sits in truthiness position and
    additionally has its value-preserving wrappers stripped.
    """
    folded = _Folder(env or {}).visit(_parse(source).body)
    if condition:
        folded = _Folder(env or {}).visit(_simplify_condition(folded))
    value = folded.value if _is_literal(folded) else None
    if isinstance(value, bool):
        value = int(value)
    return ast.unparse(folded), value


# ----------------------------------------------------------------------
# Statement-level pass
# ----------------------------------------------------------------------
def _parse(source: str) -> ast.Expression:
    try:
        return ast.parse(source, mode="eval")
    except SyntaxError as error:
        raise CodegenError(
            f"peephole pass got a malformed expression {source!r}: {error}"
        ) from error


def _expr_names(source: str) -> FrozenSet[str]:
    """Every identifier loaded or called anywhere in an expression string."""
    return frozenset(node.id for node in ast.walk(_parse(source)) if isinstance(node, ast.Name))


def _is_pure_expr(source: str) -> bool:
    """True when the expression cannot mutate anything (folding builtins only)."""
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _FOLDABLE_CALLS):
                return False
    return True


class PeepholeMemo:
    """Memoised string analyses for one block (see the module docstring)."""

    def __init__(self) -> None:
        self._names: Dict[str, FrozenSet[str]] = {}
        self._pure: Dict[str, bool] = {}
        self._folds: Dict[tuple, Tuple[str, Optional[int]]] = {}

    def names(self, source: str) -> FrozenSet[str]:
        names = self._names.get(source)
        if names is None:
            names = self._names[source] = _expr_names(source)
        return names

    def is_pure(self, source: str) -> bool:
        pure = self._pure.get(source)
        if pure is None:
            pure = self._pure[source] = _is_pure_expr(source)
        return pure

    def fold(
        self, source: str, env: Dict[str, int], condition: bool = False
    ) -> Tuple[str, Optional[int]]:
        """:func:`fold_source`, memoised on the bindings of the names ``source`` loads."""
        bindings = frozenset((name, env[name]) for name in self.names(source) if name in env)
        key = (source, bindings, condition)
        folded = self._folds.get(key)
        if folded is None:
            folded = self._folds[key] = fold_source(source, env, condition)
        return folded


def _mutated_names(statements: Sequence[ir.IRStmt], memo: PeepholeMemo) -> Set[str]:
    """Names whose bindings or contents may change anywhere in ``statements``.

    Covers identifier assignment targets, the base names of subscript
    stores, the targets of ``for`` loops, and every name appearing in an
    expression that contains a non-builtin call (the call may mutate its
    arguments, e.g. a stateful ALU function updating its state vectors).
    """
    names: Set[str] = set()

    def visit_expr(source: str) -> None:
        if not memo.is_pure(source):
            names.update(memo.names(source))

    for statement in statements:
        if isinstance(statement, ir.Assign):
            if statement.target.isidentifier():
                names.add(statement.target)
            else:
                match = _SUBSCRIPT_TARGET_RE.match(statement.target)
                if match:
                    names.add(match.group(1))
                else:  # unrecognised target shape: give up on precision
                    names.update(memo.names(statement.target))
            visit_expr(statement.expression)
        elif isinstance(statement, (ir.Return, ir.ExprStmt)):
            visit_expr(statement.expression)
        elif isinstance(statement, ir.If):
            for condition, body in statement.branches:
                visit_expr(condition)
                names |= _mutated_names(body, memo)
            names |= _mutated_names(statement.orelse, memo)
        elif isinstance(statement, ir.For):
            names.add(statement.target)
            visit_expr(statement.iterable)
            names |= _mutated_names(statement.body, memo)
    return names


def _stmt_texts(statements: Sequence[ir.IRStmt]) -> Iterator[str]:
    for statement in statements:
        if isinstance(statement, ir.Assign):
            yield statement.target
            yield statement.expression
        elif isinstance(statement, (ir.Return, ir.ExprStmt)):
            yield statement.expression
        elif isinstance(statement, ir.If):
            for condition, body in statement.branches:
                yield condition
                yield from _stmt_texts(body)
            yield from _stmt_texts(statement.orelse)
        elif isinstance(statement, ir.For):
            yield statement.iterable
            yield from _stmt_texts(statement.body)


def _stmt_names(statement: ir.IRStmt, memo: PeepholeMemo) -> Set[str]:
    """Every name mentioned anywhere in a compound statement."""
    return set().union(*map(memo.names, _stmt_texts([statement])))


class _Scope:
    """Mutable analysis state threaded through one straight-line region."""

    def __init__(self, memo: PeepholeMemo) -> None:
        self.memo = memo
        #: name -> known literal value
        self.env: Dict[str, int] = {}
        #: name -> pure expression source currently bound to it
        self.copies: Dict[str, str] = {}

    def fork(self) -> "_Scope":
        forked = _Scope(self.memo)
        forked.env = dict(self.env)
        forked.copies = dict(self.copies)
        return forked

    def invalidate(self, names: Set[str]) -> None:
        """Forget facts about ``names`` and every copy that mentions them."""
        for name in names:
            self.env.pop(name, None)
            self.copies.pop(name, None)
        if names:
            names_of = self.memo.names
            stale = [
                target
                for target, expression in self.copies.items()
                if not names.isdisjoint(names_of(expression))
            ]
            for target in stale:
                self.copies.pop(target, None)


def _propagate(statements: Sequence[ir.IRStmt], scope: _Scope) -> List[ir.IRStmt]:
    """Constant-propagate and fold through one straight-line statement list."""
    memo = scope.memo
    out: List[ir.IRStmt] = []
    for statement in statements:
        if isinstance(statement, ir.Assign):
            expression, value = memo.fold(statement.expression, scope.env)
            if expression == statement.target and memo.is_pure(expression):
                continue  # self-assignment (the "unchanged" arm of an ALU branch)
            if statement.target.isidentifier():
                target = statement.target
                if scope.copies.get(target) == expression:
                    continue  # redundant reload of an unchanged pure value
                scope.invalidate({target})
                if value is not None:
                    scope.env[target] = value
                elif memo.is_pure(expression):
                    scope.copies[target] = expression
                else:
                    scope.invalidate(memo.names(expression))
            else:
                scope.invalidate(
                    _mutated_names([ir.Assign(statement.target, expression)], memo)
                )
            out.append(ir.Assign(statement.target, expression))
        elif isinstance(statement, ir.Return):
            out.append(ir.Return(memo.fold(statement.expression, scope.env)[0]))
        elif isinstance(statement, ir.ExprStmt):
            expression = memo.fold(statement.expression, scope.env)[0]
            if not memo.is_pure(expression):
                scope.invalidate(memo.names(expression))
            out.append(ir.ExprStmt(expression))
        elif isinstance(statement, ir.If):
            out.extend(_propagate_if(statement, scope))
        elif isinstance(statement, ir.For):
            body = _propagate(statement.body, _Scope(memo))
            scope.invalidate(_mutated_names([statement], memo))
            out.append(ir.For(statement.target, statement.iterable, body))
        else:
            out.append(statement)
    return out


def _propagate_if(statement: ir.If, scope: _Scope) -> List[ir.IRStmt]:
    """Fold an ``if`` chain: prune dead branches, inline decided ones."""
    kept: List[Tuple[str, List[ir.IRStmt]]] = []
    orelse: Sequence[ir.IRStmt] = statement.orelse
    for condition, body in statement.branches:
        folded, value = scope.memo.fold(condition, scope.env, condition=True)
        if value is not None:
            if value == 0:
                continue
            orelse = body
            break
        kept.append((folded, body))
    if not kept:
        # The chain was decided at generation time; the surviving body runs
        # unconditionally, so the scope flows straight through it.
        return _propagate(list(orelse), scope)
    if all(list(body) == list(orelse) for _condition, body in kept):
        # Every surviving branch does exactly what the else does; the
        # conditions are pure expressions, so the test can be dropped.
        return _propagate(list(orelse), scope)
    branches = [
        (condition, _propagate(list(body), scope.fork())) for condition, body in kept
    ]
    processed_orelse = _propagate(list(orelse), scope.fork())
    result = ir.If(branches=branches, orelse=processed_orelse)
    scope.invalidate(_mutated_names([result], scope.memo))
    return [result]


def _upward_exposed(statements: Sequence[ir.IRStmt], memo: PeepholeMemo) -> Set[str]:
    """Names read before any definite top-level store in ``statements``.

    In a loop body these are the loop-carried uses: reads at the top of the
    next iteration that observe the previous iteration's final stores.
    Stores inside ``if`` branches are conditional and therefore never count
    as definite.
    """
    exposed: Set[str] = set()
    defined: Set[str] = set()
    for statement in statements:
        if isinstance(statement, ir.Assign):
            exposed |= memo.names(statement.expression) - defined
            if statement.target.isidentifier():
                defined.add(statement.target)
            else:
                exposed |= memo.names(statement.target) - defined
        elif isinstance(statement, (ir.Return, ir.ExprStmt)):
            exposed |= memo.names(statement.expression) - defined
        elif isinstance(statement, (ir.If, ir.For)):
            exposed |= _stmt_names(statement, memo) - defined
    return exposed


def _eliminate_dead_stores(
    statements: List[ir.IRStmt], memo: PeepholeMemo
) -> List[ir.IRStmt]:
    """Backward-liveness dead-store elimination over one loop body.

    A top-level assignment to a plain name with a pure right-hand side is
    dropped when nothing reads the name between this store and the next
    store to it — treating the body as a loop, so names the next iteration
    reads before writing (the upward-exposed set) stay live across the back
    edge.  Statements inside ``if`` branches are left untouched; their reads
    keep names alive conservatively.
    """
    live = _upward_exposed(statements, memo)
    kept_reversed: List[ir.IRStmt] = []
    for statement in reversed(statements):
        if (
            isinstance(statement, ir.Assign)
            and statement.target.isidentifier()
            and memo.is_pure(statement.expression)
        ):
            if statement.target not in live:
                continue
            live.discard(statement.target)
            live |= memo.names(statement.expression)
        elif isinstance(statement, ir.Assign):
            live |= memo.names(statement.target)
            live |= memo.names(statement.expression)
        elif isinstance(statement, (ir.Return, ir.ExprStmt)):
            live |= memo.names(statement.expression)
        elif isinstance(statement, (ir.If, ir.For)):
            live |= _stmt_names(statement, memo)
        kept_reversed.append(statement)
    return list(reversed(kept_reversed))


def peephole_block(statements: Sequence[ir.IRStmt]) -> List[ir.IRStmt]:
    """Run the full pass over one loop body (or any straight-line block)."""
    memo = PeepholeMemo()
    return _eliminate_dead_stores(_propagate(statements, _Scope(memo)), memo)
