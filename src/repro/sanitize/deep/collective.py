"""Collective-divergence: collectives under rank-dependent control flow.

Every rank must reach the same collectives (``allreduce``,
``ialltoallv``, ...) in the same order, or the transport deadlocks. The
static hazard is a collective (or a call that transitively performs
one) guarded by a condition *derived from the local rank*:

- branches of a rank-tainted ``if`` posting *different* collective
  sequences;
- a rank-tainted branch that returns/raises early while collectives
  follow later in the function (ranks taking the branch skip them);
- a collective inside a loop whose trip condition is rank-tainted;
- a rank-tainted conditional expression whose arms differ in
  collectives.

Taint policy (deliberately narrow, to keep the seed tree honest rather
than drowning it in pragmas): sources are ``<commish>.rank`` reads and
the bare name ``rank``; taint propagates only through *simple*
expressions (names, boolean/arithmetic/comparison operators,
conditional expressions) assigned to plain names. Calls, subscripts and
container displays block taint — ``decomp.bounds(comm.rank)`` yields
rank-local *data*, not a rank-distinguishing *predicate*.

Transitive collectives come from a whole-program ``has_coll`` fixpoint:
a function carries the mark when its body posts a collective directly,
calls a marked function, or invokes a marked first-order callback.
"""

from __future__ import annotations

import ast

from ..engine import Finding
from .modgraph import (
    BLOCKING_COLLECTIVES,
    NONBLOCKING_COLLECTIVES,
    comm_call,
)

RULE = "collective-divergence"

_COLL_OPS = BLOCKING_COLLECTIVES | NONBLOCKING_COLLECTIVES

_SIMPLE_EXPRS = (ast.BoolOp, ast.Compare, ast.BinOp, ast.UnaryOp,
                 ast.IfExp, ast.Name, ast.Attribute, ast.Constant)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def _is_rank_source(node: ast.AST) -> bool:
    from .modgraph import is_commish

    if isinstance(node, ast.Attribute) and node.attr == "rank":
        return is_commish(node.value)
    return isinstance(node, ast.Name) and node.id == "rank"


def _tainted(node, tainted_names) -> bool:
    """Rank taint of an expression under the narrow propagation policy."""
    if node is None:
        return False
    if _is_rank_source(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in tainted_names
    if isinstance(node, ast.BoolOp):
        return any(_tainted(v, tainted_names) for v in node.values)
    if isinstance(node, ast.Compare):
        return _tainted(node.left, tainted_names) or any(
            _tainted(c, tainted_names) for c in node.comparators
        )
    if isinstance(node, ast.BinOp):
        return _tainted(node.left, tainted_names) \
            or _tainted(node.right, tainted_names)
    if isinstance(node, ast.UnaryOp):
        return _tainted(node.operand, tainted_names)
    if isinstance(node, ast.IfExp):
        return (_tainted(node.test, tainted_names)
                or _tainted(node.body, tainted_names)
                or _tainted(node.orelse, tainted_names))
    return False  # calls / subscripts / containers block taint


class _TokenCollector(ast.NodeVisitor):
    """Ordered collective tokens of a statement (sub)tree.

    Tokens: the op name for a direct ``comm.<op>(...)``, ``->name`` for
    a call into (or a callback handoff of) a collective-marked function.
    Nested function bodies execute later and are skipped.
    """

    def __init__(self, program, fn):
        self.program = program
        self.fn = fn
        self.tokens = []  # (line, token)

    def visit(self, node):
        if isinstance(node, _SCOPE_NODES):
            return
        super().visit(node)

    def visit_Call(self, node):
        op = comm_call(node)
        if op in _COLL_OPS:
            self.tokens.append((node.lineno, op))
        else:
            target = self.program.resolve_call(self.fn, node)
            if target is not None and getattr(target, "has_coll", False):
                self.tokens.append((node.lineno, f"->{target.name}"))
            for cb in self.program.callback_args(self.fn, node):
                if cb.has_coll:
                    self.tokens.append((node.lineno, f"->{cb.name}"))
        for child in ast.iter_child_nodes(node):
            self.visit(child)


def _tokens(program, fn, nodes):
    col = _TokenCollector(program, fn)
    for node in nodes:
        col.visit(node)
    return col.tokens


def compute_has_coll(program) -> None:
    """Whole-program fixpoint for the ``has_coll`` function mark."""
    fns = list(program.functions)
    changed = True
    while changed:
        changed = False
        for fn in fns:
            if fn.has_coll:
                continue
            body = fn.node.body if not isinstance(fn.node, ast.Lambda) \
                else [ast.Expr(value=fn.node.body)]
            if _tokens(program, fn, body):
                fn.has_coll = True
                changed = True


def _terminal(stmts) -> bool:
    return any(isinstance(s, (ast.Return, ast.Raise)) for s in stmts)


def _fmt(tokens) -> str:
    names = [t for _line, t in tokens]
    if len(names) > 4:
        names = names[:4] + ["..."]
    return "[" + ", ".join(names) + "]" if names else "[]"


class _FunctionScan:
    def __init__(self, program, fn, findings):
        self.program = program
        self.fn = fn
        self.findings = findings
        self.tainted = set()
        body = fn.node.body if not isinstance(fn.node, ast.Lambda) else []
        self.all_tokens = _tokens(program, fn, body)

    def _emit(self, stmt, message):
        self.findings.append(Finding(
            rule=RULE, path=self.fn.module.rel, line=stmt.lineno,
            end_line=getattr(stmt, "end_lineno", stmt.lineno),
            message=message,
        ))

    def _scan_ifexps(self, stmt):
        for node in ast.walk(stmt):
            if isinstance(node, _SCOPE_NODES):
                continue
            if isinstance(node, ast.IfExp) \
                    and _tainted(node.test, self.tainted):
                then_toks = _tokens(self.program, self.fn, [node.body])
                else_toks = _tokens(self.program, self.fn, [node.orelse])
                if [t for _l, t in then_toks] != [t for _l, t in else_toks]:
                    self._emit(stmt, (
                        "rank-dependent conditional expression posts "
                        f"different collectives per arm: {_fmt(then_toks)}"
                        f" vs {_fmt(else_toks)}"
                    ))

    def scan(self, stmts):
        for stmt in stmts:
            self._scan_ifexps(stmt)
            if isinstance(stmt, ast.Assign):
                taint = _tainted(stmt.value, self.tainted) and isinstance(
                    stmt.value, _SIMPLE_EXPRS
                )
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if taint:
                            self.tainted.add(target.id)
                        else:
                            self.tainted.discard(target.id)
            elif isinstance(stmt, ast.If):
                self._scan_if(stmt)
                self.scan(stmt.body)
                self.scan(stmt.orelse)
            elif isinstance(stmt, (ast.While,)):
                if _tainted(stmt.test, self.tainted):
                    toks = _tokens(self.program, self.fn, stmt.body)
                    if toks:
                        self._emit(stmt, (
                            "collectives inside a loop with a "
                            "rank-dependent trip condition: "
                            f"{_fmt(toks)} — iteration counts can "
                            "differ across ranks"
                        ))
                self.scan(stmt.body)
                self.scan(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if _tainted(stmt.iter, self.tainted):
                    toks = _tokens(self.program, self.fn, stmt.body)
                    if toks:
                        self._emit(stmt, (
                            "collectives inside a loop over a "
                            "rank-dependent iterable: "
                            f"{_fmt(toks)} — trip counts can differ "
                            "across ranks"
                        ))
                self.scan(stmt.body)
                self.scan(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self.scan(stmt.body)
            elif isinstance(stmt, ast.Try):
                self.scan(stmt.body)
                for handler in stmt.handlers:
                    self.scan(handler.body)
                self.scan(stmt.orelse)
                self.scan(stmt.finalbody)
            elif isinstance(stmt, ast.Match):
                for case in stmt.cases:
                    self.scan(case.body)

    def _scan_if(self, stmt: ast.If):
        if not _tainted(stmt.test, self.tainted):
            return
        then_toks = _tokens(self.program, self.fn, stmt.body)
        else_toks = _tokens(self.program, self.fn, stmt.orelse)
        if [t for _l, t in then_toks] != [t for _l, t in else_toks]:
            self._emit(stmt, (
                "collective sequence diverges across a rank-dependent "
                f"branch: if-branch posts {_fmt(then_toks)}, "
                f"else posts {_fmt(else_toks)} — ranks will disagree "
                "on collective order"
            ))
            return
        if _terminal(stmt.body) or _terminal(stmt.orelse):
            end = getattr(stmt, "end_lineno", stmt.lineno)
            later = [(l, t) for l, t in self.all_tokens if l > end]
            if later:
                self._emit(stmt, (
                    "rank-dependent branch exits the function early "
                    "while collectives follow at line "
                    f"{later[0][0]} ({_fmt(later)}): ranks taking the "
                    "branch skip them"
                ))


def analyze_program(program):
    """Divergence findings for the whole program (pragma-unfiltered)."""
    compute_has_coll(program)
    findings = []
    for fn in program.functions:
        if isinstance(fn.node, ast.Lambda):
            continue  # scanned as expressions of the enclosing def
        _FunctionScan(program, fn, findings).scan(fn.node.body)
    return findings
