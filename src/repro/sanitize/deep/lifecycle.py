"""Request-lifecycle dataflow: every nonblocking post reaches settlement.

Two cooperating layers, both running over the CFGs of every function in
the program:

**Path-local dataflow.** A post (``comm.ialltoallv(...)`` and friends)
creates an abstract *resource* keyed by its source site. Resources flow
through local variables, tuple unpacking, container literals and
comprehensions. A resource is *settled* by ``wait()``/``cancel()``,
by being passed to a function whose summary settles that
parameter, or by *escaping* — stored into an object/dict slot, returned,
yielded, or handed to any call (ownership transfer — deliberately
generous to avoid false positives). A resource still pending at an
explicit exit (``return``, uncaught ``raise``, falling off the end) is
reported at its post site, naming the leaking exit.

**Slot completion.** Escaping into a slot does not settle the protocol —
it moves the obligation. Every *cell* (a ``self.attr`` slot scoped to
its class, like the rank domain's ``drift_req``/``flight``) that receives
posts must show **wait evidence** somewhere in the program: ``cancel()``
alone is an error-path release and is reported as incomplete. Evidence
flows through derived values (``for k, r in self._reqs1.items():
r.wait()``), helper summaries, and *carrier classes* — a class whose
attributes hold requests (``MigrationFlight``): calling one of its
completing methods on a value derived from a slot credits that slot.
Stores into a captured or module-level dict (``state["req"] = ...``) are
not cells: they count as an ownership transfer, like any opaque store.

Summaries (returns-fresh, settles-param, carrier methods) are computed
by iterating the whole-program analysis to a fixed point (three rounds
cover the repo's call-chain depth; deeper chains degrade to false
negatives, never false positives).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..engine import Finding
from .cfg import build_cfg
from .modgraph import (
    NONBLOCKING_COLLECTIVES,
    SETTLE_METHODS,
    comm_call,
)

RULE = "request-lifecycle"

#: container mutators that store a value without taking ownership
_HOLD_METHODS = frozenset(
    {"append", "extend", "add", "insert", "update", "setdefault"}
)

_EMPTY = frozenset()


@dataclass(frozen=True)
class Resource:
    """An abstract in-flight request (or request-holding value)."""

    site: tuple  # (rel_path, line)
    op: str  # post op, "carrier:<class>", or "fresh:<function>"

    def describe(self) -> str:
        if self.op.startswith("carrier:"):
            return f"request-carrying {self.op.split(':')[-1]} instance"
        if self.op.startswith("fresh:"):
            return f"request-holding return of {self.op.split(':')[-1]}()"
        return f"nonblocking {self.op} request"


class CellStore:
    """Program-wide slot accounting, rebuilt each analysis round."""

    def __init__(self):
        self.posts = {}  # key -> [(rel, line, op)]
        self.carrier_of = {}  # key -> set of carrier class keys
        self.wait_ev = {}  # key -> [(rel, line, fn_key)]
        self.cancel_ev = {}

    def post(self, key, rel, line, op):
        self.posts.setdefault(key, []).append((rel, line, op))
        if op.startswith("carrier:"):
            self.carrier_of.setdefault(key, set()).add(op.split(":", 1)[1])

    def evidence(self, key, kind, rel, line, fn_key):
        book = self.wait_ev if kind == "wait" else self.cancel_ev
        book.setdefault(key, []).append((rel, line, fn_key))

    def has_evidence(self, post_key, kind) -> bool:
        book = self.wait_ev if kind == "wait" else self.cancel_ev
        return post_key in book


class _State:
    """vars: name -> resources held; status: resource -> pending;
    derived: name -> cell keys the value was read from."""

    __slots__ = ("vars", "status", "derived")

    def __init__(self, vars=None, status=None, derived=None):
        self.vars = vars or {}
        self.status = status or {}
        self.derived = derived or {}

    def copy(self):
        return _State(dict(self.vars), dict(self.status),
                      dict(self.derived))

    def join(self, other: "_State") -> bool:
        """Merge ``other`` into self; True when anything changed."""
        changed = False
        for name, rs in other.vars.items():
            merged = self.vars.get(name, _EMPTY) | rs
            if merged != self.vars.get(name, _EMPTY):
                self.vars[name] = merged
                changed = True
        for res, pending in other.status.items():
            merged = self.status.get(res, False) or pending
            if merged != self.status.get(res):
                self.status[res] = merged
                changed = True
        for name, cs in other.derived.items():
            merged = self.derived.get(name, _EMPTY) | cs
            if merged != self.derived.get(name, _EMPTY):
                self.derived[name] = merged
                changed = True
        return changed


class FunctionLifecycle:
    """One function's dataflow pass (one analysis round)."""

    def __init__(self, program, fn, store: CellStore):
        self.program = program
        self.fn = fn
        self.mod = fn.module
        self.store = store
        self.leaks = {}  # site -> (resource, exit_kind, exit_line)

    # -- cell keys ------------------------------------------------------
    def _is_local(self, state, name: str) -> bool:
        return name in state.vars

    def _cell_key(self, node):
        """Slot key for a ``self.attr`` / ``self.attr[k]`` store/load
        target, or None."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.fn.cls is not None
        ):
            return ("attr", self.fn.cls.key, node.attr)
        return None

    # -- resource bookkeeping -------------------------------------------
    def _escape(self, state, resources):
        for r in resources:
            state.status[r] = False

    def _evidence(self, state, cells, kind, line):
        for key in cells:
            self.store.evidence(key, kind, self.mod.rel, line, self.fn.key)

    def _record_posts(self, state, key, resources, line):
        for r in resources:
            if state.status.get(r):
                self.store.post(key, r.site[0], r.site[1], r.op)

    # -- expression evaluation ------------------------------------------
    def eval(self, state, node):
        """(resources, derived-cells) of ``node``; mutates ``state``."""
        if node is None:
            return _EMPTY, _EMPTY
        if isinstance(node, ast.Name):
            return (state.vars.get(node.id, _EMPTY),
                    state.derived.get(node.id, _EMPTY))
        if isinstance(node, ast.Call):
            return self._eval_call(state, node)
        if isinstance(node, ast.Attribute):
            rs, cs = self.eval(state, node.value)
            key = self._cell_key(node)
            if key is not None:
                cs = cs | {key}
            return rs, cs
        if isinstance(node, ast.Subscript):
            rs, cs = self.eval(state, node.value)
            self.eval(state, node.slice)
            key = self._cell_key(node)
            if key is not None:
                cs = cs | {key}
            return rs, cs
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            rs, cs = _EMPTY, _EMPTY
            for elt in node.elts:
                ers, ecs = self.eval(state, elt)
                rs, cs = rs | ers, cs | ecs
            return rs, cs
        if isinstance(node, ast.Dict):
            rs, cs = _EMPTY, _EMPTY
            for sub in list(node.keys) + list(node.values):
                ers, ecs = self.eval(state, sub)
                rs, cs = rs | ers, cs | ecs
            return rs, cs
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in node.generators:
                irs, ics = self.eval(state, gen.iter)
                self._bind_names(state, gen.target, irs, ics)
                for cond in gen.ifs:
                    self.eval(state, cond)
            if isinstance(node, ast.DictComp):
                krs, kcs = self.eval(state, node.key)
                vrs, vcs = self.eval(state, node.value)
                return krs | vrs, kcs | vcs
            return self.eval(state, node.elt)
        if isinstance(node, ast.IfExp):
            self.eval(state, node.test)
            trs, tcs = self.eval(state, node.body)
            ors, ocs = self.eval(state, node.orelse)
            return trs | ors, tcs | ocs
        if isinstance(node, ast.BoolOp):
            rs, cs = _EMPTY, _EMPTY
            for val in node.values:
                ers, ecs = self.eval(state, val)
                rs, cs = rs | ers, cs | ecs
            return rs, cs
        if isinstance(node, (ast.BinOp, ast.Compare, ast.UnaryOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(state, child)
            return _EMPTY, _EMPTY
        if isinstance(node, (ast.Await, ast.Starred, ast.FormattedValue)):
            return self.eval(state, node.value)
        if isinstance(node, ast.NamedExpr):
            rs, cs = self.eval(state, node.value)
            self._bind_names(state, node.target, rs, cs)
            return rs, cs
        if isinstance(node, ast.JoinedStr):
            for val in node.values:
                self.eval(state, val)
            return _EMPTY, _EMPTY
        if isinstance(node, ast.Slice):
            for sub in (node.lower, node.upper, node.step):
                self.eval(state, sub)
            return _EMPTY, _EMPTY
        if isinstance(node, ast.Lambda):
            return _EMPTY, _EMPTY  # analyzed as its own function
        return _EMPTY, _EMPTY

    def _eval_call(self, state, node: ast.Call):
        from .modgraph import ClassInfo, FunctionInfo

        line = node.lineno
        # 1. nonblocking post on a communicator
        op = comm_call(node)
        if op in NONBLOCKING_COLLECTIVES:
            self._eval_args(state, node)
            res = Resource(site=(self.mod.rel, line), op=op)
            state.status[res] = True
            return frozenset({res}), _EMPTY
        if op is not None:  # blocking collective: no handle
            self._eval_args(state, node)
            return _EMPTY, _EMPTY

        func = node.func
        # 2. settlement methods on a handle / container of handles
        if isinstance(func, ast.Attribute) and func.attr in SETTLE_METHODS:
            rs, cs = self.eval(state, func.value)
            self._eval_args(state, node)
            kind = "cancel" if func.attr == "cancel" else "wait"
            self._escape(state, rs)
            self._evidence(state, cs, kind, line)
            return _EMPTY, _EMPTY

        # 3. container mutators hold their argument without owning it
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _HOLD_METHODS
            and isinstance(func.value, ast.Name)
            and self._is_local(state, func.value.id)
        ):
            arg_rs = _EMPTY
            for arg in node.args:
                ers, _ecs = self.eval(state, arg)
                arg_rs |= ers
            for kw in node.keywords:
                self.eval(state, kw.value)
            base = func.value.id
            state.vars[base] = state.vars.get(base, _EMPTY) | arg_rs
            return _EMPTY, _EMPTY

        target = self.program.resolve_call(self.fn, node)
        # 4a. constructor: a carrier class instance owns its requests
        if isinstance(target, ClassInfo):
            self._eval_args(state, node, escape=True)
            if target.key in self.program.carriers:
                res = Resource(site=(self.mod.rel, line),
                               op=f"carrier:{target.key}")
                state.status[res] = True
                return frozenset({res}), _EMPTY
            return _EMPTY, _EMPTY
        # 4b. known function: apply settles-param / returns-fresh summary
        if isinstance(target, FunctionInfo):
            for idx, arg in enumerate(node.args):
                ars, acs = self.eval(state, arg)
                self._escape(state, ars)
                kind = target.settles_params.get(idx)
                if kind is not None:
                    self._evidence(state, acs, kind, line)
            for kw in node.keywords:
                krs, _kcs = self.eval(state, kw.value)
                self._escape(state, krs)
            if target.returns_fresh:
                res = Resource(site=(self.mod.rel, line),
                               op=target.returns_fresh)
                state.status[res] = True
                return frozenset({res}), _EMPTY
            return _EMPTY, _EMPTY

        # 5. completing/cancelling method of a carrier class, reached
        #    through a value derived from a slot (fl = mig["flight"])
        if isinstance(func, ast.Attribute):
            rs, cs = self.eval(state, func.value)
            classes = set()
            for r in rs:
                if r.op.startswith("carrier:"):
                    classes.add(r.op.split(":", 1)[1])
            for key in cs:
                classes |= self.store.carrier_of.get(key, set())
                classes |= self.program.carrier_slots.get(key, set())
            for cls_key in classes:
                methods = self.program.carriers.get(cls_key)
                if methods is None:
                    continue
                if func.attr in methods["wait"]:
                    self._escape(state, rs)
                    self._evidence(state, cs, "wait", line)
                    self._eval_args(state, node, escape=True)
                    return _EMPTY, _EMPTY
                if func.attr in methods["cancel"]:
                    self._escape(state, rs)
                    self._evidence(state, cs, "cancel", line)
                    self._eval_args(state, node, escape=True)
                    return _EMPTY, _EMPTY
            # 6. unknown method call: arguments change ownership, but
            #    the receiver's holdings and cell derivation pass
            #    through — ``for k, r in self._reqs1.items(): r.wait()``
            #    must still credit the _reqs1 slot
            self._eval_args(state, node, escape=True)
            return rs, cs

        # 6. unknown call: arguments change ownership
        self.eval(state, func)
        self._eval_args(state, node, escape=True)
        return _EMPTY, _EMPTY

    def _eval_args(self, state, node: ast.Call, escape: bool = False):
        for arg in node.args:
            rs, _cs = self.eval(state, arg)
            if escape:
                self._escape(state, rs)
        for kw in node.keywords:
            rs, _cs = self.eval(state, kw.value)
            if escape:
                self._escape(state, rs)

    # -- binding --------------------------------------------------------
    def _bind_names(self, state, target, rs, cs):
        """Bind loop/comprehension targets (names only, no slot posts)."""
        if isinstance(target, ast.Name):
            state.vars[target.id] = rs
            state.derived[target.id] = cs
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_names(state, elt, rs, cs)
        elif isinstance(target, ast.Starred):
            self._bind_names(state, target.value, rs, cs)

    def _bind(self, state, target, rs, cs, line):
        if isinstance(target, ast.Name):
            state.vars[target.id] = rs
            state.derived[target.id] = cs
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(state, elt, rs, cs, line)
            return
        if isinstance(target, ast.Starred):
            self._bind(state, target.value, rs, cs, line)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self.eval(state, target.value)
            if isinstance(target, ast.Subscript):
                self.eval(state, target.slice)
            key = self._cell_key(target)
            if key is not None:
                self._record_posts(state, key, rs, line)
                self._escape(state, rs)
                return
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and self._is_local(state, target.value.id)
            ):
                # local container holds the resource; obligation stays
                base = target.value.id
                state.vars[base] = state.vars.get(base, _EMPTY) | rs
                return
            self._escape(state, rs)  # opaque store: ownership transfer
            return
        self._escape(state, rs)

    # -- statement transfer ---------------------------------------------
    def transfer(self, state, stmt):
        if stmt is None or isinstance(
            stmt, (ast.Pass, ast.Break, ast.Continue, ast.Import,
                   ast.ImportFrom, ast.Global, ast.Nonlocal,
                   ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.ExceptHandler)
        ):
            return state
        if isinstance(stmt, ast.Assign):
            rs, cs = self.eval(state, stmt.value)
            for target in stmt.targets:
                self._bind(state, target, rs, cs, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                rs, cs = self.eval(state, stmt.value)
                self._bind(state, stmt.target, rs, cs, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            rs, cs = self.eval(state, stmt.value)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                state.vars[name] = state.vars.get(name, _EMPTY) | rs
                state.derived[name] = state.derived.get(name, _EMPTY) | cs
            else:
                self._bind(state, stmt.target, rs, cs, stmt.lineno)
        elif isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
                rs, _cs = self.eval(state, stmt.value.value)
                self._escape(state, rs)
            else:
                self.eval(state, stmt.value)
        elif isinstance(stmt, ast.Return):
            rs, _cs = self.eval(state, stmt.value)
            pending = [r for r in rs if state.status.get(r)]
            if pending:
                kinds = {r.op for r in pending}
                carrier = next(
                    (k for k in kinds if k.startswith("carrier:")), None
                )
                self.fn.returns_fresh = carrier or f"fresh:{self.fn.name}"
            self._escape(state, rs)
        elif isinstance(stmt, ast.Raise):
            self.eval(state, stmt.exc)
            self.eval(state, stmt.cause)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.eval(state, stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            rs, cs = self.eval(state, stmt.iter)
            self._bind_names(state, stmt.target, rs, cs)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                rs, cs = self.eval(state, item.context_expr)
                if item.optional_vars is not None:
                    self._bind_names(state, item.optional_vars, rs, cs)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.vars.pop(target.id, None)
                    state.derived.pop(target.id, None)
        elif isinstance(stmt, ast.Assert):
            self.eval(state, stmt.test)
            self.eval(state, stmt.msg)
        elif isinstance(stmt, ast.Match):
            self.eval(state, stmt.subject)
        return state

    # -- driver ---------------------------------------------------------
    def run(self):
        cfg = build_cfg(self.fn.node)
        entry = _State()
        for i, name in enumerate(self.fn.param_names):
            entry.vars[name] = _EMPTY
            entry.derived[name] = frozenset({("param", self.fn.key, i)})
        in_states = {cfg.entry: entry}
        out_states = {}
        work = [cfg.entry]
        visits = {}
        while work:
            node = work.pop()
            visits[node] = visits.get(node, 0) + 1
            if visits[node] > 80:  # safety valve; never hit in practice
                continue
            state = in_states[node].copy()
            state = self.transfer(state, node.stmt)
            out_states[node] = state
            for succ in node.succ:
                if succ not in in_states:
                    in_states[succ] = state.copy()
                    work.append(succ)
                elif in_states[succ].join(state):
                    work.append(succ)

        # summary: settles-param evidence recorded during this pass is
        # promoted by the program round (see analyze_program)
        for node, kind in cfg.exits:
            state = out_states.get(node)
            if state is None:
                continue
            exit_line = getattr(node.stmt, "lineno",
                                getattr(self.fn.node, "lineno", 0))
            for res, pending in state.status.items():
                if pending and res.site not in self.leaks:
                    self.leaks[res.site] = (res, kind, exit_line)
        return self.leaks


_EXIT_LABEL = {
    "return": "an early return",
    "raise": "a raised exception",
    "end": "the end of the function",
}


def analyze_program(program, rounds: int = 4):
    """Run the lifecycle analysis to a summary fixed point.

    Returns ``(findings, store)``: path-leak and slot-completion
    findings (pragma-unfiltered) plus the final :class:`CellStore`.
    """
    store = CellStore()
    leaks = {}
    fn_by_key = {fn.key: fn for fn in program.functions}
    for _round in range(rounds):
        store = CellStore()
        leaks = {}
        for fn in program.functions:
            analysis = FunctionLifecycle(program, fn, store)
            for site, leak in analysis.run().items():
                leaks.setdefault(site, leak)
        # settles-param summaries from parameter-marker evidence
        for book, kind in ((store.wait_ev, "wait"),
                           (store.cancel_ev, "cancel")):
            for key in book:
                if key[0] != "param":
                    continue
                fn = fn_by_key.get(key[1])
                if fn is not None:
                    prev = fn.settles_params.get(key[2])
                    if prev != "wait":  # wait evidence wins over cancel
                        fn.settles_params[key[2]] = kind
        # carrier classes: attr slots with posts define the carrier; the
        # methods providing wait/cancel evidence are its settlers
        carriers = {}
        for key, _posts in store.posts.items():
            if key[0] != "attr":
                continue
            cls_key = key[1]
            entry = carriers.setdefault(cls_key,
                                        {"wait": set(), "cancel": set()})
            for book, kind in ((store.wait_ev, "wait"),
                               (store.cancel_ev, "cancel")):
                for ev_key, sites in book.items():
                    if ev_key[0] == "attr" and ev_key[1] == cls_key:
                        for _rel, _line, fn_key in sites:
                            fn = fn_by_key.get(fn_key)
                            if fn is not None and fn.cls is not None \
                                    and fn.cls.key == cls_key:
                                entry[kind].add(fn.name)
        program.carriers = carriers
        # slot -> carrier classes knowledge survives into the next
        # round, so settles analyzed before their posting function
        # still recognize carrier methods
        for key, classes in store.carrier_of.items():
            program.carrier_slots.setdefault(key, set()).update(classes)

    findings = []
    for site in sorted(leaks):
        res, kind, exit_line = leaks[site]
        findings.append(Finding(
            rule=RULE, path=site[0], line=site[1], end_line=site[1],
            message=(
                f"{res.describe()} posted here can leave the function "
                f"unsettled via {_EXIT_LABEL[kind]} at line {exit_line}: "
                "no wait()/cancel() or ownership transfer on that path"
            ),
        ))
    for key in sorted(store.posts, key=lambda k: (str(k),)):
        if key[0] == "param":
            continue
        posts = sorted(store.posts[key], key=lambda p: (p[0], p[1]))
        rel, line, op = posts[0]
        slot = f"{key[1].split(':')[-1]}.{key[2]}"
        if store.has_evidence(key, "wait"):
            continue
        if store.has_evidence(key, "cancel"):
            msg = (
                f"requests posted into {slot!r} are only ever "
                "cancelled (an error-path release): no wait() path "
                "completes this slot"
            )
        else:
            msg = (
                f"requests posted into {slot!r} are never settled: no "
                "wait() or cancel() reaches this slot anywhere in the "
                "program"
            )
        findings.append(Finding(rule=RULE, path=rel, line=line,
                                end_line=line, message=msg))
    return findings, store
