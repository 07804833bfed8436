"""Module / class / call-graph builder for the deep analyses.

Parses every Python file under the analysis roots once (reusing the
engine's :func:`~repro.sanitize.engine.parse_file`, so pragma maps come
for free), records every function — module-level, methods, nested
closures, lambdas — with its enclosing class, and resolves calls
against module-level defs, ``repro.*`` imports, same-module closures,
``self.method()`` dispatch, and first-order callbacks (a known function
or lambda passed as a call argument, the ``timed(phase, fn, *args)``
idiom in ``distributed_sim.py``).

Resolution is best-effort by design: an unresolved call simply
contributes no summary, which the downstream rules treat
conservatively (ownership transfer for the lifecycle rule, no
collective tokens for the divergence rule).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from ..engine import FileContext, dotted_name, parse_file, _walk_python

#: blocking collectives (divergence across ranks deadlocks): the one
#: request ``SimComm`` waits where it posts
BLOCKING_COLLECTIVES = frozenset({"allreduce"})
#: nonblocking collective posts (matched per-rank by posting order): the
#: only calls on the simulated MPI transport that return a request handle
NONBLOCKING_COLLECTIVES = frozenset(
    {"ialltoallv", "iallgather", "iallreduce"}
)
#: request-handle settlement methods
SETTLE_METHODS = frozenset({"wait", "cancel"})
#: receiver names treated as communicators
_COMMISH = frozenset({"comm", "world"})


def is_commish(node: ast.AST) -> bool:
    """True when ``node`` plausibly evaluates to a communicator."""
    dn = dotted_name(node)
    if dn is None:
        return False
    last = dn.split(".")[-1]
    return last in _COMMISH or last.endswith("_comm")


def comm_call(node: ast.AST) -> str | None:
    """The comm-method name for ``comm.<op>(...)`` calls, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and is_commish(node.func.value)
    ):
        return node.func.attr
    return None


@dataclass
class FunctionInfo:
    """One function (module-level, method, closure, or lambda)."""

    module: "ModuleInfo"
    node: ast.AST
    name: str
    qualname: str  # dotted within the module, e.g. Cls.meth / outer.inner
    cls: "ClassInfo | None" = None
    # -- analysis summaries, filled by the lifecycle/collective passes --
    #: resource kind string when calls to this function yield un-settled
    #: requests the caller must own ("fresh:<name>" or "carrier:<cls>")
    returns_fresh: str | None = None
    #: positional-arg index -> "wait" | "cancel" settlement evidence
    settles_params: dict = field(default_factory=dict)
    #: transitively performs collectives (divergence summaries)
    has_coll: bool = False

    @property
    def key(self) -> str:
        return f"{self.module.name}:{self.qualname}"

    @property
    def param_names(self) -> list:
        args = getattr(self.node, "args", None)
        if args is None:
            return []
        names = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class with its directly-defined methods."""

    module: "ModuleInfo"
    node: ast.ClassDef
    name: str
    qualname: str
    methods: dict = field(default_factory=dict)  # name -> FunctionInfo

    @property
    def key(self) -> str:
        return f"{self.module.name}:{self.qualname}"


@dataclass
class ModuleInfo:
    """One parsed module and its local name bindings."""

    path: str
    rel: str
    name: str  # dotted, filesystem-derived (walks up __init__.py dirs)
    is_package: bool
    ctx: FileContext
    functions: list = field(default_factory=list)
    classes: dict = field(default_factory=dict)  # local name -> ClassInfo
    #: local name -> dotted import target (module or module member)
    imports: dict = field(default_factory=dict)
    #: function name -> [FunctionInfo] (module-level and nested defs)
    defs_by_name: dict = field(default_factory=dict)

    @property
    def package(self) -> str:
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


def _module_name(path: str) -> tuple:
    """``(dotted_name, is_package)`` from the filesystem package layout."""
    stem = os.path.splitext(os.path.basename(path))[0]
    is_package = stem == "__init__"
    parts = [] if is_package else [stem]
    d = os.path.dirname(os.path.abspath(path))
    while os.path.exists(os.path.join(d, "__init__.py")):
        parts.append(os.path.basename(d))
        d = os.path.dirname(d)
    return ".".join(reversed(parts)) or stem, is_package


class _Collector(ast.NodeVisitor):
    """Registers functions/classes/imports of one module."""

    def __init__(self, mod: ModuleInfo):
        self.mod = mod
        self.stack = []  # (kind, name, ClassInfo|None)

    def _qual(self, name: str) -> str:
        return ".".join([n for _k, n, _c in self.stack] + [name])

    def _enclosing_class(self):
        if self.stack and self.stack[-1][0] == "class":
            return self.stack[-1][2]
        return None

    def _add_function(self, node, name):
        info = FunctionInfo(
            module=self.mod, node=node, name=name,
            qualname=self._qual(name), cls=self._enclosing_class(),
        )
        self.mod.functions.append(info)
        if info.cls is not None:
            info.cls.methods[name] = info
        if not isinstance(node, ast.Lambda):
            self.mod.defs_by_name.setdefault(name, []).append(info)
        return info

    def visit_FunctionDef(self, node):
        self._add_function(node, node.name)
        self.stack.append(("func", node.name, None))
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._add_function(node, f"<lambda:{node.lineno}>")
        self.stack.append(("func", "<lambda>", None))
        self.generic_visit(node)
        self.stack.pop()

    def visit_ClassDef(self, node):
        info = ClassInfo(
            module=self.mod, node=node, name=node.name,
            qualname=self._qual(node.name),
        )
        if not self.stack:  # only top-level classes are resolvable
            self.mod.classes[node.name] = info
        self.stack.append(("class", node.name, info))
        self.generic_visit(node)
        self.stack.pop()

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname:
                self.mod.imports[alias.asname] = alias.name
            else:
                head = alias.name.split(".")[0]
                self.mod.imports.setdefault(head, head)

    def visit_ImportFrom(self, node):
        if node.level:
            base_parts = self.mod.package.split(".") if self.mod.package \
                else []
            up = node.level - 1
            if up:
                base_parts = base_parts[:-up] if up <= len(base_parts) else []
            base = ".".join(base_parts)
        else:
            base = ""
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{base}.{alias.name}" if base else alias.name
            self.mod.imports[alias.asname or alias.name] = target


class Program:
    """All modules under the analysis roots, with call resolution."""

    def __init__(self):
        self.modules: dict[str, ModuleInfo] = {}  # dotted name -> info
        self.by_rel: dict[str, ModuleInfo] = {}
        self.errors: list = []  # (path, message)
        #: carrier classes: class key -> {"wait": set, "cancel": set}
        #: (methods that complete / cancel the class's request slots)
        self.carriers: dict[str, dict] = {}
        #: slot cell key -> carrier class keys stored there (persists
        #: across lifecycle rounds; see lifecycle.analyze_program)
        self.carrier_slots: dict = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, paths, root: str | None = None) -> "Program":
        prog = cls()
        root = root if root is not None else os.getcwd()
        seen = set()
        for path in paths:
            if os.path.isdir(path):
                files = _walk_python(path)
            elif os.path.exists(path):
                files = [path]
            else:
                prog.errors.append((path, "no such file"))
                continue
            for fp in files:
                ap = os.path.abspath(fp)
                if ap in seen:
                    continue
                seen.add(ap)
                prog._add_file(ap, root)
        return prog

    def _add_file(self, path: str, root: str) -> None:
        try:
            ctx = parse_file(path, root=root)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            self.errors.append((path, f"parse error: {exc}"))
            return
        name, is_package = _module_name(path)
        mod = ModuleInfo(path=path, rel=ctx.rel, name=name,
                         is_package=is_package, ctx=ctx)
        _Collector(mod).visit(ctx.tree)
        self.modules[name] = mod
        self.by_rel[ctx.rel] = mod

    # -- resolution -----------------------------------------------------
    @property
    def functions(self):
        for mod in self.modules.values():
            yield from mod.functions

    def resolve_dotted(self, dotted: str):
        """A ModuleInfo / FunctionInfo / ClassInfo for a dotted target."""
        if dotted in self.modules:
            return self.modules[dotted]
        if "." in dotted:
            mod_name, member = dotted.rsplit(".", 1)
            mod = self.modules.get(mod_name)
            if mod is not None:
                if member in mod.classes:
                    return mod.classes[member]
                defs = mod.defs_by_name.get(member)
                if defs:
                    return defs[0]
        return None

    def _resolve_name(self, mod: ModuleInfo, name: str):
        if name in mod.classes:
            return mod.classes[name]
        defs = mod.defs_by_name.get(name)
        if defs:
            return defs[0]
        target = mod.imports.get(name)
        if target is not None:
            return self.resolve_dotted(target)
        return None

    def resolve_call(self, fn: FunctionInfo, call: ast.Call):
        """Best-effort target of ``call`` made inside ``fn`` (or None)."""
        func = call.func
        if isinstance(func, ast.Name):
            got = self._resolve_name(fn.module, func.id)
            if isinstance(got, (FunctionInfo, ClassInfo)):
                return got
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and fn.cls is not None:
                    return fn.cls.methods.get(func.attr)
                got = self._resolve_name(fn.module, base.id)
                if isinstance(got, ModuleInfo):
                    if func.attr in got.classes:
                        return got.classes[func.attr]
                    defs = got.defs_by_name.get(func.attr)
                    if defs:
                        return defs[0]
                if isinstance(got, ClassInfo):
                    return got.methods.get(func.attr)
        return None

    def callback_args(self, fn: FunctionInfo, call: ast.Call):
        """Known functions passed *as arguments* (first-order callbacks)."""
        out = []
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            if isinstance(arg, ast.Name):
                got = self._resolve_name(fn.module, arg.id)
                if isinstance(got, FunctionInfo):
                    out.append(got)
            elif isinstance(arg, ast.Lambda):
                got = self.function_at(fn.module, arg)
                if got is not None:
                    out.append(got)
        return out

    def function_at(self, mod: ModuleInfo, node: ast.AST):
        for info in mod.functions:
            if info.node is node:
                return info
        return None

    def constructor_of(self, cls_info: ClassInfo):
        return cls_info.methods.get("__init__")
