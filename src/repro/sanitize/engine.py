"""AST-based lint engine for the repo's correctness disciplines.

The engine parses each Python file once, hands the shared
:class:`FileContext` (source, AST, pragma map) to every applicable
:class:`Rule`, and filters the resulting :class:`Finding`\\ s against
inline suppression pragmas:

``# sanitize: allow-<rule>``
    suppresses ``<rule>`` findings whose flagged statement touches the
    pragma line (the pragma may sit on the offending line, on the line
    directly above it, or anywhere inside a multi-line statement);
``# sanitize: allow-file-<rule>``
    suppresses ``<rule>`` for the whole file (for modules whose entire
    job is the flagged pattern, e.g. the deliberate-FP32 module under the
    dtype rule, or the comm transport under the clock rule).

Rules are small stateless objects (see :mod:`repro.sanitize.rules`); the
engine owns traversal and pragma handling, so a new rule is one file with
one ``check(ctx)`` method.  A rule's scope is decided from the file's
absolute path (``FileContext.path``), so the same tree gives the same
findings from any working directory; ``FileContext.rel`` is only the
path a finding is displayed with.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

#: inline pragma: ``# sanitize: allow-rule-a, allow-rule-b``
_PRAGMA = re.compile(r"#\s*sanitize:\s*(allow-[a-z0-9,\s-]+)")
_ALLOW = re.compile(r"allow-(file-)?([a-z0-9-]+)")


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source location."""

    rule: str
    path: str  # repo-relative (or as-given) path
    line: int
    message: str
    #: last line of the flagged statement (pragmas anywhere in the span count)
    end_line: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one file (parsed once)."""

    path: str  # absolute posix path: what rules scope on
    rel: str  # root-relative posix path used in findings
    source: str
    tree: ast.AST
    #: line -> set of rule names allowed on that line
    pragmas: dict = field(default_factory=dict)
    #: rule names allowed for the entire file
    file_pragmas: set = field(default_factory=set)

    def allowed(self, rule: str, line: int, end_line: int | None = None) -> bool:
        """True when a pragma suppresses ``rule`` for a statement spanning
        ``line``..``end_line`` (or the line directly above it)."""
        if rule in self.file_pragmas:
            return True
        last = end_line if end_line and end_line >= line else line
        for ln in range(line - 1, last + 1):
            if rule in self.pragmas.get(ln, ()):
                return True
        return False


class Rule:
    """Base class: subclasses set ``name``/``description`` and ``check``."""

    name = "abstract"
    description = ""

    def applies(self, ctx: FileContext) -> bool:
        """Path filter; default every Python file."""
        return True

    def check(self, ctx: FileContext):
        """Yield :class:`Finding` objects for ``ctx`` (pragma-unfiltered)."""
        raise NotImplementedError


def _scan_pragmas(source: str):
    """``(line_pragmas, file_pragmas)`` from the raw source text."""
    line_pragmas: dict[int, set] = {}
    file_pragmas: set[str] = set()
    for i, line in enumerate(source.splitlines(), start=1):
        m = _PRAGMA.search(line)
        if not m:
            continue
        for fm in _ALLOW.finditer(m.group(1)):
            if fm.group(1):  # allow-file-<rule>
                file_pragmas.add(fm.group(2))
            else:
                line_pragmas.setdefault(i, set()).add(fm.group(2))
    return line_pragmas, file_pragmas


def parse_file(path: str, root: str | None = None) -> FileContext:
    """Parse ``path`` into a :class:`FileContext` (raises on syntax error)."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    rel = path
    if root is not None:
        try:
            rel = os.path.relpath(path, root)
        except ValueError:  # different drive on windows
            rel = path
    rel = rel.replace(os.sep, "/")
    tree = ast.parse(source, filename=path)
    line_pragmas, file_pragmas = _scan_pragmas(source)
    return FileContext(path=os.path.abspath(path).replace(os.sep, "/"),
                       rel=rel, source=source, tree=tree,
                       pragmas=line_pragmas, file_pragmas=file_pragmas)


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list
    n_files: int
    n_suppressed: int = 0  # pragma-suppressed
    errors: list = field(default_factory=list)  # (path, message)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors


def render_text(result: LintResult, rules) -> str:
    """Human-readable report: one ``path:line: [rule] message`` per finding."""
    lines = [f"{path}: error: {msg}" for path, msg in result.errors]
    lines += [f.render() for f in result.findings]
    tail = (
        f"{len(result.findings)} finding(s) in {result.n_files} file(s)"
        if (result.findings or result.errors)
        else f"OK — {result.n_files} file(s) clean"
    )
    tail += f" ({len(rules)} rules"
    if result.n_suppressed:
        tail += f", {result.n_suppressed} pragma-suppressed"
    lines.append(tail + ")")
    return "\n".join(lines)


class LintEngine:
    """Run a rule set over files/trees with pragma filtering."""

    def __init__(self, rules=None, root: str | None = None):
        if rules is None:
            from .rules import default_rules

            rules = default_rules()
        self.rules = list(rules)
        #: findings are reported relative to this directory
        self.root = root if root is not None else os.getcwd()

    def lint_paths(self, paths) -> LintResult:
        """Lint files and/or directory trees (``.py`` files, sorted walk)."""
        result = LintResult(findings=[], n_files=0)
        for path in paths:
            if os.path.isdir(path):
                for fp in _walk_python(path):
                    self._lint_into(fp, result)
            elif os.path.exists(path):
                self._lint_into(path, result)
            else:
                result.errors.append((path, "no such file"))
        result.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return result

    def _lint_into(self, path: str, result: LintResult) -> None:
        try:
            ctx = parse_file(path, root=self.root)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            result.errors.append((path, f"parse error: {exc}"))
            return
        result.n_files += 1
        for rule in self.rules:
            if not rule.applies(ctx):
                continue
            for finding in rule.check(ctx):
                if ctx.allowed(rule.name, finding.line, finding.end_line):
                    result.n_suppressed += 1
                else:
                    result.findings.append(finding)


def _walk_python(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in ("__pycache__", ".git") and not d.endswith(".egg-info")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


# -- shared AST helpers for the rule modules ----------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def numpy_aliases(tree: ast.AST) -> set:
    """Local names bound to the numpy module (``import numpy as np`` ...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    names.add(alias.asname or "numpy")
    return names or {"np", "numpy"}


def numpy_member_aliases(tree: ast.AST) -> dict:
    """Local name -> numpy member for ``from numpy import add [as x]``."""
    members: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy" \
                and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    members[alias.asname or alias.name] = alias.name
    return members
