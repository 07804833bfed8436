"""Lint engine mechanics: pragmas, traversal, reporting, rule registry."""

from repro.sanitize import LintEngine, default_rules, render_text
from repro.sanitize.engine import parse_file


def _lint(tmp_path, source, name="mod.py", rules=None):
    f = tmp_path / name
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(source)
    engine = LintEngine(rules=rules, root=str(tmp_path))
    return engine.lint_paths([str(f)])


SCATTER_SRC = "import numpy as np\nnp.add.at(a, i, v)\n"


class TestPragmas:
    def test_finding_without_pragma(self, tmp_path):
        result = _lint(tmp_path, SCATTER_SRC)
        assert [f.rule for f in result.findings] == ["scatter"]
        assert result.findings[0].line == 2
        assert not result.clean

    def test_same_line_pragma_suppresses(self, tmp_path):
        src = "import numpy as np\nnp.add.at(a, i, v)  # sanitize: allow-scatter\n"
        result = _lint(tmp_path, src)
        assert result.clean
        assert result.n_suppressed == 1

    def test_line_above_pragma_suppresses(self, tmp_path):
        src = "import numpy as np\n# sanitize: allow-scatter\nnp.add.at(a, i, v)\n"
        result = _lint(tmp_path, src)
        assert result.clean
        assert result.n_suppressed == 1

    def test_pragma_inside_multiline_statement_suppresses(self, tmp_path):
        src = (
            "import numpy as np\n"
            "np.add.at(  # sanitize: allow-scatter\n"
            "    a,\n"
            "    i,\n"
            "    v,\n"
            ")\n"
        )
        result = _lint(tmp_path, src)
        assert result.clean

    def test_file_pragma_suppresses_everywhere(self, tmp_path):
        src = (
            "# sanitize: allow-file-scatter\n"
            "import numpy as np\n"
            "np.add.at(a, i, v)\n"
            "np.maximum.at(b, j, w)\n"
        )
        result = _lint(tmp_path, src)
        assert result.clean
        assert result.n_suppressed == 2

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        src = "import numpy as np\nnp.add.at(a, i, v)  # sanitize: allow-determinism\n"
        result = _lint(tmp_path, src)
        assert [f.rule for f in result.findings] == ["scatter"]

    def test_multiple_rules_in_one_pragma(self, tmp_path):
        src = (
            "import numpy as np\n"
            "# sanitize: allow-scatter, allow-determinism\n"
            "np.add.at(a, i, np.random.rand(3))\n"
        )
        result = _lint(tmp_path, src)
        assert result.clean
        assert result.n_suppressed == 2


class TestPragmaSpanEdges:
    """FileContext.allowed at the edges of its line-range logic."""

    def _ctx(self, tmp_path, source):
        f = tmp_path / "m.py"
        f.write_text(source)
        return parse_file(str(f), root=str(tmp_path))

    def test_interior_line_of_multiline_span_counts(self, tmp_path):
        ctx = self._ctx(tmp_path, (
            "x = (\n"
            "    1 +\n"
            "    2  # sanitize: allow-myrule\n"
            ")\n"
        ))
        assert ctx.allowed("myrule", 1, 4)
        # a later, disjoint statement is not covered
        assert not ctx.allowed("myrule", 5, 6)

    def test_engine_honors_interior_argument_pragma(self, tmp_path):
        result = _lint(tmp_path, (
            "import numpy as np\n"
            "np.add.at(\n"
            "    a,\n"
            "    i,  # sanitize: allow-scatter\n"
            "    v,\n"
            ")\n"
        ))
        assert result.clean and result.n_suppressed == 1

    def test_pragma_above_decorator_covers_decorated_span(self, tmp_path):
        ctx = self._ctx(tmp_path, (
            "# sanitize: allow-myrule\n"
            "@deco\n"
            "def f():\n"
            "    pass\n"
        ))
        # a finding spanning the decorator line is suppressed ...
        assert ctx.allowed("myrule", 2, 4)
        # ... but one anchored at the bare def line is not: the pragma
        # must sit directly above the finding's anchor line
        assert not ctx.allowed("myrule", 3, 4)

    def test_inverted_end_line_falls_back_to_anchor(self, tmp_path):
        ctx = self._ctx(tmp_path, "a = 1\n# sanitize: allow-myrule\nb = 2\n")
        # end_line < line is treated as a single-line statement
        assert ctx.allowed("myrule", 3, 1)
        assert not ctx.allowed("myrule", 5, 1)

    def test_file_pragma_and_line_pragma_interact_per_rule(self, tmp_path):
        ctx = self._ctx(tmp_path, (
            "# sanitize: allow-file-scatter\n"
            "a = 1\n"
            "b = 2  # sanitize: allow-determinism\n"
            "c = 3\n"
        ))
        # file pragma: scatter allowed everywhere, even off-pragma lines
        assert ctx.allowed("scatter", 4, 4)
        # line pragma: determinism only on (or just below) its own line
        assert ctx.allowed("determinism", 3, 3)
        assert ctx.allowed("determinism", 4, 4)  # pragma-above rule
        assert not ctx.allowed("determinism", 2, 2)


class TestEngineTraversal:
    def test_directory_walk_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        cache = tmp_path / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "bad.py").write_text(SCATTER_SRC)
        result = LintEngine(root=str(tmp_path)).lint_paths([str(tmp_path)])
        assert result.clean
        assert result.n_files == 1

    def test_missing_path_is_an_error(self, tmp_path):
        result = LintEngine().lint_paths([str(tmp_path / "nope.py")])
        assert not result.clean
        assert result.errors and "no such file" in result.errors[0][1]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def f(:\n")
        result = LintEngine().lint_paths([str(f)])
        assert not result.clean
        assert "parse error" in result.errors[0][1]

    def test_findings_sorted_by_path_line(self, tmp_path):
        (tmp_path / "b.py").write_text(SCATTER_SRC)
        (tmp_path / "a.py").write_text(
            "import numpy as np\nx = 1\nnp.add.at(a, i, v)\n"
        )
        result = LintEngine(root=str(tmp_path)).lint_paths([str(tmp_path)])
        assert [(f.path, f.line) for f in result.findings] == [
            ("a.py", 3), ("b.py", 2),
        ]

    def test_parse_file_relativizes_paths(self, tmp_path):
        f = tmp_path / "sub" / "m.py"
        f.parent.mkdir()
        f.write_text("x = 1\n")
        ctx = parse_file(str(f), root=str(tmp_path))
        assert ctx.rel == "sub/m.py"


class TestRuleRegistry:
    def test_five_default_rules(self):
        assert len(default_rules()) >= 5
        assert {r.name for r in default_rules()} >= {
            "scatter", "span-taxonomy", "clock-discipline",
            "determinism", "dtype-discipline",
        }


class TestReporting:
    def test_text_report_lists_findings(self, tmp_path):
        result = _lint(tmp_path, SCATTER_SRC)
        text = render_text(result, default_rules())
        assert "mod.py:2: [scatter]" in text
        assert "1 finding(s)" in text

    def test_text_report_clean(self, tmp_path):
        result = _lint(tmp_path, "x = 1\n")
        assert "OK" in render_text(result, default_rules())
