"""Per-rule true/false positives on synthetic sources."""

from repro.sanitize import LintEngine, default_rules


def _findings(tmp_path, source, rule, relname="mod.py"):
    f = tmp_path / relname
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(source)
    rules = [r for r in default_rules() if r.name == rule]
    engine = LintEngine(rules=rules, root=str(tmp_path))
    return engine.lint_paths([str(f)]).findings


class TestScatterRule:
    def test_flags_add_at_and_maximum_at(self, tmp_path):
        src = (
            "import numpy as np\n"
            "np.add.at(a, i, v)\n"
            "np.maximum.at(b, j, w)\n"
        )
        found = _findings(tmp_path, src, "scatter")
        assert [f.line for f in found] == [2, 3]
        assert "segment_sum" in found[0].message

    def test_respects_numpy_alias(self, tmp_path):
        src = "import numpy as xp\nxp.add.at(a, i, v)\n"
        assert len(_findings(tmp_path, src, "scatter")) == 1

    def test_flags_from_numpy_import_members(self, tmp_path):
        """Regression: ``from numpy import add`` scatters used to slip
        past the module-alias check entirely."""
        src = (
            "from numpy import add, maximum as mx\n"
            "add.at(a, i, v)\n"
            "mx.at(b, j, w)\n"
        )
        found = _findings(tmp_path, src, "scatter")
        assert [f.line for f in found] == [2, 3]
        assert "add.at" in found[0].message
        assert "maximum.at" in found[1].message

    def test_from_import_of_non_ufunc_is_ignored(self, tmp_path):
        src = (
            "from numpy import asarray\n"
            "from pandas import add\n"
            "asarray.at(a, i, v)\n"
            "add.at(a, i, v)\n"
        )
        assert _findings(tmp_path, src, "scatter") == []

    def test_ignores_segment_reductions_and_other_at(self, tmp_path):
        src = (
            "import numpy as np\n"
            "from repro.core.scatter import segment_sum\n"
            "out = segment_sum(v, i, n)\n"
            "df.at[3]\n"
            "other.add.at(a, i, v)\n"
        )
        assert _findings(tmp_path, src, "scatter") == []


class TestSpanTaxonomyRule:
    INSTRUMENTED = "repro/parallel/comm.py"

    def test_flags_unregistered_span_in_instrumented_module(self, tmp_path):
        src = "def f(tr):\n    with tr.span('made/up_name', cat='x'):\n        pass\n"
        found = _findings(tmp_path, src, "span-taxonomy",
                          relname=self.INSTRUMENTED)
        assert len(found) == 1
        assert "made/up_name" in found[0].message

    def test_registered_span_is_clean(self, tmp_path):
        src = "def f(tr):\n    tr.async_begin('gpu/kernel_launch', '1')\n"
        assert _findings(tmp_path, src, "span-taxonomy",
                         relname=self.INSTRUMENTED) == []

    def test_uninstrumented_module_is_exempt(self, tmp_path):
        src = "def f(tr):\n    with tr.span('made/up_name'):\n        pass\n"
        assert _findings(tmp_path, src, "span-taxonomy") == []


class TestClockDisciplineRule:
    INSTRUMENTED = "repro/parallel/swfft.py"

    def test_flags_perf_counter_in_instrumented_module(self, tmp_path):
        src = "import time\nt0 = time.perf_counter()\n"
        found = _findings(tmp_path, src, "clock-discipline",
                          relname=self.INSTRUMENTED)
        assert len(found) == 1
        assert "TimerGroup" in found[0].message

    def test_flags_from_import_alias(self, tmp_path):
        src = "from time import perf_counter as pc\nt0 = pc()\n"
        assert len(_findings(tmp_path, src, "clock-discipline",
                             relname=self.INSTRUMENTED)) == 1

    def test_sleep_is_not_a_wall_clock_read(self, tmp_path):
        src = "import time\ntime.sleep(0.1)\n"
        assert _findings(tmp_path, src, "clock-discipline",
                         relname=self.INSTRUMENTED) == []

    def test_uninstrumented_module_is_exempt(self, tmp_path):
        src = "import time\nt0 = time.time()\n"
        assert _findings(tmp_path, src, "clock-discipline") == []


class TestDeterminismRule:
    def test_flags_legacy_global_rng(self, tmp_path):
        src = "import numpy as np\nx = np.random.rand(3)\nnp.random.seed(1)\n"
        found = _findings(tmp_path, src, "determinism")
        assert [f.line for f in found] == [2, 3]
        assert "default_rng" in found[0].message

    def test_flags_seedless_default_rng(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        found = _findings(tmp_path, src, "determinism")
        assert len(found) == 1
        assert "seed" in found[0].message

    def test_seeded_default_rng_is_clean(self, tmp_path):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "x = rng.random(3)\n"
        )
        assert _findings(tmp_path, src, "determinism") == []


class TestDtypeDisciplineRule:
    CORE = "repro/core/sph/mod.py"

    def test_flags_float32_in_core(self, tmp_path):
        src = (
            "import numpy as np\n"
            "a = np.zeros(3, dtype=np.float32)\n"
            "b = np.asarray(x, dtype='float32')\n"
        )
        found = _findings(tmp_path, src, "dtype-discipline", relname=self.CORE)
        assert [f.line for f in found] == [2, 3]
        assert "float64" in found[0].message

    def test_float64_in_core_is_clean(self, tmp_path):
        src = "import numpy as np\na = np.zeros(3, dtype=np.float64)\n"
        assert _findings(tmp_path, src, "dtype-discipline",
                         relname=self.CORE) == []

    def test_float32_outside_core_is_exempt(self, tmp_path):
        src = "import numpy as np\na = np.zeros(3, dtype=np.float32)\n"
        assert _findings(tmp_path, src, "dtype-discipline",
                         relname="repro/gpusim/mod.py") == []
