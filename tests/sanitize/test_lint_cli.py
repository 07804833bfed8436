"""``python -m repro lint``: exit codes, default target, cwd independence."""

from repro.__main__ import main

SCATTER_SRC = "import numpy as np\nnp.add.at(a, i, v)\n"


def _write(tmp_path, name, source):
    f = tmp_path / name
    f.write_text(source)
    return str(f)


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "ok.py", "x = 1\n")
        assert main(["lint", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.py", SCATTER_SRC)
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "[scatter]" in out

    def test_missing_target_exits_one(self, tmp_path):
        assert main(["lint", str(tmp_path / "ghost.py")]) == 1


class TestScopeIsCwdIndependent:
    def test_findings_do_not_depend_on_cwd(self, tmp_path, capsys,
                                           monkeypatch):
        """Rule scope follows the package path, not the path relative to
        the working directory: linting from deep inside the package still
        sees ``repro/core`` and the instrumented modules."""
        pkg = tmp_path / "repro"
        (pkg / "core").mkdir(parents=True)
        (pkg / "parallel").mkdir()
        _write(pkg / "core", "mod.py",
               "import numpy as np\na = np.zeros(3, dtype=np.float32)\n")
        _write(pkg / "parallel", "swfft.py",
               "def f(tr):\n    with tr.span('bogus/name'):\n        pass\n")
        monkeypatch.chdir(pkg / "core")
        assert main(["lint", str(pkg)]) == 1
        out = capsys.readouterr().out
        assert "[dtype-discipline]" in out
        assert "[span-taxonomy]" in out


class TestDefaultTarget:
    def test_no_paths_lints_the_repro_package(self, capsys):
        """The acceptance bar: the shipped tree is lint-clean by default."""
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
