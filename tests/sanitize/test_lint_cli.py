"""``python -m repro lint``: exit codes, formats, baseline workflow."""

import json
import os
import subprocess

import pytest

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

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "ok.py", "x = 1\n")
        assert main(["lint", path, "--rules", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "ok.py", "x = 1\n")
        code = main(["lint", path, "--baseline", str(tmp_path / "no.json")])
        assert code == 2

    def test_missing_target_exits_one(self, tmp_path):
        assert main(["lint", str(tmp_path / "ghost.py")]) == 1


class TestFormats:
    def test_json_format_parses(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.py", SCATTER_SRC)
        assert main(["lint", path, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is False and doc["n_findings"] == 1
        assert doc["findings"][0]["rule"] == "scatter"

    def test_rule_subset(self, tmp_path, capsys):
        path = _write(
            tmp_path, "bad.py",
            "import numpy as np\nnp.add.at(a, i, np.random.rand(3))\n",
        )
        assert main(["lint", path, "--rules", "determinism",
                     "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in doc["findings"]] == ["determinism"]
        assert [r["name"] for r in doc["rules"]] == ["determinism"]


class TestBaselineWorkflow:
    def test_write_then_suppress_then_fresh_violation(self, tmp_path, capsys):
        path = _write(tmp_path, "debtor.py", SCATTER_SRC)
        debt = str(tmp_path / "debt.json")

        assert main(["lint", path, "--write-baseline", debt]) == 0
        capsys.readouterr()
        assert os.path.exists(debt)

        # recorded debt is green
        assert main(["lint", path, "--baseline", debt]) == 0
        assert "OK" in capsys.readouterr().out

        # a NEW violation still fails against the old baseline
        _write(tmp_path, "debtor.py",
               SCATTER_SRC + "np.maximum.at(b, j, w)\n")
        assert main(["lint", path, "--baseline", debt]) == 1
        assert "maximum.at" in capsys.readouterr().out


def _git(cwd, *argv):
    subprocess.run(
        ["git", *argv], cwd=cwd, check=True, capture_output=True,
        env={**os.environ,
             "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
             "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
    )


class TestChangedFlag:
    def _repo(self, tmp_path):
        _git(tmp_path, "init", "-q", "-b", "main")
        clean = _write(tmp_path, "clean.py", SCATTER_SRC)
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-q", "-m", "seed")
        return clean

    def test_changed_skips_committed_violations(self, tmp_path, capsys,
                                                monkeypatch):
        self._repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        # the scatter call is committed, nothing changed since -> clean
        assert main(["lint", str(tmp_path), "--changed"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_changed_lints_new_and_modified_files(self, tmp_path, capsys,
                                                  monkeypatch):
        self._repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, "fresh.py", SCATTER_SRC)  # untracked
        assert main(["lint", str(tmp_path), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out and "clean.py" not in out

    def test_changed_never_widens_requested_paths(self, tmp_path, capsys,
                                                  monkeypatch):
        self._repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        sub = tmp_path / "pkg"
        sub.mkdir()
        _write(sub, "inner.py", SCATTER_SRC)   # changed, inside target
        _write(tmp_path, "outer.py", SCATTER_SRC)  # changed, outside target
        assert main(["lint", str(sub), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "inner.py" in out and "outer.py" not in out

    def test_changed_outside_git_falls_back_to_full_tree(self, tmp_path,
                                                         capsys, monkeypatch):
        path = _write(tmp_path, "bad.py", SCATTER_SRC)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", path, "--changed"]) == 1
        assert "[scatter]" in capsys.readouterr().out


class TestDefaultTarget:
    def test_no_paths_lints_the_repro_package(self, capsys):
        """The acceptance bar: the shipped tree is lint-clean by default."""
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
