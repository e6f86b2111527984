"""Shared fixtures for the repro-lint test suite.

``lint_tree`` materializes fixture source files under a synthetic
``repro/<package>/`` tree (so package-scoped rules see the paths they
key on) and runs the analyzer over it.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import Analyzer, default_rules


@pytest.fixture
def lint_tree(tmp_path):
    def run(files, select=None, rules=None):
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        analyzer = Analyzer(rules if rules is not None else default_rules())
        return analyzer.run([tmp_path], select=select)
    return run


@pytest.fixture
def lint_one(lint_tree):
    """Lint one fixture module; returns the unwaived findings."""
    def run(relpath, source, select=None):
        return lint_tree({relpath: source}, select=select).unwaived
    return run


REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def repo_src():
    assert (REPO_SRC / "repro" / "isa" / "opcodes.py").is_file()
    return REPO_SRC
