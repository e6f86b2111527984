"""Shared fixtures for the lint-rule test suite.

``lint_one`` materializes a fixture source file under a synthetic
``repro/<package>/`` tree (so package-scoped rules see the paths they
key on) and runs the rules over it.
"""

import textwrap

import pytest

from repro.analysis import default_rules, lint


@pytest.fixture
def lint_one(tmp_path):
    """Lint one fixture module; returns its findings.  *select* keeps
    only the named rules."""
    def run(relpath, source, select=None):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        rules = [rule for rule in default_rules()
                 if select is None or rule.id in select]
        return lint(tmp_path, rules)
    return run
