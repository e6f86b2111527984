"""The shipped gates, run as tests.

Every lint rule runs over ``src/repro`` as its own case, so a failure
names the rule and lists each ``path:line message`` it found; ``-k
<rule-id>`` runs one rule.  ``src/`` carries no exemptions: a rule that
misfires there is narrowed, not waived.  The mypy gate runs only where
mypy is installed (CI installs it; the runtime environment does not
need it).
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import default_rules, lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@pytest.mark.parametrize("rule", default_rules(), ids=lambda rule: rule.id)
def test_source_tree_is_lint_clean(rule):
    # A wrong root would find no files and pass vacuously.
    assert (SRC / "repro" / "isa" / "opcodes.py").is_file()
    findings = lint(SRC, [rule])
    assert not findings, "\n".join(
        f"src/{f.path}:{f.line} {f.message}" for f in findings)


def test_mypy_gate():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
