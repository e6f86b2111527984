"""The analysis framework: findings, rules and the one driver function.

Everything here is deliberately self-contained (``ast`` from the
standard library only) and deterministic: file discovery and finding
order are sorted, so two runs over the same tree return the same list —
the linter holds itself to the invariant it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, NamedTuple, Sequence, Set


class Finding(NamedTuple):
    """One rule violation at a source location."""

    path: str  # root-relative posix path
    line: int  # 1-based; 0 for whole-file findings
    rule: str
    message: str


@dataclass
class ModuleInfo:
    """One parsed source file, handed to every rule."""

    relpath: str  # root-relative, posix separators
    tree: ast.Module

    def in_package(self, *prefixes: str) -> bool:
        """True when the module lives under any ``repro.<prefix>``."""
        parts = self.relpath.split("/")
        if "repro" not in parts:
            return False
        sub = parts[parts.index("repro") + 1:]
        return bool(sub) and sub[0] in prefixes


class Rule:
    """Base class of every lint rule: subclasses set :attr:`id` and
    implement :meth:`check`."""

    id: str = ""

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        return Finding(module.relpath, getattr(node, "lineno", 0),
                       self.id, message)


def lint(root: Path, rules: Sequence[Rule]) -> List[Finding]:
    """Run *rules* over every ``*.py`` under *root*.

    Returns the sorted, deduplicated findings, with paths relative to
    *root*.  A file that does not parse raises :class:`SyntaxError`.
    """
    findings: Set[Finding] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        module = ModuleInfo(path.relative_to(root).as_posix(), tree)
        for rule in rules:
            findings.update(rule.check(module))
    return sorted(findings)
