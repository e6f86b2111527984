"""The analysis framework: findings, rules, waivers and the driver.

Everything here is deliberately self-contained (``ast`` + ``tokenize``
from the standard library only) so the linter can run in CI before any
dependency is installed, and deterministic: file discovery, finding
order and reporter output are all sorted, so two runs over the same tree
produce byte-identical reports — the linter holds itself to the
invariant it enforces.

Waiver syntax (checked by :func:`parse_waivers`):

* ``# repro-lint: waive[rule-id] -- justification`` — waives *rule-id*
  on the line the comment sits on; a comment alone on its line waives
  the following line instead.
* ``# repro-lint: waive-file[rule-id] -- justification`` — waives
  *rule-id* for the whole file.

The justification is mandatory: a waiver without one is itself reported
(``bad-waiver``), and a waiver that never matched a finding is reported
as ``unused-waiver`` so stale exemptions cannot accumulate.
"""

from __future__ import annotations

import ast
import enum
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


class Severity(enum.Enum):
    """How a finding affects the exit code: errors gate, warnings don't."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str  # root-relative posix path
    line: int  # 1-based; 0 for whole-file findings
    rule: str
    message: str
    severity: Severity = Severity.ERROR
    waived: bool = False
    waive_reason: str = ""

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity.value,
            "waived": self.waived,
            "waive_reason": self.waive_reason,
        }


_WAIVE_RE = re.compile(
    r"#\s*repro-lint:\s*(waive|waive-file)\[([A-Za-z0-9_-]+)\]"
    r"(?:\s*--\s*(.*\S))?")


@dataclass
class Waivers:
    """Parsed waiver comments of one file."""

    line: Dict[int, Dict[str, str]] = field(default_factory=dict)
    file: Dict[str, str] = field(default_factory=dict)
    errors: List[Tuple[int, str]] = field(default_factory=list)
    used: Set[Tuple[int, str]] = field(default_factory=set)  # (line, rule); 0 = file level

    def lookup(self, line: int, rule: str) -> Optional[str]:
        """The justification waiving *rule* at *line*, or ``None``."""
        if rule in self.file:
            self.used.add((0, rule))
            return self.file[rule]
        reason = self.line.get(line, {}).get(rule)
        if reason is not None:
            self.used.add((line, rule))
        return reason

    def unused(self) -> Iterator[Tuple[int, str]]:
        for rule in sorted(self.file):
            if (0, rule) not in self.used:
                yield 0, rule
        for line in sorted(self.line):
            for rule in sorted(self.line[line]):
                if (line, rule) not in self.used:
                    yield line, rule


def parse_waivers(source: str) -> Waivers:
    """Extract the waiver comments from *source* (tokenize-accurate).

    Any comment mentioning ``repro-lint`` that fails the grammar is an
    error.
    """
    waivers = Waivers()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return waivers
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _WAIVE_RE.search(token.string)
        if match is None:
            if "repro-lint" in token.string:
                waivers.errors.append(
                    (token.start[0], "unparseable repro-lint comment"))
            continue
        kind, rule, reason = match.groups()
        if not reason:
            waivers.errors.append(
                (token.start[0],
                 f"waiver for [{rule}] missing a '-- justification'"))
            continue
        if kind == "waive-file":
            waivers.file[rule] = reason
        else:
            # A comment alone on its line waives the *next* line (the
            # statement it annotates); a trailing comment waives its own.
            line = token.start[0]
            if token.line[:token.start[1]].strip() == "":
                line += 1
            waivers.line.setdefault(line, {})[rule] = reason
    return waivers


@dataclass
class ModuleInfo:
    """One parsed source file, handed to every per-module rule."""

    path: Path  # absolute
    relpath: str  # root-relative, posix separators
    source: str
    tree: ast.Module
    waivers: Waivers

    def in_package(self, *prefixes: str) -> bool:
        """True when the module lives under any ``repro.<prefix>``."""
        parts = self.relpath.split("/")
        if "repro" not in parts:
            return False
        sub = parts[parts.index("repro") + 1:]
        return bool(sub) and sub[0] in prefixes


class Rule:
    """Base class of every per-module lint rule.

    Subclasses set :attr:`id`, :attr:`severity` and a one-line
    :attr:`description` (the ``--list-rules`` catalogue), and implement
    :meth:`check` yielding findings with ``waived=False``; the driver
    applies waivers afterwards.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        return Finding(module.relpath, getattr(node, "lineno", 0),
                       self.id, message, self.severity)


@dataclass
class Report:
    """The outcome of one analyzer run."""

    findings: List[Finding]
    files_checked: int
    rules_run: List[str]

    @property
    def unwaived(self) -> List[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.unwaived
                if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.unwaived
                if f.severity is Severity.WARNING]

    @property
    def waived(self) -> List[Finding]:
        return [f for f in self.findings if f.waived]

    def exit_code(self) -> int:
        return 1 if self.errors else 0


def iter_python_files(path: Path) -> Iterator[Path]:
    """Every ``*.py`` under *path* (or *path* itself), sorted, skipping
    hidden directories and ``__pycache__``."""
    if path.is_file():
        yield path
        return
    for candidate in sorted(path.rglob("*.py")):
        parts = candidate.relative_to(path).parts
        if any(p.startswith(".") or p == "__pycache__" for p in parts):
            continue
        yield candidate


class Analyzer:
    """Runs a rule set over source trees and applies waivers."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        ids = [rule.id for rule in rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids in {ids}")
        self.rules: List[Rule] = list(rules)

    def load_module(self, path: Path, root: Path) -> ModuleInfo:
        """Parse one file.  Raises :class:`SyntaxError` on bad syntax,
        which :meth:`run` reports as a ``syntax-error`` finding."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        relpath = path.relative_to(root).as_posix()
        return ModuleInfo(path, relpath, source, tree,
                          parse_waivers(source))

    def run(self, paths: Sequence[Path],
            select: Optional[Sequence[str]] = None) -> Report:
        """Analyze every Python file under *paths*.

        *select* restricts to the named rule ids.  Findings come back
        sorted and deduplicated, with waivers applied and waiver hygiene
        (bad/unused) reported.
        """
        rules = [rule for rule in self.rules
                 if select is None or rule.id in select]

        findings: List[Finding] = []
        files_checked = 0
        for top in paths:
            top = Path(top)
            root = top if top.is_dir() else top.parent
            for path in iter_python_files(top):
                files_checked += 1
                relpath = path.relative_to(root).as_posix()
                try:
                    module = self.load_module(path, root)
                except SyntaxError as exc:
                    findings.append(Finding(
                        relpath, exc.lineno or 0, "syntax-error",
                        f"file does not parse: {exc.msg}"))
                    continue
                findings.extend(self._check_module(module, rules))

        unique = sorted(set(findings), key=Finding.sort_key)
        return Report(unique, files_checked, [r.id for r in rules])

    def _check_module(self, module: ModuleInfo,
                      rules: Sequence[Rule]) -> Iterator[Finding]:
        raw: List[Finding] = []
        for rule in rules:
            raw.extend(rule.check(module))
        for found in raw:
            reason = module.waivers.lookup(found.line, found.rule)
            if reason is not None:
                yield Finding(found.path, found.line, found.rule,
                              found.message, found.severity,
                              waived=True, waive_reason=reason)
            else:
                yield found
        for line, message in module.waivers.errors:
            yield Finding(module.relpath, line, "bad-waiver", message)
        for line, rule_id in module.waivers.unused():
            yield Finding(
                module.relpath, line, "unused-waiver",
                f"waiver for [{rule_id}] matched no finding",
                Severity.WARNING)

