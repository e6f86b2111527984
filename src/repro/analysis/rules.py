"""The rule catalogue: every determinism/invariant contract as a rule.

Each rule encodes one convention earlier PRs established by review
(docs/static-analysis.md is the prose catalogue).  Rules are AST-based
and deliberately *syntactic*: they flag the pattern, and a human either
fixes the code or records an explicit ``# repro-lint: waive[rule]``
with a justification.  False-negative-free soundness is not the goal —
making silent convention drift loud is.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from .core import Finding, ModuleInfo, Rule

#: Packages holding the simulation model proper: anything here runs
#: inside a simulated machine and must be bit-deterministic.
DETERMINISM_PACKAGES = ("uarch", "functional", "isa", "vp", "reuse",
                        "redundancy")


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every import in *tree*.

    ``import json`` maps ``json -> json``; ``from json import dumps as
    d`` maps ``d -> json.dumps``.  Function-local imports are included:
    the map is a name-resolution aid, not a scope model.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """The fully-qualified dotted origin of a call target, if known."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = imports.get(head, head)
    return f"{origin}.{rest}" if rest else origin


class NoWallclockRule(Rule):
    """The simulated machine must not observe host time.

    Importing ``time`` or ``datetime`` anywhere in the model packages is
    a violation: simulated time is ``core.cycle``, and wallclock
    observations (profiling, manifests) belong in ``metrics``/
    ``telemetry``/``experiments`` where results never depend on them.
    """

    id = "no-wallclock"
    description = ("model packages (uarch/functional/isa/vp/reuse/"
                   "redundancy) must not import time or datetime")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*DETERMINISM_PACKAGES):
            return
        for node in ast.walk(module.tree):
            names: List[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0]
                         for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module:
                names = [node.module.split(".")[0]]
            for name in names:
                if name in ("time", "datetime"):
                    yield self.finding(
                        module, node,
                        f"import of {name!r} in a model package: "
                        "simulation results must not depend on host "
                        "time")


class SortedSerializationRule(Rule):
    """Serialized bytes must not depend on dict/set iteration order.

    Two checks:

    * every ``json.dump``/``json.dumps`` call must pass
      ``sort_keys=True`` (the cache/manifest byte-identity contract);
    * a serialization call (``json.dump*``, ``writerow``/``writerows``)
      must not be fed directly from ``.keys()``/``.values()``/
      ``.items()`` or a ``set(...)`` unless wrapped in ``sorted(...)``.
    """

    id = "sorted-serialization"
    description = ("json.dump(s) must pass sort_keys=True, and "
                   "serialization must not consume unordered iteration "
                   "without sorted(...)")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = _import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = _resolve(node.func, imports)
            is_json_dump = origin in ("json.dump", "json.dumps")
            is_row_write = (isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("writerow",
                                                   "writerows"))
            if not is_json_dump and not is_row_write:
                continue
            if is_json_dump and not _has_true_kwarg(node, "sort_keys"):
                yield self.finding(
                    module, node,
                    f"{origin} without sort_keys=True: serialized "
                    "bytes would depend on dict insertion order")
            for arg in list(node.args) + [kw.value
                                          for kw in node.keywords]:
                for unordered in _unordered_feeds(arg):
                    yield self.finding(
                        module, node,
                        f"serialization fed from {unordered} without "
                        "sorted(...): iteration order is not part of "
                        "the byte-identity contract")


def _has_true_kwarg(call: ast.Call, name: str) -> bool:
    for keyword in call.keywords:
        if keyword.arg == name:
            return isinstance(keyword.value, ast.Constant) \
                and keyword.value.value is True
        if keyword.arg is None:  # **kwargs: give it the benefit of doubt
            return True
    return False


def _unordered_feeds(node: ast.AST,
                     inside_sorted: bool = False) -> Iterator[str]:
    """Unordered-iteration expressions inside *node* not under sorted()."""
    if isinstance(node, ast.Call):
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == "sorted":
            inside_sorted = True
        elif not inside_sorted:
            if isinstance(callee, ast.Attribute) \
                    and callee.attr in ("keys", "values", "items") \
                    and not node.args:
                yield f".{callee.attr}()"
            elif isinstance(callee, ast.Name) and callee.id in ("set",
                                                                "frozenset"):
                yield f"{callee.id}(...)"
    elif isinstance(node, ast.Set) and not inside_sorted:
        yield "a set literal"
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.expr, ast.keyword)):
            yield from _unordered_feeds(child, inside_sorted)


class NoBuiltinHashRule(Rule):
    """``hash()`` varies per process (PYTHONHASHSEED) — never derive a
    cache key, file name or any persisted value from it; use hashlib."""

    id = "no-builtin-hash"
    description = ("builtin hash() is salted per process; cache keys "
                   "and persisted values must use hashlib")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = _import_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "hash" \
                    and imports.get("hash", "hash") == "hash":
                yield self.finding(
                    module, node,
                    "builtin hash() is salted per process "
                    "(PYTHONHASHSEED); use hashlib for any value that "
                    "crosses a process boundary")


class AtomicWriteRule(Rule):
    """Files are written only through the audited write paths in
    ``repro/util/locking.py`` (:func:`atomic_write_bytes`,
    :func:`atomic_write_text`).

    Outside ``repro/util`` two kinds of call are flagged:

    * a hand-rolled variant of the atomic path —
      ``os.replace``/``os.rename``/``tempfile.mkstemp``/
      ``tempfile.NamedTemporaryFile`` — which either duplicates the
      discipline (drift risk) or gets it subtly wrong (leaked temp
      files on error);
    * a raw write — ``.write_text``/``.write_bytes``, or ``open``/
      ``io.open``/``os.fdopen``/``Path.open`` in a write mode — which
      lets a concurrent reader, or the next run after a crash, observe
      a partial file.
    """

    id = "atomic-write"
    description = ("raw writes and tempfile/os.replace outside "
                   "repro.util: use util.locking.atomic_write_text/bytes")

    _BANNED = ("os.replace", "os.rename", "tempfile.mkstemp",
               "tempfile.NamedTemporaryFile", "tempfile.mktemp")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.in_package("util"):
            return  # the implementation site itself
        imports = _import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = _resolve(node.func, imports)
            if origin in self._BANNED:
                yield self.finding(
                    module, node,
                    f"{origin} outside repro.util: shared stores must "
                    "use repro.util.locking.atomic_write_text/bytes "
                    "(one audited tempfile+replace path)")
                continue
            raw = _raw_write(node, origin, imports)
            if raw is not None:
                yield self.finding(
                    module, node,
                    f"raw write {raw} outside repro.util: a reader can "
                    "observe a partial file; use repro.util.locking."
                    "atomic_write_text/bytes")


#: ``open``-style functions taking the mode as their second argument.
_OPEN_FUNCTIONS = ("open", "io.open", "os.fdopen")


def _raw_write(call: ast.Call, origin: Optional[str],
               imports: Dict[str, str]) -> Optional[str]:
    """How *call* writes a file directly (``"open()"``,
    ``".write_text()"``, ...), or ``None`` when it does not.

    A ``.open`` method on a receiver rooted at an imported name
    (``os.open``, ``gzip.open``) is a module function, not
    ``Path.open``, and is left alone.
    """
    if origin in _OPEN_FUNCTIONS:
        return f"{origin}()" if _write_mode(call, mode_position=1) \
            else None
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in ("write_text", "write_bytes"):
        return f".{func.attr}()"
    if func.attr == "open" and _write_mode(call, mode_position=0):
        receiver = _dotted(func.value)
        if receiver is None or receiver.split(".")[0] not in imports:
            return ".open()"
    return None


def _write_mode(call: ast.Call, mode_position: int) -> bool:
    """True when an ``open``-style call's mode string writes."""
    mode: Optional[ast.expr] = None
    if len(call.args) > mode_position:
        mode = call.args[mode_position]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return False


class TelemetryPurityRule(Rule):
    """Telemetry observes; it never mutates the machine it watches.

    Within ``repro/telemetry``, assignments (plain, augmented or
    annotated, attribute or subscript) whose target chain is rooted at
    a *function parameter* other than ``self``/``cls`` are flagged:
    a sink receiving ``core`` may read anything but write nothing —
    the transparency tests pin SimStats byte-identity with and without
    a sink attached, and this rule keeps new telemetry code inside
    that contract.
    """

    id = "telemetry-purity"
    description = ("telemetry modules must not assign onto objects "
                   "received as parameters (observation-only contract)")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package("telemetry"):
            return
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            args = func.args
            params = {a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)}
            if args.vararg:
                params.add(args.vararg.arg)
            if args.kwarg:
                params.add(args.kwarg.arg)
            params -= {"self", "cls"}
            if not params:
                continue
            yield from self._check_function(module, func, params)

    def _check_function(self, module: ModuleInfo, func: ast.AST,
                        params: "set[str]") -> Iterator[Finding]:
        for node in ast.walk(func):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                base = _assignment_base(target)
                if base is not None and base in params:
                    yield self.finding(
                        module, node,
                        f"assignment onto parameter {base!r}: telemetry "
                        "is observation-only and must never mutate "
                        "core/stat objects")


def _assignment_base(target: ast.expr) -> Optional[str]:
    """The root Name of an attribute/subscript assignment target."""
    saw_chain = False
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        saw_chain = True
        target = target.value
    if saw_chain and isinstance(target, ast.Name):
        return target.id
    return None


class MainGuardRule(Rule):
    """Every CLI module must be import-safe.

    A module that builds an ``argparse.ArgumentParser`` or defines a
    top-level ``main`` is a CLI; importing it (for tests, for the
    console-script shims, for ``--help`` generation in docs) must never
    execute it, so it needs an ``if __name__ == "__main__":`` guard.
    """

    id = "main-guard"
    description = ("modules defining main()/building an ArgumentParser "
                   "need an if __name__ == '__main__' guard")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = _import_map(module.tree)
        is_cli = any(isinstance(node, ast.FunctionDef)
                     and node.name == "main"
                     for node in module.tree.body)
        if not is_cli:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call) and _resolve(
                        node.func, imports) == "argparse.ArgumentParser":
                    is_cli = True
                    break
        if not is_cli:
            return
        for node in module.tree.body:
            if isinstance(node, ast.If) and _is_main_guard(node.test):
                return
        yield Finding(
            module.relpath, 0, self.id,
            "CLI module (defines main()/builds an ArgumentParser) has "
            "no `if __name__ == \"__main__\":` guard", self.severity)


def _is_main_guard(test: ast.expr) -> bool:
    return (isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def default_rules() -> List[Rule]:
    """The full shipped rule set."""
    return [
        NoWallclockRule(),
        SortedSerializationRule(),
        NoBuiltinHashRule(),
        AtomicWriteRule(),
        TelemetryPurityRule(),
        MainGuardRule(),
    ]
