"""Static analysis for the repository's determinism & invariant contracts.

``repro-lint`` is compiler-style correctness tooling for the
reproduction itself: the byte-exact determinism that every experiment,
cache and golden test relies on is a set of *conventions* (no wallclock
in the simulators, sorted keys before serialization, atomic writes for
shared stores, observation-only telemetry, ...) and this package proves
them at review time instead of waiting for a corrupted run to trip the
golden corpus.

Layout:

* :mod:`repro.analysis.core` — the framework: :class:`Finding`,
  :class:`Rule`, per-file :class:`ModuleInfo` with parsed waivers, and
  the :class:`Analyzer` driver;
* :mod:`repro.analysis.rules` — the rule catalogue (see
  ``docs/static-analysis.md``);
* :mod:`repro.analysis.reporters` — stable text/JSON/SARIF output;
* :mod:`repro.analysis.cli` — the ``repro-lint`` console entry point.
"""

from .core import Analyzer, Finding, ModuleInfo, Rule, Severity
from .rules import default_rules

__all__ = [
    "Analyzer",
    "Finding",
    "ModuleInfo",
    "Rule",
    "Severity",
    "default_rules",
]
