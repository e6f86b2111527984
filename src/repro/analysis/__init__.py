"""Static analysis for the repository's determinism & invariant contracts.

The byte-exact determinism that every experiment, cache and golden test
relies on is a set of *conventions* (no wallclock in the simulators,
sorted keys before serialization, atomic writes for shared stores,
observation-only telemetry, ...); this package checks them at review
time instead of waiting for a corrupted run to trip the golden corpus.
``tests/analysis/test_self_gate.py`` runs every rule over ``src/repro``
as one tier-1 test case per rule id.

Layout:

* :mod:`repro.analysis.core` — :class:`Finding`, :class:`Rule`, the
  per-file :class:`ModuleInfo` and the :func:`lint` driver;
* :mod:`repro.analysis.rules` — the rule catalogue (see
  ``docs/static-analysis.md``).
"""

from .core import Finding, ModuleInfo, Rule, lint
from .rules import default_rules

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "default_rules",
    "lint",
]
