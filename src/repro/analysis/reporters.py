"""Stable text, JSON and SARIF rendering of a lint :class:`Report`.

All formats are deterministic functions of the findings: sorted input
(the analyzer sorts), no timestamps, no absolute paths — two runs over
the same tree produce byte-identical output, so reports can themselves
be diffed or cached.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Report, Severity

#: Bumped when the JSON layout changes shape.  ``schema_version`` in
#: the payload carries the same number so consumers can gate on it;
#: a byte-stability test pins the rendered bytes.
SCHEMA_VERSION = 2

#: SARIF spec level emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: The ``format`` marker of the JSON payload.
REPORT_FORMAT = "repro-lint-v1"


def render_text(report: Report, show_waived: bool = False) -> str:
    """Human-readable ``path:line: severity [rule] message`` lines."""
    lines: List[str] = []
    for finding in report.findings:
        if finding.waived and not show_waived:
            continue
        status = "waived" if finding.waived else finding.severity.value
        location = f"{finding.path}:{finding.line}" if finding.line \
            else finding.path
        lines.append(f"{location}: {status} [{finding.rule}] "
                     f"{finding.message}")
        if finding.waived:
            lines.append(f"    waiver: {finding.waive_reason}")
    lines.append(
        f"{len(report.errors)} error(s), {len(report.warnings)} "
        f"warning(s), {len(report.waived)} waived, "
        f"{report.files_checked} file(s) checked")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    """Machine-readable report (sorted keys, stable ordering)."""
    payload: Dict[str, object] = {
        "format": REPORT_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "files_checked": report.files_checked,
        "rules_run": sorted(report.rules_run),
        "findings": [finding.as_dict() for finding in report.findings],
        "summary": {
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "waived": len(report.waived),
        },
        "exit_code": report.exit_code(),
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def render_sarif(report: Report,
                 rules: Optional[Sequence[Tuple[str, str]]] = None
                 ) -> str:
    """SARIF 2.1.0 report (the format CI code-scanning uploads eat).

    *rules* is an optional ``(id, description)`` catalogue for the
    driver's rule metadata; rule ids appearing in findings but not in
    the catalogue (hygiene rules like ``bad-waiver``) are added with
    an empty description.  Waived findings are emitted as suppressed
    results so annotations show the justification instead of a bare
    pass.
    """
    catalogue: Dict[str, str] = dict(rules or ())
    for finding in report.findings:
        catalogue.setdefault(finding.rule, "")
    rule_ids = sorted(catalogue)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    results: List[Dict[str, object]] = []
    for finding in report.findings:
        level = "error" if finding.severity is Severity.ERROR \
            else "warning"
        result: Dict[str, object] = {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": level,
            "message": {"text": finding.message},
            "locations": [_sarif_location(finding.path, finding.line)],
        }
        if finding.waived:
            result["suppressions"] = [{
                "kind": "inSource",
                "justification": finding.waive_reason,
            }]
        results.append(result)

    payload: Dict[str, object] = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "rules": [{
                    "id": rule_id,
                    "shortDescription": {"text": catalogue[rule_id]},
                } for rule_id in rule_ids],
            }},
            "results": results,
        }],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _sarif_location(path: str, line: int) -> Dict[str, object]:
    location: Dict[str, object] = {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
        },
    }
    if line > 0:
        physical = location["physicalLocation"]
        assert isinstance(physical, dict)
        physical["region"] = {"startLine": line}
    return location


def severity_counts(report: Report) -> Dict[str, int]:
    """``{severity: count}`` over unwaived findings (sorted keys)."""
    counts = {severity.value: 0 for severity in Severity}
    for finding in report.unwaived:
        counts[finding.severity.value] += 1
    return dict(sorted(counts.items()))
