"""Independent checks on nashlab reports.

Nothing here imports nashlab: the determinant is the benchmark's own
(rational Gaussian elimination, not the library's fraction-free Bareiss), so
a defect in the library's linear algebra cannot hide a bad certificate.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

EXIT_BY_VERDICT = {"Resolved": 0, "CounterexampleCycle": 2, "Inconclusive": 3}
DEFINITE = ("Resolved", "CounterexampleCycle")


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)


def is_unimodular(matrix) -> bool:
    try:
        return (
            isinstance(matrix, list)
            and all(isinstance(r, list) and all(type(x) is int for x in r) for r in matrix)
            and abs(determinant(matrix)) == 1
        )
    except ValueError:
        return False


def digest(report: dict) -> str:
    """sha256 of a report with its ``timing_seconds`` left out, so that two
    runs of the same input can be shown byte-identical."""
    body = {k: v for k, v in report.items() if k != "timing_seconds"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """Checked result of one instance: ``failures`` lists what went wrong
    (empty when the instance passed); ``changed`` marks a reference
    Inconclusive that became definite, which is reported, not failed."""

    label: str
    failures: list = field(default_factory=list)
    changed: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def judge_verdict(label, verdict, reference) -> Outcome:
    """Compare one verdict with its reference verdict."""
    if verdict not in EXIT_BY_VERDICT:
        return Outcome(label, [f"unknown verdict {verdict!r}"])
    if reference in DEFINITE and verdict != reference:
        return Outcome(label, [f"verdict {verdict} differs from reference {reference}"])
    changed = reference == "Inconclusive" and verdict in DEFINITE
    return Outcome(label, changed=changed)


def check_nash(label, exit_code, report, reference) -> Outcome:
    """Exit code against verdict, verdict against reference, and every cycle
    certificate unimodular."""
    if not isinstance(report, dict):
        return Outcome(label, [f"no parsable report (exit code {exit_code})"])
    verdict = report.get("verdict")
    out = judge_verdict(label, verdict, reference)
    if verdict in EXIT_BY_VERDICT and exit_code != EXIT_BY_VERDICT[verdict]:
        out.failures.append(f"exit code {exit_code} does not match verdict {verdict}")
    cycles = report.get("cycles")
    if not isinstance(cycles, list):
        out.failures.append("report has no cycle list")
        return out
    for c in cycles:
        if not isinstance(c, dict) or not is_unimodular(c.get("certificate")):
            node = c.get("node") if isinstance(c, dict) else None
            out.failures.append(f"cycle certificate of node {node} is not unimodular")
    return out


def check_sweep(exit_code, report, references) -> list:
    """One outcome per reference row of a sweep; a row missing from the
    report, an extra row, or a nonzero exit code fails."""
    if not isinstance(report, dict) or not isinstance(report.get("rows"), list):
        why = f"no parsable sweep report (exit code {exit_code})"
        return [Outcome(label, [why]) for label in references]
    rows = {}
    extra = []
    for row in report["rows"]:
        label = " ".join(str(p) for p in row.get("params", ()))
        if label in references and label not in rows:
            rows[label] = row.get("verdict")
        else:
            extra.append(label)
    outcomes = []
    for label, ref in references.items():
        if label not in rows:
            outcomes.append(Outcome(label, ["row missing from the sweep report"]))
            continue
        out = judge_verdict(label, rows[label], ref)
        if exit_code != 0:
            out.failures.append(f"sweep exited with code {exit_code}")
        outcomes.append(out)
    for label in extra:
        outcomes.append(Outcome(label, ["row not in the reference table"]))
    return outcomes
