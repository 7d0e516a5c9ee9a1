"""Correctness gate applied to every `cqm run` the benchmark makes.

Every check must pass, except the documented red
`classical/harmonic-node-error-M200`, which must fail wherever the
`classical` suite runs.  The report body (everything but `timing`) must be
byte-identical between passes with the same seed.  Anything else is an
unexpected outcome: it fails the benchmark run and lowers `check_pass_ratio`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

KNOWN_RED = ("classical", "harmonic-node-error-M200")


def report_body(report: dict) -> str:
    """The deterministic part of a report, serialised as `cqm run` writes it."""
    body = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(body, indent=2, sort_keys=True)


@dataclass
class Verdict:
    """Gate outcome summed over invocations and passes."""

    attempted: int = 0      # checks in the reports, plus one per run that raised
    passed: int = 0         # checks that passed
    mismatches: int = 0     # reports whose body differs from the first pass
    worst_margin: float = 0.0   # largest residual/tol over passing checks
    worst_check: str = ""
    unexpected: list[str] = field(default_factory=list)

    @property
    def check_pass_ratio(self) -> float:
        failures = self.attempted - self.passed + self.mismatches
        return 1.0 - failures / self.attempted if self.attempted else 0.0

    def judge(self, label: str, suites: list[str], code: int,
              report: dict | None, reference: str | None = None) -> None:
        """Gate one invocation's exit code and report against expectations."""
        if report is None:
            # cqm run aborts without a report when a suite raises
            self.attempted += len(suites)
            self.unexpected.append(f"{label}: no report (exit {code})")
            return
        if sorted(report["experiments"]) != sorted(suites):
            self.unexpected.append(
                f"{label}: ran {sorted(report['experiments'])}, expected {sorted(suites)}")
        saw_red = False
        for suite, exp in report["experiments"].items():
            for c in exp["checks"]:
                self.attempted += 1
                red = (suite, c["name"]) == KNOWN_RED
                saw_red = saw_red or red
                if c["passed"]:
                    self.passed += 1
                    margin = c["residual"] / c["tol"]
                    if margin > self.worst_margin:
                        self.worst_margin, self.worst_check = margin, f"{suite}/{c['name']}"
                    if red:
                        self.unexpected.append(f"{label}: known red {suite}/{c['name']} passed")
                elif not red:
                    self.unexpected.append(
                        f"{label}: {suite}/{c['name']} failed: residual "
                        f"{c['residual']!r} vs tol {c['tol']!r}")
        red_here = KNOWN_RED[0] in suites
        if red_here and not saw_red:
            self.unexpected.append(f"{label}: known red check missing")
        expected_code = 1 if red_here else 0
        if code != expected_code:
            self.unexpected.append(f"{label}: exit {code}, expected {expected_code}")
        if reference is not None and report_body(report) != reference:
            self.mismatches += 1
            self.unexpected.append(f"{label}: report body differs from the first pass")
