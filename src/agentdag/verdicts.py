"""Execution verdicts and their aggregation rules."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence


class Verdict(str, Enum):
    """Per-run (and per-test) outcome classes for candidate programs."""

    PASSED = "PASSED"
    WRONG_ANSWER = "WRONG_ANSWER"
    TIME_LIMIT_EXCEEDED = "TIME_LIMIT_EXCEEDED"
    MEMORY_LIMIT_EXCEEDED = "MEMORY_LIMIT_EXCEEDED"
    RUNTIME_ERROR = "RUNTIME_ERROR"
    COMPILATION_ERROR = "COMPILATION_ERROR"


# When several tests fail with different statuses, the most diagnostic class
# wins: a compile failure precludes everything, limit violations say more than
# a mismatch.
FAILURE_PRIORITY: tuple[Verdict, ...] = (
    Verdict.COMPILATION_ERROR,
    Verdict.TIME_LIMIT_EXCEEDED,
    Verdict.MEMORY_LIMIT_EXCEEDED,
    Verdict.RUNTIME_ERROR,
    Verdict.WRONG_ANSWER,
)


def classify_verdict(statuses: Sequence[Verdict]) -> Verdict:
    """Aggregate per-test statuses into the run verdict.

    PASSED iff every test passed; otherwise the highest-priority failing
    class (ties broken implicitly by priority, not position).
    """
    if not statuses:
        raise ValueError("cannot classify an empty status list")
    failing = {s for s in statuses if s is not Verdict.PASSED}
    if not failing:
        return Verdict.PASSED
    for cls in FAILURE_PRIORITY:
        if cls in failing:
            return cls
    raise ValueError(f"unknown statuses: {failing}")  # pragma: no cover


def normalize_output(text: str) -> str:
    """Trim trailing whitespace per line and trailing blank lines.

    Everything else is compared byte-exactly.
    """
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines)


def outputs_match(actual: str, expected: str) -> bool:
    return normalize_output(actual) == normalize_output(expected)


@dataclass(frozen=True)
class TestResult:
    index: int
    status: Verdict
    actual_prefix: str = ""

    def to_list(self) -> list:
        return [self.index, self.status.value, self.actual_prefix]


@dataclass(frozen=True)
class ExecOutcome:
    """Result of judging one candidate program against a problem's tests."""

    verdict: Verdict
    per_test: tuple[TestResult, ...] = ()
    logs: str = ""

    @classmethod
    def compilation_error(cls, tests: int, logs: str) -> ExecOutcome:
        """A program that never ran: each of its ``tests`` is a compilation error."""
        status = Verdict.COMPILATION_ERROR
        return cls(status, tuple(TestResult(index=i, status=status) for i in range(tests)), logs)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "per_test": [t.to_list() for t in self.per_test],
            "logs": self.logs,
        }
