"""Problem definitions: description, judge tests, and execution limits."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .jsonio import as_int, as_str, read_jsonl


@dataclass(frozen=True)
class TestCase:
    input: str
    expected_output: str

    def to_dict(self) -> dict:
        return {"input": self.input, "expected_output": self.expected_output}


@dataclass(frozen=True)
class ProblemSpec:
    id: str
    description: str
    tests: tuple[TestCase, ...]
    time_limit_ms: int = 2000
    memory_limit_mb: int = 512
    difficulty: int | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("problem id must be non-empty")
        if not self.tests:
            raise ValueError(f"problem {self.id!r} declares no tests")
        if self.time_limit_ms <= 0 or self.memory_limit_mb <= 0:
            raise ValueError(f"problem {self.id!r} has non-positive limits")
        for test in self.tests:  # a lone surrogate, which no program reads or prints, raises
            test.input.encode("utf-8"), test.expected_output.encode("utf-8")

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        try:
            tests = tuple(
                TestCase(input=as_str(t["input"], "input"),
                         expected_output=as_str(t["expected_output"], "expected_output"))
                for t in data["tests"]
            )
            return cls(
                id=as_str(data["id"], "id"),
                description=as_str(data["description"], "description"),
                tests=tests,
                time_limit_ms=as_int(data.get("time_limit_ms", 2000)),
                memory_limit_mb=as_int(data.get("memory_limit_mb", 512)),
                difficulty=None if data.get("difficulty") is None else as_int(data["difficulty"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed problem record: {exc}") from exc

    def to_dict(self) -> dict:
        data = {
            "id": self.id,
            "description": self.description,
            "tests": [t.to_dict() for t in self.tests],
            "time_limit_ms": self.time_limit_ms,
            "memory_limit_mb": self.memory_limit_mb,
        }
        if self.difficulty is not None:
            data["difficulty"] = self.difficulty
        return data


def load_problem(path: str | Path) -> ProblemSpec:
    with open(path, encoding="utf-8") as handle:
        return ProblemSpec.from_dict(json.load(handle))


def iter_problems(path: str | Path) -> Iterator[ProblemSpec]:
    """Problems from a JSONL file, one object per line."""
    return (ProblemSpec.from_dict(record) for record in read_jsonl(path))
