"""Adapter contracts shared by the scripted and remote backends."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

# Defined apart, so that the command catches them without loading this module.
from ..errors import AdapterError, SandboxError
from ..problem import ProblemSpec, TestCase
from ..verdicts import ExecOutcome


class ScriptExhausted(ValueError):
    """A scripted adapter ran out of entries; the script is too short."""


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            prompt_tokens=self.prompt_tokens + other.prompt_tokens,
            completion_tokens=self.completion_tokens + other.completion_tokens,
        )

    def to_dict(self) -> dict:
        return {"prompt_tokens": self.prompt_tokens, "completion_tokens": self.completion_tokens}


@dataclass(frozen=True)
class MessagePart:
    source: str
    content: str


@dataclass(frozen=True)
class AgentRequest:
    """One role-agent invocation: its prompt plus routing metadata."""

    system: str
    messages: tuple[MessagePart, ...]
    role: str
    agent_id: str
    turn: int
    problem_id: str


@dataclass(frozen=True)
class AgentResponse:
    content: str
    usage: TokenUsage = TokenUsage()


@runtime_checkable
class PolicyAdapter(Protocol):
    def generate(self, problem: ProblemSpec, history_prompt: str) -> AgentResponse:
        """One policy completion for the given problem and rendered history."""


@runtime_checkable
class RoleBackend(Protocol):
    def respond(self, request: AgentRequest) -> AgentResponse:
        """One role-agent completion."""


@runtime_checkable
class Sandbox(Protocol):
    def execute(self, source: str, language: str, tests: Sequence[TestCase], *,
                time_limit_ms: int, memory_limit_mb: int) -> ExecOutcome:
        """Judge one candidate program."""


def estimate_tokens(text: str) -> int:
    """Deterministic, content-only token estimate used by scripted adapters."""
    return len(text.split())
