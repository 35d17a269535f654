"""Run configuration: one declarative file, env-var overrides for secrets."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

from .dsl import TopologyError, load_yaml
from .errors import ConfigError
from .jsonio import as_float, as_int
from .roles import DEFAULT_ROLE_POOL, ROLE_PROMPTS


DEFAULT_POLICY_PROMPT = (
    "You are the orchestrator. Read the problem and emit an interaction "
    "topology as YAML inside a ```yaml fenced block, with a top-level "
    "'difficulty' (1, 2, or 3) and a 'steps' list; each step has 'agents' "
    "with 'id', 'role', and 'ref' (ids of earlier agents to listen to). "
    "Step 1 agents must use 'ref: []'."
)


@dataclass(frozen=True)
class AdapterEndpoint:
    """Where one class of completions comes from (the policy, or the roles)."""

    kind: str = "scripted"  # "scripted" | "remote"
    url: str | None = None
    model: str | None = None
    api_key: str | None = None
    api_key_env: str | None = None
    temperature: float = 0.0
    max_tokens: int = 2048
    timeout_s: float = 60.0
    retries: int = 2

    def resolve_api_key(self) -> str | None:
        # The environment wins over anything written in the file.
        if self.api_key_env and os.environ.get(self.api_key_env):
            return os.environ[self.api_key_env]
        return self.api_key


@dataclass(frozen=True)
class LanguageSpec:
    run_cmd: tuple[str, ...]
    compile_cmd: tuple[str, ...] | None = None
    source_name: str = "main.txt"


def _default_languages() -> dict[str, LanguageSpec]:
    return {
        "python": LanguageSpec(
            # -I -S: no site-packages, so no .pth hook runs at every start-up,
            # and no environment or user paths. The judge compiles and runs
            # this file in a fork of its harness, as python3 would.
            run_cmd=("python3", "-I", "-S", "{src}"),
            source_name="main.py",
        ),
    }


@dataclass(frozen=True)
class ExecutorConfig:
    max_output_bytes: int = 65536
    workers: int = 4
    default_language: str = "python"
    languages: Mapping[str, LanguageSpec] = field(default_factory=_default_languages)

    def __post_init__(self):
        # Read-only, so no runner can change a language for its sharers.
        object.__setattr__(self, "languages", MappingProxyType(dict(self.languages)))


@dataclass(frozen=True)
class RunConfig:
    max_turns: int = 2  # K
    gamma: float = 1.0
    weights: tuple[float, float] = (1.0, 1.0)  # (w_e, w_g)
    difficulty_fallback: int | None = None
    observation_log_cap: int = 4000
    role_pool: tuple[str, ...] = DEFAULT_ROLE_POOL
    role_prompts: Mapping[str, str] = field(default_factory=lambda: dict(ROLE_PROMPTS))
    policy_system_prompt: str = DEFAULT_POLICY_PROMPT
    policy: AdapterEndpoint = field(default_factory=AdapterEndpoint)
    roles: AdapterEndpoint = field(default_factory=AdapterEndpoint)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)

    def __post_init__(self):
        # Read-only, so no runner can change a prompt for its sharers.
        object.__setattr__(self, "role_prompts", MappingProxyType(dict(self.role_prompts)))

    def validated(self) -> "RunConfig":
        if self.max_turns < 1:
            raise ConfigError("max_turns must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if len(self.weights) != 2 or any(w < 0 for w in self.weights):
            raise ConfigError("weights must be two non-negative numbers")
        if self.difficulty_fallback is not None and self.difficulty_fallback not in (1, 2, 3):
            raise ConfigError("difficulty_fallback must be 1, 2, or 3")
        if self.observation_log_cap < 1:
            raise ConfigError("observation_log_cap must be >= 1")
        ex = self.executor
        if min(ex.max_output_bytes, ex.workers) < 1:
            raise ConfigError("executor limits must all be >= 1")
        if ex.default_language not in ex.languages:
            raise ConfigError(f"default language {ex.default_language!r} has no language spec")
        missing = [r for r in self.role_pool if r not in self.role_prompts]
        if missing:
            raise ConfigError(f"roles without prompts: {missing}")
        return self


def parse_weights(raw: Any) -> tuple[float, float]:
    """(w_e, w_g) from a pair, an {execution, graph} mapping, or None (both 1)."""
    if raw is None:
        return (1.0, 1.0)
    if isinstance(raw, Mapping):
        unknown = set(raw) - {"execution", "graph"}
        if unknown:
            raise ValueError(f"unknown weights keys: {sorted(map(str, unknown))}")
        return (as_float(raw.get("execution", 1.0)), as_float(raw.get("graph", 1.0)))
    if isinstance(raw, (str, bytes)):
        raise ValueError("weights must be two numbers (execution, graph), not a string")
    weights = tuple(as_float(w) for w in raw)
    if len(weights) != 2:
        raise ValueError("weights must be two numbers (execution, graph)")
    return weights


_NUMBERS = {"max_turns": as_int, "gamma": as_float, "difficulty_fallback": as_int,
            "observation_log_cap": as_int, "temperature": as_float, "max_tokens": as_int,
            "timeout_s": as_float, "retries": as_int, "max_output_bytes": as_int, "workers": as_int}


def _read_numbers(data: Mapping[str, Any], where: str) -> dict[str, Any]:
    """``data`` with each numeric value read exactly, where ``int`` and ``float`` would take
    ``true`` as 1 and ``2.5`` as 2; only ``difficulty_fallback`` may be null."""
    read = dict(data)
    for key, value in read.items():
        if key in _NUMBERS and not (value is None and key == "difficulty_fallback"):
            try:
                read[key] = _NUMBERS[key](value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}{key}: {exc}") from exc
    return read


def _endpoint_from(data: Mapping[str, Any], where: str) -> AdapterEndpoint:
    allowed = {"kind", "url", "model", "api_key", "api_key_env", "temperature",
               "max_tokens", "timeout_s", "retries"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys under {where}: {sorted(unknown)}")
    endpoint = AdapterEndpoint(**_read_numbers(data, f"{where}."))
    if endpoint.kind not in ("scripted", "remote"):
        raise ConfigError(f"{where}.kind must be 'scripted' or 'remote'")
    if endpoint.kind == "remote" and not endpoint.url:
        raise ConfigError(f"{where}.kind is 'remote' but no url is set")
    if endpoint.retries < 0:
        raise ConfigError(f"{where}.retries must be >= 0")
    if endpoint.timeout_s <= 0:
        raise ConfigError(f"{where}.timeout_s must be > 0")
    return endpoint


def _command(raw: Any, what: str) -> tuple[str, ...]:
    if isinstance(raw, (str, bytes)):
        raise ConfigError(f"{what} must be a list of arguments, not a string")
    command = tuple(raw)
    if not command:
        raise ConfigError(f"{what} must name a program, not be empty")
    if not all(isinstance(arg, str) for arg in command):
        raise ConfigError(f"{what} arguments must all be strings")
    return command


def _languages_from(data: Mapping[str, Any]) -> dict[str, LanguageSpec]:
    if not isinstance(data, Mapping):
        raise ConfigError("executor.languages must be a mapping")
    languages = _default_languages()
    for tag, spec in data.items():
        if not isinstance(spec, Mapping) or "run_cmd" not in spec:
            raise ConfigError(f"language {tag!r} needs at least run_cmd")
        unknown = set(spec) - {"run_cmd", "compile_cmd", "source_name"}
        if unknown:
            raise ConfigError(f"unknown keys under language {tag!r}: {sorted(map(str, unknown))}")
        compile_cmd = spec.get("compile_cmd")
        languages[str(tag)] = LanguageSpec(
            run_cmd=_command(spec["run_cmd"], f"language {tag!r} run_cmd"),
            compile_cmd=_command(compile_cmd, f"language {tag!r} compile_cmd") if compile_cmd else None,
            source_name=str(spec.get("source_name", f"main.{tag}")),
        )
    return languages


def _executor_from(data: Mapping[str, Any]) -> ExecutorConfig:
    allowed = {"max_output_bytes", "workers", "default_language", "languages"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys under executor: {sorted(unknown)}")
    kwargs = _read_numbers({k: v for k, v in data.items() if k != "languages"}, "executor.")
    return ExecutorConfig(languages=_languages_from(data.get("languages", {})), **kwargs)


def config_from_mapping(data: Mapping[str, Any]) -> RunConfig:
    """Build and validate a RunConfig from plain data (parsed YAML/JSON)."""
    data = dict(data)
    try:
        kwargs = _read_numbers({key: data.pop(key) for key in (
            "max_turns", "gamma", "difficulty_fallback", "observation_log_cap",
            "policy_system_prompt") if key in data}, "")
        if "weights" in data:
            kwargs["weights"] = parse_weights(data.pop("weights"))
        if "role_pool" in data:
            kwargs["role_pool"] = tuple(str(r) for r in data.pop("role_pool"))
        if "role_prompts" in data:
            raw_prompts = data.pop("role_prompts")
            if not isinstance(raw_prompts, Mapping):
                raise ConfigError("role_prompts must be a mapping of role names to prompts")
            prompts = dict(ROLE_PROMPTS)
            prompts.update({str(k): str(v) for k, v in raw_prompts.items()})
            kwargs["role_prompts"] = prompts
        if "policy" in data:
            kwargs["policy"] = _endpoint_from(data.pop("policy"), "policy")
        if "roles" in data:
            kwargs["roles"] = _endpoint_from(data.pop("roles"), "roles")
        if "executor" in data:
            kwargs["executor"] = _executor_from(data.pop("executor"))
        if data:
            raise ConfigError(f"unknown config keys: {sorted(data)}")
        return RunConfig(**kwargs).validated()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a config file (YAML or JSON — JSON is a YAML subset)."""
    try:
        data = load_yaml(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except TopologyError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc.detail}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return config_from_mapping(data)
