"""agentdag: layered multi-agent topologies — a YAML DSL with strict validation,
graph density scoring, turn rewards with group-relative policy math, a
multi-turn episode orchestrator, and corpus quality filtering.

Public names load on first use: ``from agentdag import X`` imports only the
module that defines ``X``, so a command pays only for what it touches.
"""

import importlib
import sys

__version__ = "0.1.0"


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``__getattr__``, ``__dir__`` and ``__all__`` for a package (PEP 562).

    ``table`` maps each submodule of ``package`` to the public names it
    defines. The first read of a name imports its submodule and binds the name
    in the package, so later reads are plain attribute lookups.
    """
    module_of = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in module_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module_of[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | module_of.keys())

    return __getattr__, __dir__, sorted(module_of)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": (
        "AdapterEndpoint", "ConfigError", "ExecutorConfig", "LanguageSpec", "RunConfig",
        "load_config",
    ),
    "corpus": (
        "CorpusFilterConfig", "CorpusRecord", "FilterReport", "RecordOutcome", "corpus_stats",
        "filter_corpus", "read_corpus", "write_corpus",
    ),
    "dsl": (
        "AgentSpec", "CheckResult", "ErrorClass", "ErrorLocation", "Step", "TopologyDoc",
        "TopologyError", "canonicalize", "check_topology", "check_yaml", "doc_to_mapping",
        "extract_yaml_block", "fenced_blocks", "parse_topology", "to_yaml", "validate_logic",
    ),
    "graph": (
        "NODE_CAPS", "CostEstimate", "DagNode", "DensityReport", "Edge", "EdgeKind",
        "LayeredDag", "cost_estimate", "decode_topology", "density_from_counts",
        "density_scores", "n_max_nodes",
    ),
    "orchestrator": (
        "AgentMessage", "CodeBlock", "EpisodeResult", "EpisodeRunner", "Observation",
        "Trajectory", "TurnRecord", "build_observation", "extract_code",
        "render_history_prompt",
    ),
    "problem": ("ProblemSpec", "TestCase", "iter_problems", "load_problem"),
    "rewards": (
        "EPS_STD", "EXEC_REWARDS", "YAML_PENALTIES", "GrpoBatch", "RewardBreakdown",
        "TrajectoryLogProbs", "exec_reward", "graph_reward", "grpo_advantages",
        "grpo_surrogate", "trajectory_return", "turn_reward", "yaml_error_reward",
    ),
    "roles": ("DEFAULT_ROLE_POOL", "ROLE_PROMPTS"),
    "verdicts": (
        "FAILURE_PRIORITY", "ExecOutcome", "TestResult", "Verdict", "classify_verdict",
        "normalize_output", "outputs_match",
    ),
})
