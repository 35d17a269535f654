"""The multi-turn episode loop: generate a topology, run it, learn from the verdict.

Each turn the policy emits a candidate topology. Invalid YAML consumes the
turn with a penalty and feedback; a valid document is decoded into a layered
DAG and executed layer by layer (agents within a layer run concurrently, but
results are always merged in document order, so trajectories are byte-stable
under any scheduling). The final code block is judged in the sandbox, the turn
is scored, and a PASSED verdict stops the episode early.

Every multi-agent layer in the process runs on one shared agent pool, built at
the first such layer and never at import. The pool has no ceiling that binds:
a thread starts only when none is idle, so every agent call in flight has its
own thread, however many episodes run at once, and the pool keeps as many
threads as were ever busy together. Each call runs in a copy of its episode's
``contextvars`` context, as under ``asyncio.to_thread``. The pool belongs to
the process that built it: a forked child builds its own, because the parent's
threads do not exist there.
"""

from __future__ import annotations

import contextvars
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from .adapters.base import (
    AdapterError,
    AgentRequest,
    AgentResponse,
    MessagePart,
    PolicyAdapter,
    RoleBackend,
    Sandbox,
    SandboxError,
    ScriptExhausted,
    TokenUsage,
)
from .config import RunConfig
from .dsl import CheckResult, TopologyDoc, check_topology, doc_to_mapping, fenced_blocks, to_yaml
from .graph import DensityReport, EdgeKind, LayeredDag, decode_topology, density_scores
from .problem import ProblemSpec
from .rewards import RewardBreakdown, trajectory_return, turn_reward
from .verdicts import ExecOutcome, Verdict

_LANGUAGE_ALIASES = {"py": "python", "python3": "python"}
_TRUNCATION_MARKER = "\n[... truncated at {cap} characters]"
NO_CODE_LOG = "no fenced code block found in the agent messages"

_pool_lock = threading.Lock()
_pool_owned: tuple[int, ThreadPoolExecutor | None] = (0, None)  # (owner pid, pool)


def _agent_pool() -> ThreadPoolExecutor:
    """The process's agent pool, built at first use in each process. It is
    built through the module name ``ThreadPoolExecutor``, which tests replace."""
    global _pool_owned
    pid, pool = _pool_owned
    if pid == os.getpid():
        return pool
    with _pool_lock:
        pid, pool = _pool_owned
        if pid != os.getpid():
            pool = ThreadPoolExecutor(max_workers=sys.maxsize,
                                      thread_name_prefix="agentdag-agent")
            _pool_owned = (os.getpid(), pool)
        return pool


@dataclass(frozen=True)
class AgentMessage:
    """One executed node's output for one turn."""

    agent_id: str
    turn: int
    role: str
    content: str

    def to_dict(self) -> dict:
        return {"agent_id": self.agent_id, "turn": self.turn,
                "role": self.role, "content": self.content}


@dataclass(frozen=True)
class CodeBlock:
    source: str
    language: str | None = None


@dataclass(frozen=True)
class Observation:
    """Failure feedback fed verbatim into the next turn's policy prompt."""

    errors: tuple[str, ...]
    logs: str
    topology_trace: str
    prompt_text: str

    def to_dict(self) -> dict:
        return {"errors": list(self.errors), "logs": self.logs,
                "topology_trace": self.topology_trace, "prompt_text": self.prompt_text}


@dataclass(frozen=True)
class TurnRecord:
    """Everything that happened in one turn, valid or not."""

    turn: int
    policy_text: str
    validation: CheckResult
    doc: TopologyDoc | None
    dag: LayeredDag | None
    density: DensityReport | None
    messages: tuple[AgentMessage, ...]
    outcome: ExecOutcome | None
    reward: RewardBreakdown
    observation: Observation | None

    def to_dict(self) -> dict:
        return {
            "turn": self.turn,
            "policy_text": self.policy_text,
            "validation": self.validation.to_dict(),
            "topology": doc_to_mapping(self.doc) if self.doc is not None else None,
            "dag": self.dag.to_dict() if self.dag is not None else None,
            "density": self.density.to_dict() if self.density is not None else None,
            "messages": [m.to_dict() for m in self.messages],
            "outcome": self.outcome.to_dict() if self.outcome is not None else None,
            "reward": self.reward.to_dict(),
            "observation": self.observation.to_dict() if self.observation is not None else None,
        }


@dataclass(frozen=True)
class Trajectory:
    turns: tuple[TurnRecord, ...]
    gamma: float
    return_value: float

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "return": self.return_value,
            "turns": [t.to_dict() for t in self.turns],
        }


@dataclass(frozen=True)
class EpisodeResult:
    """Final account of one episode: verdict-level status plus the full trace."""

    problem_id: str
    status: str  # "PASSED" | "FAILED" | "ERROR"
    trajectory: Trajectory
    token_usage: TokenUsage
    sandbox_runs: int
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "status": self.status,
            "trajectory": self.trajectory.to_dict(),
            "token_usage": self.token_usage.to_dict(),
            "sandbox_runs": self.sandbox_runs,
            "error": self.error,
        }


def extract_code(messages: Sequence[AgentMessage]) -> CodeBlock | None:
    """Latest fenced block with a non-blank body wins: messages in reverse, last block first."""
    for message in reversed(messages):
        for label, body in reversed(fenced_blocks(message.content)):
            if body.strip():
                return CodeBlock(source=body, language=_LANGUAGE_ALIASES.get(label, label) or None)
    return None


def truncate_text(text: str, cap: int) -> str:
    if len(text) <= cap:
        return text
    return text[:cap] + _TRUNCATION_MARKER.format(cap=cap)


def build_observation(outcome: ExecOutcome, logs: str, doc: TopologyDoc, *,
                      time_limit_ms: int, memory_limit_mb: int,
                      log_cap: int = 4000) -> Observation:
    """Feedback for a turn that executed but did not pass."""
    verdict = outcome.verdict
    lines = [f"The last attempt failed with [{verdict.value}]."]
    if verdict is Verdict.TIME_LIMIT_EXCEEDED:
        lines.append(f"time limit: {time_limit_ms} ms")
    if verdict is Verdict.MEMORY_LIMIT_EXCEEDED:
        lines.append(f"memory limit: {memory_limit_mb} MB")
    shown_logs = truncate_text(logs, log_cap)
    lines.append("execution logs:")
    lines.append(shown_logs if shown_logs else "(none)")
    trace = to_yaml(doc)
    lines.append("topology used:")
    lines.append(trace.rstrip("\n"))
    lines.append("Revise the topology and emit a corrected fenced yaml block.")
    return Observation(
        errors=(verdict.value,),
        logs=shown_logs,
        topology_trace=trace,
        prompt_text="\n".join(lines),
    )


def build_validation_observation(check: CheckResult) -> Observation:
    """Feedback for a turn whose YAML never made it to execution."""
    assert check.error_class is not None
    lines = [f"The last topology was rejected with [{check.error_class.value}]."]
    if check.detail:
        lines.append(f"detail: {check.detail}")
    if check.location is not None:
        where = []
        if check.location.step is not None:
            where.append(f"step {check.location.step}")
        if check.location.agent is not None:
            where.append(f"agent {check.location.agent!r}")
        if where:
            lines.append(f"location: {', '.join(where)}")
    lines.append("Emit a corrected fenced yaml block.")
    return Observation(
        errors=(check.error_class.value,),
        logs="",
        topology_trace="",
        prompt_text="\n".join(lines),
    )


def render_history_prompt(problem: ProblemSpec, turns: Sequence[TurnRecord], *,
                          text_cap: int = 4000) -> str:
    """The policy's view: the problem, then each prior topology with its feedback."""
    lines = [f"Problem {problem.id}:", problem.description]
    for record in turns:
        lines.append("")
        lines.append(f"--- turn {record.turn} ---")
        if record.doc is not None:
            # An executed turn that did not pass already holds its rendering.
            trace = record.observation.topology_trace if record.observation else ""
            lines.append("topology:")
            lines.append((trace or to_yaml(record.doc)).rstrip("\n"))
        else:
            lines.append("raw output:")
            lines.append(truncate_text(record.policy_text, text_cap))
        if record.observation is not None:
            lines.append("feedback:")
            lines.append(record.observation.prompt_text)
    if turns:
        lines.append("")
        lines.append("Produce an improved topology now.")
    return "\n".join(lines)


class EpisodeRunner:
    """Drives episodes: policy turns, DAG execution, judging, and rewards.

    ``role_backends`` is a single backend shared by every role or a mapping of
    role name (``"*"`` as fallback) to backend. Adapters must be safe to call
    concurrently; the runner owns all episode state.
    """

    def __init__(self, policy: PolicyAdapter,
                 role_backends: RoleBackend | Mapping[str, RoleBackend],
                 sandbox: Sandbox, config: RunConfig | None = None):
        self.policy = policy
        self._backends = role_backends
        self.sandbox = sandbox
        self.config = (config or RunConfig()).validated()

    def _backend_for(self, role: str) -> RoleBackend:
        if isinstance(self._backends, Mapping):
            backend = self._backends.get(role) or self._backends.get("*")
            if backend is None:
                raise AdapterError(f"no backend configured for role {role!r}")
            return backend
        return self._backends

    def run(self, problem: ProblemSpec) -> EpisodeResult:
        config = self.config
        turns: list[TurnRecord] = []
        memories: dict[str, list[AgentMessage]] = {}
        usage = TokenUsage()
        sandbox_runs = 0
        prev_dag: LayeredDag | None = None
        status = "FAILED"
        error: str | None = None
        fallback = problem.difficulty if problem.difficulty is not None \
            else config.difficulty_fallback

        try:
            for k in range(1, config.max_turns + 1):
                prompt = render_history_prompt(problem, turns,
                                               text_cap=config.observation_log_cap)
                response = self.policy.generate(problem, prompt)
                usage += response.usage
                prior_ids = frozenset(prev_dag.nodes) if prev_dag is not None else frozenset()
                check = check_topology(response.content, prior_ids=prior_ids,
                                       role_pool=config.role_pool,
                                       fallback_difficulty=fallback)
                if not check.ok:
                    turns.append(TurnRecord(
                        turn=k, policy_text=response.content, validation=check,
                        doc=None, dag=None, density=None, messages=(),
                        outcome=None,
                        reward=turn_reward(check.error_class, weights=config.weights),
                        observation=build_validation_observation(check),
                    ))
                    continue

                doc = check.doc
                assert doc is not None
                dag = decode_topology(doc, prev=prev_dag)
                density = density_scores(dag, doc.difficulty)
                messages, outcome, turn_usage, ran_sandbox = self._exec_run(
                    problem, dag, memories, k)
                usage += turn_usage
                if ran_sandbox:
                    sandbox_runs += 1
                reward = turn_reward(None, report=density, verdict=outcome.verdict,
                                     weights=config.weights)
                prev_dag = dag
                passed = outcome.verdict is Verdict.PASSED
                observation = None if passed else build_observation(
                    outcome, outcome.logs, doc,
                    time_limit_ms=problem.time_limit_ms,
                    memory_limit_mb=problem.memory_limit_mb,
                    log_cap=config.observation_log_cap,
                )
                turns.append(TurnRecord(
                    turn=k, policy_text=response.content, validation=check,
                    doc=doc, dag=dag, density=density, messages=tuple(messages),
                    outcome=outcome, reward=reward, observation=observation,
                ))
                if passed:
                    status = "PASSED"
                    break
        except (AdapterError, SandboxError, ScriptExhausted) as exc:
            status = "ERROR"
            error = f"{type(exc).__name__}: {exc}"

        trajectory = Trajectory(
            turns=tuple(turns),
            gamma=config.gamma,
            return_value=trajectory_return((t.reward.r_phi for t in turns), config.gamma),
        )
        return EpisodeResult(problem_id=problem.id, status=status, trajectory=trajectory,
                             token_usage=usage, sandbox_runs=sandbox_runs, error=error)

    # -- one turn's DAG execution --------------------------------------------

    def _exec_run(self, problem: ProblemSpec, dag: LayeredDag,
                  memories: dict[str, list[AgentMessage]],
                  turn: int) -> tuple[list[AgentMessage], ExecOutcome, TokenUsage, bool]:
        z_roles: list[AgentMessage] = []
        turn_messages: dict[str, AgentMessage] = {}
        usage = TokenUsage()

        for layer in dag.layers:
            requests = {
                agent_id: self._build_request(problem, dag, agent_id, memories,
                                              turn_messages, turn)
                for agent_id in layer
            }
            responses = self._run_layer(dag, layer, requests)
            # Merge strictly in document order, whatever the completion order.
            for agent_id in layer:
                response = responses[agent_id]
                usage += response.usage
                message = AgentMessage(agent_id=agent_id, turn=turn,
                                       role=dag.nodes[agent_id].role,
                                       content=response.content)
                z_roles.append(message)
                turn_messages[agent_id] = message
                memories.setdefault(agent_id, []).append(message)

        code = extract_code(z_roles)
        if code is None:
            outcome = ExecOutcome.compilation_error(len(problem.tests), NO_CODE_LOG)
            return z_roles, outcome, usage, False

        outcome = self.sandbox.execute(
            code.source, code.language, problem.tests,
            time_limit_ms=problem.time_limit_ms,
            memory_limit_mb=problem.memory_limit_mb,
        )
        return z_roles, outcome, usage, True

    def _run_layer(self, dag: LayeredDag, layer: Sequence[str],
                   requests: Mapping[str, AgentRequest]) -> dict[str, AgentResponse]:
        backends = [self._backend_for(dag.nodes[agent_id].role) for agent_id in layer]
        if len(layer) == 1:
            return {layer[0]: backends[0].respond(requests[layer[0]])}
        pool = _agent_pool()
        futures = [pool.submit(contextvars.copy_context().run, backend.respond, requests[agent_id])
                   for agent_id, backend in zip(layer, backends)]
        # Every call ends before any result is read, and the first failure in
        # document order is the one raised.
        for future in futures:
            future.exception()
        return {agent_id: future.result() for agent_id, future in zip(layer, futures)}

    def _build_request(self, problem: ProblemSpec, dag: LayeredDag, agent_id: str,
                       memories: Mapping[str, Sequence[AgentMessage]],
                       turn_messages: Mapping[str, AgentMessage],
                       turn: int) -> AgentRequest:
        """Assemble exactly what this node may see: the problem, its previous-turn
        views, its own memory, and its current-turn in-neighbors (in edge order)."""
        node = dag.nodes[agent_id]
        in_edges = dag.in_edges(agent_id)
        parts = [MessagePart(source="problem",
                             content=f"Problem {problem.id}: {problem.description}")]
        for edge in in_edges:
            # Self-continuity is already covered by the memory block below;
            # only other nodes' previous-turn outputs need an explicit view.
            if edge.kind is not EdgeKind.CROSS_TURN:
                continue
            history = memories.get(edge.src)
            if history:
                last = history[-1]
                parts.append(MessagePart(
                    source=f"{edge.src} ({last.role}, turn {last.turn})",
                    content=last.content,
                ))
        for entry in memories.get(agent_id, ()):
            parts.append(MessagePart(source=f"memory (turn {entry.turn})",
                                     content=entry.content))
        for edge in in_edges:
            if edge.kind is not EdgeKind.INTRA_TURN:
                continue
            src_message = turn_messages[edge.src]
            parts.append(MessagePart(
                source=f"{edge.src} ({src_message.role})",
                content=src_message.content,
            ))
        system = self.config.role_prompts.get(node.role, f"You are the {node.role} agent.")
        return AgentRequest(
            system=system,
            messages=tuple(parts),
            role=node.role,
            agent_id=agent_id,
            turn=turn,
            problem_id=problem.id,
        )
