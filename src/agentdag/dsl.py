"""The YAML interaction-topology DSL: extraction, parsing, validation, canonical form.

A topology document declares, for one orchestration turn, which agents run in
which step (layer) and which earlier agents each one listens to::

    difficulty: 1
    steps:
      - step: 1
        agents:
          - id: planner_1
            role: planning
            ref: []
      - step: 2
        agents:
          - id: coder_1
            role: coding
            ref: [planner_1]

Every failure is classified into exactly one of four classes, tried in a fixed
order: NO_YAML_FOUND (no fenced block), YAML_PARSE_ERROR (the YAML loader
rejected the text), YAML_SCHEMA_INVALID (structural shape), YAML_LOGIC_INVALID
(referential rules).
"""

from __future__ import annotations

import json
import re
from _thread import allocate_lock  # threading.Lock, without importing threading (~1 ms)
from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Sequence

from .roles import DEFAULT_ROLE_POOL

DIFFICULTY_LEVELS = (1, 2, 3)


class ErrorClass(str, Enum):
    NO_YAML_FOUND = "NO_YAML_FOUND"
    YAML_PARSE_ERROR = "YAML_PARSE_ERROR"
    YAML_SCHEMA_INVALID = "YAML_SCHEMA_INVALID"
    YAML_LOGIC_INVALID = "YAML_LOGIC_INVALID"


@dataclass(frozen=True)
class ErrorLocation:
    step: int | None = None
    agent: str | None = None

    def to_dict(self) -> dict:
        return {"step": self.step, "agent": self.agent}


class TopologyError(ValueError):
    """A classified topology failure; exactly one class per failure."""

    def __init__(self, error_class: ErrorClass, detail: str,
                 location: ErrorLocation | None = None):
        super().__init__(f"{error_class.value}: {detail}")
        self.error_class = error_class
        self.detail = detail
        self.location = location


@dataclass(frozen=True)
class AgentSpec:
    id: str
    role: str
    refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Step:
    index: int  # 1-based, contiguous across the document
    agents: tuple[AgentSpec, ...]


@dataclass(frozen=True)
class TopologyDoc:
    """A validated (or at least parsed) topology for one turn. Immutable."""

    difficulty: int
    steps: tuple[Step, ...]
    # True when the difficulty header was absent and a fallback filled it in.
    # Metadata only: never part of equality or the canonical form.
    difficulty_from_fallback: bool = field(default=False, compare=False)

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(agent.id for step in self.steps for agent in step.agents)


@dataclass(frozen=True)
class CheckResult:
    """Total classification outcome: either a document or one error class."""

    doc: TopologyDoc | None
    error_class: ErrorClass | None = None
    detail: str | None = None
    location: ErrorLocation | None = None
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.doc is not None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "class": self.error_class.value if self.error_class else None,
            "detail": self.detail,
            "location": self.location.to_dict() if self.location else None,
            "warnings": list(self.warnings),
        }


_FENCE_RE = re.compile(
    r"```[ \t]*([^\n`]*?)[ \t]*\r?\n(.*?)(?:\r?\n)?```",
    re.DOTALL,
)


def fenced_blocks(text: str) -> list[tuple[str, str]]:
    """Every complete fenced block in order, as (label, body) pairs.

    ``label`` is the lowercased first word of the fence's info string, or ""
    when the fence has none.
    """
    return [((label.split() or [""])[0].lower(), body)
            for label, body in _FENCE_RE.findall(text)]


def extract_yaml_block(text: str) -> str:
    """Return the first ```yaml fenced block, else the first fenced block of any label.

    Raises TopologyError(NO_YAML_FOUND) when the text contains no complete
    fenced block at all.
    """
    blocks = fenced_blocks(text)
    if not blocks:
        raise TopologyError(ErrorClass.NO_YAML_FOUND, "no fenced code block in policy output")
    return next((body for label, body in blocks if label == "yaml"), blocks[0][1])


def _schema_error(detail: str, step: int | None = None, agent: str | None = None) -> TopologyError:
    location = ErrorLocation(step=step, agent=agent) if (step is not None or agent is not None) else None
    return TopologyError(ErrorClass.YAML_SCHEMA_INVALID, detail, location)


def _require_str(value, what: str, step: int | None, agent: str | None) -> str:
    if not isinstance(value, str) or isinstance(value, bool):
        raise _schema_error(f"{what} must be a string, got {type(value).__name__}", step, agent)
    if not value:
        raise _schema_error(f"{what} must be non-empty", step, agent)
    return value


_NUMBER = re.compile(r"0|[1-9][0-9]*")  # "01" and "+1" are YAML 1.1 octal and signed


def _entry(line: str):
    """``(key, value)`` for a ``key: value`` line of the plain form, else None.
    The value is a number, a plain scalar, or a flow list ``[]`` or ``[x, y]``
    of plain scalars."""
    key, sep, text = line.partition(": ")
    if not (sep and _plain(key)):
        return None
    if _NUMBER.fullmatch(text):
        return key, int(text)
    if _plain(text):
        return key, text
    items = text[1:-1].split(", ") if text != "[]" else []
    if text[:1] + text[-1:] == "[]" and all(map(_plain, items)):
        return key, items
    return None


def _read_plain(text: str):
    """The data the SafeLoader reads from a topology in plain block form, or
    None for any other text; it never raises.

    The form has one item per line and no blank lines, comments, quotes, tabs
    or trailing spaces: ``key: value`` lines, then ``steps:`` at column 0;
    steps at one column c, each ``- step: N`` over ``agents:`` at c+2, or
    ``- agents:``; a step's agents at one column a >= c+2, each ``- key: value``
    over more at a+2, or bare ``key:`` over ``- x`` lines at one column >= a+2.
    A repeated key keeps its first place and its last value. No list is empty.
    """
    lines = text.removesuffix("\n").split("\n")
    # Without a "steps:" line every line is a header line, and no step is read.
    top = lines.index("steps:") if "steps:" in lines else len(lines)
    header = list(map(_entry, lines[:top]))
    if None in header:
        return None
    data = dict(header)
    # (column, text after the indent) per line, then a row at column -1 that
    # ends the text.
    rows = [(len(line) - len(body), body) for line in lines[top + 1:]
            for body in [line.lstrip(" ")]]
    rows.append((-1, ""))
    steps = data["steps"] = []
    step_col, at = rows[0][0], 0
    while step_col >= 0 and rows[at][0] == step_col:
        body = rows[at][1]
        if body == "- agents:":
            step = {}
        elif body.startswith("- step: ") and _NUMBER.fullmatch(body[8:]):
            step = {"step": int(body[8:])}
            at += 1
            if rows[at] != (step_col + 2, "agents:"):
                return None
        else:
            return None
        at += 1
        agents = step["agents"] = []
        agent_col = rows[at][0]
        if agent_col < step_col + 2:
            return None
        while rows[at][0] == agent_col and rows[at][1].startswith("- "):
            # The item's first key is read with the rest, at their column.
            rows[at] = (agent_col + 2, rows[at][1][2:])
            agent = {}
            while rows[at][0] == agent_col + 2:
                body = rows[at][1]
                at += 1
                entry = _entry(body)
                if body.endswith(":") and _plain(body[:-1]) and rows[at][0] >= agent_col + 2:
                    # A bare key over block items.
                    item_col, entry = rows[at][0], (body[:-1], [])
                    while rows[at][0] == item_col and rows[at][1].startswith("- "):
                        entry[1].append(rows[at][1][2:])
                        at += 1
                    if not (entry[1] and all(map(_plain, entry[1]))):
                        return None
                if entry is None:
                    return None
                agent[entry[0]] = entry[1]
            agents.append(agent)
        if not agents:
            return None
        steps.append(step)
    return data if steps and rows[at][0] < 0 else None


# PyYAML's pure SafeLoader defines what a text means. Its composer recurses
# once per level of nesting, so the caller's stack bounds how deep it can go.
# A valid topology is 7 nodes deep (mapping, steps, step, agents, agent, ref
# list, ref), and a fixed bound far above that gives every text one class
# whatever the stack it is read on.
_MAX_DEPTH = 64
_TOO_DEEP = "document nests too deeply for the YAML loader"

# PyYAML and the depth-bound loader class, once a text or a document outside
# the plain form needs them: importing PyYAML costs more than reading most
# topologies, and a plain text never needs it.
_pyyaml_loaded: tuple | None = None
_pyyaml_lock = allocate_lock()


def _pyyaml():
    """``(yaml, loader)``: PyYAML, imported on the first call in a process,
    and the depth-bound loader class, built once whatever the threads."""
    global _pyyaml_loaded
    if _pyyaml_loaded is None:
        with _pyyaml_lock:
            if _pyyaml_loaded is None:
                _pyyaml_loaded = _import_pyyaml()
    return _pyyaml_loaded


def _import_pyyaml():
    import yaml

    class _DepthBoundLoader(yaml.SafeLoader):
        """The pure SafeLoader, refusing documents nested deeper than _MAX_DEPTH nodes."""

        _depth = 0

        def fetch_flow_collection_start(self, TokenClass):
            # The scanner walks every open flow level's possible simple key for
            # each token it reads, so a deep flow text is refused as it opens,
            # before the composer sees it.
            if self.flow_level == _MAX_DEPTH:
                raise TopologyError(ErrorClass.YAML_PARSE_ERROR, _TOO_DEEP)
            super().fetch_flow_collection_start(TokenClass)

        def compose_node(self, parent, index):
            if self._depth == _MAX_DEPTH:
                raise TopologyError(ErrorClass.YAML_PARSE_ERROR, _TOO_DEEP)
            self._depth += 1
            try:
                return super().compose_node(parent, index)
            finally:
                self._depth -= 1

    return yaml, _DepthBoundLoader


def load_yaml(yaml_text: str):
    """The data of a YAML text, a topology or a run config, as the pure SafeLoader reads it.

    Raises YAML_PARSE_ERROR with the first line of the pure loader's message,
    or for a document nested deeper than _MAX_DEPTH nodes.
    """
    data = _read_plain(yaml_text)
    if data is not None:
        return data
    try:
        # Inside the try: on a caller's deep stack the import may recurse too far.
        yaml, loader = _pyyaml()
        return yaml.load(yaml_text, Loader=loader)
    except RecursionError:  # a caller already deep in its own stack
        raise TopologyError(ErrorClass.YAML_PARSE_ERROR, _TOO_DEEP) from None
    except yaml.YAMLError as exc:
        first_line = str(exc).strip().splitlines()[0] if str(exc).strip() else "invalid YAML"
        raise TopologyError(ErrorClass.YAML_PARSE_ERROR, first_line) from exc


def parse_topology(yaml_text: str, *, fallback_difficulty: int | None = None) -> TopologyDoc:
    """Parse raw YAML into a TopologyDoc, enforcing the structural schema.

    Loader failures raise YAML_PARSE_ERROR; shape problems raise
    YAML_SCHEMA_INVALID. Referential rules are checked separately by
    :func:`validate_logic`.
    """
    data = load_yaml(yaml_text)
    if not isinstance(data, dict):
        raise _schema_error(f"top level must be a mapping, got {type(data).__name__}")

    unknown = set(data) - {"difficulty", "steps"}
    if unknown:
        raise _schema_error(f"unknown top-level keys: {sorted(map(str, unknown))}")

    used_fallback = False
    if "difficulty" in data:
        difficulty = data["difficulty"]
        if isinstance(difficulty, bool) or not isinstance(difficulty, int):
            raise _schema_error("difficulty must be an integer")
    elif fallback_difficulty is not None:
        difficulty = fallback_difficulty
        used_fallback = True
    else:
        raise _schema_error("missing required key 'difficulty' and no fallback configured")
    if difficulty not in DIFFICULTY_LEVELS:
        raise _schema_error(f"difficulty must be one of {list(DIFFICULTY_LEVELS)}, got {difficulty!r}")

    if "steps" not in data:
        raise _schema_error("missing required key 'steps'")
    raw_steps = data["steps"]
    if not isinstance(raw_steps, list):
        raise _schema_error("'steps' must be a list")
    if not raw_steps:
        raise _schema_error("'steps' must not be empty")

    steps: list[Step] = []
    for position, raw_step in enumerate(raw_steps, start=1):
        if not isinstance(raw_step, dict):
            raise _schema_error(f"step {position} must be a mapping", position)
        unknown = set(raw_step) - {"step", "agents"}
        if unknown:
            raise _schema_error(f"unknown step keys: {sorted(map(str, unknown))}", position)
        if "step" in raw_step:
            declared = raw_step["step"]
            if isinstance(declared, bool) or not isinstance(declared, int):
                raise _schema_error("'step' must be an integer", position)
            if declared != position:
                raise _schema_error(
                    f"step indices must be contiguous from 1; position {position} declares {declared}",
                    position,
                )
        if "agents" not in raw_step:
            raise _schema_error("step missing required key 'agents'", position)
        raw_agents = raw_step["agents"]
        if not isinstance(raw_agents, list):
            raise _schema_error("'agents' must be a list", position)
        if not raw_agents:
            raise _schema_error("step has an empty agent list", position)

        agents: list[AgentSpec] = []
        for raw_agent in raw_agents:
            if not isinstance(raw_agent, dict):
                raise _schema_error("agent entry must be a mapping", position)
            missing = {"id", "role", "ref"} - set(raw_agent)
            if missing:
                raise _schema_error(f"agent missing required keys: {sorted(missing)}", position)
            unknown = set(raw_agent) - {"id", "role", "ref"}
            if unknown:
                raise _schema_error(f"unknown agent keys: {sorted(map(str, unknown))}", position)
            agent_id = _require_str(raw_agent["id"], "agent 'id'", position, None)
            role = _require_str(raw_agent["role"], "agent 'role'", position, agent_id)
            raw_refs = raw_agent["ref"]
            if raw_refs is None:
                raw_refs = []
            if not isinstance(raw_refs, list):
                raise _schema_error("'ref' must be a list", position, agent_id)
            refs = tuple(
                _require_str(r, "'ref' entry", position, agent_id) for r in raw_refs
            )
            agents.append(AgentSpec(id=agent_id, role=role, refs=refs))
        steps.append(Step(index=position, agents=tuple(agents)))

    return TopologyDoc(
        difficulty=difficulty,
        steps=tuple(steps),
        difficulty_from_fallback=used_fallback,
    )


def _logic_error(rule: str, detail: str, step: int, agent: str) -> TopologyError:
    return TopologyError(
        ErrorClass.YAML_LOGIC_INVALID,
        f"rule '{rule}': {detail}",
        ErrorLocation(step=step, agent=agent),
    )


def validate_logic(doc: TopologyDoc, prior_ids: AbstractSet[str] = frozenset(),
                   role_pool: Sequence[str] = DEFAULT_ROLE_POOL) -> None:
    """Enforce the referential rules; raises YAML_LOGIC_INVALID on the first hit.

    Rules, checked in document order: unique agent ids, roles from the pool,
    empty refs in step 1, no self-references, no duplicate refs, and every ref
    naming an agent from a strictly earlier step of this turn or from
    ``prior_ids`` (the previous turn's agents).
    """
    pool = set(role_pool)
    seen_ids: set[str] = set()
    earlier_ids: set[str] = set()
    for step in doc.steps:
        for agent in step.agents:
            if agent.id in seen_ids:
                raise _logic_error("duplicate-id", f"agent id {agent.id!r} appears more than once",
                                   step.index, agent.id)
            seen_ids.add(agent.id)
            if agent.role not in pool:
                raise _logic_error("unknown-role",
                                   f"role {agent.role!r} is not in the configured pool",
                                   step.index, agent.id)
            if step.index == 1 and agent.refs:
                raise _logic_error("first-step-ref",
                                   "step 1 agents must declare an empty ref list",
                                   step.index, agent.id)
            seen_refs: set[str] = set()
            for ref in agent.refs:
                if ref == agent.id:
                    raise _logic_error("self-ref", f"agent {agent.id!r} references itself",
                                       step.index, agent.id)
                if ref in seen_refs:
                    raise _logic_error("duplicate-ref",
                                       f"ref {ref!r} is listed twice", step.index, agent.id)
                seen_refs.add(ref)
                if ref not in earlier_ids and ref not in prior_ids:
                    raise _logic_error(
                        "dangling-ref",
                        f"ref {ref!r} names no agent from an earlier step or the previous turn",
                        step.index, agent.id,
                    )
        earlier_ids.update(agent.id for agent in step.agents)


def check_topology(text: str, *, prior_ids: AbstractSet[str] = frozenset(),
                   role_pool: Sequence[str] = DEFAULT_ROLE_POOL,
                   fallback_difficulty: int | None = None) -> CheckResult:
    """Run the full pipeline on raw policy output. Total: never raises.

    Extraction, parsing, schema, and logic are tried in that order; the first
    failing stage determines the single reported error class.
    """
    try:
        yaml_text = extract_yaml_block(text)
    except TopologyError as exc:
        return CheckResult(doc=None, error_class=exc.error_class, detail=exc.detail,
                           location=exc.location)
    return check_yaml(yaml_text, prior_ids=prior_ids, role_pool=role_pool,
                      fallback_difficulty=fallback_difficulty)


def check_yaml(yaml_text: str, *, prior_ids: AbstractSet[str] = frozenset(),
               role_pool: Sequence[str] = DEFAULT_ROLE_POOL,
               fallback_difficulty: int | None = None) -> CheckResult:
    """Like :func:`check_topology` but for bare YAML (no fence extraction)."""
    try:
        doc = parse_topology(yaml_text, fallback_difficulty=fallback_difficulty)
        validate_logic(doc, prior_ids=prior_ids, role_pool=role_pool)
    except TopologyError as exc:
        return CheckResult(doc=None, error_class=exc.error_class, detail=exc.detail,
                           location=exc.location)
    warnings = ()
    if doc.difficulty_from_fallback:
        warnings = (f"difficulty header absent; fallback {doc.difficulty} applied",)
    return CheckResult(doc=doc, warnings=warnings)


def doc_to_mapping(doc: TopologyDoc, *, sort_refs: bool = False) -> dict:
    """Plain-data form of a document (steps in order, agents in document order)."""
    return {
        "difficulty": doc.difficulty,
        "steps": [
            {
                "step": step.index,
                "agents": [
                    {
                        "id": agent.id,
                        "role": agent.role,
                        "ref": sorted(agent.refs) if sort_refs else list(agent.refs),
                    }
                    for agent in step.agents
                ],
            }
            for step in doc.steps
        ],
    }


def canonicalize(doc: TopologyDoc) -> bytes:
    """Deterministic byte form: ref lists sorted, UTF-8, LF-terminated.

    Two documents that differ only in ref ordering canonicalize identically;
    any difference in structure, ids, roles, or difficulty changes the bytes.
    """
    payload = doc_to_mapping(doc, sort_refs=True)
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n").encode("utf-8")


# A string that SafeDumper writes unquoted and that the SafeLoader reads back
# as that string: an identifier-like word that is none of the 21 words the
# YAML 1.1 resolver reads as a boolean or null. It is the only kind of string
# that to_yaml writes itself and that _read_plain reads, and it is at most
# 1024 characters long, as far as the scanner looks for the ":" after a key.
_PLAIN_SCALAR = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]{0,1023}")
_RESOLVED_WORDS = frozenset(
    case(word) for word in ("yes", "no", "true", "false", "on", "off", "null")
    for case in (str.lower, str.title, str.upper))


def _plain(text) -> bool:
    return (type(text) is str and _PLAIN_SCALAR.fullmatch(text) is not None
            and text not in _RESOLVED_WORDS)


def to_yaml(doc: TopologyDoc) -> str:
    """Serialize a document back to YAML that re-parses to an equal document.

    The bytes are those of ``yaml.safe_dump(doc_to_mapping(doc),
    sort_keys=False, default_flow_style=False)``. A document whose numbers are
    ints and whose strings are all plain scalars is written here directly;
    any other goes through the dumper.
    """
    if not (type(doc.difficulty) is int and doc.steps and all(
            type(step.index) is int and step.agents and all(
                _plain(agent.id) and _plain(agent.role) and all(map(_plain, agent.refs))
                for agent in step.agents)
            for step in doc.steps)):
        yaml, _ = _pyyaml()
        return yaml.safe_dump(doc_to_mapping(doc), sort_keys=False, default_flow_style=False)
    lines = [f"difficulty: {doc.difficulty}", "steps:"]
    for step in doc.steps:
        lines += (f"- step: {step.index}", "  agents:")
        for agent in step.agents:
            lines += (f"  - id: {agent.id}", f"    role: {agent.role}")
            if agent.refs:
                lines.append("    ref:")
                lines += [f"    - {ref}" for ref in agent.refs]
            else:
                lines.append("    ref: []")
    lines.append("")
    return "\n".join(lines)
