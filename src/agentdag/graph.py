"""Layered DAGs decoded from topology documents, and the scores computed on them.

The density machinery turns raw structure counts into bounded scores:

    s_node  = exp(-|V| / N_max(l))            — node budget pressure
    s_edge  = exp(-|E| / (|V| * (|V| - 0.5))) — wiring density
    s_depth = 1 - s / |V|                     — layering slack
    s_complex = exp(s_node + 2*s_edge + s_depth)

``|E|`` counts declared refs only (intra-turn and cross-turn); the self edges
added automatically for agents reused across turns are bookkeeping, not cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .dsl import TopologyDoc

# Difficulty-conditioned node caps per turn.
NODE_CAPS: dict[int, int] = {1: 4, 2: 7, 3: 10}


def n_max_nodes(difficulty: int) -> int:
    if isinstance(difficulty, bool) or difficulty not in NODE_CAPS:
        raise ValueError(f"difficulty must be one of {sorted(NODE_CAPS)}, got {difficulty!r}")
    return NODE_CAPS[difficulty]


class EdgeKind(str, Enum):
    INTRA_TURN = "intra_turn"
    CROSS_TURN = "cross_turn"
    SELF_TURN = "self_turn"


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: EdgeKind


@dataclass(frozen=True)
class DagNode:
    id: str
    role: str
    layer: int  # 1-based


@dataclass(frozen=True)
class LayeredDag:
    """Decoded topology for one turn. A pure value — never mutated."""

    turn: int
    layers: tuple[tuple[str, ...], ...]
    nodes: Mapping[str, DagNode]  # read-only view
    edges: tuple[Edge, ...]

    @property
    def v_count(self) -> int:
        return len(self.nodes)

    @property
    def e_count(self) -> int:
        """Declared dependency edges only; auto self edges excluded."""
        return sum(1 for e in self.edges if e.kind is not EdgeKind.SELF_TURN)

    @property
    def s(self) -> int:
        return len(self.layers)

    def in_edges(self, agent_id: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.dst == agent_id)

    def to_dict(self) -> dict:
        return {
            "turn": self.turn,
            "layers": [list(layer) for layer in self.layers],
            "nodes": {n.id: {"role": n.role, "layer": n.layer} for n in self.nodes.values()},
            "edges": [[e.src, e.dst, e.kind.value] for e in self.edges],
        }


def decode_topology(doc: TopologyDoc, prev: LayeredDag | None = None) -> LayeredDag:
    """Deterministically decode a validated document into a layered DAG.

    Each ref becomes one edge. A ref is resolved against earlier steps of the
    current turn first, then against the previous turn. Additionally, every
    agent id present in both this document and ``prev`` gets one automatic
    self edge linking its two incarnations.
    """
    turn = 1 if prev is None else prev.turn + 1
    layers = tuple(tuple(agent.id for agent in step.agents) for step in doc.steps)
    nodes: dict[str, DagNode] = {}
    for step in doc.steps:
        for agent in step.agents:
            nodes[agent.id] = DagNode(id=agent.id, role=agent.role, layer=step.index)

    prev_ids = set(prev.nodes) if prev is not None else set()
    edges: list[Edge] = []
    earlier: set[str] = set()
    for step in doc.steps:
        for agent in step.agents:
            for ref in agent.refs:
                if ref in earlier:
                    kind = EdgeKind.INTRA_TURN
                elif ref in prev_ids:
                    kind = EdgeKind.CROSS_TURN
                else:
                    raise ValueError(
                        f"unresolvable ref {ref!r} for agent {agent.id!r}; "
                        "decode requires a logically validated document"
                    )
                edges.append(Edge(src=ref, dst=agent.id, kind=kind))
        earlier.update(agent.id for agent in step.agents)

    for step in doc.steps:
        for agent in step.agents:
            if agent.id in prev_ids:
                edges.append(Edge(src=agent.id, dst=agent.id, kind=EdgeKind.SELF_TURN))

    return LayeredDag(turn=turn, layers=layers, nodes=MappingProxyType(nodes), edges=tuple(edges))


@dataclass(frozen=True)
class DensityReport:
    v_count: int
    e_count: int
    s: int
    s_node: float
    s_edge: float
    s_depth: float
    s_complex: float
    raw_density: float
    difficulty: int
    n_max: int

    def to_dict(self) -> dict:
        return {
            "v_count": self.v_count,
            "e_count": self.e_count,
            "s": self.s,
            "s_node": self.s_node,
            "s_edge": self.s_edge,
            "s_depth": self.s_depth,
            "s_complex": self.s_complex,
            "raw_density": self.raw_density,
            "difficulty": self.difficulty,
            "n_max": self.n_max,
        }


def density_from_counts(v_count: int, e_count: int, s: int, difficulty: int) -> DensityReport:
    """Density scores straight from the three structure counts."""
    if v_count < 1:
        raise ValueError("v_count must be >= 1")
    if s < 1 or s > v_count:
        raise ValueError("s must satisfy 1 <= s <= v_count")
    if e_count < 0:
        raise ValueError("e_count must be >= 0")
    n_max = n_max_nodes(difficulty)
    s_node = math.exp(-v_count / n_max)
    s_edge = math.exp(-e_count / (v_count * (v_count - 0.5)))
    s_depth = 1.0 - s / v_count
    s_complex = math.exp(s_node + 2.0 * s_edge + s_depth)
    raw_density = v_count + 2.0 * e_count / v_count + s
    return DensityReport(
        v_count=v_count,
        e_count=e_count,
        s=s,
        s_node=s_node,
        s_edge=s_edge,
        s_depth=s_depth,
        s_complex=s_complex,
        raw_density=raw_density,
        difficulty=difficulty,
        n_max=n_max,
    )


def density_scores(dag: LayeredDag, difficulty: int) -> DensityReport:
    return density_from_counts(dag.v_count, dag.e_count, dag.s, difficulty)


@dataclass(frozen=True)
class CostEstimate:
    """Expected token cost of executing one turn, at m tokens per message."""

    m: int
    total: int
    per_agent: float

    def to_dict(self) -> dict:
        return {"m": self.m, "total": self.total, "per_agent": self.per_agent}


def cost_estimate(dag: LayeredDag, prev_v_count: int, message_tokens: int) -> CostEstimate:
    """Token cost for one turn: every agent reads the previous turn's outputs,
    every declared edge is read once, every agent writes once.

        total     = m * (|V| + |V| * |V_prev| + 2|E|)
        per_agent = m * (1 + |V| + 2|E| / |V|)
    """
    if message_tokens < 1:
        raise ValueError("message_tokens must be >= 1")
    if prev_v_count < 0:
        raise ValueError("prev_v_count must be >= 0")
    v, e = dag.v_count, dag.e_count
    total = message_tokens * (v + v * prev_v_count + 2 * e)
    per_agent = message_tokens * (1.0 + v + 2.0 * e / v)
    return CostEstimate(m=message_tokens, total=total, per_agent=per_agent)
