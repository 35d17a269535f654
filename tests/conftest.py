from __future__ import annotations

import json
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import settings

from agentdag.adapters import LocalExecutor
from agentdag.dsl import AgentSpec, Step, TopologyDoc, parse_topology
from agentdag.graph import LayeredDag, decode_topology
from agentdag.roles import DEFAULT_ROLE_POOL

# A topology in a history prompt, as a whole block: under ``topology used:`` up
# to the line that closes an executed turn's feedback, or under ``topology:``
# up to the turn's ``feedback:`` line, a blank line or the end. Canonical YAML
# has no blank line, and one topology can be a prefix of another, so a block
# is matched to its closing line, never counted as a substring.
_TOPOLOGY_BLOCK = re.compile(
    r"^topology used:\n(.*?)\nRevise the topology and emit a corrected fenced yaml block\.$"
    r"|^topology:\n(.*?)(?=\nfeedback:$|\n\n|\Z)", re.M | re.S)

settings.register_profile("ci", deadline=None, max_examples=60)
settings.load_profile("ci")


def live_session_members(sid: int) -> list[int]:
    """Pids of the processes in session ``sid`` that have not exited."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited while we looked
            continue
        fields = stat.rsplit(")", 1)[1].split()
        state, session = fields[0], int(fields[3])
        if session == sid and state not in ("Z", "X"):
            members.append(int(entry))
    return members


class CountingSandbox:
    """A LocalExecutor that counts the execute() calls reaching it."""

    def __init__(self):
        self.inner = LocalExecutor()
        self.runs = 0

    def execute(self, *args, **kwargs):
        self.runs += 1
        return self.inner.execute(*args, **kwargs)


class PromptSpy:
    """A policy that records the history prompt of every call, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []

    def generate(self, problem, history_prompt):
        self.prompts.append(history_prompt)
        return self.inner.generate(problem, history_prompt)


def topology_blocks(prompt: str) -> list[str]:
    """Every topology a history prompt shows, in order, without its trailing newline."""
    return [used or own for used, own in _TOPOLOGY_BLOCK.findall(prompt)]


def rebuild_dags(turns: list[dict]) -> dict[int, LayeredDag]:
    """The README's recipe for the DAG a trajectory line does not store: decode
    each non-null ``topology`` in turn order, with the DAG before it as ``prev``.
    Keyed by the line's ``turn``."""
    dags: dict[int, LayeredDag] = {}
    prev = None
    for turn in turns:
        if turn["topology"] is not None:
            prev = decode_topology(parse_topology(json.dumps(turn["topology"])), prev=prev)
            dags[turn["turn"]] = prev
    return dags


def make_doc(layers, difficulty: int = 1) -> TopologyDoc:
    """Build a TopologyDoc from [[(id, role, refs), ...], ...]."""
    steps = tuple(
        Step(
            index=i + 1,
            agents=tuple(
                AgentSpec(id=aid, role=role, refs=tuple(refs)) for aid, role, refs in layer
            ),
        )
        for i, layer in enumerate(layers)
    )
    return TopologyDoc(difficulty=difficulty, steps=steps)


def random_topology(rng: random.Random, *, max_layers: int = 4, max_width: int = 3,
                    difficulty: int | None = None) -> TopologyDoc:
    """A structurally valid random document: refs resolve, step 1 has none."""
    n_layers = rng.randint(1, max_layers)
    earlier: list[str] = []
    layers = []
    counter = 0
    for layer_idx in range(1, n_layers + 1):
        agents = []
        for _ in range(rng.randint(1, max_width)):
            aid = f"agent_{counter}"
            counter += 1
            role = rng.choice(DEFAULT_ROLE_POOL)
            if layer_idx == 1 or not earlier:
                refs: list[str] = []
            else:
                refs = rng.sample(earlier, k=rng.randint(0, len(earlier)))
            agents.append((aid, role, refs))
        layers.append(agents)
        earlier.extend(a[0] for a in agents)
    return make_doc(layers, difficulty=difficulty or rng.randint(1, 3))


def random_strict_dag_doc(rng: random.Random, *, in_edge_condition: bool,
                          min_layers: int = 2, max_layers: int = 4,
                          max_width: int = 3) -> TopologyDoc:
    """Random document whose decoded DAG satisfies the strict layered-DAG laws.

    Sequentiality holds by construction (refs only reach earlier steps) and a
    fix-up pass guarantees every non-final-layer agent has an outgoing edge.
    With ``in_edge_condition`` every agent beyond layer 1 also references at
    least one agent of the immediately preceding layer.
    """
    n_layers = rng.randint(min_layers, max_layers)
    ids_by_layer: list[list[str]] = []
    counter = 0
    for _ in range(n_layers):
        width = rng.randint(1, max_width)
        ids_by_layer.append([f"n{counter + i}" for i in range(width)])
        counter += width

    refs: dict[str, list[str]] = {aid: [] for layer in ids_by_layer for aid in layer}
    for layer_idx in range(1, n_layers):
        prev_layer = ids_by_layer[layer_idx - 1]
        earlier = [aid for layer in ids_by_layer[:layer_idx] for aid in layer]
        for aid in ids_by_layer[layer_idx]:
            if in_edge_condition:
                chosen = {rng.choice(prev_layer)}
            else:
                # May skip the previous layer entirely.
                chosen = set(rng.sample(earlier, k=rng.randint(0, min(2, len(earlier)))))
            for extra in rng.sample(earlier, k=rng.randint(0, min(2, len(earlier)))):
                chosen.add(extra)
            refs[aid] = sorted(chosen)

    # Conciseness fix-up: every non-final-layer agent must feed someone later.
    referenced = {r for lst in refs.values() for r in lst}
    for layer_idx in range(n_layers - 1):
        for aid in ids_by_layer[layer_idx]:
            if aid in referenced:
                continue
            target_layer = rng.randint(layer_idx + 1, n_layers - 1)
            target = rng.choice(ids_by_layer[target_layer])
            if aid not in refs[target]:
                refs[target].append(aid)
            referenced.add(aid)

    layers = [
        [(aid, rng.choice(DEFAULT_ROLE_POOL), refs[aid]) for aid in layer]
        for layer in ids_by_layer
    ]
    return make_doc(layers, difficulty=rng.randint(1, 3))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
