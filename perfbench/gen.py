"""Seeded input generators with planted expectations.

Everything here is derived from the seed and from fixed round schedules, and
nothing here imports agentdag: the expected verdicts, validation classes,
rejection reasons and structure counts (v, e, s, difficulty) are known from
how each input was built, not from running the program.

A *round* is a fixed list of episode shapes (or corpora). The shapes do not
depend on the seed, so per-op counts such as ``to_yaml`` calls or tests run
repeat exactly from run to run; the seed varies ids, the order of roles, ref
targets, problem text and test values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NON_CODE_ROLES = ("retrieval", "planning", "algorithmic", "testing")
NODE_CAPS = {1: 4, 2: 7, 3: 10}

INVALID_KINDS = ("NO_YAML_FOUND", "YAML_PARSE_ERROR", "YAML_SCHEMA_INVALID", "YAML_LOGIC_INVALID")
# Candidate kinds of a valid turn, and the verdict each must draw.
CANDIDATE_VERDICTS = {
    "pass": "PASSED",
    "wrong": "WRONG_ANSWER",
    "raise": "RUNTIME_ERROR",
    "syntax": "COMPILATION_ERROR",
    "nocode": "COMPILATION_ERROR",  # no coding agent, so no code block at all
}

# rollout_sandbox: up to 3 turns; (turn kinds, problem family, tests).
ROLLOUT_SHAPES = (
    (("pass",), "sum", 4),
    (("wrong", "pass"), "lines", 3),
    (("raise", "syntax", "pass"), "sort", 4),
    (("NO_YAML_FOUND", "wrong", "wrong"), "rev", 3),
    (("syntax", "pass"), "lines", 4),
    (("wrong", "raise", "wrong"), "sum", 3),
    (("nocode", "pass"), "rev", 5),
    (("pass",), "lines", 5),
    (("YAML_LOGIC_INVALID", "raise", "pass"), "sort", 3),
    (("wrong", "pass"), "sum", 5),
)
ROLLOUT_MAX_TURNS = 3

# orchestrate_mem: long episodes, up to 6 turns.
MEM_SHAPES = (
    ("wrong", "wrong", "wrong", "wrong", "wrong", "pass"),
    ("NO_YAML_FOUND", "wrong", "YAML_PARSE_ERROR", "wrong", "wrong", "wrong"),
    ("wrong", "YAML_SCHEMA_INVALID", "wrong", "YAML_LOGIC_INVALID", "wrong", "pass"),
    ("wrong", "wrong", "pass"),
    ("nocode", "wrong", "wrong", "wrong", "wrong", "wrong"),
    ("YAML_LOGIC_INVALID", "wrong", "wrong", "wrong", "pass"),
    ("pass",),
    ("wrong", "YAML_PARSE_ERROR", "wrong", "wrong", "YAML_SCHEMA_INVALID", "wrong"),
)
MEM_MAX_TURNS = 6

GAMMA = 0.9
WEIGHTS = (1.0, 0.5)


@dataclass(frozen=True)
class PlantedTurn:
    kind: str  # an INVALID_KINDS entry or a CANDIDATE_VERDICTS key
    policy_text: str
    v: int = 0  # structure counts of a valid turn; 0 for an invalid one
    e: int = 0
    s: int = 0
    difficulty: int = 0

    @property
    def valid(self) -> bool:
        return self.kind not in INVALID_KINDS

    @property
    def runs_code(self) -> bool:
        return self.valid and self.kind != "nocode"


@dataclass(frozen=True)
class PlantedEpisode:
    problem: dict  # the ProblemSpec mapping the program reads
    turns: tuple[PlantedTurn, ...]  # only the turns that will be consumed
    solutions: tuple[str, ...]  # candidate program per turn index (1-based - 1)
    reference: str  # the correct program
    max_turns: int

    @property
    def status(self) -> str:
        return "PASSED" if self.turns[-1].kind == "pass" else "FAILED"


# -- topologies ---------------------------------------------------------------

def _topology(rng: random.Random, *, tag: str, n_agents: int, n_layers: int,
              prev_ids: tuple[str, ...], with_code: bool, reuse: tuple[str, ...] = ()):
    """Return (layers, e) where layers is [[(id, role, refs)]] and e counts refs.

    The shape is fixed by the arguments: layer sizes, the number of refs per
    agent, which agents reuse a previous id and which add a cross-turn ref all
    follow from positions. The seed picks ids, roles and ref targets. Reused
    ids keep continuity with the previous turn; cross-turn refs go only to
    previous ids this document does not declare.
    """
    sizes = [n_agents // n_layers + (i < n_agents % n_layers) for i in range(n_layers)]
    pool = list(reuse)
    rng.shuffle(pool)
    ids = [pool.pop() if pool and i % 2 == 0 else f"{tag}_a{i}" for i in range(n_agents)]
    cross_pool = [p for p in prev_ids if p not in ids]
    # A fixed multiset of roles in a seeded order; a coding agent goes last.
    others = NON_CODE_ROLES + ("debugging",) if with_code else NON_CODE_ROLES
    roles = [others[i % len(others)] for i in range(n_agents - with_code)]
    rng.shuffle(roles)
    if with_code:
        roles.append("coding")
    layers, earlier, e, cursor = [], [], 0, 0
    for li, size in enumerate(sizes):
        layer = []
        for _ in range(size):
            refs: list[str] = []
            if li > 0:
                refs = rng.sample(earlier, k=min(len(earlier), 1 + cursor % 3))
                if cross_pool and cursor % 2:
                    refs.append(rng.choice(cross_pool))
            e += len(refs)
            layer.append((ids[cursor], roles[cursor], refs))
            cursor += 1
        layers.append(layer)
        earlier.extend(a[0] for a in layer)
    return layers, e


def topology_yaml(layers, difficulty: int | None, *, flow_refs: bool = True,
                  step_numbers: bool = False) -> str:
    """Bare YAML for ``layers`` in the README's document format."""
    out = [] if difficulty is None else [f"difficulty: {difficulty}"]
    out.append("steps:")
    for i, layer in enumerate(layers, start=1):
        if step_numbers:
            out.append(f"  - step: {i}")
            out.append("    agents:")
        else:
            out.append("  - agents:")
        for aid, role, refs in layer:
            out.append(f"      - id: {aid}")
            out.append(f"        role: {role}")
            if flow_refs or not refs:
                out.append(f"        ref: [{', '.join(refs)}]")
            else:
                out.append("        ref:")
                out.extend(f"          - {r}" for r in refs)
    return "\n".join(out) + "\n"


def _fenced(rng: random.Random, body: str) -> str:
    lead = rng.choice(("Topology for this attempt:", "Plan:", "Here is the graph."))
    return f"{lead}\n```yaml\n{body}```\n"


def _schema_break(rng: random.Random, layers, difficulty: int) -> str:
    """Well-formed YAML of the wrong shape: a bad difficulty or an unknown key."""
    variant = rng.randrange(3)
    if variant == 0:
        return topology_yaml(layers, 4)
    if variant == 1:
        return "budget: 3\n" + topology_yaml(layers, difficulty)
    return topology_yaml(layers, difficulty).replace("        role:", "        model: big\n        role:", 1)


def _logic_break(rng: random.Random, layers, tag: str):
    """The same document with one referential rule broken in its last agent."""
    layers = [list(layer) for layer in layers]
    aid, role, refs = layers[-1][-1]
    variant = rng.randrange(3)
    if variant == 0:
        layers[-1][-1] = (aid, role, refs + [f"{tag}_ghost"])  # dangling (or step-1) ref
    elif variant == 1:
        layers[-1][-1] = (aid, "reviewer", refs)  # role outside the pool
    else:
        layers[-1][-1] = (layers[0][0][0], role, [])  # duplicate id
    return layers


PARSE_BREAK = "      - {{id: {tag}_bad, role: coding, ref: [a, b}}\n"


def _invalid_text(rng: random.Random, kind: str, tag: str) -> str:
    if kind == "NO_YAML_FOUND":
        return "We should plan first, then write the code, then test it. " * 3
    layers, _ = _topology(rng, tag=tag, n_agents=4, n_layers=3, prev_ids=(), with_code=True)
    if kind == "YAML_PARSE_ERROR":
        return _fenced(rng, topology_yaml(layers, 2) + PARSE_BREAK.format(tag=tag))
    if kind == "YAML_SCHEMA_INVALID":
        return _fenced(rng, _schema_break(rng, layers, 2))
    return _fenced(rng, topology_yaml(_logic_break(rng, layers, tag), 2))


# -- problems and candidate programs ------------------------------------------

def _family_tests(rng: random.Random, family: str, n_tests: int, big: bool):
    """Tests whose sizes follow from the test index; the seed picks the values."""
    tests = []
    for t in range(n_tests):
        if family == "sum":
            nums = [rng.randint(-10**6, 10**6) for _ in range(5 + 9 * t)]
            tests.append((" ".join(map(str, nums)) + "\n", f"{sum(nums)}\n"))
        elif family == "lines":
            # About 25 KB of output on the last test of a big problem, tiny otherwise.
            n = 3200 if (big and t == n_tests - 1) else 4 + 7 * t
            tests.append((f"{n}\n", "".join(f"{i * i}\n" for i in range(n))))
        elif family == "sort":
            nums = [rng.randint(10**4, 10**5 - 1) for _ in range(10 + 40 * t)]
            tests.append((f"{len(nums)}\n{' '.join(map(str, nums))}\n",
                          " ".join(map(str, sorted(nums))) + "\n"))
        else:  # rev
            word = "".join(rng.choice("abcdefghij") for _ in range(8 + 12 * t))
            tests.append((word + "\n", word[::-1] + "\n"))
    return tests


_PROGRAMS = {
    "sum": ("print(sum(map(int, input().split())))",
            "print(sum(map(int, input().split())) + 1)"),
    "lines": ("n = int(input())\nprint('\\n'.join(str(i * i) for i in range(n)))",
              "n = int(input())\nprint('\\n'.join(str(i * i + 1) for i in range(n)))"),
    "sort": ("input()\nprint(' '.join(map(str, sorted(map(int, input().split())))))",
             "input()\nprint(' '.join(map(str, sorted(map(int, input().split()))[::-1] + [0])))"),
    "rev": ("print(input()[::-1])", "print(input()[::-1] + 'x')"),
}


def candidate(family: str, kind: str) -> str:
    correct, wrong = _PROGRAMS[family]
    if kind == "pass":
        return correct
    if kind == "wrong":
        return wrong
    if kind == "raise":
        return "import sys\nsys.stdin.read()\nraise RuntimeError('planted failure')"
    if kind == "syntax":
        return "def solve(:\n    return 1"
    return correct  # "nocode": the solution exists but no coding agent emits it


def _episode(rng: random.Random, i: int, kinds, family: str, n_tests: int, *, prefix: str,
             max_turns: int, shape) -> PlantedEpisode:
    """Episode ``i`` of a round; ``shape(i, k)`` gives turn k's
    (difficulty, agents, layers), so sizes repeat whatever the seed."""
    tests = _family_tests(rng, family, n_tests, big=i % 2 == 0)
    words = " ".join(rng.choice(("read", "the", "input", "and", "print", "answer", "each",
                                 "line", "value", "query")) for _ in range(40))
    problem = {
        "id": f"{prefix}{i}",
        "description": f"[{family}] {words}",
        "tests": [{"input": i, "expected_output": o} for i, o in tests],
        "time_limit_ms": 5000,
        "memory_limit_mb": 512,
        "difficulty": shape(i, 0)[0],
    }
    turns: list[PlantedTurn] = []
    prev_ids: tuple[str, ...] = ()
    for k, kind in enumerate(kinds, start=1):
        tag = f"t{k}"
        if kind in INVALID_KINDS:
            turns.append(PlantedTurn(kind=kind, policy_text=_invalid_text(rng, kind, tag)))
            continue
        difficulty, n_agents, n_layers = shape(i, k)
        layers, e = _topology(rng, tag=tag, n_agents=n_agents, n_layers=n_layers,
                              prev_ids=prev_ids, with_code=kind != "nocode", reuse=prev_ids)
        body = topology_yaml(layers, difficulty, flow_refs=(i + k) % 3 != 0,
                             step_numbers=(i + k) % 4 == 0)
        turns.append(PlantedTurn(kind=kind, policy_text=_fenced(rng, body), v=n_agents, e=e,
                                 s=n_layers, difficulty=difficulty))
        prev_ids = tuple(a[0] for layer in layers for a in layer)
    # Invalid turns get a placeholder program; no agent ever emits it.
    solutions = tuple(candidate(family, k if k in CANDIDATE_VERDICTS else "pass")
                      for k in kinds)
    return PlantedEpisode(problem=problem, turns=tuple(turns), solutions=solutions,
                          reference=candidate(family, "pass"), max_turns=max_turns)


def rollout_round(seed: int) -> list[PlantedEpisode]:
    """Short topologies: difficulty 1-2, 2-4 agents in 1-3 layers."""
    rng = random.Random(f"rollout-{seed}")

    def shape(i, k):
        agents = 2 + (i + k) % 3
        return 1 + (i + k) % 2, agents, min(agents, 1 + (i + 2 * k) % 3)

    return [_episode(rng, i, kinds, family, n_tests, prefix="p",
                     max_turns=ROLLOUT_MAX_TURNS, shape=shape)
            for i, (kinds, family, n_tests) in enumerate(ROLLOUT_SHAPES)]


def mem_round(seed: int) -> list[PlantedEpisode]:
    """Difficulty 2-3 topologies of 4-10 agents in 3-5 layers (some over the cap)."""
    rng = random.Random(f"mem-{seed}")
    families = ("sum", "lines", "sort", "rev")

    def shape(i, k):
        agents = 4 + (3 * i + 5 * k) % 7
        return 2 + (i + k) % 2, agents, min(agents, 3 + (i + k) % 3)

    return [_episode(rng, i, kinds, families[i % 4], 3, prefix="m",
                     max_turns=MEM_MAX_TURNS, shape=shape)
            for i, kinds in enumerate(MEM_SHAPES)]


# -- corpora ------------------------------------------------------------------

# Kinds per corpus, in fixed numbers; the order is shuffled by the seed.
CORPUS_MIX = {
    "valid": 36, "chain": 12, "syntax": 6, "schema": 6, "logic": 6, "orphan": 3,
    "duplicate": 6, "node_cap": 5,
}
CORPUS_REASONS = {"syntax": "syntax", "schema": "schema", "logic": "logic", "orphan": "logic",
                  "duplicate": "duplicate", "node_cap": "density_band"}


@dataclass(frozen=True)
class PlantedCorpus:
    records: tuple[dict, ...]
    accepted_ids: tuple[str, ...]
    rejected: dict  # reason -> count, every reason present
    yaml_tokens: int  # whitespace tokens of all yaml_text, as estimate_tokens counts


def corpus(seed: int, index: int) -> PlantedCorpus:
    rng = random.Random(f"corpus-{seed}-{index}")
    kinds = [k for k, n in CORPUS_MIX.items() for _ in range(n)]
    kinds.remove("valid")
    rng.shuffle(kinds)
    kinds.insert(0, "valid")  # chains and duplicates need an earlier accepted record

    records: list[dict] = []
    plain: list[dict] = []  # accepted records without a prior
    accepted: dict[str, tuple[str, ...]] = {}  # id -> agent ids
    rejected_ids: list[str] = []
    rejected = {r: 0 for r in ("syntax", "schema", "logic", "duplicate", "density_band")}

    occurrences = {k: 0 for k in CORPUS_MIX}
    for i, kind in enumerate(kinds):
        rid = f"c{index}r{i}"
        # Sizes follow from the record's rank among its kind, so every corpus
        # holds the same amount of YAML whatever the shuffled order.
        j = occurrences[kind]
        occurrences[kind] += 1
        difficulty = 1 + j % 3
        header = difficulty if j % 5 != 4 else None  # else the record's fallback
        prior_id = None
        n = 2 + (5 * j) % (NODE_CAPS[difficulty] - 1)
        prev: tuple[str, ...] = ()
        if kind == "chain":
            prior_id = rng.choice(sorted(accepted))
            prev = accepted[prior_id]
        elif kind == "orphan":
            prior_id = rng.choice(rejected_ids) if rejected_ids else f"{rid}_missing"
        elif kind == "node_cap":
            n = NODE_CAPS[difficulty] + 1 + j % 3
        n_layers = min(n, max(2 if prev else 1, 1 + (3 * j) % 5))
        if i == 0:  # the duplicates' source needs ref lists long enough to reorder
            difficulty, header, n, n_layers = 2, 2, 5, 3
        layers, _ = _topology(rng, tag=rid, n_agents=n, n_layers=n_layers,
                              prev_ids=prev, with_code=True)
        flow, numbered = j % 5 < 3, j % 10 < 3
        if kind == "duplicate":
            # The first record with every ref list reversed and the other list
            # style: canonically equal to it.
            source = plain[0]
            layers = [[(a, r, refs[::-1]) for a, r, refs in layer] for layer in source["layers"]]
            difficulty, header, flow = source["difficulty"], source["header"], not source["flow"]
        text = topology_yaml(layers, header, flow_refs=flow, step_numbers=numbered)
        if kind == "syntax":
            text += PARSE_BREAK.format(tag=rid)
        elif kind == "schema":
            text = _schema_break(rng, layers, difficulty)
        elif kind == "logic":
            text = topology_yaml(_logic_break(rng, layers, rid), header)
        records.append({"id": rid, "problem_id": f"q{rng.randint(0, 9)}",
                        "difficulty": difficulty, "turn_index": 2 if prior_id else 1,
                        "yaml_text": text, "prior_id": prior_id})
        if kind in ("valid", "chain"):
            accepted[rid] = tuple(a[0] for layer in layers for a in layer)
            if kind == "valid":
                plain.append({"layers": layers, "difficulty": difficulty, "header": header,
                              "flow": flow})
        else:
            rejected[CORPUS_REASONS[kind]] += 1
            rejected_ids.append(rid)
    tokens = sum(len(r["yaml_text"].split()) for r in records)
    return PlantedCorpus(records=tuple(records), accepted_ids=tuple(accepted),
                         rejected=rejected, yaml_tokens=tokens)
