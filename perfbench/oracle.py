"""Independent checkers: the README's formulas and tables, recomputed here.

Nothing here imports agentdag. Density, rewards and discounted returns are
computed from the generator's own structure counts, and expected verdicts and
classes come from how each input was planted.
"""

from __future__ import annotations

import math

import gen

NODE_CAPS = {1: 4, 2: 7, 3: 10}
EXEC_REWARD = {
    "PASSED": 1.5, "WRONG_ANSWER": 1.0, "TIME_LIMIT_EXCEEDED": 0.9,
    "MEMORY_LIMIT_EXCEEDED": 0.8, "RUNTIME_ERROR": 0.7, "COMPILATION_ERROR": 0.6,
}
YAML_PENALTY = {
    "YAML_LOGIC_INVALID": -0.5, "YAML_SCHEMA_INVALID": -1.0,
    "YAML_PARSE_ERROR": -1.5, "NO_YAML_FOUND": -2.0,
}
REL_TOL = 1e-12


class CheckFailed(AssertionError):
    """An op's output disagrees with the independent expectation."""


def close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= REL_TOL * max(abs(expected), 1e-300)


def density(v: int, e: int, s: int, difficulty: int) -> dict:
    n_max = NODE_CAPS[difficulty]
    s_node = math.exp(-v / n_max)
    s_edge = math.exp(-e / (v * (v - 0.5)))
    s_depth = 1 - s / v
    return {"s_complex": math.exp(s_node + 2 * s_edge + s_depth),
            "raw_density": v + 2 * e / v + s, "n_max": n_max}


def graph_reward(v: int, e: int, s: int, difficulty: int) -> float:
    d = density(v, e, s, difficulty)
    if v <= d["n_max"]:
        return d["s_complex"]
    return math.tanh((d["n_max"] - v) / d["n_max"])


def turn_reward(kind: str, verdict: str | None, counts, weights) -> float:
    """r_phi of one turn: penalty only when invalid, else w_e*r_e + w_g*r_g."""
    w_e, w_g = weights
    if verdict is None:
        return w_e * YAML_PENALTY[kind]
    return w_e * EXEC_REWARD[verdict] + w_g * graph_reward(*counts)


def discounted(rewards, gamma: float) -> float:
    return math.fsum(r * gamma ** (k - 1) for k, r in enumerate(rewards, start=1))


def expected_verdict(turn: gen.PlantedTurn) -> str | None:
    return gen.CANDIDATE_VERDICTS[turn.kind] if turn.valid else None


def check_episode(result: dict, planted: gen.PlantedEpisode, *, role_calls: int,
                  policy_calls: int, gamma: float, weights) -> None:
    """Compare one serialized EpisodeResult with what was planted; raise on mismatch."""
    def need(cond: bool, what: str) -> None:
        if not cond:
            raise CheckFailed(f"{planted.problem['id']}: {what}")

    need(result["status"] == planted.status, f"status {result['status']} != {planted.status}")
    need(result["error"] is None, f"error {result['error']}")
    turns = result["trajectory"]["turns"]
    need(len(turns) == len(planted.turns), f"{len(turns)} turns != {len(planted.turns)}")
    rewards = []
    for got, want in zip(turns, planted.turns):
        validation = got["validation"]
        if want.valid:
            need(validation["ok"], f"turn {got['turn']} rejected: {validation}")
            verdict = expected_verdict(want)
            outcome = got["outcome"]
            need(outcome["verdict"] == verdict,
                 f"turn {got['turn']} verdict {outcome['verdict']} != {verdict}")
            n_tests = len(planted.problem["tests"])
            need([t[1] for t in outcome["per_test"]] == [verdict] * n_tests,
                 f"turn {got['turn']} per-test verdicts {outcome['per_test']}")
            dens = got["density"]
            need((dens["v_count"], dens["e_count"], dens["s"], dens["difficulty"])
                 == (want.v, want.e, want.s, want.difficulty),
                 f"turn {got['turn']} counts {dens}")
            need(len(got["messages"]) == want.v, f"turn {got['turn']} message count")
            r = turn_reward(want.kind, verdict, (want.v, want.e, want.s, want.difficulty),
                            weights)
        else:
            need(validation["class"] == want.kind,
                 f"turn {got['turn']} class {validation['class']} != {want.kind}")
            r = turn_reward(want.kind, None, None, weights)
        need(close(got["reward"]["r_phi"], r), f"turn {got['turn']} r_phi {got['reward']}")
        rewards.append(r)
    expected_return = discounted(rewards, gamma)
    need(close(result["trajectory"]["return"], expected_return),
         f"return {result['trajectory']['return']!r} != {expected_return!r}")
    need(result["sandbox_runs"] == sum(t.runs_code for t in planted.turns),
         f"sandbox_runs {result['sandbox_runs']}")
    need(role_calls == sum(t.v for t in planted.turns if t.valid),
         f"role calls {role_calls}")
    need(policy_calls == len(planted.turns), f"policy calls {policy_calls}")


def check_corpus_report(report: dict, accepted_ids: list[str],
                        planted: gen.PlantedCorpus) -> None:
    if accepted_ids != list(planted.accepted_ids):
        raise CheckFailed(f"accepted ids differ: {len(accepted_ids)} vs "
                          f"{len(planted.accepted_ids)} planted")
    if report["rejected"] != planted.rejected:
        raise CheckFailed(f"rejections {report['rejected']} != planted {planted.rejected}")
    if report["accepted"] != len(planted.accepted_ids) or \
            report["input"] != len(planted.records):
        raise CheckFailed("report totals differ from the planted corpus")


def self_test() -> None:
    """The README's worked examples, through this module's own formulas."""
    d = density(2, 1, 2, 1)
    if not (close(d["s_complex"], 7.6874819169270063) and d["raw_density"] == 5):
        raise CheckFailed(f"score example: {d}")
    rewards = [turn_reward("wrong", "WRONG_ANSWER", (2, 1, 2, 1), (1.0, 1.0)),
               turn_reward("pass", "PASSED", (3, 2, 2, 1), (1.0, 1.0))]
    if not close(discounted(rewards, 0.9), 19.357793382069659):
        raise CheckFailed(f"reward example: {rewards}")
