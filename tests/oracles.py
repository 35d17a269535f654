"""Independent high-precision re-implementations used to cross-check the package.

Everything here is deliberately written from the formulas alone, with mpmath
arbitrary-precision arithmetic (or brute-force enumeration), so that agreement
with the package's float64 code is meaningful evidence rather than an identity.
"""

from __future__ import annotations

from collections import defaultdict

from mpmath import mp, mpf, exp, sqrt, tanh

mp.dps = 60

NODE_CAPS = {1: 4, 2: 7, 3: 10}


def density_oracle(v: int, e: int, s: int, difficulty: int) -> dict[str, mpf]:
    """Density scores from the raw counts, at 60 decimal digits."""
    vv, ee, ss = mpf(v), mpf(e), mpf(s)
    n_max = mpf(NODE_CAPS[difficulty])
    s_node = exp(-vv / n_max)
    s_edge = exp(-ee / (vv * (vv - mpf("0.5"))))
    s_depth = 1 - ss / vv
    return {
        "s_node": s_node,
        "s_edge": s_edge,
        "s_depth": s_depth,
        "s_complex": exp(s_node + 2 * s_edge + s_depth),
        "raw_density": vv + 2 * ee / vv + ss,
    }


def graph_reward_oracle(v: int, e: int, s: int, difficulty: int) -> mpf:
    n_max = NODE_CAPS[difficulty]
    if v <= n_max:
        return density_oracle(v, e, s, difficulty)["s_complex"]
    return tanh((mpf(n_max) - mpf(v)) / mpf(n_max))


def cost_oracle(v: int, e: int, prev_v: int, m: int) -> tuple[mpf, mpf]:
    total = mpf(m) * (mpf(v) + mpf(v) * mpf(prev_v) + 2 * mpf(e))
    per_agent = mpf(m) * (1 + mpf(v) + 2 * mpf(e) / mpf(v))
    return total, per_agent


def longest_path_exhaustive(node_ids, edges) -> int:
    """Longest path in node count by plain DFS enumeration (no memoization).

    Exponential on purpose — it shares no structure with a DP implementation.
    Only suitable for the small graphs used in tests.
    """
    adj = defaultdict(list)
    for src, dst in edges:
        adj[src].append(dst)
    best = 1 if node_ids else 0

    def walk(node, length):
        nonlocal best
        if length > best:
            best = length
        for nxt in adj[node]:
            walk(nxt, length + 1)

    for node in node_ids:
        walk(node, 1)
    return best


def depth_exhaustive(dag) -> int:
    """Longest path, in nodes, over a decoded turn's own (intra-turn) edges."""
    edges = [(e.src, e.dst) for e in dag.edges if e.kind == "intra_turn"]
    return longest_path_exhaustive(list(dag.nodes), edges)


def advantages_oracle(returns, eps_std) -> list[mpf]:
    values = [mpf(repr(r)) for r in returns]
    n = len(values)
    mean = sum(values) / n
    var = sum((r - mean) ** 2 for r in values) / n
    std = sqrt(var)
    if std < mpf(repr(eps_std)):
        return [mpf(0)] * n
    return [(r - mean) / std for r in values]


def surrogate_oracle(trajectories, advantages, eps_clip, beta,
                     kl_estimator="log_ratio", kl_pooling="batch") -> mpf:
    """Clipped-ratio surrogate with topology-token KL, in arbitrary precision.

    ``trajectories`` is a list of dicts with keys new/old/ref (float lists)
    and an optional boolean mask (True = token included).
    """
    eps = mpf(repr(eps_clip))
    g = len(trajectories)
    clip_sum = mpf(0)
    kl_tokens: list[mpf] = []
    per_traj_kl: list[mpf] = []
    for traj, adv in zip(trajectories, advantages):
        mask = traj.get("mask") or [True] * len(traj["new"])
        a = mpf(repr(adv))
        token_terms = []
        traj_kl = []
        for keep, lp_new, lp_old, lp_ref in zip(mask, traj["new"], traj["old"], traj["ref"]):
            if not keep:
                continue
            dn, do, dr = mpf(repr(lp_new)), mpf(repr(lp_old)), mpf(repr(lp_ref))
            ratio = exp(dn - do)
            clipped = min(max(ratio, 1 - eps), 1 + eps)
            token_terms.append(min(ratio * a, clipped * a))
            if kl_estimator == "log_ratio":
                kl = dn - dr
            else:  # nonnegative exp-ratio estimator
                kl = exp(dr - dn) - (dr - dn) - 1
            traj_kl.append(kl)
            kl_tokens.append(kl)
        clip_sum += sum(token_terms) / len(token_terms)
        per_traj_kl.append(sum(traj_kl) / len(traj_kl))
    objective = clip_sum / g
    if kl_pooling == "batch":
        kl_term = sum(kl_tokens) / len(kl_tokens)
    else:
        kl_term = sum(per_traj_kl) / g
    return objective - mpf(repr(beta)) * kl_term
