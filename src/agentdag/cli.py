"""Command-line surface: validation, scoring, rewards, episodes, corpora, GRPO.

Exit codes: 0 success, 1 validation failure, 2 usage/config error,
3 adapter or sandbox infrastructure failure. Diagnostics go to stderr; data
(always JSON) goes to stdout.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from . import jsonio
from .corpus import (
    CorpusFilterConfig,
    corpus_stats,
    filter_corpus,
    read_corpus,
    write_corpus,
)
from .dsl import CheckResult, ErrorClass, check_topology, check_yaml, fenced_blocks
from .errors import AdapterError, ConfigError, SandboxError
from .graph import cost_estimate, decode_topology, density_from_counts, density_scores
from .roles import DEFAULT_ROLE_POOL

if TYPE_CHECKING:
    from .adapters.base import PolicyAdapter, RoleBackend
    from .config import RunConfig

# Modules that only some commands need (the configuration, the problems and
# verdicts, the orchestrator, the judge, the remote transport, rewards) are
# imported inside those commands, so that `validate`, `score` and `corpus`
# start without them.

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INFRA = 3


def _print_json(data: Any) -> None:
    sys.stdout.write(jsonio.dumps(data, indent=2) + "\n")


def _fail(message: str) -> None:
    sys.stderr.write(f"error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _parse_role_pool(raw: str | None) -> tuple[str, ...]:
    if raw is None:
        return DEFAULT_ROLE_POOL
    pool = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not pool:
        raise ConfigError("role pool must name at least one role")
    return pool


def _check_text(text: str, mode: str, *, prior_ids: frozenset[str],
                role_pool: tuple[str, ...],
                fallback_difficulty: int | None) -> CheckResult:
    """Classify either policy output (fence required) or a bare YAML document."""
    if mode == "auto":
        mode = "policy" if fenced_blocks(text) else "yaml"
    checker = check_topology if mode == "policy" else check_yaml
    return checker(text, prior_ids=prior_ids, role_pool=role_pool,
                   fallback_difficulty=fallback_difficulty)


# -- validate -----------------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    prior_ids = frozenset(p.strip() for p in args.prior_ids.split(",") if p.strip()) \
        if args.prior_ids else frozenset()
    check = _check_text(text, args.as_, prior_ids=prior_ids,
                        role_pool=_parse_role_pool(args.role_pool),
                        fallback_difficulty=args.fallback_difficulty)
    payload = check.to_dict()
    if check.ok:
        payload["class"] = "ok"
    _print_json(payload)
    return EXIT_OK if check.ok else EXIT_INVALID


# -- score --------------------------------------------------------------------

def _cmd_score(args: argparse.Namespace) -> int:
    role_pool = _parse_role_pool(args.role_pool)

    prev_dag = None
    if args.prev:
        prev_check = _check_text(_read_text(args.prev), args.as_,
                                 prior_ids=frozenset(), role_pool=role_pool,
                                 fallback_difficulty=args.difficulty)
        if not prev_check.ok:
            _fail(f"--prev topology invalid: {prev_check.error_class.value}: {prev_check.detail}")
            return EXIT_INVALID
        prev_dag = decode_topology(prev_check.doc)

    prior_ids = frozenset(prev_dag.nodes) if prev_dag is not None else frozenset()
    check = _check_text(_read_text(args.file), args.as_, prior_ids=prior_ids,
                        role_pool=role_pool, fallback_difficulty=args.difficulty)
    if not check.ok:
        _fail(f"topology invalid: {check.error_class.value}: {check.detail}")
        return EXIT_INVALID

    doc = check.doc
    dag = decode_topology(doc, prev=prev_dag)
    payload = density_scores(dag, doc.difficulty).to_dict()
    if args.message_tokens is not None:
        prev_v = prev_dag.v_count if prev_dag is not None else 0
        payload["cost"] = cost_estimate(dag, prev_v, args.message_tokens).to_dict()
    _print_json(payload)
    return EXIT_OK


# -- reward -------------------------------------------------------------------

def _cmd_reward(args: argparse.Namespace) -> int:
    from .config import parse_weights
    from .rewards import trajectory_return, turn_reward
    from .verdicts import Verdict

    data = jsonio.loads(_read_text(args.file), args.file)
    if not isinstance(data, dict):
        raise ValueError("malformed reward input: expected a JSON object")
    try:
        gamma = jsonio.as_float(data.get("gamma", 1.0))
        weights = parse_weights(data.get("weights"))
        raw_turns = data["turns"]
        breakdowns = []
        for entry in raw_turns:
            if "error" in entry:
                breakdowns.append(turn_reward(ErrorClass(entry["error"]), weights=weights))
            else:
                report = density_from_counts(
                    jsonio.as_int(entry["v_count"]), jsonio.as_int(entry["e_count"]),
                    jsonio.as_int(entry["s"]), jsonio.as_int(entry["difficulty"]),
                )
                breakdowns.append(turn_reward(None, report=report,
                                              verdict=Verdict(entry["verdict"]),
                                              weights=weights))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed reward input: {exc}") from exc
    rewards = [b.r_phi for b in breakdowns]
    _print_json({
        "turns": [b.to_dict() for b in breakdowns],
        "rewards": rewards,
        "return": trajectory_return(rewards, gamma),
        "gamma": gamma,
    })
    return EXIT_OK


# -- grpo ---------------------------------------------------------------------

def _cmd_grpo_adv(args: argparse.Namespace) -> int:
    from .rewards import EPS_STD, GrpoBatch

    returns = jsonio.loads(args.returns, "--returns")
    if not isinstance(returns, list):
        raise ValueError("--returns must be a JSON array of numbers")
    eps_std = EPS_STD if args.eps_std is None else args.eps_std
    batch = GrpoBatch.from_returns([jsonio.as_float(r) for r in returns], eps_std=eps_std)
    _print_json(batch.to_dict())
    return EXIT_OK


def _cmd_grpo_surrogate(args: argparse.Namespace) -> int:
    from .rewards import TrajectoryLogProbs, grpo_surrogate

    data = jsonio.loads(_read_text(args.file), args.file)
    try:
        advantages = [jsonio.as_float(a) for a in data["advantages"]]
        batch = []
        for traj in data["trajectories"]:
            if not isinstance(traj, dict):
                raise ValueError("malformed surrogate input: each trajectory must be an object")
            mask = traj.get("mask")
            if mask is not None and not all(isinstance(m, bool) for m in mask):
                raise ValueError("malformed surrogate input: mask entries must be true or false")
            batch.append(TrajectoryLogProbs(
                new=tuple(jsonio.as_float(x) for x in traj["new"]),
                old=tuple(jsonio.as_float(x) for x in traj["old"]),
                ref=tuple(jsonio.as_float(x) for x in traj["ref"]),
                mask=None if mask is None else tuple(mask),
            ))
        eps_clip = args.eps_clip if args.eps_clip is not None \
            else jsonio.as_float(data.get("eps_clip", 0.2))
        beta = args.beta if args.beta is not None else jsonio.as_float(data.get("beta", 0.0))
        kl_estimator = args.kl_estimator or data.get("kl_estimator", "log_ratio")
        kl_pooling = args.kl_pooling or data.get("kl_pooling", "batch")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed surrogate input: {exc}") from exc
    objective = grpo_surrogate(batch, advantages, eps_clip=eps_clip, beta=beta,
                               kl_estimator=kl_estimator, kl_pooling=kl_pooling)
    _print_json({
        "objective": objective,
        "eps_clip": eps_clip,
        "beta": beta,
        "kl_estimator": kl_estimator,
        "kl_pooling": kl_pooling,
    })
    return EXIT_OK


# -- run ----------------------------------------------------------------------

def _load_bundle(path: str) -> dict:
    try:
        data = jsonio.loads(Path(path).read_text(encoding="utf-8"), path)
    except OSError as exc:
        raise ConfigError(f"cannot load scripted bundle {path}: {exc}") from exc
    if not isinstance(data, dict) or "policy" not in data:
        raise ConfigError(f"scripted bundle {path} must be an object with a 'policy' key")
    return data


def _delay_range(value: Any, path: str) -> tuple[float, float]:
    """A bundle's ``delay_range``: two durations in seconds, ``0 <= low <= high``."""
    try:
        if not isinstance(value, list) or len(value) != 2:
            raise ValueError(f"expected [low, high], got {value!r}")
        for end in value:
            if not isinstance(end, (int, float)):
                raise ValueError(f"expected a number, got {end!r}")
        low, high = jsonio.as_float(value[0]), jsonio.as_float(value[1])
        if not 0 <= low <= high:
            raise ValueError(f"expected 0 <= low <= high, got [{low!r}, {high!r}]")
    except ValueError as exc:
        raise ConfigError(f"scripted bundle {path}: delay_range: {exc}") from exc
    return low, high


def _build_adapters(spec: str | None, config: RunConfig
                    ) -> tuple[PolicyAdapter, RoleBackend]:
    """``spec`` is ``scripted:BUNDLE.json``, ``remote``, or None (use the config)."""
    if spec is None:
        spec = config.policy.kind  # "remote" works as-is; bare "scripted" cannot
    if spec == "remote":
        if not config.policy.url or not config.roles.url:
            raise ConfigError("remote runs need 'url' under both policy and roles in the config")
        from .adapters.remote import RemotePolicy, RemoteRoleBackend

        policy = RemotePolicy(config.policy, system=config.policy_system_prompt)
        roles = RemoteRoleBackend(config.roles)
        return policy, roles
    if spec.startswith("scripted:"):
        from .adapters.scripted import ScriptedPolicy, ScriptedRoleBackend

        path = spec.split(":", 1)[1]
        bundle = _load_bundle(path)
        policy = ScriptedPolicy(bundle["policy"])
        delay = bundle.get("delay_range")
        roles = ScriptedRoleBackend(
            solutions=bundle.get("solutions"),
            language=bundle.get("language", "python"),
            message_overrides=bundle.get("role_messages"),
            delay_range=None if delay is None else _delay_range(delay, path),
        )
        return policy, roles
    raise ConfigError(
        f"unknown policy spec {spec!r}: expected 'remote' or 'scripted:BUNDLE.json'"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from .adapters.sandbox import LocalExecutor
    from .config import load_config
    from .orchestrator import EpisodeRunner
    from .problem import iter_problems, load_problem

    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    config = load_config(args.config)
    problems = [load_problem(p) for p in args.problem or []]
    if args.problems:
        problems.extend(iter_problems(args.problems))
    if not problems:
        raise ConfigError("no problems given: use --problem and/or --problems")

    policy, roles = _build_adapters(args.policy, config)
    sandbox = LocalExecutor(config.executor)
    runner = EpisodeRunner(policy, roles, sandbox, config)

    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(runner.run, problems))
    else:
        results = [runner.run(problem) for problem in problems]

    lines = [jsonio.dumps(result.to_dict()) for result in results]
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")

    tally: dict[str, int] = {}
    for result in results:
        tally[result.status] = tally.get(result.status, 0) + 1
    summary = ", ".join(f"{tally[s]} {s}" for s in ("PASSED", "FAILED", "ERROR") if s in tally)
    sys.stderr.write(f"{len(results)} episode(s): {summary}\n")
    for result in results:
        if result.status == "ERROR":
            sys.stderr.write(f"episode {result.problem_id}: {result.error}\n")
    return EXIT_INFRA if any(r.status == "ERROR" for r in results) else EXIT_OK


# -- corpus -------------------------------------------------------------------

def _corpus_config(args: argparse.Namespace) -> CorpusFilterConfig:
    validator = tuple(shlex.split(args.validator)) if args.validator is not None else None
    if validator == ():
        raise ConfigError("--validator must name a program, not be empty")
    return CorpusFilterConfig(
        role_pool=_parse_role_pool(args.role_pool),
        s_complex_min=args.s_complex_min,
        s_complex_max=args.s_complex_max,
        validator_cmd=validator,
    )


def _cmd_corpus_filter(args: argparse.Namespace) -> int:
    config = _corpus_config(args)
    records = read_corpus(args.input)
    report, accepted = filter_corpus(records, config)
    write_corpus(accepted, args.output)
    payload = report.to_dict()
    if args.report:
        Path(args.report).write_text(jsonio.dumps(payload, indent=2) + "\n", encoding="utf-8")
    _print_json(payload)
    sys.stderr.write(
        f"{payload['accepted']}/{payload['input']} records accepted -> {args.output}\n"
    )
    return EXIT_OK  # rejections are data, not errors


def _cmd_corpus_stats(args: argparse.Namespace) -> int:
    config = _corpus_config(args)
    _print_json(corpus_stats(read_corpus(args.input), config))
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def _add_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--as", dest="as_", choices=("auto", "policy", "yaml"), default="auto",
        help="treat the file as policy output (fenced), bare YAML, or detect (default)",
    )


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--role-pool", help="comma-separated role names")
    parser.add_argument("--s-complex-min", type=float, default=None)
    parser.add_argument("--s-complex-max", type=float, default=None)
    parser.add_argument("--validator", help="external validator command (YAML on stdin)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentdag",
        description="Layered multi-agent topologies: validate, score, run, filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify a topology file")
    p.add_argument("file")
    _add_mode_flag(p)
    p.add_argument("--prior-ids", help="comma-separated agent ids from the previous turn")
    p.add_argument("--fallback-difficulty", type=int, default=None)
    p.add_argument("--role-pool", help="comma-separated role names")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("score", help="density (and optional cost) of a valid topology")
    p.add_argument("file")
    _add_mode_flag(p)
    p.add_argument("--difficulty", type=int, default=None,
                   help="fallback when the document has no difficulty header")
    p.add_argument("--prev", help="previous turn's topology file")
    p.add_argument("--message-tokens", type=int, default=None,
                   help="per-message token budget; adds a cost block")
    p.add_argument("--role-pool", help="comma-separated role names")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("reward", help="compose turn rewards from a JSON description")
    p.add_argument("file", help="JSON file, or - for stdin")
    p.set_defaults(func=_cmd_reward)

    p = sub.add_parser("grpo", help="group-relative advantage and surrogate math")
    grpo_sub = p.add_subparsers(dest="grpo_command", required=True)
    g = grpo_sub.add_parser("adv", help="standardized advantages for one group")
    g.add_argument("--returns", required=True, help="JSON array of returns")
    g.add_argument("--eps-std", type=float, default=None)
    g.set_defaults(func=_cmd_grpo_adv)
    g = grpo_sub.add_parser("surrogate", help="clipped surrogate objective")
    g.add_argument("file", help="JSON file, or - for stdin")
    g.add_argument("--eps-clip", type=float, default=None)
    g.add_argument("--beta", type=float, default=None)
    g.add_argument("--kl-estimator", choices=("log_ratio", "exp_ratio"), default=None)
    g.add_argument("--kl-pooling", choices=("batch", "trajectory"), default=None)
    g.set_defaults(func=_cmd_grpo_surrogate)

    p = sub.add_parser("run", help="run episodes and emit trajectory JSONL")
    p.add_argument("--problem", action="append", help="problem JSON file (repeatable)")
    p.add_argument("--problems", help="problems JSONL file")
    p.add_argument("--config", required=True, help="run config YAML/JSON")
    p.add_argument("--policy", default=None,
                   help="'remote' or 'scripted:BUNDLE.json' (default: config)")
    p.add_argument("--out", help="append trajectories to this JSONL file (default stdout)")
    p.add_argument("--workers", type=int, default=1, help="concurrent episodes")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("corpus", help="filter or summarize topology corpora")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    c = corpus_sub.add_parser("filter", help="apply the quality pipeline")
    c.add_argument("input", help="corpus JSONL")
    c.add_argument("output", help="accepted records JSONL")
    c.add_argument("--report", help="also write the report JSON here")
    _add_corpus_flags(c)
    c.set_defaults(func=_cmd_corpus_filter)
    c = corpus_sub.add_parser("stats", help="per-difficulty structure distributions")
    c.add_argument("input", help="corpus JSONL")
    _add_corpus_flags(c)
    c.set_defaults(func=_cmd_corpus_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (AdapterError, SandboxError) as exc:
        _fail(str(exc))
        return EXIT_INFRA
    except (ValueError, OSError) as exc:  # ConfigError among them
        _fail(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
