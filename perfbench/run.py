"""agentdag benchmark: one workload per run, closed loop, every op checked.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload rollout_sandbox --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once traced and prints the per-layer metrics, a per-layer
table with self times, and the tracing overhead. The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import types
from pathlib import Path

import gen
import oracle
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Set-up probes per run, split before and after the timed phases so that the
# median spans more than one moment of a host whose speed drifts.
SETUP_PROBES = (3, 4)
CORPORA_PER_ROUND = 4
# What the installed ``agentdag`` console script runs.
CLI_MAIN = "import sys; from agentdag.cli import main; sys.exit(main())"

# name -> (clients, tail percentile, minimum ops per run, run on one CPU)
WORKLOADS = {
    "rollout_sandbox": (2, 90, 100, False),
    "orchestrate_mem": (1, 95, 200, True),
    "corpus_cli": (1, 75, 40, False),
}


def child_env() -> dict:
    """Environment of every agentdag child: the checkout's sources, and
    bytecode caching on, as an installed package would have it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# -- noise diagnostics -------------------------------------------------------

def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole host, read from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # guest time is already counted in user time
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def calibration_ms() -> tuple[float, float]:
    """CPU and wall ms of a fixed pure-Python loop."""
    c0, w0 = time.process_time(), time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return (time.process_time() - c0) * 1e3, (time.perf_counter() - w0) * 1e3


# -- set-up -------------------------------------------------------------------

def measure_setup(workload: str, probes: int, warm_up: bool) -> list[dict]:
    """``probes`` fresh-interpreter set-up probes, after one that only warms
    the bytecode cache when ``warm_up`` is set."""
    results = []
    for i in range(probes + warm_up):
        spawned = spans.clock()
        out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"), workload],
                             env=child_env(), capture_output=True, text=True, check=True,
                             timeout=60)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        probe["start_s"] = probe["first_line"] - spawned
        if i or not warm_up:
            results.append(probe)
    return results


# -- the closed loop ----------------------------------------------------------

class Loop:
    """Closed-loop clients over whole rounds of ops.

    Each client starts its next op only when its previous op is done. A run
    ends at a round boundary once ``seconds`` have passed and at least
    ``min_ops`` were issued, so every run holds whole rounds of the same ops.
    """

    def __init__(self, run_op, *, round_size: int, clients: int, seconds: float,
                 min_ops: int, recorder: spans.Recorder | None = None):
        self.run_op, self.round_size, self.clients = run_op, round_size, clients
        self.seconds, self.recorder = seconds, recorder
        self.min_ops = math.ceil(min_ops / round_size) * round_size
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self._next = 0
        self._lock = threading.Lock()

    def _client(self, deadline: float) -> None:
        while True:
            with self._lock:
                i = self._next
                if i % self.round_size == 0 and i >= self.min_ops and \
                        time.perf_counter() >= deadline:
                    return
                self._next = i + 1
            try:
                if self.recorder is None:
                    latency = self.run_op(i)
                else:
                    latency = self.recorder.op(i, lambda: self.run_op(i))
                self.latencies.append(latency)
            except Exception:  # an op that raises is a failed op; the run goes on
                self.failures.append(f"op {i}: {traceback.format_exc(limit=4)}")

    def run(self) -> "Loop":
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        deadline = t0 + self.seconds
        threads = [threading.Thread(target=self._client, args=(deadline,))
                   for _ in range(self.clients - 1)]
        for t in threads:
            t.start()
        self._client(deadline)
        for t in threads:
            t.join()
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = cpu_seconds() - cpu0
        self.attempted = self._next
        return self


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile; requires at least ten samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{p} of {len(ordered)} samples has fewer than ten beyond it")
    return ordered[rank - 1]


# -- episode workloads ---------------------------------------------------------

class Counted:
    """Counts calls to one method of an injected adapter (thread-safe)."""

    def __init__(self, target, method: str):
        self.calls = 0
        self._lock = threading.Lock()
        call = getattr(target, method)

        def counted(*args, **kwargs):
            with self._lock:
                self.calls += 1
            return call(*args, **kwargs)

        setattr(self, method, counted)


class ReferenceJudge:
    """In-memory stand-in for the sandbox: a candidate passes every test when it
    is the problem's reference program, and is a wrong answer otherwise."""

    def __init__(self, problems, episodes: list[gen.PlantedEpisode]):
        self._references = {p.tests: ep.reference for p, ep in zip(problems, episodes)}

    def execute(self, source, language, tests, *, time_limit_ms, memory_limit_mb):
        from agentdag.verdicts import ExecOutcome, TestResult, Verdict

        if source.strip() == self._references[tuple(tests)].strip():
            per_test = tuple(TestResult(i, Verdict.PASSED) for i in range(len(tests)))
            return ExecOutcome(Verdict.PASSED, per_test, f"all {len(tests)} tests passed")
        logs = [f"test {i}: expected {t.expected_output.strip()[:200]!r}, got another output"
                for i, t in enumerate(tests)]
        per_test = tuple(TestResult(i, Verdict.WRONG_ANSWER) for i in range(len(tests)))
        return ExecOutcome(Verdict.WRONG_ANSWER, per_test, "\n".join(logs))


class EpisodeWorkload:
    def __init__(self, name: str, seed: int):
        from agentdag import EpisodeRunner, ProblemSpec, RunConfig, jsonio
        from agentdag.adapters import LocalExecutor, ScriptedPolicy, ScriptedRoleBackend

        self.episodes = gen.rollout_round(seed) if name == "rollout_sandbox" \
            else gen.mem_round(seed)
        self.problems = [ProblemSpec.from_dict(ep.problem) for ep in self.episodes]
        self.round_size = len(self.episodes)
        self.config = RunConfig(max_turns=self.episodes[0].max_turns, gamma=gen.GAMMA,
                                weights=gen.WEIGHTS)
        self.roles = ScriptedRoleBackend(
            solutions={ep.problem["id"]: list(ep.solutions) for ep in self.episodes})
        self.sandbox = LocalExecutor(self.config.executor) if name == "rollout_sandbox" \
            else ReferenceJudge(self.problems, self.episodes)
        self.policy = ScriptedPolicy
        self.runner = EpisodeRunner
        self.prompt_tokens: list[int] = []
        self.dumps = jsonio.dumps
        self.run_episode = lambda runner, problem: runner.run(problem)

    def trace(self, rec: spans.Recorder) -> None:
        from agentdag import dsl, jsonio, orchestrator
        from agentdag.adapters import sandbox

        rec.rebind(orchestrator, {
            "check_topology": "dsl.check_topology", "to_yaml": "dsl.to_yaml",
            "decode_topology": "graph.decode", "density_scores": "graph.density",
            "turn_reward": "rewards.turn_reward", "trajectory_return": "rewards.return",
            "render_history_prompt": "orchestrator.render_history",
            "build_observation": "orchestrator.build_observation",
            "extract_code": "orchestrator.extract_code",
        })
        orchestrator.ThreadPoolExecutor = spans.ContextPool
        rec.rebind(dsl, {"parse_topology": "dsl.parse_topology",
                         "validate_logic": "dsl.validate_logic"})
        sandbox.subprocess = types.SimpleNamespace(
            run=rec.span("sandbox.test", subprocess.run),
            TimeoutExpired=subprocess.TimeoutExpired)
        self.sandbox = spans.Proxy("execute", rec.span("sandbox.execute", self.sandbox.execute))
        self.roles = spans.Proxy("respond", rec.span("adapters.role", self.roles.respond))
        make_policy = self.policy
        self.policy = lambda script: spans.Proxy(
            "generate", rec.span("adapters.policy", make_policy(script).generate))
        self.dumps = rec.span("jsonio.dumps", jsonio.dumps,
                              size=lambda s: len(s.encode("utf-8")))
        self.run_episode = rec.span("orchestrator.run", lambda runner, problem: runner.run(problem))

    def op(self, i: int) -> float:
        planted = self.episodes[i % self.round_size]
        problem = self.problems[i % self.round_size]
        # A fresh scripted policy per episode: ScriptedPolicy never resets its
        # cursor for a problem id, so a shared one would run out of script.
        policy = Counted(self.policy({problem.id: [t.policy_text for t in planted.turns]}),
                         "generate")
        roles = Counted(self.roles, "respond")
        t0 = time.perf_counter()
        runner = self.runner(policy, roles, self.sandbox, self.config)
        result = self.run_episode(runner, problem)
        line = self.dumps(result.to_dict())
        latency = time.perf_counter() - t0
        data = json.loads(line)
        oracle.check_episode(data, planted, role_calls=roles.calls, policy_calls=policy.calls,
                             gamma=gen.GAMMA, weights=gen.WEIGHTS)
        self.prompt_tokens.append(data["token_usage"]["prompt_tokens"])
        return latency

    def tokens_per_op(self) -> float:
        return statistics.median(self.prompt_tokens)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- corpus workload -------------------------------------------------------------

def spawn(argv: list[str], out_path: Path, err_path: Path):
    """Run a child to completion; return (exit code, its rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


class CorpusWorkload:
    def __init__(self, seed: int):
        self.corpora = [gen.corpus(seed, k) for k in range(CORPORA_PER_ROUND)]
        self.round_size = len(self.corpora)
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        for k, planted in enumerate(self.corpora):
            with open(self.tmp / f"in{k}.jsonl", "w", encoding="utf-8") as handle:
                for record in planted.records:
                    handle.write(json.dumps(record) + "\n")
        self.child_rss_mb: list[float] = []
        self.traced: spans.Recorder | None = None

    def trace(self, rec: spans.Recorder) -> None:
        self.traced = rec

    def op(self, i: int) -> float:
        k = i % self.round_size
        inp, out = self.tmp / f"in{k}.jsonl", self.tmp / f"out{k}-{i}.jsonl"
        args = ["corpus", "filter", str(inp), str(out)]
        span_file = self.tmp / f"spans{i}.jsonl"
        if self.traced is None:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "cli_traced.py"),
                    str(span_file), *args]
        t0 = spans.clock()
        code, usage = spawn(argv, self.tmp / "stdout.json", self.tmp / "stderr.txt")
        latency = spans.clock() - t0
        try:
            if code != 0:
                raise oracle.CheckFailed(f"exit code {code}: "
                                         f"{(self.tmp / 'stderr.txt').read_text()[-400:]}")
            report = json.loads((self.tmp / "stdout.json").read_text(encoding="utf-8"))
            with open(out, encoding="utf-8") as handle:
                accepted = [json.loads(line)["id"] for line in handle]
            oracle.check_corpus_report(report, accepted, self.corpora[k])
        finally:
            if i >= self.round_size:  # the first round's outputs are re-filtered later
                out.unlink(missing_ok=True)
        self.child_rss_mb.append(usage.ru_maxrss / 1024)
        if self.traced is not None:
            self._merge_spans(span_file, i)
        return latency

    def check_idempotent(self) -> None:
        """Re-filtering an accepted set rejects nothing, as the README promises.

        Run after the timed phase, on the first round's accepted outputs.
        """
        for k in range(self.round_size):
            accepted = self.tmp / f"out{k}-{k}.jsonl"
            code, _ = spawn([sys.executable, "-c", CLI_MAIN, "corpus", "filter",
                             str(accepted), str(self.tmp / "again.jsonl")],
                            self.tmp / "again.json", self.tmp / "stderr.txt")
            report = json.loads((self.tmp / "again.json").read_text(encoding="utf-8"))
            if code != 0 or any(report["rejected"].values()) or \
                    report["accepted"] != len(self.corpora[k].accepted_ids):
                raise oracle.CheckFailed(f"re-filtering accepted set {k} rejected records: "
                                         f"{report['rejected']}")

    def _merge_spans(self, span_file: Path, op: int) -> None:
        with open(span_file, encoding="utf-8") as handle:
            self.traced.adopt([json.loads(line) for line in handle], op)
        span_file.unlink()

    def tokens_per_op(self) -> float:
        return statistics.median(c.yaml_tokens for c in self.corpora)

    def peak_rss_mb(self) -> float:
        return statistics.median(self.child_rss_mb)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- metrics and the run ----------------------------------------------------------

def e2e_metrics(workload, loop: Loop, tail_p: int, setups: list[dict]) -> dict:
    ops = len(loop.latencies)
    return {
        "ops_per_s": (ops / loop.wall_s, "1/s"),
        "op_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "op_tail_ms": (percentile(loop.latencies, tail_p) * 1e3, "ms"),
        "cpu_ms_per_op": (loop.cpu_s * 1e3 / ops, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "prompt_tokens_per_op": (workload.tokens_per_op(), "tokens"),
    }


def layer_metrics(table: dict, loop: Loop, untraced: Loop, child_cpu_s: float,
                  setups: list[dict], workload) -> dict:
    def ms(name: str) -> float:
        return table.get(name, {}).get("ms_per_op", 0.0)

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls_per_op", 0.0)

    ops = len(loop.latencies)
    tests = table.get("sandbox.test", {}).get("calls", 0)
    filter_s = table.get("corpus.filter", {}).get("total_s", 0.0)
    corpora = getattr(workload, "corpora", ())
    records_per_op = statistics.fmean(len(c.records) for c in corpora) if corpora else 0.0
    return {
        "sandbox.execute_ms": (ms("sandbox.execute"), "ms"),
        "sandbox.ms_per_test": (table["sandbox.test"]["total_s"] * 1e3 / tests
                                if tests else 0.0, "ms"),
        "sandbox.child_cpu_ms_per_test": (child_cpu_s * 1e3 / tests if tests else 0.0, "ms"),
        "sandbox.tests_per_op": (calls("sandbox.test"), "count"),
        "dsl.check_topology_ms": (ms("dsl.check_topology"), "ms"),
        "dsl.to_yaml_ms": (ms("dsl.to_yaml"), "ms"),
        "dsl.to_yaml_calls_per_op": (calls("dsl.to_yaml"), "count"),
        "dsl.parse_topology_ms": (ms("dsl.parse_topology"), "ms"),
        "dsl.canonicalize_ms": (ms("dsl.canonicalize"), "ms"),
        "graph.decode_ms": (ms("graph.decode"), "ms"),
        "graph.density_ms": (ms("graph.density"), "ms"),
        "orchestrator.run_ms": (ms("orchestrator.run"), "ms"),
        "orchestrator.self_ms": (table.get("orchestrator.run", {}).get("self_ms_per_op", 0.0),
                                 "ms"),
        "orchestrator.render_history_ms": (ms("orchestrator.render_history"), "ms"),
        "orchestrator.build_observation_ms": (ms("orchestrator.build_observation"), "ms"),
        "adapters.policy_calls_per_op": (calls("adapters.policy"), "count"),
        "adapters.role_calls_per_op": (calls("adapters.role"), "count"),
        "adapters.policy_ms": (ms("adapters.policy"), "ms"),
        "adapters.role_ms": (ms("adapters.role"), "ms"),
        "rewards.turn_reward_ms": (ms("rewards.turn_reward"), "ms"),
        "jsonio.dumps_ms_per_op": (ms("jsonio.dumps"), "ms"),
        "jsonio.bytes_per_op": (table.get("jsonio.dumps", {}).get("bytes", 0) / ops, "bytes"),
        "jsonio.read_jsonl_ms": (ms("jsonio.read_jsonl"), "ms"),
        "corpus.read_ms": (ms("corpus.read"), "ms"),
        "corpus.filter_ms": (ms("corpus.filter"), "ms"),
        "corpus.write_ms": (ms("corpus.write"), "ms"),
        "corpus.records_per_s": (records_per_op * ops / filter_s if filter_s else 0.0, "1/s"),
        "corpus.accepted_ratio": (statistics.fmean(len(c.accepted_ids) / len(c.records)
                                                   for c in corpora) if corpora else 0.0,
                                  "ratio"),
        "cli.interpreter_start_ms": (statistics.median(p["start_s"] for p in setups) * 1e3,
                                     "ms"),
        "cli.import_ms": (statistics.median(p["import_s"] for p in setups) * 1e3, "ms"),
        "cli.main_ms": (ms("cli.main"), "ms"),
        "trace.overhead_pct": ((len(untraced.latencies) / untraced.wall_s)
                               / (ops / loop.wall_s) * 100 - 100, "%"),
    }


def print_table(table: dict) -> None:
    print(f"{'span':34} {'calls/op':>9} {'ms/op':>10} {'self ms/op':>11}")
    for name, row in table.items():
        print(f"{name:34} {row['calls_per_op']:9.2f} {row['ms_per_op']:10.3f} "
              f"{row['self_ms_per_op']:11.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agentdag" / "__init__.py").is_file():
        print(f"error: no agentdag sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    oracle.self_test()

    clients, tail_p, min_ops, one_cpu = WORKLOADS[args.workload]
    if one_cpu:
        # The in-memory engine holds the GIL, but fans each layer out to new
        # threads; pinned to one CPU, no wake-up waits on another vCPU that the
        # hypervisor has descheduled, which made whole runs up to 40% slower.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jiffies0, calib0 = cpu_jiffies(), calibration_ms()
    setups = measure_setup(args.workload, SETUP_PROBES[0], warm_up=True)
    workload = CorpusWorkload(args.seed) if args.workload == "corpus_cli" \
        else EpisodeWorkload(args.workload, args.seed)
    try:
        def loop(recorder=None) -> Loop:
            done = Loop(workload.op, round_size=workload.round_size, clients=clients,
                        seconds=args.seconds, min_ops=min_ops, recorder=recorder).run()
            for failure in done.failures[:3]:
                print(failure, file=sys.stderr)
            return done

        untraced = loop()
        setups += measure_setup(args.workload, SETUP_PROBES[1], warm_up=False)
        if args.trace:
            rec = spans.Recorder()
            workload.trace(rec)
            kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            traced = loop(rec)
            kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            child_cpu = (kids1.ru_utime + kids1.ru_stime) - (kids0.ru_utime + kids0.ru_stime)
            table = spans.layer_table(rec.spans, len(traced.latencies))
            OUT.mkdir(parents=True, exist_ok=True)
            span_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
            rec.write(span_path, min(s["start"] for s in rec.spans))
            print_table(table)
            metrics = layer_metrics(table, traced, untraced, child_cpu, setups, workload)
            print(f"tracing overhead: {metrics['trace.overhead_pct'][0]:.1f}% "
                  f"(untraced {len(untraced.latencies) / untraced.wall_s:.2f} ops/s, "
                  f"traced {len(traced.latencies) / traced.wall_s:.2f} ops/s); "
                  f"spans -> {span_path.relative_to(ROOT)}")
            runs = [untraced, traced]
        else:
            metrics = e2e_metrics(workload, untraced, tail_p, setups)
            runs = [untraced]
        if args.workload == "corpus_cli":
            workload.check_idempotent()
    finally:
        if args.workload == "corpus_cli":
            workload.close()
    jiffies1, calib1 = cpu_jiffies(), calibration_ms()

    steal = None
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        steal = (jiffies1[0] - jiffies0[0]) * 100 / (jiffies1[1] - jiffies0[1])
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": [len(r.latencies) for r in runs], "wall_s": [r.wall_s for r in runs],
        "host_steal_pct": steal, "loadavg": os.getloadavg(),
        "calibration_cpu_ms": [calib0[0], calib1[0]],
        "calibration_wall_ms": [calib0[1], calib1[1]],
        "setup_probes_s": [p["setup_s"] for p in setups],
    }
    failures = [f for r in runs for f in r.failures]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if list(metrics) != [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]:
        print("error: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print("diagnostics: " + json.dumps(diagnostics))
    result = {
        "correct": True,
        "attempted": sum(r.attempted for r in runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(dict(result, diagnostics=diagnostics), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
