"""Set-up probe, run in a fresh interpreter: the program's own set-up time.

Prints one JSON line: when the interpreter reached this file (monotonic
clock, for interpreter start-up), how long importing agentdag took, and how
long the whole set-up took -- importing plus building what the workload
builds before its first op. Usage: ``python3 perfbench/probe.py WORKLOAD``.
"""

import time

first_line = time.monotonic()

import sys  # noqa: E402  (already loaded by the interpreter)

t0 = time.perf_counter()
if sys.argv[1] == "corpus_cli":
    from agentdag import cli
    from agentdag.corpus import CorpusFilterConfig

    t_import = time.perf_counter()
    cli.build_parser()
    CorpusFilterConfig()
else:
    from agentdag import EpisodeRunner, RunConfig
    from agentdag.adapters import LocalExecutor, ScriptedPolicy, ScriptedRoleBackend

    t_import = time.perf_counter()
    config = RunConfig(max_turns=6, gamma=0.9, weights=(1.0, 0.5))
    sandbox = LocalExecutor(config.executor) if sys.argv[1] == "rollout_sandbox" else None
    EpisodeRunner(ScriptedPolicy([]), ScriptedRoleBackend(), sandbox, config)
t1 = time.perf_counter()

import json  # noqa: E402  (after timing: agentdag would have loaded it anyway)

print(json.dumps({"first_line": first_line, "import_s": t_import - t0, "setup_s": t1 - t0}))
