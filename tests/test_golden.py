"""Golden trajectories: `agentdag run` output must not change by a single byte.

The inputs under ``tests/golden/`` drive scripted episodes through the CLI with
the real ``LocalExecutor``: a first-turn pass (with a difficulty fallback), a
wrong answer fixed on the next turn through a cross-turn ref, one turn of each
invalid-YAML class, and a turn whose agents emit no code block. Candidates
only ever pass or print a wrong answer, so no output carries a temporary path
or interpreter-specific error text.

Regenerate ``trajectories.jsonl`` only for an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from conftest import rebuild_dags

from agentdag.cli import main
from agentdag.graph import EdgeKind

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "trajectories.jsonl"


def run_argv(*extra: str) -> list[str]:
    return [
        "run",
        "--problem", str(GOLDEN / "first_pass.json"),
        "--problems", str(GOLDEN / "problems.jsonl"),
        "--config", str(GOLDEN / "config.yaml"),
        "--policy", f"scripted:{GOLDEN / 'bundle.json'}",
        *extra,
    ]


@pytest.mark.parametrize("workers", ["1", "4"])
def test_run_output_matches_the_golden_file(capsys, workers):
    code = main(run_argv("--workers", workers))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == "4 episode(s): 3 PASSED, 1 FAILED\n"
    assert captured.out == EXPECTED.read_text(encoding="utf-8")


def test_golden_file_covers_every_turn_kind():
    text = EXPECTED.read_text(encoding="utf-8")
    for needle in ('"class":"NO_YAML_FOUND"', '"class":"YAML_PARSE_ERROR"',
                   '"class":"YAML_SCHEMA_INVALID"', '"class":"YAML_LOGIC_INVALID"',
                   '"verdict":"WRONG_ANSWER"', '"verdict":"PASSED"',
                   "no fenced code block found in the agent messages"):
        assert needle in text, needle
    # A line stores no DAG; the README's recipe rebuilds one with a cross-turn ref.
    kinds = {edge.kind for line in text.splitlines()
             for dag in rebuild_dags(json.loads(line)["trajectory"]["turns"]).values()
             for edge in dag.edges}
    assert EdgeKind.CROSS_TURN in kinds


if __name__ == "__main__":
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(run_argv())
    if status != 0:
        sys.exit(status)
    EXPECTED.write_text(buffer.getvalue(), encoding="utf-8")
