"""Corpus filtering: rejection reasons, dedup, prior resolution, stats."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import live_session_members

import agentdag
from agentdag.cli import main
from agentdag.config import ConfigError
from agentdag.corpus import (
    REASONS,
    CorpusFilterConfig,
    CorpusRecord,
    corpus_stats,
    filter_corpus,
    read_corpus,
    write_corpus,
)

ROLES = ("planning", "coding", "debugging", "testing", "retrieval", "algorithmic")


def rec(rid: str, yaml_text: str, *, difficulty: int | None = None,
        prior: str | None = None, turn: int = 1) -> CorpusRecord:
    return CorpusRecord(id=rid, problem_id="p1", difficulty=difficulty,
                        turn_index=turn, yaml_text=yaml_text, prior_id=prior)


def chain_yaml(ids: list[str], difficulty: int | None = 1) -> str:
    """One agent per step, each listening to the previous one: v=|ids|, e=v-1, s=v."""
    lines = [] if difficulty is None else [f"difficulty: {difficulty}"]
    lines.append("steps:")
    prev = None
    for i, aid in enumerate(ids):
        lines.append("  - agents:")
        lines.append(f"      - id: {aid}")
        lines.append(f"        role: {ROLES[i % len(ROLES)]}")
        lines.append(f"        ref: [{prev}]" if prev else "        ref: []")
        prev = aid
    return "\n".join(lines) + "\n"


def two_ref_yaml(ref_order: list[str]) -> str:
    return (
        "difficulty: 1\n"
        "steps:\n"
        "  - agents:\n"
        "      - id: a1\n"
        "        role: planning\n"
        "        ref: []\n"
        "      - id: b1\n"
        "        role: retrieval\n"
        "        ref: []\n"
        "  - agents:\n"
        "      - id: c1\n"
        f"        ref: [{', '.join(ref_order)}]\n"
        "        role: coding\n"
    )


CROSS_TURN_YAML = (
    "difficulty: 1\n"
    "steps:\n"
    "  - agents:\n"
    "      - id: x1\n"
    "        role: planning\n"
    "        ref: []\n"
    "  - agents:\n"
    "      - id: x2\n"
    "        role: coding\n"
    "        ref: [x1, n1]\n"  # n1 only exists in the prior record's graph
)


def outcomes_by_id(report):
    return {o.record_id: o for o in report.outcomes}


class TestRejectionReasons:
    def test_valid_record_is_accepted(self):
        report, accepted = filter_corpus([rec("r1", chain_yaml(["n1"]))])
        assert report.accepted_count == 1
        assert [r.id for r in accepted] == ["r1"]
        outcome = report.outcomes[0]
        assert outcome.accepted and outcome.reason is None

    def test_syntax(self):
        report, accepted = filter_corpus([rec("r1", "difficulty: [unclosed")])
        assert accepted == []
        assert report.outcomes[0].reason == "syntax"

    def test_schema(self):
        bad = chain_yaml(["n1"]) + "bogus_key: 1\n"
        report, _ = filter_corpus([rec("r1", bad)])
        assert report.outcomes[0].reason == "schema"
        assert "bogus_key" in report.outcomes[0].detail

    def test_logic(self):
        bad = (
            "difficulty: 1\n"
            "steps:\n"
            "  - agents:\n"
            "      - id: n1\n"
            "        role: coding\n"
            "        ref: []\n"
            "  - agents:\n"
            "      - id: n2\n"
            "        role: coding\n"
            "        ref: [ghost]\n"
        )
        report, _ = filter_corpus([rec("r1", bad)])
        assert report.outcomes[0].reason == "logic"
        assert "ghost" in report.outcomes[0].detail

    def test_density_band_node_cap(self):
        too_big = chain_yaml([f"n{i}" for i in range(5)], difficulty=1)
        report, _ = filter_corpus([rec("r1", too_big)])
        assert report.outcomes[0].reason == "density_band"
        assert "exceeds the difficulty-1 cap of 4" in report.outcomes[0].detail

    def test_duplicate_first_wins(self):
        text = chain_yaml(["n1", "n2"])
        report, accepted = filter_corpus([rec("r1", text), rec("r2", text)])
        assert [r.id for r in accepted] == ["r1"]
        assert outcomes_by_id(report)["r2"].reason == "duplicate"

    def test_reference_order_does_not_defeat_dedup(self):
        records = [rec("r1", two_ref_yaml(["a1", "b1"])),
                   rec("r2", two_ref_yaml(["b1", "a1"]))]
        report, accepted = filter_corpus(records)
        assert [r.id for r in accepted] == ["r1"]
        assert outcomes_by_id(report)["r2"].reason == "duplicate"

    def test_rejected_record_still_claims_its_canonical_hash(self):
        # r1 is structurally sound but too dense, so it is rejected *after* the
        # dedup stage; an identical r2 must then read as a duplicate, not as a
        # second density violation.
        text = chain_yaml([f"n{i}" for i in range(5)], difficulty=1)
        report, accepted = filter_corpus([rec("r1", text), rec("r2", text)])
        assert accepted == []
        assert outcomes_by_id(report)["r1"].reason == "density_band"
        assert outcomes_by_id(report)["r2"].reason == "duplicate"


class TestPriorResolution:
    def test_prior_enables_cross_turn_references(self):
        records = [
            rec("r1", chain_yaml(["n1", "n2"])),
            rec("r2", CROSS_TURN_YAML, prior="r1", turn=2),
        ]
        report, accepted = filter_corpus(records)
        assert [r.id for r in accepted] == ["r1", "r2"]

    def test_cross_turn_reference_without_prior_is_dangling(self):
        report, _ = filter_corpus([rec("r2", CROSS_TURN_YAML)])
        assert report.outcomes[0].reason == "logic"

    def test_prior_must_be_earlier(self):
        records = [
            rec("r2", CROSS_TURN_YAML, prior="r1", turn=2),  # r1 comes later
            rec("r1", chain_yaml(["n1", "n2"])),
        ]
        report, accepted = filter_corpus(records)
        assert [r.id for r in accepted] == ["r1"]
        assert outcomes_by_id(report)["r2"].reason == "logic"
        assert "not an earlier accepted record" in outcomes_by_id(report)["r2"].detail

    def test_prior_must_itself_be_accepted(self):
        records = [
            rec("r1", "difficulty: [broken"),  # rejected on syntax
            rec("r2", CROSS_TURN_YAML, prior="r1", turn=2),
        ]
        report, accepted = filter_corpus(records)
        assert accepted == []
        assert outcomes_by_id(report)["r2"].reason == "logic"

    def test_record_may_not_be_its_own_prior(self):
        report, _ = filter_corpus([rec("r1", CROSS_TURN_YAML, prior="r1")])
        assert report.outcomes[0].reason == "logic"


class TestDifficultyHandling:
    def test_record_difficulty_backfills_a_missing_header(self):
        text = chain_yaml(["n1", "n2"], difficulty=None)
        report, accepted = filter_corpus([rec("r1", text, difficulty=2)])
        assert report.accepted_count == 1
        stats = corpus_stats([rec("r1", text, difficulty=2)])
        assert list(stats) == ["2"]

    def test_no_difficulty_anywhere_is_a_schema_rejection(self):
        text = chain_yaml(["n1", "n2"], difficulty=None)
        report, _ = filter_corpus([rec("r1", text)])
        assert report.outcomes[0].reason == "schema"

    def test_header_difficulty_wins_over_record_difficulty(self):
        # Header says 1 (cap 4); the record metadata saying 3 must not rescue it.
        text = chain_yaml([f"n{i}" for i in range(5)], difficulty=1)
        report, _ = filter_corpus([rec("r1", text, difficulty=3)])
        assert report.outcomes[0].reason == "density_band"


class TestScoreBand:
    def test_minimum(self):
        config = CorpusFilterConfig(s_complex_min=1e9)
        report, _ = filter_corpus([rec("r1", chain_yaml(["n1"]))], config)
        assert report.outcomes[0].reason == "density_band"
        assert "below configured minimum" in report.outcomes[0].detail

    def test_maximum(self):
        config = CorpusFilterConfig(s_complex_max=1e-9)
        report, _ = filter_corpus([rec("r1", chain_yaml(["n1"]))], config)
        assert report.outcomes[0].reason == "density_band"
        assert "above configured maximum" in report.outcomes[0].detail

    def test_band_disabled_by_default(self):
        report, _ = filter_corpus([rec("r1", chain_yaml(["n1"]))])
        assert report.accepted_count == 1


class TestExternalValidator:
    def test_passing_validator_keeps_the_record(self):
        config = CorpusFilterConfig(validator_cmd=("python3", "-c", "import sys; sys.exit(0)"))
        report, _ = filter_corpus([rec("r1", chain_yaml(["n1"]))], config)
        assert report.accepted_count == 1

    def test_failing_validator_rejects_as_logic(self):
        config = CorpusFilterConfig(validator_cmd=(
            "python3", "-c", "import sys; sys.stderr.write('policy says no'); sys.exit(1)"))
        report, _ = filter_corpus([rec("r1", chain_yaml(["n1"]))], config)
        assert report.outcomes[0].reason == "logic"
        assert report.outcomes[0].detail == "external validator: policy says no"

    def test_validator_receives_the_yaml_on_stdin(self):
        # The record's own text, comments and all, not a canonical re-dump.
        yaml_text = "# kept as written\n" + chain_yaml(["n1"])
        probe = f"import sys; sys.exit(0 if sys.stdin.read() == {yaml_text!r} else 7)"
        config = CorpusFilterConfig(validator_cmd=("python3", "-c", probe))
        report, _ = filter_corpus([rec("r1", yaml_text)], config)
        assert report.accepted_count == 1

    def test_unrunnable_validator_is_a_config_error(self):
        config = CorpusFilterConfig(validator_cmd=("/no/such/binary",))
        with pytest.raises(ConfigError):
            filter_corpus([rec("r1", chain_yaml(["n1"]))], config)


class TestValidatorSupervision:
    """A validator runs as a job of the judge's harness: with only ``PATH`` and
    ``LANG`` of the caller's environment, in a session whose group is killed
    when it exits, and with its output read as it comes and capped."""

    def filter_cli(self, tmp_path, records: list[CorpusRecord], validator: list[str]):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r.to_dict()) + "\n" for r in records),
                          encoding="utf-8")
        report = tmp_path / "report.json"
        code = main(["corpus", "filter", str(corpus), str(tmp_path / "out.jsonl"),
                     "--report", str(report), "--validator", shlex.join(validator)])
        return code, report

    def test_the_callers_environment_stays_out_of_the_detail_and_report(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AGENTDAG_TEST_SECRET", "sk-leak")
        code, report = self.filter_cli(tmp_path, [rec("r1", chain_yaml(["n1"]))],
                                       ["sh", "-c", 'echo "$AGENTDAG_TEST_SECRET" >&2; exit 1'])
        assert code == 0
        text = report.read_text(encoding="utf-8")
        assert json.loads(text)["outcomes"][0]["detail"] == "external validator: exit 1"
        assert "sk-leak" not in text + capsys.readouterr().out

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
    def test_a_child_the_validator_leaves_is_killed_and_does_not_hold_it(self, tmp_path):
        session = tmp_path / "session"
        config = CorpusFilterConfig(validator_cmd=(
            "sh", "-c", f"sleep 8 & echo $$ > {session}; exit 1"))
        started = time.monotonic()
        report, _ = filter_corpus([rec("r1", chain_yaml(["n1"]))], config)
        assert time.monotonic() - started < 1
        assert report.outcomes[0].detail == "external validator: exit 1"
        sid = int(session.read_text())  # the validator leads the session
        deadline = time.monotonic() + 1
        while live_session_members(sid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_session_members(sid) == []

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs procfs")
    def test_a_validator_that_floods_stdout_keeps_the_caller_memory_bounded(self):
        # In a caller of its own, which reads its peak RSS from its address space.
        script = (
            "from agentdag.corpus import CorpusFilterConfig, CorpusRecord, filter_corpus\n"
            "def peak():\n"
            "    return int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
            "def validate(command):\n"
            f"    record = CorpusRecord('r1', 'p1', 1, 1, {chain_yaml(['n1'])!r})\n"
            "    config = CorpusFilterConfig(validator_cmd=('sh', '-c', command))\n"
            "    return filter_corpus([record], config)[0].outcomes[0].detail\n"
            "validate('exit 1')\n"
            "before = peak()\n"
            "detail = validate('head -c 50000000 /dev/zero; exit 1')\n"
            "print(len(detail), peak() - before)\n"
        )
        src_root = str(Path(agentdag.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src_root), timeout=60)
        assert proc.returncode == 0, proc.stderr
        detail_chars, rise_kb = map(int, proc.stdout.split())
        assert detail_chars == len("external validator: ") + 200
        assert rise_kb < 10 * 1024

    def test_bytes_that_are_not_utf8_reject_only_their_record(self, tmp_path):
        records = [rec("good", chain_yaml(["n1"])), rec("bad", chain_yaml(["bad1"]))]
        code, report = self.filter_cli(tmp_path, records, [
            "sh", "-c", "if grep -q bad1; then printf '\\377' >&2; exit 1; fi"])
        assert code == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["accepted"] == 1
        assert payload["outcomes"][1] == {"id": "bad", "status": "rejected", "reason": "logic",
                                          "detail": "external validator: \ufffd"}

    def test_a_validator_named_by_a_relative_path_runs_in_the_callers_directory(
            self, tmp_path, monkeypatch):
        (tmp_path / "check.py").write_text(
            "import sys\nsys.exit(f'checked {len(sys.stdin.read())} chars')\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        yaml_text = chain_yaml(["n1"])
        report, _ = filter_corpus([rec("r1", yaml_text)],
                                  CorpusFilterConfig(validator_cmd=("python3", "check.py")))
        assert report.outcomes[0].detail == f"external validator: checked {len(yaml_text)} chars"


class TestReportShape:
    def mixed_corpus(self) -> list[CorpusRecord]:
        return [
            rec("ok1", chain_yaml(["n1"])),
            rec("ok2", chain_yaml(["m1", "m2"])),
            rec("bad_syntax", "difficulty: ["),
            rec("bad_schema", chain_yaml(["q1"]) + "junk: true\n"),
            rec("dup", chain_yaml(["n1"])),
            rec("bad_density", chain_yaml([f"z{i}" for i in range(5)], difficulty=1)),
        ]

    def test_counts_partition_the_input(self):
        report, accepted = filter_corpus(self.mixed_corpus())
        data = report.to_dict()
        assert data["input"] == 6
        assert data["accepted"] == 2 == len(accepted)
        assert set(data["rejected"]) == set(REASONS)  # every reason is always listed
        assert sum(data["rejected"].values()) == data["input"] - data["accepted"]
        assert data["rejected"]["logic"] == 0

    def test_outcomes_preserve_input_order(self):
        report, _ = filter_corpus(self.mixed_corpus())
        assert [o.record_id for o in report.outcomes] == \
            ["ok1", "ok2", "bad_syntax", "bad_schema", "dup", "bad_density"]

    def test_refiltering_the_accepted_corpus_rejects_nothing(self):
        base = self.mixed_corpus() + [
            rec("chain2", CROSS_TURN_YAML, prior="ok2", turn=2),
        ]
        _, accepted = filter_corpus(base)
        report2, accepted2 = filter_corpus(accepted)
        assert report2.accepted_count == len(accepted)
        assert sum(report2.to_dict()["rejected"].values()) == 0
        assert accepted2 == accepted


class TestStats:
    def test_grouping_and_histograms(self):
        records = [
            rec("a", chain_yaml(["a1", "a2"], difficulty=1)),
            rec("b", chain_yaml(["b1", "b2", "b3"], difficulty=1)),
            rec("c", chain_yaml(["c1"], difficulty=2)),
        ]
        stats = corpus_stats(records)
        assert list(stats) == ["1", "2"]
        assert stats["1"]["count"] == 2
        assert stats["1"]["v_count"] == {"2": 1, "3": 1}
        assert stats["1"]["e_count"] == {"1": 1, "2": 1}
        assert stats["1"]["s"] == {"2": 1, "3": 1}
        quartiles = stats["1"]["s_complex"]
        assert quartiles["min"] <= quartiles["q1"] <= quartiles["median"] \
            <= quartiles["q3"] <= quartiles["max"]

    def test_single_record_quantiles_collapse(self):
        stats = corpus_stats([rec("a", chain_yaml(["a1"]))])
        quartiles = stats["1"]["s_complex"]
        assert len({quartiles[k] for k in ("min", "q1", "median", "q3", "max")}) == 1

    def test_rejected_records_do_not_count(self):
        records = [rec("a", chain_yaml(["a1"])), rec("dup", chain_yaml(["a1"]))]
        stats = corpus_stats(records)
        assert stats["1"]["count"] == 1

    def test_empty_corpus(self):
        assert corpus_stats([]) == {}


class TestRecordIo:
    def test_round_trip(self, tmp_path):
        records = [
            rec("r1", chain_yaml(["n1"])),
            rec("r2", CROSS_TURN_YAML, prior="r1", turn=2, difficulty=1),
        ]
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(records, path) == 2
        assert read_corpus(path) == records

    def test_from_dict_defaults_and_errors(self):
        record = CorpusRecord.from_dict(
            {"id": "x", "problem_id": "p", "yaml_text": "difficulty: 1"})
        assert record.turn_index == 1
        assert record.difficulty is None and record.prior_id is None
        with pytest.raises(ValueError, match="malformed corpus record"):
            CorpusRecord.from_dict({"problem_id": "p", "yaml_text": ""})

    @pytest.mark.parametrize("field", ["difficulty", "turn_index"])
    @pytest.mark.parametrize("value", [True, 2.7, "2.7", "2", " 7 ", "1_0"])
    def test_an_inexact_integer_is_malformed(self, field, value):
        data = {"id": "x", "problem_id": "p", "yaml_text": "difficulty: 1", field: value}
        with pytest.raises(ValueError, match="malformed corpus record"):
            CorpusRecord.from_dict(data)

    @pytest.mark.parametrize("value", [None, 7, 1.5, True, ["a"], {"a": 1}])
    def test_an_id_that_is_no_string_is_malformed(self, value):
        data = {"id": value, "problem_id": "p", "yaml_text": "difficulty: 1"}
        with pytest.raises(ValueError, match="malformed corpus record: 'id' must be a string"):
            CorpusRecord.from_dict(data)

    @pytest.mark.parametrize("value", [None, 7, 1.5, True, ["p"]])
    def test_a_problem_id_that_is_no_string_is_malformed(self, value):
        data = {"id": "x", "problem_id": value, "yaml_text": "difficulty: 1"}
        with pytest.raises(ValueError, match="'problem_id' must be a string"):
            CorpusRecord.from_dict(data)

    @pytest.mark.parametrize("value", [None, 7, True, {"steps": []}, ["steps:"]])
    def test_a_yaml_text_that_is_no_string_is_malformed(self, value):
        data = {"id": "x", "problem_id": "p", "yaml_text": value}
        with pytest.raises(ValueError, match="'yaml_text' must be a string"):
            CorpusRecord.from_dict(data)

    @pytest.mark.parametrize("value", [3, 1.0, False, ["r1"]])
    def test_a_prior_id_that_is_neither_string_nor_null_is_malformed(self, value):
        data = {"id": "x", "problem_id": "p", "yaml_text": "difficulty: 1", "prior_id": value}
        with pytest.raises(ValueError, match="'prior_id' must be a string"):
            CorpusRecord.from_dict(data)

    def test_string_fields_are_kept_as_written(self):
        record = CorpusRecord.from_dict({"id": "7", "problem_id": "", "yaml_text": "",
                                         "prior_id": "None"})
        assert (record.id, record.problem_id, record.yaml_text, record.prior_id) == \
            ("7", "", "", "None")
        assert CorpusRecord.from_dict({"id": "x", "problem_id": "p", "yaml_text": "",
                                       "prior_id": None}).prior_id is None

    @pytest.mark.parametrize("field", ["difficulty", "turn_index"])
    def test_an_integral_float_is_an_integer(self, field):
        data = {"id": "x", "problem_id": "p", "yaml_text": "difficulty: 1", field: 2.0}
        assert getattr(CorpusRecord.from_dict(data), field) == 2
