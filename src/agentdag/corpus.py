"""Progressive quality filtering for topology corpora.

Each record is pushed through a fixed pipeline — syntax, schema, logic (with
prior-turn resolution), exact dedup on the canonical form, and the
difficulty-band node cap — and the first failing stage names the rejection
reason. Filtering an already-accepted corpus is a no-op: every rule is
evaluated against the accepted records that precede a record, so acceptance is
stable under refiltering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .dsl import (
    ErrorClass,
    TopologyDoc,
    TopologyError,
    canonicalize,
    parse_topology,
    validate_logic,
)
from .errors import ConfigError, SandboxError
from .graph import DensityReport, LayeredDag, decode_topology, density_scores, n_max_nodes
from .jsonio import as_int, as_str, read_jsonl, write_jsonl
from .roles import DEFAULT_ROLE_POOL

REASONS = ("syntax", "schema", "logic", "duplicate", "density_band")

_ERROR_CLASS_REASONS = {
    ErrorClass.YAML_PARSE_ERROR: "syntax",
    ErrorClass.YAML_SCHEMA_INVALID: "schema",
    ErrorClass.YAML_LOGIC_INVALID: "logic",
}


@dataclass(frozen=True)
class CorpusRecord:
    """One harvested topology: raw YAML plus where it came from."""

    id: str
    problem_id: str
    difficulty: int | None
    turn_index: int
    yaml_text: str
    prior_id: str | None = None

    @classmethod
    def from_dict(cls, data: Mapping) -> "CorpusRecord":
        try:
            return cls(
                id=as_str(data["id"], "id"),
                problem_id=as_str(data["problem_id"], "problem_id"),
                difficulty=None if data.get("difficulty") is None else as_int(data["difficulty"]),
                turn_index=as_int(data.get("turn_index", 1)),
                yaml_text=as_str(data["yaml_text"], "yaml_text"),
                prior_id=None if data.get("prior_id") is None
                else as_str(data["prior_id"], "prior_id"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed corpus record: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "problem_id": self.problem_id,
            "difficulty": self.difficulty,
            "turn_index": self.turn_index,
            "yaml_text": self.yaml_text,
            "prior_id": self.prior_id,
        }


@dataclass(frozen=True)
class CorpusFilterConfig:
    role_pool: tuple[str, ...] = DEFAULT_ROLE_POOL
    # Optional score band on top of the always-on node cap; disabled by default.
    s_complex_min: float | None = None
    s_complex_max: float | None = None
    # Optional external validator: gets the record's YAML on stdin; a nonzero
    # exit rejects the record with reason "logic".
    validator_cmd: tuple[str, ...] | None = None


@dataclass(frozen=True)
class RecordOutcome:
    record_id: str
    accepted: bool
    reason: str | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.record_id,
            "status": "accepted" if self.accepted else "rejected",
            "reason": self.reason,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class FilterReport:
    outcomes: tuple[RecordOutcome, ...]
    accepted_count: int
    rejected_counts: Mapping[str, int]

    def to_dict(self) -> dict:
        return {
            "input": len(self.outcomes),
            "accepted": self.accepted_count,
            "rejected": {reason: self.rejected_counts.get(reason, 0) for reason in REASONS},
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


@dataclass(frozen=True)
class _Accepted:
    record: CorpusRecord
    doc: TopologyDoc
    dag: LayeredDag
    density: DensityReport


def _run_validator(executor, cmd: Sequence[str], yaml_text: str) -> tuple[bool, str]:
    try:
        # A full path, not ".": the judge takes it and its separator out of stderr.
        returncode, out, err = executor.run(cmd, yaml_text.encode("utf-8"), cwd=os.getcwd(),
                                            limit_s=60, what="the validator", step="the validator")
    except SandboxError as exc:
        raise ConfigError(f"validator command {cmd!r} failed to run: {exc}") from exc
    if returncode is None:
        raise ConfigError(f"validator command {cmd!r} failed to run: timed out after 60 s")
    if returncode == 0:
        return True, ""
    detail = err.strip() or out.strip() or f"exit {returncode}"
    return False, detail.splitlines()[0][:200]


def _filter(records: Sequence[CorpusRecord],
            config: CorpusFilterConfig) -> tuple[list[RecordOutcome], list[_Accepted]]:
    outcomes: list[RecordOutcome] = []
    accepted: list[_Accepted] = []
    accepted_by_id: dict[str, _Accepted] = {}
    seen_forms: set[bytes] = set()
    if config.validator_cmd is not None:
        from .adapters.sandbox import LocalExecutor  # only when a validator is configured
        executor = LocalExecutor()

    def reject(record: CorpusRecord, reason: str, detail: str) -> None:
        outcomes.append(RecordOutcome(record.id, accepted=False, reason=reason, detail=detail))

    for record in records:
        # Syntax and schema.
        try:
            doc = parse_topology(record.yaml_text, fallback_difficulty=record.difficulty)
        except TopologyError as exc:
            reject(record, _ERROR_CLASS_REASONS[exc.error_class], exc.detail)
            continue

        # Logic, resolving the prior turn against earlier *accepted* records
        # (anything else would break refiltering of the accepted subset).
        prior: _Accepted | None = None
        if record.prior_id is not None:
            prior = accepted_by_id.get(record.prior_id)
            if prior is None:
                reject(record, "logic",
                       f"prior record {record.prior_id!r} is not an earlier accepted record")
                continue
        prior_ids = frozenset(prior.dag.nodes) if prior is not None else frozenset()
        try:
            validate_logic(doc, prior_ids=prior_ids, role_pool=config.role_pool)
        except TopologyError as exc:
            reject(record, "logic", exc.detail)
            continue

        # Exact dedup on the canonical form; the first occurrence claims it
        # even if a later stage rejects it.
        canonical = canonicalize(doc)
        if canonical in seen_forms:
            reject(record, "duplicate", "canonical form already seen")
            continue
        seen_forms.add(canonical)

        # Difficulty-band density check.
        dag = decode_topology(doc, prev=prior.dag if prior is not None else None)
        n_max = n_max_nodes(doc.difficulty)
        if dag.v_count > n_max:
            reject(record, "density_band",
                   f"{dag.v_count} nodes exceeds the difficulty-{doc.difficulty} cap of {n_max}")
            continue
        density = density_scores(dag, doc.difficulty)
        if config.s_complex_min is not None and density.s_complex < config.s_complex_min:
            reject(record, "density_band",
                   f"s_complex {density.s_complex:.6g} below configured minimum")
            continue
        if config.s_complex_max is not None and density.s_complex > config.s_complex_max:
            reject(record, "density_band",
                   f"s_complex {density.s_complex:.6g} above configured maximum")
            continue

        if config.validator_cmd is not None:
            ok, detail = _run_validator(executor, config.validator_cmd, record.yaml_text)
            if not ok:
                reject(record, "logic", f"external validator: {detail}")
                continue

        entry = _Accepted(record=record, doc=doc, dag=dag, density=density)
        outcomes.append(RecordOutcome(record.id, accepted=True))
        accepted.append(entry)
        accepted_by_id[record.id] = entry

    return outcomes, accepted


def filter_corpus(records: Iterable[CorpusRecord],
                  config: CorpusFilterConfig | None = None
                  ) -> tuple[FilterReport, list[CorpusRecord]]:
    """Apply the full pipeline; returns the report and the surviving records."""
    config = config or CorpusFilterConfig()
    outcomes, accepted = _filter(list(records), config)
    counts: dict[str, int] = {}
    for outcome in outcomes:
        if not outcome.accepted:
            counts[outcome.reason] = counts.get(outcome.reason, 0) + 1
    report = FilterReport(
        outcomes=tuple(outcomes),
        accepted_count=len(accepted),
        rejected_counts=counts,
    )
    return report, [entry.record for entry in accepted]


def _histogram(values: Iterable[int]) -> dict[str, int]:
    counts: dict[int, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return {str(value): counts[value] for value in sorted(counts)}


def _quantiles(values: Sequence[float]) -> dict[str, float]:
    import statistics  # only `corpus stats` needs it, and it pulls in fractions

    ordered = sorted(values)
    if len(ordered) == 1:
        lone = ordered[0]
        return {"min": lone, "q1": lone, "median": lone, "q3": lone, "max": lone}
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"min": ordered[0], "q1": q1, "median": median, "q3": q3, "max": ordered[-1]}


def corpus_stats(records: Iterable[CorpusRecord],
                 config: CorpusFilterConfig | None = None) -> dict:
    """Per-difficulty structure distributions over the records that pass the filter."""
    config = config or CorpusFilterConfig()
    _, accepted = _filter(list(records), config)
    by_difficulty: dict[int, list[_Accepted]] = {}
    for entry in accepted:
        by_difficulty.setdefault(entry.doc.difficulty, []).append(entry)
    stats: dict[str, dict] = {}
    for difficulty in sorted(by_difficulty):
        entries = by_difficulty[difficulty]
        stats[str(difficulty)] = {
            "count": len(entries),
            "v_count": _histogram(e.dag.v_count for e in entries),
            "e_count": _histogram(e.dag.e_count for e in entries),
            "s": _histogram(e.dag.s for e in entries),
            "s_complex": _quantiles([e.density.s_complex for e in entries]),
        }
    return stats


def read_corpus(path: str | Path) -> list[CorpusRecord]:
    return [CorpusRecord.from_dict(data) for data in read_jsonl(path)]


def write_corpus(records: Iterable[CorpusRecord], path: str | Path) -> int:
    return write_jsonl((record.to_dict() for record in records), path)
