"""Topology DSL: extraction, the four error classes, precedence, canonical form."""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
import threading
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from agentdag import dsl
from agentdag.dsl import (
    AgentSpec,
    CheckResult,
    ErrorClass,
    Step,
    TopologyDoc,
    TopologyError,
    canonicalize,
    check_topology,
    check_yaml,
    doc_to_mapping,
    extract_yaml_block,
    fenced_blocks,
    parse_topology,
    to_yaml,
    validate_logic,
)
from agentdag.roles import DEFAULT_ROLE_POOL
from conftest import make_doc, random_topology

VALID_YAML = """\
difficulty: 1
steps:
  - step: 1
    agents:
      - id: planner
        role: planning
        ref: []
  - step: 2
    agents:
      - id: coder
        role: coding
        ref: [planner]
"""


def fenced(body: str, label: str = "yaml") -> str:
    return f"Here is the topology.\n```{label}\n{body}```\nDone."


class TestExtraction:
    def test_fenced_blocks_pairs_lowercased_first_word_with_body(self):
        text = ("```YAML topology\na: 1\n```\n```\nbare\n```\n"
                "```  Python3 main.py \r\nprint(1)\r\n```\n```unterminated\nx")
        assert fenced_blocks(text) == [("yaml", "a: 1"), ("", "bare"),
                                       ("python3", "print(1)")]
        assert fenced_blocks("no fences") == []

    def test_labeled_yaml_block(self):
        assert extract_yaml_block(fenced(VALID_YAML)) == VALID_YAML.rstrip("\n")

    def test_unlabeled_block_accepted(self):
        assert extract_yaml_block(fenced(VALID_YAML, label="")) == VALID_YAML.rstrip("\n")

    def test_yaml_label_preferred_over_earlier_block(self):
        text = "```python\nprint('hi')\n```\nand\n```yaml\ndifficulty: 1\n```"
        assert extract_yaml_block(text) == "difficulty: 1"

    def test_label_match_is_case_insensitive(self):
        text = "```text\nnope\n```\n```YAML\ndifficulty: 2\n```"
        assert extract_yaml_block(text) == "difficulty: 2"

    def test_first_block_when_no_yaml_label(self):
        text = "```python\nfirst\n```\n```js\nsecond\n```"
        assert extract_yaml_block(text) == "first"

    @pytest.mark.parametrize("text", [
        "",
        "no fences at all",
        "a single ``` tick run without a closing fence\nbody",
        "inline ```not a block``` backticks",
    ])
    def test_missing_or_unterminated_fence(self, text):
        with pytest.raises(TopologyError) as err:
            extract_yaml_block(text)
        assert err.value.error_class is ErrorClass.NO_YAML_FOUND

    def test_check_topology_reports_no_yaml_found(self):
        result = check_topology("just prose, zero fences")
        assert not result.ok
        assert result.error_class is ErrorClass.NO_YAML_FOUND


class TestParseErrors:
    @pytest.mark.parametrize("bad", [
        "steps: [unclosed",
        "difficulty: 1\nsteps:\n  - step: 1\n   bad_indent: x\n  x",
        "a: b: c",
        "{unbalanced",
    ])
    def test_loader_failures_classify_as_parse_error(self, bad):
        result = check_yaml(bad)
        assert not result.ok
        assert result.error_class is ErrorClass.YAML_PARSE_ERROR
        assert result.detail

    def test_fenced_unparseable_yaml(self):
        result = check_topology(fenced("steps: [unclosed"))
        assert result.error_class is ErrorClass.YAML_PARSE_ERROR


SCHEMA_CASES = [
    ("- just\n- a\n- list", "top level"),
    ("plain string", "top level"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: []}\nextra: 1", "unknown top-level"),
    ("steps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: []}", "missing required key 'difficulty'"),
    ("difficulty: 4\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: []}", "difficulty"),
    ("difficulty: '1'\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: []}", "integer"),
    ("difficulty: true\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: []}", "integer"),
    ("difficulty: 1", "missing required key 'steps'"),
    ("difficulty: 1\nsteps: {}", "list"),
    ("difficulty: 1\nsteps: []", "empty"),
    ("difficulty: 1\nsteps:\n  - 7", "mapping"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: []}\n    note: hi", "unknown step keys"),
    ("difficulty: 1\nsteps:\n  - step: 2\n    agents:\n      - {id: a, role: coding, ref: []}", "contiguous"),
    ("difficulty: 1\nsteps:\n  - step: '1'\n    agents:\n      - {id: a, role: coding, ref: []}", "integer"),
    ("difficulty: 1\nsteps:\n  - step: 1", "agents"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents: coder", "list"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents: []", "empty"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - just_a_string", "mapping"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding}", "missing required keys"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: [], extra: 1}", "unknown agent keys"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: 3, role: coding, ref: []}", "string"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: '', role: coding, ref: []}", "non-empty"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: 1, ref: []}", "string"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: b}", "list"),
    ("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: [1]}", "string"),
]


class TestSchemaErrors:
    @pytest.mark.parametrize("bad,needle", SCHEMA_CASES, ids=range(len(SCHEMA_CASES)))
    def test_shape_violations(self, bad, needle):
        result = check_yaml(bad)
        assert not result.ok
        assert result.error_class is ErrorClass.YAML_SCHEMA_INVALID
        assert needle.lower() in result.detail.lower()

    def test_null_ref_means_empty(self):
        doc = parse_topology(
            "difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - {id: a, role: coding, ref: null}"
        )
        assert doc.steps[0].agents[0].refs == ()

    def test_step_key_is_optional(self):
        doc = parse_topology(
            "difficulty: 1\nsteps:\n  - agents:\n      - {id: a, role: coding, ref: []}"
        )
        assert doc.steps[0].index == 1

    def test_schema_error_carries_step_location(self):
        result = check_yaml(
            "difficulty: 1\nsteps:\n"
            "  - step: 1\n    agents:\n      - {id: a, role: coding, ref: []}\n"
            "  - step: 2\n    agents: []"
        )
        assert result.error_class is ErrorClass.YAML_SCHEMA_INVALID
        assert result.location is not None and result.location.step == 2


def logic_doc(body: str) -> CheckResult:
    return check_yaml("difficulty: 1\n" + body)


class TestLogicErrors:
    def test_duplicate_id(self):
        result = logic_doc(
            "steps:\n"
            "  - agents:\n      - {id: a, role: planning, ref: []}\n"
            "  - agents:\n      - {id: a, role: coding, ref: []}\n"
        )
        assert result.error_class is ErrorClass.YAML_LOGIC_INVALID
        assert "duplicate-id" in result.detail
        assert result.location.step == 2 and result.location.agent == "a"

    def test_unknown_role(self):
        result = logic_doc("steps:\n  - agents:\n      - {id: a, role: wizard, ref: []}\n")
        assert result.error_class is ErrorClass.YAML_LOGIC_INVALID
        assert "unknown-role" in result.detail

    def test_custom_role_pool_is_honored(self):
        text = "difficulty: 1\nsteps:\n  - agents:\n      - {id: a, role: wizard, ref: []}\n"
        assert check_yaml(text, role_pool=("wizard",)).ok

    def test_first_step_must_have_empty_refs(self):
        result = logic_doc(
            "steps:\n  - agents:\n      - {id: a, role: planning, ref: [ghost]}\n"
        )
        assert "first-step-ref" in result.detail

    def test_first_step_ref_invalid_even_against_prior_turn(self):
        text = "difficulty: 1\nsteps:\n  - agents:\n      - {id: a, role: planning, ref: [old]}\n"
        result = check_yaml(text, prior_ids=frozenset({"old"}))
        assert result.error_class is ErrorClass.YAML_LOGIC_INVALID
        assert "first-step-ref" in result.detail

    def test_self_reference(self):
        result = logic_doc(
            "steps:\n"
            "  - agents:\n      - {id: a, role: planning, ref: []}\n"
            "  - agents:\n      - {id: b, role: coding, ref: [b]}\n"
        )
        assert "self-ref" in result.detail

    def test_duplicate_ref(self):
        result = logic_doc(
            "steps:\n"
            "  - agents:\n      - {id: a, role: planning, ref: []}\n"
            "  - agents:\n      - {id: b, role: coding, ref: [a, a]}\n"
        )
        assert "duplicate-ref" in result.detail

    @pytest.mark.parametrize("ref", ["ghost", "b", "c"])
    def test_dangling_refs(self, ref):
        # "b" is the agent's own step-mate; "c" only appears in a later step.
        result = logic_doc(
            "steps:\n"
            "  - agents:\n      - {id: a, role: planning, ref: []}\n"
            "  - agents:\n"
            "      - {id: b, role: coding, ref: [%s]}\n"
            "      - {id: b2, role: coding, ref: [a]}\n"
            "  - agents:\n      - {id: c, role: testing, ref: [a]}\n" % ref
        )
        if ref == "b":
            assert "self-ref" in result.detail
        else:
            assert "dangling-ref" in result.detail

    def test_prior_turn_ids_resolve_cross_turn_refs(self):
        text = (
            "difficulty: 1\nsteps:\n"
            "  - agents:\n      - {id: fresh, role: planning, ref: []}\n"
            "  - agents:\n      - {id: b, role: coding, ref: [old_coder]}\n"
        )
        assert not check_yaml(text).ok
        assert check_yaml(text, prior_ids=frozenset({"old_coder"})).ok

    def test_document_order_picks_first_offender(self):
        result = logic_doc(
            "steps:\n"
            "  - agents:\n      - {id: a, role: wizard, ref: []}\n"
            "  - agents:\n      - {id: b, role: coding, ref: [ghost]}\n"
        )
        assert "unknown-role" in result.detail
        assert result.location.agent == "a"

    def test_duplicate_id_beats_unknown_role_on_same_agent(self):
        result = logic_doc(
            "steps:\n"
            "  - agents:\n      - {id: a, role: planning, ref: []}\n"
            "  - agents:\n      - {id: a, role: wizard, ref: []}\n"
        )
        assert "duplicate-id" in result.detail

    def test_validate_logic_raises_directly(self):
        doc = make_doc([[("a", "nonrole", [])]])
        with pytest.raises(TopologyError) as err:
            validate_logic(doc)
        assert err.value.error_class is ErrorClass.YAML_LOGIC_INVALID


class TestPrecedence:
    def test_extraction_beats_parse(self):
        assert check_topology("steps: [unclosed").error_class is ErrorClass.NO_YAML_FOUND

    def test_parse_beats_schema(self):
        assert check_topology(fenced("x: [1,")).error_class is ErrorClass.YAML_PARSE_ERROR

    def test_schema_beats_logic(self):
        # Unknown top-level key AND a dangling ref: schema wins.
        body = (
            "difficulty: 1\nbogus: 1\nsteps:\n"
            "  - agents:\n      - {id: a, role: coding, ref: [ghost]}\n"
        )
        assert check_topology(fenced(body)).error_class is ErrorClass.YAML_SCHEMA_INVALID

    def test_valid_document_has_no_class(self):
        result = check_topology(fenced(VALID_YAML))
        assert result.ok
        assert result.error_class is None
        assert result.to_dict()["class"] is None


class TestFallbackDifficulty:
    BODY = "steps:\n  - agents:\n      - {id: a, role: coding, ref: []}\n"

    def test_missing_difficulty_without_fallback_is_schema_invalid(self):
        assert check_yaml(self.BODY).error_class is ErrorClass.YAML_SCHEMA_INVALID

    def test_fallback_fills_in_with_warning(self):
        result = check_yaml(self.BODY, fallback_difficulty=2)
        assert result.ok
        assert result.doc.difficulty == 2
        assert result.doc.difficulty_from_fallback
        assert result.warnings

    def test_header_wins_over_fallback(self):
        result = check_yaml("difficulty: 3\n" + self.BODY, fallback_difficulty=1)
        assert result.doc.difficulty == 3
        assert not result.doc.difficulty_from_fallback
        assert not result.warnings

    def test_invalid_fallback_value_is_schema_invalid(self):
        assert check_yaml(self.BODY, fallback_difficulty=9).error_class \
            is ErrorClass.YAML_SCHEMA_INVALID


class TestCanonicalize:
    def test_ref_order_does_not_matter(self):
        a = make_doc([
            [("x", "planning", []), ("y", "retrieval", [])],
            [("z", "coding", ["x", "y"])],
        ])
        b = make_doc([
            [("x", "planning", []), ("y", "retrieval", [])],
            [("z", "coding", ["y", "x"])],
        ])
        assert canonicalize(a) == canonicalize(b)

    def test_agent_order_within_step_matters(self):
        a = make_doc([[("x", "planning", []), ("y", "retrieval", [])]])
        b = make_doc([[("y", "retrieval", []), ("x", "planning", [])]])
        assert canonicalize(a) != canonicalize(b)

    @pytest.mark.parametrize("mutate", [
        lambda: make_doc([[("x", "planning", [])]], difficulty=2),
        lambda: make_doc([[("x", "coding", [])]]),
        lambda: make_doc([[("renamed", "planning", [])]]),
        lambda: make_doc([[("x", "planning", [])], [("y", "coding", ["x"])]]),
    ])
    def test_structural_changes_change_bytes(self, mutate):
        base = make_doc([[("x", "planning", [])]])
        assert canonicalize(base) != canonicalize(mutate())

    def test_bytes_are_terminated_json(self):
        blob = canonicalize(make_doc([[("x", "planning", [])]]))
        assert blob.endswith(b"\n")
        payload = json.loads(blob.decode("utf-8"))
        assert payload["difficulty"] == 1

    def test_stable_across_parse_roundtrip(self):
        rng = random.Random(404)
        for _ in range(50):
            doc = random_topology(rng)
            reparsed = parse_topology(to_yaml(doc))
            assert canonicalize(reparsed) == canonicalize(doc)


class TestRoundTrip:
    def test_yaml_roundtrip_preserves_equality(self):
        rng = random.Random(7)
        for _ in range(50):
            doc = random_topology(rng)
            assert parse_topology(to_yaml(doc)) == doc

    def test_doc_to_mapping_shape(self):
        doc = make_doc([[("a", "planning", [])], [("b", "coding", ["a"])]], difficulty=2)
        assert doc_to_mapping(doc) == {
            "difficulty": 2,
            "steps": [
                {"step": 1, "agents": [{"id": "a", "role": "planning", "ref": []}]},
                {"step": 2, "agents": [{"id": "b", "role": "coding", "ref": ["a"]}]},
            ],
        }

    def test_agent_ids_in_document_order(self):
        doc = make_doc([[("b", "planning", []), ("a", "retrieval", [])], [("c", "coding", ["a"])]])
        assert doc.agent_ids == ("b", "a", "c")


class TestTotality:
    @given(st.text(max_size=400))
    def test_check_topology_never_raises(self, text):
        result = check_topology(text)
        assert isinstance(result, CheckResult)
        if result.ok:
            assert result.error_class is None
        else:
            assert result.error_class in set(ErrorClass)

    @given(st.text(max_size=300))
    def test_check_yaml_never_raises(self, text):
        result = check_yaml(text)
        assert result.ok or result.error_class in {
            ErrorClass.YAML_PARSE_ERROR,
            ErrorClass.YAML_SCHEMA_INVALID,
            ErrorClass.YAML_LOGIC_INVALID,
        }

    def test_error_payload_shape(self):
        result = check_yaml("difficulty: 9\nsteps: []")
        payload = result.to_dict()
        assert payload["ok"] is False
        assert payload["class"] == "YAML_SCHEMA_INVALID"
        assert isinstance(payload["detail"], str)


def nested(levels: int, form: str) -> str:
    """A well-formed text whose node tree is ``levels`` deep: flow lists, or
    block items over one scalar."""
    return "[" * levels + "]" * levels if form == "flow" else "- " * (levels - 1) + "x"


def at_stack_depth(frames: int, text: str) -> CheckResult:
    return at_stack_depth(frames - 1, text) if frames else check_yaml(text)


class TestDeepNesting:
    TOO_DEEP = "document nests too deeply for the YAML loader"

    @pytest.mark.parametrize("form", ["flow", "block"])
    @pytest.mark.parametrize("levels", [65, 500, 1001, 5000])
    def test_nesting_past_the_bound_is_a_parse_error_on_any_stack(self, levels, form):
        text = nested(levels, form)
        results = [at_stack_depth(frames, text) for frames in (0, sys.getrecursionlimit() - 300)]
        thread = threading.Thread(target=lambda: results.append(check_yaml(text)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and len(results) == 3
        for result in results:
            assert result.error_class is ErrorClass.YAML_PARSE_ERROR
            assert result.detail == self.TOO_DEEP
        assert check_topology(fenced(text)).error_class is ErrorClass.YAML_PARSE_ERROR

    @pytest.mark.parametrize("form", ["flow", "block"])
    def test_nesting_at_the_bound_is_read(self, form):
        result = check_yaml(nested(64, form))
        assert result.error_class is ErrorClass.YAML_SCHEMA_INVALID
        assert result.detail == "top level must be a mapping, got list"

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ("{a: ", "}")])
    def test_a_deep_flow_text_is_refused_as_it_opens(self, monkeypatch, opener, closer):
        # For each token, the scanner walks the possible simple key of every
        # open flow level, and it reads on while one is pending. Without a
        # bound of its own it walks 1,024 characters of a deep text before the
        # composer sees a node: some 2,900 calls here, a quarter of a second.
        calls = []
        _, loader = dsl._pyyaml()
        stale = loader.stale_possible_simple_keys
        monkeypatch.setattr(loader, "stale_possible_simple_keys",
                            lambda loader: calls.append(1) or stale(loader))
        result = check_yaml(opener * 20_000 + "0" + closer * 20_000)
        assert result.detail == self.TOO_DEEP
        assert 0 < len(calls) < 10 * dsl._MAX_DEPTH

    def test_merge_chains_under_a_deep_caller_stack_are_a_parse_error(self):
        text = "{<<: " * 400 + "{a: 1}" + "}" * 400
        result = at_stack_depth(sys.getrecursionlimit() - 300, text)
        assert result.detail == self.TOO_DEEP


# Ids that the dumper must quote, that leave printable ASCII, or on which the
# two dumpers are known to write different bytes.
AWKWARD_IDS = ("yes", "null", "1", "~", "on", "1e3", "- x", "a: b", "#x", "!x", "'q'",
               "é", "agent_ü", "x\ty", "a " * 45 + "\nb", "é" * 100, "ab\x07" * 40)
MUTATION_CHARS = ("abz09 _\n\n:-?[]{},#&*!|>'\"%@`~.\\/"
                  "\t\r\x00\x07\x7f\x85\ufeff\u00e9\u2028")


def awkward_topology(rng: random.Random):
    doc = random_topology(rng, max_layers=3, max_width=2)
    names = rng.sample(AWKWARD_IDS, k=len(doc.agent_ids))
    rename = {aid: name for aid, name in zip(doc.agent_ids, names) if rng.random() < 0.25}
    return make_doc([[(rename.get(a.id, a.id), a.role, [rename.get(r, r) for r in a.refs])
                      for a in step.agents] for step in doc.steps], difficulty=doc.difficulty)


def mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        at, char = rng.randrange(len(chars) + 1), rng.choice(MUTATION_CHARS)
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(at, char)
        elif op == 1:
            chars[min(at, len(chars) - 1)] = char
        else:
            del chars[min(at, len(chars) - 1)]
    return "".join(chars)


def pure_yaml(doc) -> str:
    return yaml.safe_dump(doc_to_mapping(doc), sort_keys=False, default_flow_style=False)


@pytest.fixture(scope="module")
def rendered():
    rng = random.Random(0x5AFE)
    return [(doc, pure_yaml(doc)) for doc in (awkward_topology(rng) for _ in range(500))]


def test_to_yaml_equals_the_pure_dumper(rendered):
    for doc, text in rendered:
        assert to_yaml(doc) == text


# Scalars on both sides of the line between what to_yaml writes plain itself
# and what it leaves to the dumper: every word the YAML 1.1 resolver reads as a
# boolean or null, other texts it reads as no string or as a document marker,
# near misses of them, a leading digit, "_", "." or "-", dots and dashes
# inside, lengths past the dumper's 80-column width and its 128-character
# simple-key limit, characters outside ASCII, spaces, colons and quotes.
RESOLVER_WORDS = tuple(case(word)
                       for word in ("yes", "no", "true", "false", "on", "off", "null")
                       for case in (str.lower, str.title, str.upper))
TYPED_TEXTS = (".inf", "-.Inf", ".NaN", "...", "---", "<<", "=", "~", "0x1f", "1_000", "1:30",
               "2001-12-14", "1.5e+3")
NEAR_MISSES = ("yess", "nO", "tRUE", "Nul", "nulls", "y", "n", "Y", "N", "_", "on_",
               "off.x", "True-1", "NaN", "inf", "e3", "x1e3", "t1_a0", "coding")
PLAIN_HEADS, PLAIN_BODY = "aZ_", "az09_.-"
QUOTED_HEADS, QUOTED_BODY = "09.-~!&*#'\" :\u00e9", " :'\"#\t\n\u00e9\u65e5"


def boundary_scalar(rng: random.Random, awkward: float) -> str:
    """An id, role or ref; with probability ``awkward`` one that may need quotes."""
    if rng.random() < 0.1:
        return rng.choice(NEAR_MISSES)
    if rng.random() >= awkward:
        heads, body = PLAIN_HEADS, PLAIN_BODY
    elif rng.random() < 0.3:
        return rng.choice(RESOLVER_WORDS + TYPED_TEXTS)
    else:
        heads, body = rng.choice(((QUOTED_HEADS, PLAIN_BODY), (PLAIN_HEADS, PLAIN_BODY + " "),
                                  (PLAIN_HEADS, PLAIN_BODY + QUOTED_BODY)))
    length = rng.choice((rng.randint(1, 12), rng.randint(81, 127), rng.randint(129, 200)))
    return rng.choice(heads) + "".join(rng.choice(body) for _ in range(length - 1))


def boundary_topology(rng: random.Random) -> TopologyDoc:
    """A document to_yaml must write, valid or not; now and then a bool where
    an int belongs, or an empty step list or agent list."""
    awkward = rng.choice((0.0, 0.02, 0.1, 0.5))
    steps = []
    for index in range(1, rng.randint(0 if rng.random() < 0.05 else 1, 4) + 1):
        agents = tuple(
            AgentSpec(id=boundary_scalar(rng, awkward), role=boundary_scalar(rng, awkward),
                      refs=tuple(boundary_scalar(rng, awkward)
                                 for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(0 if rng.random() < 0.05 else 1, 3)))
        steps.append(Step(index=True if index == 1 and rng.random() < 0.03 else index,
                          agents=agents))
    difficulty = rng.choice((1, 2, 3) * 4 + (0, -7, 10**20, True, False))
    return TopologyDoc(difficulty=difficulty, steps=tuple(steps))


def test_to_yaml_equals_the_dumpers_at_the_plain_quoted_boundary(monkeypatch):
    rng = random.Random(0xB0DA)
    docs = [make_doc([[("a", "planning", [])], [(word, "coding", ["a"])]])
            for word in RESOLVER_WORDS]
    docs += [boundary_topology(rng) for _ in range(500)]
    expected = [pure_yaml(doc) for doc in docs]
    dumped = []
    safe_dump = yaml.safe_dump
    monkeypatch.setattr(yaml, "safe_dump",
                        lambda *args, **kwargs: dumped.append(1) or safe_dump(*args, **kwargs))
    direct = []
    for doc, text in zip(docs, expected):
        before = len(dumped)
        assert to_yaml(doc) == text, doc
        if len(dumped) == before:
            direct.append((doc, text))
    assert len(direct) >= 150 and len(docs) - len(direct) >= 150
    if yaml.__with_libyaml__:
        for doc, text in direct:
            assert yaml.dump(doc_to_mapping(doc), Dumper=yaml.CSafeDumper, sort_keys=False,
                             default_flow_style=False) == text, doc


GOLDEN_BUNDLE = Path(__file__).parent / "golden" / "bundle.json"


def golden_yaml_texts() -> list[str]:
    """The YAML block of every golden policy text that has one."""
    texts = []
    for replies in json.loads(GOLDEN_BUNDLE.read_text(encoding="utf-8"))["policy"].values():
        for reply in replies:
            try:
                texts.append(extract_yaml_block(reply))
            except TopologyError:
                pass
    return texts


def bench_doc() -> TopologyDoc:
    """Ten agents in four layers, named as the bench's generated episodes are."""
    ids = [f"t2_a{i}" for i in range(10)]
    roles = dict(zip(ids, itertools.cycle(DEFAULT_ROLE_POOL)))
    layers = [ids[0:3], ids[3:6], ids[6:8], ids[8:10]]
    return make_doc([[(aid, roles[aid], refs) for aid in layer]
                     for layer, refs in zip(layers, [[]] + layers)], difficulty=3)


def test_plain_documents_are_written_without_the_dumper(monkeypatch):
    docs = []
    for text in golden_yaml_texts():
        try:
            docs.append(parse_topology(text, fallback_difficulty=1))
        except TopologyError:
            pass
    docs.append(bench_doc())
    expected = [pure_yaml(doc) for doc in docs]

    def refuse(*args, **kwargs):
        raise AssertionError("to_yaml called the YAML dumper")

    monkeypatch.setattr(yaml, "dump", refuse)
    monkeypatch.setattr(yaml, "safe_dump", refuse)
    assert len(docs) >= 7
    assert [to_yaml(doc) for doc in docs] == expected


def plain_text(doc: TopologyDoc, *, header: bool = True, step_lines: bool = True,
               flow_refs: bool = True, indent: int = 2) -> str:
    """``doc`` in the plain block form, each block sequence ``indent`` columns
    right of its key (the bench's policy writes 2, ``to_yaml`` 0), with refs
    as a flow list or as block items."""
    step, agent = " " * indent, " " * (2 * indent + 2)
    lines = [f"difficulty: {doc.difficulty}"] if header else []
    lines.append("steps:")
    for s in doc.steps:
        lines += [f"{step}- step: {s.index}", f"{step}  agents:"] if step_lines \
            else [f"{step}- agents:"]
        for a in s.agents:
            lines += [f"{agent}- id: {a.id}", f"{agent}  role: {a.role}"]
            if flow_refs or not a.refs:
                lines.append(f"{agent}  ref: [{', '.join(a.refs)}]")
            else:
                lines.append(f"{agent}  ref:")
                lines += [f"{agent}  {' ' * indent}- {ref}" for ref in a.refs]
    return "\n".join(lines) + "\n"


def bench_topology(rng: random.Random) -> TopologyDoc:
    """A random document with the bench's ids, which name the turn and may
    refer to agents of the previous one."""
    doc = random_topology(rng, max_layers=4, max_width=3, difficulty=rng.choice((1, 2, 3)))
    turn = rng.randint(2, 6)
    name = {aid: f"t{turn}_a{i}" for i, aid in enumerate(doc.agent_ids)}
    return make_doc([[(name[a.id], a.role, [name[r] for r in a.refs]
                       + ([f"t{turn - 1}_a0"] if rng.random() < 0.2 and i else []))
                      for a in step.agents] for i, step in enumerate(doc.steps)],
                    difficulty=doc.difficulty)


def break_line(rng: random.Random, text: str) -> str:
    """``text`` with one line changed the way a policy might get the plain
    form wrong; some changes leave a text the loader still reads."""
    lines = text.split("\n")[:-1]
    at = rng.randrange(len(lines))
    line = lines[at]
    indent = line[:len(line) - len(line.lstrip(" "))]
    kind = rng.randrange(12)
    if kind == 0 and at + 1 < len(lines):  # keys out of order
        lines[at], lines[at + 1] = lines[at + 1], line
    elif kind == 1:  # an extra key
        lines.insert(at, indent + rng.choice(("model: big", "budget: 3", "- id: extra")))
    elif kind == 2:  # a comment
        lines[at] += rng.choice((" # note", "  #", "#x"))
    elif kind == 3:  # a trailing space, or a tab for a space
        lines[at] = line + " " if rng.random() < 0.5 else line.replace(" ", "\t", 1)
    elif kind == 4:
        return "\r\n".join(lines) + "\r\n"
    elif kind == 5:
        lines.insert(at, rng.choice(("", indent)))
    elif kind == 6:  # a number, resolver word or quoted scalar where a value was
        value = rng.choice(("1", "0", "-1") + RESOLVER_WORDS
                           + ("'x'", '"x"', "'yes'", "~", "x y", "a:b", "é"))
        if ": " in line:
            lines[at] = line[:line.index(": ") + 2] + (f"[{value}]" if line.endswith("]")
                                                        else value)
        else:
            lines[at] = indent + "- " + value
    elif kind == 7:  # no ref, or a bare ref without items
        refs = [i for i, row in enumerate(lines) if row.lstrip().startswith("ref: [")]
        if refs:
            i = rng.choice(refs)
            if rng.random() < 0.5:
                del lines[i]
            else:
                lines[i] = lines[i][:lines[i].index("ref:") + 4]
    elif kind == 8:  # an agent as a flow mapping
        heads = [i for i, row in enumerate(lines) if row.lstrip().startswith("- id: ")]
        if heads:
            i = rng.choice(heads)
            head = lines[i]
            lines[i:i + 3] = [head.replace("- id: ", "- {id: ") + ", role: coding, ref: []}"]
    elif kind == 9:  # a difficulty or step index written otherwise
        number = rng.choice(("01", "010", "08", "+1", "-1", "1_0", "0x1", "1:30", "1.0", "1e3"))
        return re.sub(r"(difficulty|step): [0-9]+", lambda m: f"{m[1]}: {number}", text,
                      count=rng.randint(1, 2))
    elif kind == 10:  # another ref list spacing
        lines[at] = line.replace(", ", rng.choice((",", " ,", ",  ")))
    else:  # another indent
        lines[at] = rng.choice((" ", "  ", "   ")) + line if rng.random() < 0.7 else line[1:]
    return "\n".join(lines) + "\n"


# Keys and values of inserted lines; the last of each the reader must decline:
# a key past the scanner's 1024-character reach, values YAML reads otherwise,
# and no value, which is null unless block items follow.
EXTRA_KEYS = ("budget", "model", "difficulty", "steps", "step", "id", "role", "ref") * 4 \
    + ("k" * 1025,)
EXTRA_VALUES = ("3", "0", "big", "t1_a0", "[]", "[a, b]") * 6 \
    + ("[a,b]", "01", "-1", "yes", "x y", "'q'", "")


def insert_keys(rng: random.Random, text: str) -> str:
    """``text`` with one to three ``key: value`` lines inserted before
    ``steps:``, or before or after an agent's ``role`` or ``ref`` line at its
    column, some of them repeating a key that is already there."""
    lines = text.split("\n")[:-1]
    for _ in range(rng.randint(1, 3)):
        line = f"{rng.choice(EXTRA_KEYS)}: {rng.choice(EXTRA_VALUES)}".rstrip()
        if rng.random() < 0.4:
            lines.insert(rng.randint(0, lines.index("steps:")), line)
        else:
            at = rng.choice([i for i, row in enumerate(lines)
                             if row.lstrip().startswith(("role: ", "ref:"))])
            lines.insert(at + rng.randint(0, 1), lines[at][:lines[at].index("r")] + line)
    return "\n".join(lines) + "\n"


def test_the_plain_reader_returns_what_the_safe_loader_reads():
    rng = random.Random(0x4EAD)
    seeds = [plain_text(bench_topology(rng), header=rng.random() < 0.8,
                        step_lines=rng.random() < 0.5, flow_refs=rng.random() < 0.5,
                        indent=rng.choice((0, 2, 2, 4))) for _ in range(120)]
    seeds += [to_yaml(random_topology(rng)) for _ in range(60)]
    assert all(dsl._read_plain(text) is not None for text in seeds)
    texts = seeds + [mutate(rng, text) for text in seeds]
    texts += [break_line(rng, text) for text in seeds for _ in range(2)]
    texts += [insert_keys(rng, text) for text in seeds]
    read = 0
    for text in texts:
        data = dsl._read_plain(text)
        if data is not None:
            read += 1
            assert repr(data) == repr(yaml.safe_load(text)), text
    assert read >= 150 and len(texts) - read >= 150


# Texts next to the plain form that the loader rejects or reads otherwise
# ("010" is octal 8, "08" a string), and texts whose lists are empty or null.
@pytest.mark.parametrize("text", [
    "steps:\n- agents:\n - id: a\n   role: coding\n   ref: []\n",
    "steps:\n- step: 1\n   agents:\n   - id: a\n     role: coding\n     ref: []\n",
    "steps:\n- step: 1\n agents:\n - id: a\n   role: coding\n   ref: []\n",
    "steps:\n- agents:\n  - id: a\n    role: coding\n    ref:\n   - b\n",
    "difficulty: 010\nsteps:\n- agents:\n  - id: a\n    role: coding\n    ref: []\n",
    "steps:\n- step: 08\n  agents:\n  - id: a\n    role: coding\n    ref: []\n",
    "steps:\r\n- agents:\r\n  - id: a\r\n    role: coding\r\n    ref: []\r\n",
    "steps:\n- agents:\n  - id: a\n    role: coding\n    ref:\n",
    "steps:\n- agents:\n- agents:\n  - id: a\n    role: coding\n    ref: []\n",
    "steps:\n- agents:\n  - id: a\n    role: coding\n    ref: []\n- agents:\n",
    "difficulty: 1\nsteps:\n", "", "\n",
])
def test_the_plain_reader_declines_texts_just_outside_the_form(text):
    assert dsl._read_plain(text) is None


def test_to_yaml_writes_the_plain_form_without_flow_refs():
    rng = random.Random(0x1D)
    for doc in (random_topology(rng) for _ in range(50)):
        assert to_yaml(doc) == plain_text(doc, flow_refs=False, indent=0)


def well_formed(text: str) -> bool:
    try:
        yaml.safe_load(text)
    except yaml.YAMLError:
        return False
    return True


def test_plain_documents_are_read_without_the_loader(monkeypatch):
    golden = [text for text in golden_yaml_texts() if well_formed(text)]
    docs = [bench_doc(), *(bench_topology(random.Random(seed)) for seed in range(4))]
    texts = golden + [plain_text(doc, flow_refs=flow) for doc in docs for flow in (True, False)]
    texts += [to_yaml(doc) for doc in docs]
    expected = [check_yaml(text, fallback_difficulty=1) for text in texts]

    def refuse(*args, **kwargs):
        raise AssertionError("parse_topology called the YAML loader")

    # The bench's well-formed schema breaks: an unknown top-level key, and an
    # unknown agent key; the loader alone gives the reference.
    breaks = [text for doc in docs for plain in [plain_text(doc)]
              for text in ("budget: 3\n" + plain,
                           re.sub(r"( *)role:", r"\1model: big\n\1role:", plain, count=1))]
    with monkeypatch.context() as loader_only:
        loader_only.setattr(dsl, "_read_plain", lambda text: None)
        loaded = [check_yaml(text) for text in breaks]
    assert {result.detail for result in loaded} \
        == {"unknown top-level keys: ['budget']", "unknown agent keys: ['model']"}

    monkeypatch.setattr(yaml, "load", refuse)
    monkeypatch.setattr(yaml, "safe_load", refuse)
    assert len(golden) == 8
    assert [check_yaml(text, fallback_difficulty=1) for text in texts] == expected
    assert sum(result.ok for result in expected) >= len(docs) * 3
    assert [check_yaml(text) for text in breaks] == loaded


def test_parse_error_messages_are_single_line():
    result = check_yaml("a: [1,")
    assert "\n" not in result.detail
    assert yaml is not None  # the loader backs the classifier
