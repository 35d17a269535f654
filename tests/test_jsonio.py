"""Deterministic JSON writer: float pinning, structure, JSONL round trips."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentdag.jsonio import (as_float, as_int, dumps, format_float, loads, read_jsonl,
                             write_jsonl)


# Every code point, with lone surrogates drawn often.
ANY_CHAR = st.characters(exclude_categories=()) | st.characters(categories=["Cs"])



def stdlib_form(text: str) -> str:
    """``json.dumps(text, ensure_ascii=False)``, but with each surrogate
    escaped as under ``ensure_ascii=True``: it has no UTF-8 form."""
    return '"%s"' % "".join(json.dumps(char, ensure_ascii="\ud800" <= char <= "\udfff")[1:-1]
                            for char in text)


class TestFloatFormat:
    @pytest.mark.parametrize("value,rendered", [
        (0.0, "0"),
        (1.0, "1"),
        (-2.5, "-2.5"),
        (0.9, "0.90000000000000002"),
        (1e-8, "1e-08"),
        (1.5e300, "1.5000000000000001e+300"),
    ])
    def test_pinned_renderings(self, value, rendered):
        assert format_float(value) == rendered

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError):
            format_float(value)
        with pytest.raises(ValueError):
            dumps({"x": value})

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip_exactly(self, value):
        assert float(format_float(value)) == value


class TestExactNumbers:
    @pytest.mark.parametrize("value,read", [(0, 0), (-7, -7), (2.0, 2), (10 ** 30, 10 ** 30)])
    def test_as_int_reads_integers_and_integral_floats(self, value, read):
        assert as_int(value) == read and type(as_int(value)) is int

    @pytest.mark.parametrize("value", [True, False, 2.7, float("nan"), float("inf"), None,
                                       "12", " 7 ", "1_0", "0x1", [1], {"a": 1}])
    def test_as_int_refuses_everything_else(self, value):
        with pytest.raises(ValueError, match="expected an integer"):
            as_int(value)

    @pytest.mark.parametrize("value,read", [(0, 0.0), (2, 2.0), (-2.5, -2.5), (1e-3, 1e-3)])
    def test_as_float_reads_finite_numbers(self, value, read):
        assert as_float(value) == read and type(as_float(value)) is float

    @pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"), 10 ** 400,
                                       None, " 2.5 ", "1e-3", "nan", [1.0], {"a": 1.0}])
    def test_as_float_refuses_everything_else(self, value):
        with pytest.raises(ValueError, match="expected a finite number"):
            as_float(value)


class TestDumps:
    def test_compact_forms(self):
        data = {"b": 1, "a": [True, False, None, "s"], "f": 0.5}
        assert dumps(data) == '{"b":1,"a":[true,false,null,"s"],"f":0.5}'

    def test_key_order_is_preserved_not_sorted(self):
        assert dumps({"z": 1, "a": 2}) == '{"z":1,"a":2}'

    def test_tuples_serialize_as_arrays(self):
        assert dumps((1, (2, 3))) == "[1,[2,3]]"

    def test_bools_are_not_rendered_as_ints(self):
        assert dumps([True, 1]) == "[true,1]"

    def test_empty_containers(self):
        assert dumps({}) == "{}"
        assert dumps([]) == "[]"
        assert dumps({"a": {}, "b": []}) == '{"a":{},"b":[]}'

    def test_indent_mode(self):
        assert dumps({"a": [1]}, indent=2) == '{\n  "a": [\n    1\n  ]\n}'

    def test_unicode_passes_through(self):
        assert dumps({"k": "héllo"}) == '{"k":"héllo"}'

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            dumps({1: "x"})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})

    @given(st.recursive(
        st.none() | st.booleans() | st.integers(min_value=-10**12, max_value=10**12)
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=30),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=20,
    ))
    def test_output_is_valid_json_and_value_faithful(self, data):
        for indent in (None, 2):
            parsed = json.loads(dumps(data, indent=indent))
            assert self._normalize(parsed) == self._normalize(data)

    @given(st.text(ANY_CHAR), st.text(ANY_CHAR))
    def test_strings_are_escaped_as_the_stdlib_escapes_them(self, key, value):
        assert dumps(value) == stdlib_form(value)
        assert dumps({key: value}) == "{%s:%s}" % (stdlib_form(key), stdlib_form(value))

    @pytest.mark.parametrize("text", ["\ud800", "a\udfffb", "\udc80\ud800", "é\ud800😀"])
    def test_a_lone_surrogate_is_escaped_and_read_back_as_it_was(self, text):
        line = dumps({"policy_text": text})
        line.encode("utf-8")  # a surrogate left in would raise here
        assert json.loads(line) == {"policy_text": text}

    @staticmethod
    def _normalize(obj):
        if isinstance(obj, dict):
            return {k: TestDumps._normalize(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [TestDumps._normalize(v) for v in obj]
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            return obj
        return float(obj)  # 3 and 3.0 compare equal through JSON anyway


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        records = [{"i": 0, "x": 0.1}, {"i": 1, "x": math.pi}]
        assert write_jsonl(records, path) == 2
        assert list(read_jsonl(path)) == records

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n', encoding="utf-8")
        assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]

    def test_broken_line_reports_its_number(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: invalid JSON"):
            list(read_jsonl(path))

    def test_a_line_nested_too_deeply_reports_its_number(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n' + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: invalid JSON: document nests too deeply"):
            list(read_jsonl(path))


class TestLoads:
    def test_a_document_is_read_as_the_stdlib_reads_it(self):
        text = '{"a": [1, 2.5, "\\u00e9", null, true]}'
        assert loads(text, "doc.json") == json.loads(text)

    def test_a_broken_document_names_where_it_came_from(self):
        with pytest.raises(ValueError, match=r"^doc\.json: invalid JSON: Expecting value"):
            loads("[1,", "doc.json")

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a":', "}")])
    def test_a_document_nested_too_deeply_is_refused(self, opener, closer):
        # RFC 8259 section 9 lets a parser limit the nesting it accepts.
        with pytest.raises(ValueError, match=r"^doc\.json: invalid JSON: "
                                             r"document nests too deeply for the decoder$"):
            loads(opener * 100_000 + "0" + closer * 100_000, "doc.json")
