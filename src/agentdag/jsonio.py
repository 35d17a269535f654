"""JSON in, and JSON out with a pinned float format: 17 significant digits, always.

The stock ``json`` module renders floats with ``repr`` (shortest round-trip),
which is stable but not what downstream consumers were promised. This writer
renders every float via ``format(x, ".17g")`` so numeric output is bit-faithful
and byte-deterministic across runs and platforms.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator


def format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite float {value!r} is not representable in JSON")
    return format(value, ".17g")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def as_int(value: Any) -> int:
    """An integer field of decoded JSON: an integer, or a float with no fraction.

    ``int`` alone would read ``true`` as 1, ``2.7`` as 2 and ``"12"`` as 12;
    all three are refused.
    """
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_float(value: Any) -> float:
    """A real-number field of decoded JSON; ``true``, strings, NaN, the
    infinities and integers too large for a float are refused."""
    try:
        number = float(value) if _is_number(value) else math.nan
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def as_str(value: Any, field: str) -> str:
    """A string field of decoded JSON; ``str`` would read ``null`` as "None"."""
    if not isinstance(value, str):
        raise TypeError(f"{field!r} must be a string, not {type(value).__name__}")
    return value


def loads(text: str, where: str | Path, line: int | None = None) -> Any:
    """The data of a JSON text from ``where`` (at ``line``, for JSONL), or a ValueError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        detail = str(exc)
    except RecursionError:  # RFC 8259 section 9 lets a parser limit nesting depth
        detail = "document nests too deeply for the decoder"
    raise ValueError(f"{where if line is None else f'{where}:{line}'}: invalid JSON: {detail}")


def dumps(data: Any, *, indent: int | None = None) -> str:
    """Serialize to JSON with 17-significant-digit floats.

    Supports the JSON-native types plus tuples (as arrays). Mapping keys must
    be strings; key order is preserved, never sorted. A lone surrogate, which
    has no UTF-8 form, is written as its ``\\uXXXX`` escape.
    """
    pieces: list[str] = []
    _write(data, pieces, indent, 0)
    text = "".join(pieces)
    # isascii() reads a flag of the string: ASCII text is never scanned, nor the pattern compiled.
    if text.isascii():
        return text
    return re.sub("[\ud800-\udfff]", lambda m: f"\\u{ord(m[0]):04x}", text)


def _write(obj: Any, out: list[str], indent: int | None, depth: int) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple)):
        _write_seq(obj, out, indent, depth)
    elif isinstance(obj, dict):
        _write_map(obj, out, indent, depth)
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON-serializable")


def _newline(out: list[str], indent: int | None, depth: int) -> None:
    if indent is not None:
        out.append("\n" + " " * (indent * depth))


def _write_seq(obj: list | tuple, out: list[str], indent: int | None, depth: int) -> None:
    if not obj:
        out.append("[]")
        return
    out.append("[")
    for i, item in enumerate(obj):
        if i:
            out.append(",")
        _newline(out, indent, depth + 1)
        _write(item, out, indent, depth + 1)
    _newline(out, indent, depth)
    out.append("]")


def _write_map(obj: dict, out: list[str], indent: int | None, depth: int) -> None:
    if not obj:
        out.append("{}")
        return
    out.append("{")
    for i, (key, value) in enumerate(obj.items()):
        if not isinstance(key, str):
            raise TypeError(f"mapping keys must be strings, got {type(key).__name__}")
        if i:
            out.append(",")
        _newline(out, indent, depth + 1)
        out.append(encode_basestring(key))
        out.append(": " if indent is not None else ":")
        _write(value, out, indent, depth + 1)
    _newline(out, indent, depth)
    out.append("}")


def write_jsonl(records: Iterable[Any], path: str | Path) -> int:
    """One compact JSON object per line; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(dumps(record))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[Any]:
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                yield loads(line, path, line_no)
