"""Compact line-oriented trace record codec.

Each per-rank trace file is a sequence of text lines.  The first line is a
header record; every following line is one runtime event.  The format is a
record kind followed by ``key=value`` fields::

    H v=1 rank=0 nranks=4 app=jacobi
    C seq=0 fn=Win_create win=0 base=4096 size=8192 disp_unit=8 comm=0 loc=app.py:12:main
    M seq=7 a=store addr=4160 size=8 var=grid loc=app.py:30:sweep

Values are encoded so that a field never contains whitespace: strings are
percent-escaped, integer lists are comma-joined.  The codec is intentionally
simple — profiling overhead is one of the experiments being reproduced
(Figure 8), so the write path must be cheap and allocation-light.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.util.errors import TraceFormatError

Scalar = Union[int, str]
Value = Union[int, str, Tuple[int, ...], List[int]]

#: the range of the int64 columns decoded integers end up in (packed
#: memory rows, call tables); readers reject values outside it
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


#: the characters a field value may not hold as they are
_SPECIAL = re.compile("[ =%\n\r|]").search


def escape(text: str) -> str:
    """Percent-escape the characters that would break the line format."""
    if _SPECIAL(text) is None:
        return text
    out = text.replace("%", "%25")
    out = out.replace(" ", "%20").replace("=", "%3D").replace("\n", "%0A")
    # readers take "\r" for a line break too (universal newlines)
    return out.replace("\r", "%0D").replace("|", "%7C")


def unescape(text: str) -> str:
    if "%" not in text:
        return text
    out = text.replace("%20", " ").replace("%3D", "=").replace("%0A", "\n")
    out = out.replace("%0D", "\r").replace("%7C", "|")
    return out.replace("%25", "%")


@dataclass
class Record:
    """One decoded trace line: a kind tag plus a field mapping."""

    kind: str
    fields: Dict[str, Value] = field(default_factory=dict)

    def get_int(self, key: str, default: int = None) -> int:  # type: ignore[assignment]
        value = self.fields.get(key, default)
        if value is None:
            raise TraceFormatError(f"record {self.kind!r} missing int field {key!r}")
        try:
            return int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise TraceFormatError(
                f"field {key!r} is not an int: {value!r}") from None

    def get_str(self, key: str, default: str = None) -> str:  # type: ignore[assignment]
        value = self.fields.get(key, default)
        if value is None:
            raise TraceFormatError(f"record {self.kind!r} missing str field {key!r}")
        return str(value)

    def get_ints(self, key: str) -> Tuple[int, ...]:
        value = self.fields.get(key)
        if value is None:
            raise TraceFormatError(f"record {self.kind!r} missing list field {key!r}")
        if isinstance(value, (tuple, list)):
            return tuple(int(v) for v in value)
        if isinstance(value, int):
            return (value,)
        raise TraceFormatError(f"field {key!r} is not an int list: {value!r}")


def encode_value(value: Value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        if not value:
            return "@"  # explicit empty-list marker
        return "@" + ",".join(str(int(v)) for v in value)
    return "$" + escape(str(value))


def decode_value(text: str) -> Value:
    if text.startswith("$"):
        return unescape(text[1:])
    if text.startswith("@"):
        body = text[1:]
        if not body:
            return ()
        return tuple(int(part) for part in body.split(","))
    try:
        return int(text)
    except ValueError as exc:
        raise TraceFormatError(f"unparseable value {text!r}") from exc


def encode_record(kind: str, fields: Dict[str, Value]) -> str:
    parts = [kind]
    for key, value in fields.items():
        if value is None:
            continue
        parts.append(f"{key}={encode_value(value)}")
    return " ".join(parts)


def decode_record(line: str) -> Record:
    line = line.rstrip("\n")
    if not line:
        raise TraceFormatError("empty trace line")
    parts = line.split(" ")
    kind = parts[0]
    fields: Dict[str, Value] = {}
    for part in parts[1:]:
        if not part:
            continue
        try:
            key, raw = part.split("=", 1)
        except ValueError as exc:
            raise TraceFormatError(f"malformed field {part!r} in line {line!r}") from exc
        fields[key] = decode_value(raw)
    return Record(kind, fields)
