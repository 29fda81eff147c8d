"""Line protocol serialization for the time-series sink.

One record per line::

    measurement[,tag_key=tag_value...] field_key=field_value[,...] timestamp_ns

Commas and spaces in the measurement, and commas, spaces and equals signs in
tag/field keys and tag values, are backslash-escaped. Text field values are
double-quoted with inner quotes and backslashes escaped. Reals render via
repr() with a redundant trailing ".0" stripped, so 618.0 becomes ``618``;
flags render as ``true``/``false``. Timestamps are integer nanoseconds.

The format has no escape for line breaks and no literal for NaN or infinity,
so records holding them are rejected, never rendered.

The pipeline renders one point at a time: :func:`tag_segment` escapes and
checks a device's tags once, :func:`check_point` checks the rest of a point
before it is accepted, and :func:`render_point` then only formats the value
and the timestamp. :func:`to_line` is the general form for any record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .model import FLAG, REAL, TEXT, NonFiniteValue, TagMap, Value


class NoFields(ValueError):
    """A record must carry at least one field."""


class BadIdentifier(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class LineRecord:
    measurement: str
    tags: Mapping[str, str]
    fields: Mapping[str, Value]
    timestamp: int


def _escape_measurement(s: str) -> str:
    return s.replace("\\", "\\\\").replace(",", "\\,").replace(" ", "\\ ")


def _escape_key(s: str) -> str:
    return (
        s.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=").replace(" ", "\\ ")
    )


def _check_breaks(s: str, what: str) -> None:
    if "\n" in s or "\r" in s:
        raise BadIdentifier(f"{what} cannot contain line breaks")


def _render_real(x: float) -> str:
    r = repr(float(x))
    if r.endswith(".0"):
        return r[:-2]
    return r


def _render_field(v: Value) -> str:
    if v.kind == REAL:
        return _render_real(v.raw)
    if v.kind == FLAG:
        return "true" if v.raw else "false"
    return '"' + v.raw.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tag_segment(tags: TagMap, device: str | None = None) -> str:
    """The escaped ``,key=value`` run that follows the measurement.

    With ``device`` the run opens with ``,device=<device>``; a ``device`` key
    in ``tags`` replaces that value in place. Other tags keep their own
    order. Raises BadIdentifier for an empty or non-string key, a non-string
    value, or a line break.
    """
    merged = {"device": device} if device is not None else {}
    merged.update(tags)
    parts = []
    for k, v in merged.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise BadIdentifier("tag keys and values must be strings")
        if not k:
            raise BadIdentifier("tag keys must be non-empty")
        parts.append(f",{_escape_key(k)}={_escape_key(v)}")
    segment = "".join(parts)
    _check_breaks(segment, "tags")
    return segment


def _check_measurement(measurement: str) -> None:
    if not measurement:
        raise BadIdentifier("measurement must be non-empty")
    _check_breaks(measurement, "measurement")


def _check_value(measurement: str, value: Value) -> None:
    if value.kind == REAL:
        if not math.isfinite(value.raw):
            raise NonFiniteValue(f"{measurement}: value is {value.raw!r}")
    elif value.kind == TEXT:
        _check_breaks(value.raw, "text values")
    elif value.kind != FLAG:
        raise ValueError(f"unknown value kind {value.kind!r}")


def check_point(measurement: str, value: Value) -> None:
    """Raise unless :func:`render_point` can render this measurement and value:
    NonFiniteValue for NaN or infinity, BadIdentifier or ValueError otherwise."""
    _check_measurement(measurement)
    _check_value(measurement, value)


def render_point(measurement: str, segment: str, value: Value, timestamp: int) -> str:
    """One line with the single field ``value``, after ``tag_segment`` and
    ``check_point`` accepted its parts; it only formats."""
    return f"{_escape_measurement(measurement)}{segment} value={_render_field(value)} {int(timestamp)}"


def to_line(rec: LineRecord) -> str:
    """Serialize one record. Tags keep the record's own ordering.

    The reference form: for a single ``value`` field it equals
    :func:`render_point` over :func:`tag_segment`."""
    _check_measurement(rec.measurement)
    if not rec.fields:
        raise NoFields(f"record {rec.measurement!r} has no fields")
    fields = []
    for k, v in rec.fields.items():
        if not k:
            raise BadIdentifier("field keys must be non-empty")
        _check_breaks(k, "field keys")
        _check_value(rec.measurement, v)
        fields.append(f"{_escape_key(k)}={_render_field(v)}")
    segment = tag_segment(rec.tags)
    return f"{_escape_measurement(rec.measurement)}{segment} {','.join(fields)} {int(rec.timestamp)}"


def to_lines(records) -> str:
    """Serialize a batch, one record per line, trailing newline included."""
    return "".join(to_line(r) + "\n" for r in records)
