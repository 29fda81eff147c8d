"""Line protocol serialization for the time-series sink.

One record per line::

    measurement[,tag_key=tag_value...] field_key=field_value[,...] timestamp_ns

Commas and spaces in the measurement, and commas, spaces and equals signs in
tag/field keys and tag values, are backslash-escaped. Text field values are
double-quoted with inner quotes and backslashes escaped. Reals render via
repr() with a redundant trailing ".0" stripped, so 618.0 becomes ``618``;
flags render as ``true``/``false``. Timestamps are integer nanoseconds.

The format has no escape for line breaks and no literal for NaN or infinity.
This module only formats: what may be rendered is the point rule set of
:mod:`telegw.model`, and :func:`to_line` applies it to every record, raising
its ``ModelError`` subtypes (``BadIdentifier`` for a line break or an empty
name). The pipeline applies the same rules at intake, then renders one point
at a time: :func:`tag_segment` escapes a device's tags once,
:func:`escape_measurement` a parameter's name once, and
:func:`render_point` formats the rest. :func:`to_line` is the general form
for any record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

# BadIdentifier is re-exported: it is what to_line raises for a bad name.
from .model import FLAG, REAL, BadIdentifier, Value, check_identifier, check_reading, check_tags


class NoFields(ValueError):
    """A record must carry at least one field."""


@dataclass(frozen=True, slots=True)
class LineRecord:
    measurement: str
    tags: Mapping[str, str]
    fields: Mapping[str, Value]
    timestamp: int


def escape_measurement(s: str) -> str:
    return s.replace("\\", "\\\\").replace(",", "\\,").replace(" ", "\\ ")


def _escape_key(s: str) -> str:
    return (
        s.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=").replace(" ", "\\ ")
    )


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


def tag_segment(tags: Mapping[str, str], device: str | None = None) -> str:
    """The escaped ``,key=value`` run that follows the measurement, for tags
    that passed :func:`telegw.model.check_tags`.

    With ``device`` the run opens with ``,device=<device>``; a ``device`` key
    in ``tags`` replaces that value in place. Other tags keep their own
    order.
    """
    merged = {"device": device} if device is not None else {}
    merged.update(tags)
    return "".join(f",{_escape_key(k)}={_escape_key(v)}" for k, v in merged.items())


def render_point(head: str, segment: str, value: Value, timestamp: int) -> str:
    """One line with the single field ``value``, after the point passed the
    model's rules; ``head`` is its escaped measurement. It only formats."""
    return f"{head}{segment} value={_render_field(value)} {int(timestamp)}"


def to_line(rec: LineRecord) -> str:
    """Serialize one record. Tags keep the record's own ordering.

    The reference form: each field is checked as a reading of the record's
    timestamp, and for a single ``value`` field the line equals
    :func:`render_point` over :func:`escape_measurement` and
    :func:`tag_segment`."""
    check_identifier(rec.measurement, "measurement")
    check_tags(rec.tags)
    if not rec.fields:
        raise NoFields(f"record {rec.measurement!r} has no fields")
    fields = []
    for k, v in rec.fields.items():
        check_reading(k, v, rec.timestamp)
        fields.append(f"{_escape_key(k)}={_render_field(v)}")
    segment = tag_segment(rec.tags)
    return f"{escape_measurement(rec.measurement)}{segment} {','.join(fields)} {int(rec.timestamp)}"
