"""Domain types shared by every protocol module and the pipeline.

A reading is a :class:`DataPoint` carrying a typed :class:`Value`. Both are
immutable tuples with named fields, cheap to build and free to cross
threads; all mutation lives in per-series state owned by
:class:`ChangeFilter`.

One set of rules says what a valid point is; :func:`validate_datapoint`, the
pipeline's intake and :func:`telegw.lineproto.to_line` all apply it:

- the entity and the parameter are non-empty strings;
- no identifier, tag value or text value holds a line break;
- the value's kind is one of :data:`KINDS`;
- a real is a finite number, not a bool; a flag is a bool;
- a text is a string of at most :data:`MAX_TEXT_LEN` characters;
- tag keys and values are strings, and tag keys are non-empty;
- the timestamp is an int that fits line protocol's int64 nanoseconds.

Each rule raises one :class:`ModelError` subtype: ``NonFiniteValue``,
``EmptyIdentifier``, ``BadIdentifier`` (line breaks), ``TextTooLong``, or
``ModelError`` itself for a wrong type or kind. The checks are split by how
often the pipeline needs them: :func:`check_entity` once per entity and its
tags, :func:`check_identifier` once per parameter name, and
:func:`check_sample` once per point; :func:`check_reading` is the last two.
"""

from __future__ import annotations

from math import isfinite
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

MAX_TEXT_LEN = 1024
# line protocol timestamps are int64; a sink answers 400 to the whole batch otherwise
TIMESTAMP_MIN, TIMESTAMP_MAX = -(2**63), 2**63 - 1

REAL = "real"
FLAG = "flag"
TEXT = "text"
KINDS = (REAL, FLAG, TEXT)
_new = tuple.__new__  # Value.real and the like skip Value()'s argument handling


class ModelError(ValueError):
    """A value or point violates a model invariant."""


class NonFiniteValue(ModelError):
    pass


class BadIdentifier(ModelError):
    """A name or text that line protocol cannot carry."""


class EmptyIdentifier(BadIdentifier):
    pass


class TextTooLong(ModelError):
    pass


class Value(NamedTuple):
    """A typed reading: a finite real, a boolean flag, or bounded text.

    Equality is exact. Two reals are equal only when ``==`` says so bit for
    bit; there is no epsilon. Values of different kinds never compare equal
    even when Python would coerce the raw payloads (1.0 vs True).
    """

    kind: str
    raw: Union[float, bool, str]

    @staticmethod
    def real(x: float) -> "Value":
        return _new(Value, (REAL, float(x)))

    @staticmethod
    def flag(x: bool) -> "Value":
        return _new(Value, (FLAG, bool(x)))

    @staticmethod
    def text(x: str) -> "Value":
        return _new(Value, (TEXT, str(x)))

    def __str__(self) -> str:
        if self.kind == FLAG:
            return "true" if self.raw else "false"
        return str(self.raw)


NO_TAGS: Mapping[str, str] = MappingProxyType({})


class DataPoint(NamedTuple):
    """One observation of one parameter of one entity at one instant.

    ``timestamp`` is UTC nanoseconds. ``tags`` is an ordered mapping of
    static dimensions such as room or device model, by default an empty
    read-only one. A device's points carry the very mapping its config or
    binding holds. A mapping handed to the pipeline is not mutated
    afterwards: the pipeline checks and renders an entity's tags again only
    for a point whose mapping is another object (``is not``) that compares
    unequal, so a mapping changed in place would keep its old rendering.
    """

    entity_id: str
    parameter: str
    value: Value
    unit: str = ""
    timestamp: int = 0
    tags: Mapping[str, str] = NO_TAGS


def check_breaks(s: str, what: str) -> None:
    """No line breaks, which line protocol cannot carry; may be empty."""
    if "\n" in s or "\r" in s:
        raise BadIdentifier(f"{what} cannot contain line breaks")


def check_identifier(s: str, what: str) -> None:
    """A non-empty string without line breaks."""
    if not isinstance(s, str):
        raise ModelError(f"{what} must be a string")
    if not s:
        raise EmptyIdentifier(f"{what} must be non-empty")
    check_breaks(s, what)


def check_tags(tags: Mapping[str, str]) -> None:
    for k, v in tags.items():
        check_identifier(k, "tag key")
        if not isinstance(v, str):
            raise ModelError(f"tag {k!r} has non-string value")
        check_breaks(v, f"tag {k!r}")


def check_sample(value: Value, timestamp: int, what: str) -> None:
    """The rules on a point's value and timestamp; ``what`` names it in errors."""
    if value.__class__ is not Value and not isinstance(value, Value):
        raise ModelError(f"{what}: value must be a Value")
    kind, raw = value.kind, value.raw
    if kind == REAL:
        # Value.real always holds a float; only other payloads need the type test
        if raw.__class__ is not float and (
            isinstance(raw, bool) or not isinstance(raw, (int, float))
        ):
            raise ModelError(f"{what}: real value must be numeric")
        try:
            finite = isfinite(raw)
        except OverflowError:  # an int beyond float range
            finite = False
        if not finite:
            raise NonFiniteValue(f"{what}: value is {raw!r}")
    elif kind == FLAG:
        if not isinstance(raw, bool):
            raise ModelError(f"{what}: flag value must be bool")
    elif kind == TEXT:
        if not isinstance(raw, str):
            raise ModelError(f"{what}: text value must be str")
        if len(raw) > MAX_TEXT_LEN:
            raise TextTooLong(f"{what}: text length {len(raw)} exceeds {MAX_TEXT_LEN}")
        check_breaks(raw, f"{what}: text value")
    else:
        raise ModelError(f"{what}: value kind must be one of {KINDS}, got {kind!r}")
    if timestamp.__class__ is not int and not isinstance(timestamp, int):
        raise ModelError(f"{what}: timestamp must be int nanoseconds")
    if not TIMESTAMP_MIN <= timestamp <= TIMESTAMP_MAX:
        raise ModelError(f"{what}: timestamp {timestamp} is outside int64")


def check_entity(entity_id: str, tags: Mapping[str, str]) -> None:
    """The rules on what a device's points share: its id and its tags."""
    check_identifier(entity_id, "entity_id")
    check_tags(tags)


def check_reading(parameter: str, value: Value, timestamp: int) -> None:
    """The rules on what each point carries of its own."""
    check_identifier(parameter, "parameter")
    check_sample(value, timestamp, parameter)


def validate_datapoint(dp: DataPoint) -> None:
    """Raise the ModelError subtype of the first rule ``dp`` breaks (see the
    module docstring), or return None."""
    check_entity(dp.entity_id, dp.tags)
    check_reading(dp.parameter, dp.value, dp.timestamp)


# The layout of an entity no series has been seen for yet. It is never
# registered, so it is never grown in place.
_NO_SERIES: dict[str, int] = {}


class ChangeFilter:
    """Change-only emission with an optional heartbeat re-emission.

    Per (entity_id, parameter) series the filter remembers the last value,
    the last observation time, and the last emission time. An observation is
    emitted when it is the first for its series, when its value differs from
    the remembered one (exact equality, see :class:`Value`), or when at least
    ``heartbeat`` seconds of point time elapsed since the last emission.

    The state is one row per entity: a flat list whose cell 0 is the
    entity's *layout*, followed by four cells per series (its last value's
    kind and raw payload, its last-seen time and its last-emitted time). A
    layout is a dict from parameter to the offset of that series' first
    cell, and entities whose parameters arrived in the same order share one,
    as CPython's key-sharing dicts do for instance attributes; a fleet of
    identical devices keeps one parameter dict, not one per device, and no
    object per series. Layouts are registered by their parameter tuple with
    a count of the rows using them. A row that sees a new parameter moves to
    the layout registered for its new order if there is one; otherwise it
    grows its layout in place when no other row uses it, or a copy when one
    does. A layout no row uses is unregistered, so only layouts in use are
    kept.

    The change decision is the one ``Value.__eq__`` makes: kinds and
    payloads compared in turn, each equal when it is the same object or
    ``==`` says so (``-0.0`` equals ``0.0``, a real never equals a flag, a
    NaN object equals itself). The kind has a cell of its own, since a
    :class:`Value`'s kind need not match its payload's type.

    Observations whose timestamp goes backwards relative to the series are
    dropped and counted in :attr:`regressions`; they never touch state.
    Observations suppressed because nothing changed are counted in
    :attr:`unchanged`, so every observation is either emitted or counted in
    one of the two.

    Not thread safe: the pipeline calls it only while holding its intake
    lock.
    """

    def __init__(self, heartbeat: float = 3600.0):
        if heartbeat < 0:
            raise ValueError("heartbeat must be >= 0 (0 disables re-emission)")
        self.heartbeat_ns = int(heartbeat * 1_000_000_000)
        self.regressions = 0
        self.unchanged = 0
        self._rows: dict[str, list] = {}
        # parameter tuple -> [layout, number of rows using it]
        self._layouts: dict[tuple[str, ...], list] = {}

    def __len__(self) -> int:
        return sum(len(row[0]) for row in self._rows.values())

    def parameters(self, entity_id: str) -> set[str]:
        """The parameters of ``entity_id`` that have a series, as a new set."""
        row = self._rows.get(entity_id)
        return set(row[0]) if row else set()

    def observe(self, dp: DataPoint) -> Optional[DataPoint]:
        """Return dp if it should be persisted, else None."""
        row = self._rows.get(dp.entity_id)
        if row is None:
            row = self._rows[dp.entity_id] = [_NO_SERIES]
        i = row[0].get(dp.parameter)
        value = dp.value
        ts = dp.timestamp
        if i is None:
            self._grow(row, dp.parameter)
            row += (value.kind, value.raw, ts, ts)
            return dp
        if ts < row[i + 2]:
            self.regressions += 1
            return None
        kind, raw = value.kind, value.raw
        last_kind, last_raw = row[i], row[i + 1]
        row[i] = kind
        row[i + 1] = raw
        row[i + 2] = ts
        if (kind is last_kind or kind == last_kind) and (raw is last_raw or raw == last_raw):
            heartbeat = self.heartbeat_ns
            if not heartbeat or ts - row[i + 3] < heartbeat:
                self.unchanged += 1
                return None
        row[i + 3] = ts
        return dp

    def _grow(self, row: list, parameter: str) -> None:
        """Give ``row`` a layout that adds ``parameter`` at the row's end."""
        layouts = self._layouts
        layout = row[0]
        old = tuple(layout)
        new = old + (parameter,)
        mine = layouts.get(old)  # None for a row with no series yet
        found = layouts.get(new)
        if found is None:
            if mine is not None and mine[1] == 1:
                layout[parameter] = len(row)
                layouts[new] = layouts.pop(old)
                return
            found = layouts[new] = [{**layout, parameter: len(row)}, 0]
        found[1] += 1
        row[0] = found[0]
        if mine is not None:
            mine[1] -= 1
            if not mine[1]:
                del layouts[old]
