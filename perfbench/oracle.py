"""Expected gateway output, computed from the seeded generator streams.

The oracle never calls the gateway's own code: line rendering, change-only
filtering and alert evaluation are re-implemented here from their
documented behaviour, so a change that alters output is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase


def render_real(x: float) -> str:
    """Line-protocol form of a real: repr with a redundant '.0' stripped."""
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


def render_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return render_real(x)


def line(measurement: str, tags: list[tuple[str, str]], value, ts: int) -> str:
    tag_text = "".join(f",{k}={v}" for k, v in tags)
    return f"{measurement}{tag_text} value={render_value(value)} {ts}"


def parse_line(text: str) -> tuple[str, dict[str, str], str, int]:
    """(measurement, tags, value token, timestamp) of one unescaped line."""
    head, fields, ts = text.split(" ")
    measurement, *pairs = head.split(",")
    tags = dict(p.split("=", 1) for p in pairs)
    if not fields.startswith("value="):
        raise ValueError(f"unexpected field set in {text!r}")
    return measurement, tags, fields[len("value="):], int(ts)


_MISSING = object()


class ChangeOnly:
    """Remembers the last value per series; True when a point must be stored."""

    def __init__(self):
        self.last: dict = {}

    def __call__(self, key, value) -> bool:
        prev = self.last.get(key, _MISSING)
        self.last[key] = value
        return prev is _MISSING or prev != value


# -- alerts --------------------------------------------------------------------


@dataclass
class _RuleState:
    phase: str = "quiet"
    pending_since: int = 0
    last_fired: int | None = None


class AlertReplay:
    """Brute-force replay of threshold rules with for-duration, cooldown and
    a clear margin scaled from the threshold, over points in arrival order."""

    def __init__(self, rules: list[dict]):
        self.rules = rules
        self.states: dict[tuple[str, str], _RuleState] = {}
        self.events: list[tuple] = []

    def _holds(self, rule, v) -> bool:
        return v > rule["threshold"] if rule["predicate"] == "gt" else v < rule["threshold"]

    def _cleared(self, rule, v) -> bool:
        margin = rule.get("clear_margin", 0.0)
        if rule["predicate"] == "gt":
            return v < rule["threshold"] * (1.0 - margin)
        return v > rule["threshold"] * (1.0 + margin)

    def observe(self, entity: str, parameter: str, tags: dict, v: float, ts: int) -> None:
        for rule in self.rules:
            if rule["parameter"] != parameter:
                continue
            if not fnmatchcase(entity, rule.get("entity", "*")):
                continue
            if any(tags.get(k) != want for k, want in rule.get("tags", {}).items()):
                continue
            st = self.states.setdefault((rule["id"], entity), _RuleState())
            kind = self._step(rule, st, v, ts)
            if kind is not None:
                self.events.append((kind, rule["id"], entity, parameter, str(v), ts))

    def _step(self, rule, st: _RuleState, v: float, ts: int) -> str | None:
        holds = self._holds(rule, v)
        if st.phase == "active":
            if not holds and self._cleared(rule, v):
                st.phase = "quiet"
                return "recovered"
            return None
        if not holds:
            st.phase = "quiet"
            return None
        # durations compare in seconds of point time, as the rules state them
        if st.last_fired is not None and (ts - st.last_fired) / 1e9 < rule.get("cooldown_s", 0):
            st.phase = "quiet"
            return None
        for_s = rule.get("for_duration_s", 0)
        if st.phase == "quiet" and for_s > 0:
            st.phase = "pending"
            st.pending_since = ts
            return None
        if st.phase == "pending" and (ts - st.pending_since) / 1e9 < for_s:
            return None
        st.phase = "active"
        st.last_fired = ts
        return "fired"


def parse_alert_log(lines) -> list[tuple]:
    """Events from the log notifier's lines: 'telegw.alerts alert <kind>: rule=...'."""
    events = []
    for text in lines:
        if not text.startswith("telegw.alerts alert "):
            continue
        head, _, rest = text[len("telegw.alerts alert "):].partition(": ")
        kv = dict(item.split("=", 1) for item in rest.split(" "))
        events.append((head, kv["rule"], kv["entity"], kv["parameter"], kv["value"], int(kv["ts"])))
    return events


# -- whole-run expectations ------------------------------------------------------


def mqtt_expected(stream, dues, model_tag: str, rules: list[dict]):
    """Yield the expected sink lines for messages sent at ``dues`` (in order);
    the alert events accumulate on the returned replay as lines are drawn."""
    params = [p.name for p in stream.wl.params]
    changed = ChangeOnly()
    replay = AlertReplay(rules)
    tags = {"model": model_tag}

    def lines():
        for due in dues:
            n, values = stream.next_values()
            entity = stream.devices[n]
            tag_list = [("device", entity), ("model", model_tag)]
            for name, raw in zip(params, values):
                v = float(raw)
                if rules:
                    replay.observe(entity, name, tags, v, due)
                if changed((entity, name), v):
                    yield line(name, tag_list, v, due)

    return lines(), replay


def compare_lines(actual, expected) -> tuple[int, int, str | None]:
    """(matched, missing_or_wrong, first difference) of two line iterables."""
    matched = bad = 0
    first = None
    exp_iter = iter(expected)
    for got in actual:
        want = next(exp_iter, None)
        if got == want:
            matched += 1
            continue
        bad += 1
        if first is None:
            first = f"line {matched + bad}: got {got!r}, want {want!r}"
    for want in exp_iter:
        bad += 1
        if first is None:
            first = f"line {matched + bad}: missing {want!r}"
    return matched, bad, first


def dedup(values) -> list:
    out = []
    for v in values:
        if not out or out[-1] != v:
            out.append(v)
    return out
