"""A plain change filter kept as an oracle for :class:`telegw.model.ChangeFilter`.

It keys its state entity -> {parameter -> [kind, raw, last seen, last
emitted]} and applies the filter's documented rules directly: a first
observation emits, an older timestamp is a regression that touches no
state, a value unequal to the last one (``Value.__eq__``) or a due heartbeat
emits, and anything else is unchanged.
"""

from telegw.model import Value


class ReferenceFilter:
    def __init__(self, heartbeat: float):
        self.heartbeat_ns = int(heartbeat * 1_000_000_000)
        self.regressions = 0
        self.unchanged = 0
        self.series: dict[str, dict[str, list]] = {}

    def parameters(self, entity_id):
        return set(self.series.get(entity_id, ()))

    def __len__(self):
        return sum(map(len, self.series.values()))

    def observe(self, dp):
        params = self.series.setdefault(dp.entity_id, {})
        st = params.get(dp.parameter)
        if st is None:
            params[dp.parameter] = [dp.value.kind, dp.value.raw, dp.timestamp, dp.timestamp]
            return dp
        kind, raw, seen, emitted = st
        if dp.timestamp < seen:
            self.regressions += 1
            return None
        changed = dp.value != Value(kind, raw)
        due = self.heartbeat_ns > 0 and dp.timestamp - emitted >= self.heartbeat_ns
        st[:3] = dp.value.kind, dp.value.raw, dp.timestamp
        if changed or due:
            st[3] = dp.timestamp
            return dp
        self.unchanged += 1
        return None
