"""Core model: typed values, point validation, change-only filtering."""

import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_filter import ReferenceFilter
from telegw.model import (
    ChangeFilter,
    DataPoint,
    EmptyIdentifier,
    ModelError,
    NonFiniteValue,
    TextTooLong,
    Value,
    validate_datapoint,
)


def dp(value, ts=0, entity="dev-1", parameter="co2", tags=None):
    return DataPoint(entity, parameter, value, "ppm", ts, tags or {})


def distinct_adjacent(values):
    # Independent oracle: first element, then every element differing from
    # its predecessor.
    return [v for i, v in enumerate(values) if i == 0 or v != values[i - 1]]


class TestValue:
    def test_kinds_are_distinct_even_when_python_coerces(self):
        assert Value.real(1.0) != Value.flag(True)
        assert Value.real(0.0) != Value.flag(False)
        assert Value.real(1.0) != Value.text("1.0")

    def test_equality_is_exact(self):
        assert Value.real(618.0) == Value.real(618.0)
        assert Value.real(618.0) != Value.real(618.0000001)
        assert Value.flag(True) == Value.flag(True)
        assert Value.text("ok") != Value.text("OK")

    def test_values_are_hashable_and_frozen(self):
        s = {Value.real(1.0), Value.flag(True), Value.text("x")}
        assert len(s) == 3
        with pytest.raises(Exception):
            Value.real(1.0).raw = 2.0

    def test_str_forms(self):
        assert str(Value.flag(True)) == "true"
        assert str(Value.flag(False)) == "false"
        assert str(Value.real(2.5)) == "2.5"


class TestValidate:
    def test_accepts_ordinary_point(self):
        validate_datapoint(dp(Value.real(618.0), tags={"room": "A1"}))

    def test_nan_and_inf_rejected(self):
        with pytest.raises(NonFiniteValue):
            validate_datapoint(dp(Value.real(math.nan)))
        with pytest.raises(NonFiniteValue):
            validate_datapoint(dp(Value.real(math.inf)))
        with pytest.raises(NonFiniteValue):
            validate_datapoint(dp(Value.real(-math.inf)))

    def test_empty_identifiers_rejected(self):
        with pytest.raises(EmptyIdentifier):
            validate_datapoint(dp(Value.real(1.0), entity=""))
        with pytest.raises(EmptyIdentifier):
            validate_datapoint(dp(Value.real(1.0), parameter=""))

    def test_text_length_bound(self):
        validate_datapoint(dp(Value.text("x" * 1024)))
        with pytest.raises(TextTooLong):
            validate_datapoint(dp(Value.text("x" * 1025)))

    def test_flag_must_be_bool(self):
        with pytest.raises(ModelError):
            validate_datapoint(dp(Value("flag", 1)))

    def test_real_must_not_be_bool(self):
        with pytest.raises(ModelError):
            validate_datapoint(dp(Value("real", True)))

    def test_timestamp_must_fit_int64(self):
        validate_datapoint(dp(Value.real(1.0), ts=2**63 - 1))
        validate_datapoint(dp(Value.real(1.0), ts=-(2**63)))
        for ts in (2**63, -(2**63) - 1, 99999999999999999999999):
            with pytest.raises(ModelError):
                validate_datapoint(dp(Value.real(1.0), ts=ts))

    def test_non_string_tag_value_rejected(self):
        with pytest.raises(ModelError):
            validate_datapoint(dp(Value.real(1.0), tags={"room": 7}))


class TestChangeFilter:
    def test_first_observation_always_emits(self):
        f = ChangeFilter(heartbeat=0)
        assert f.observe(dp(Value.real(618.0), ts=1)) is not None

    def test_repeat_suppressed_change_emits(self):
        f = ChangeFilter(heartbeat=0)
        assert f.observe(dp(Value.real(618.0), ts=1)) is not None
        assert f.observe(dp(Value.real(618.0), ts=2)) is None
        assert f.observe(dp(Value.real(619.0), ts=3)) is not None
        assert f.observe(dp(Value.real(618.0), ts=4)) is not None

    def test_series_are_independent(self):
        f = ChangeFilter(heartbeat=0)
        f.observe(dp(Value.real(1.0), ts=1, parameter="co2"))
        assert f.observe(dp(Value.real(1.0), ts=2, parameter="rh")) is not None
        assert f.observe(dp(Value.real(1.0), ts=3, entity="dev-2")) is not None
        assert len(f) == 3

    def test_heartbeat_re_emits_constant_series(self):
        sec = 1_000_000_000
        f = ChangeFilter(heartbeat=10)
        t0 = 50 * sec
        assert f.observe(dp(Value.real(5.0), ts=t0)) is not None
        assert f.observe(dp(Value.real(5.0), ts=t0 + 5 * sec)) is None
        assert f.observe(dp(Value.real(5.0), ts=t0 + 11 * sec)) is not None
        # heartbeat window restarts from the re-emission
        assert f.observe(dp(Value.real(5.0), ts=t0 + 15 * sec)) is None
        assert f.observe(dp(Value.real(5.0), ts=t0 + 21 * sec)) is not None

    def test_heartbeat_boundary_is_inclusive(self):
        sec = 1_000_000_000
        f = ChangeFilter(heartbeat=10)
        f.observe(dp(Value.real(5.0), ts=0))
        assert f.observe(dp(Value.real(5.0), ts=10 * sec)) is not None

    def test_zero_heartbeat_never_re_emits(self):
        f = ChangeFilter(heartbeat=0)
        f.observe(dp(Value.real(5.0), ts=0))
        assert f.observe(dp(Value.real(5.0), ts=10**18)) is None

    def test_timestamp_regression_dropped_and_counted(self):
        f = ChangeFilter(heartbeat=0)
        f.observe(dp(Value.real(1.0), ts=100))
        assert f.observe(dp(Value.real(2.0), ts=99)) is None
        assert f.regressions == 1
        # state unchanged: 2.0 at a later time is still a change vs 1.0
        assert f.observe(dp(Value.real(2.0), ts=101)) is not None

    def test_equal_timestamp_is_not_a_regression(self):
        f = ChangeFilter(heartbeat=0)
        f.observe(dp(Value.real(1.0), ts=100))
        assert f.observe(dp(Value.real(2.0), ts=100)) is not None
        assert f.regressions == 0

    def test_negative_heartbeat_rejected(self):
        with pytest.raises(ValueError):
            ChangeFilter(heartbeat=-1)

    def test_flag_and_text_series(self):
        f = ChangeFilter(heartbeat=0)
        assert f.observe(dp(Value.flag(True), ts=1, parameter="motion")) is not None
        assert f.observe(dp(Value.flag(True), ts=2, parameter="motion")) is None
        assert f.observe(dp(Value.flag(False), ts=3, parameter="motion")) is not None
        assert f.observe(dp(Value.text("open"), ts=1, parameter="state")) is not None
        assert f.observe(dp(Value.text("open"), ts=2, parameter="state")) is None


# one strategy per kind so adjacent duplicates are likely
_vals = st.one_of(
    st.sampled_from([Value.real(x) for x in (0.0, 1.0, 2.5, 618.0, -3.0)]),
    st.sampled_from([Value.flag(True), Value.flag(False)]),
    st.sampled_from([Value.text("a"), Value.text("b")]),
)


@settings(max_examples=200)
@given(st.lists(_vals, max_size=200))
def test_dedup_matches_distinct_adjacent_oracle(values):
    f = ChangeFilter(heartbeat=0)
    emitted = []
    for i, v in enumerate(values):
        out = f.observe(dp(v, ts=i))
        if out is not None:
            emitted.append(out.value)
    assert emitted == distinct_adjacent(values)


@settings(max_examples=100)
@given(st.lists(st.tuples(_vals, st.integers(0, 50)), max_size=200))
def test_emissions_are_a_subsequence_and_state_is_bounded(seq):
    f = ChangeFilter(heartbeat=0)
    observed = []
    emitted = []
    for v, ts in seq:
        p = dp(v, ts=ts)
        observed.append(p)
        out = f.observe(p)
        if out is not None:
            emitted.append(out)
            assert out is p
    # subsequence check
    it = iter(observed)
    assert all(any(e is o for o in it) for e in emitted)
    assert len(f) <= 1
    # accepted + regressions account for every observation
    accepted = sum(1 for _ in observed) - f.regressions
    assert accepted >= len(emitted)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 100), max_size=100))
def test_regression_count_matches_reference(timestamps):
    f = ChangeFilter(heartbeat=0)
    last_seen = None
    expect = 0
    for i, ts in enumerate(timestamps):
        if last_seen is not None and ts < last_seen:
            expect += 1
        else:
            last_seen = ts
        f.observe(dp(Value.real(float(i)), ts=ts))
    assert f.regressions == expect


# One NaN object, reused: Value.__eq__ finds it equal to itself. A second
# NaN object is not equal to it.
_NAN = float("nan")
_any_values = st.builds(
    Value,
    st.sampled_from(["real", "flag", "text"]),
    st.sampled_from([0.0, -0.0, 1.0, 1, True, False, 0, 2.5, _NAN, float("nan"), "a", ""]),
)


@settings(max_examples=150)
@given(st.lists(_any_values, min_size=2, max_size=8))
def test_change_decision_is_value_equality(values):
    # each reading after the first is emitted exactly when it differs from
    # the one before, as Value.__eq__ decides: -0.0 == 0.0, a real never
    # equals a flag, 1.0 != True across kinds
    f = ChangeFilter(heartbeat=0)
    assert f.observe(dp(values[0], ts=0)) is not None
    for i in range(1, len(values)):
        emitted = f.observe(dp(values[i], ts=i)) is not None
        assert emitted == (values[i] != values[i - 1]), values[: i + 1]
    assert f.regressions == 0
    assert f.unchanged == sum(values[i] == values[i - 1] for i in range(1, len(values)))


_SEC = 1_000_000_000
_POOL = ("co2", "rh", "temp", "pm25", "voc")


@st.composite
def _streams(draw):
    """Messages from 1-6 entities. An entity's message carries the first few
    parameters of its own order: a prefix of one common order, then the
    rest of the pool in an order of its own. So entities share a parameter
    order for a while and part when one meets a parameter the others have
    not, or meets them in another order. Each message has one timestamp,
    which may go backwards."""
    n = draw(st.integers(1, 6))
    common = draw(st.permutations(_POOL))
    orders = []
    for _ in range(n):
        cut = draw(st.integers(0, len(_POOL)))
        orders.append(common[:cut] + draw(st.permutations(common[cut:])))
    messages = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                # often a whole message, so a parameter met once comes again
                st.one_of(st.just(len(_POOL)), st.integers(1, len(_POOL))),
                st.lists(_any_values, min_size=len(_POOL), max_size=len(_POOL)),
                st.sampled_from([0, 1, _SEC, 2 * _SEC, 3 * _SEC, -1, -_SEC, -3 * _SEC]),
            ),
            max_size=40,
        )
    )
    t = 50 * _SEC
    points = []
    for e, size, values, dt in messages:
        t += dt
        for parameter, value in zip(orders[e][:size], values):
            points.append(DataPoint(f"dev-{e}", parameter, value, "", t, {}))
    return points


@settings(max_examples=300)
@given(_streams(), st.sampled_from([0, 2]))
def test_filter_matches_reference_model(points, heartbeat):
    f, ref = ChangeFilter(heartbeat=heartbeat), ReferenceFilter(heartbeat=heartbeat)
    entities = sorted({p.entity_id for p in points})
    for i, p in enumerate(points):
        assert (f.observe(p) is p) == (ref.observe(p) is p), points[: i + 1]
        assert (f.regressions, f.unchanged) == (ref.regressions, ref.unchanged)
    assert len(f) == len(ref)
    for e in entities + ["dev-unseen"]:
        assert f.parameters(e) == ref.parameters(e)


def test_entities_part_after_sharing_a_parameter_order():
    # dev-0 and dev-1 meet co2, rh and temp in one order, then each meets a
    # parameter of its own, dev-0 twice over; then dev-2 takes dev-1's road
    f, ref = ChangeFilter(heartbeat=0), ReferenceFilter(heartbeat=0)
    steps = [("dev-0", "co2"), ("dev-1", "co2"), ("dev-0", "rh"), ("dev-1", "rh")]
    steps += [("dev-0", "temp"), ("dev-1", "temp"), ("dev-0", "pm25"), ("dev-1", "voc")]
    steps += [("dev-0", "voc")] + [("dev-2", p) for p in ("co2", "rh", "temp", "voc")]
    ts = 0
    for rounds in range(3):
        for e, parameter in steps:
            ts += 1
            p = dp(Value.real(float(rounds * ts % 5)), ts=ts, entity=e, parameter=parameter)
            assert (f.observe(p) is p) == (ref.observe(p) is p), (rounds, e, parameter)
    assert (f.regressions, f.unchanged, len(f)) == (ref.regressions, ref.unchanged, len(ref))
    assert f.parameters("dev-0") == {"co2", "rh", "temp", "pm25", "voc"}
    assert f.parameters("dev-1") == f.parameters("dev-2") == {"co2", "rh", "temp", "voc"}


def _state_bytes_per_series(points):
    # The points exist before measuring starts, so their values, names and
    # timestamps are not counted: only what the filter itself keeps is.
    f = ChangeFilter(heartbeat=0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for p in points:
            f.observe(p)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(f) == len(points)
    return kept / len(f)


def test_state_per_series_for_a_fleet_of_one_shape():
    # 1500 devices of one model, 24 parameters each in the same order: the
    # devices share one parameter layout, so a series costs its four cells
    # and little else. A dict and a state object per series cost 100 B.
    names = [f"field_{j:02d}" for j in range(24)]
    ts = 1_700_000_000_000_000_000
    points = [
        DataPoint(f"churn-{i:04d}", name, Value.real(i + j / 32), "", ts + i, {})
        for i in range(1500)
        for j, name in enumerate(names)
    ]
    per_series = _state_bytes_per_series(points)
    assert per_series <= 50, f"{per_series:.1f} bytes of state per series"


@pytest.mark.parametrize("twins", [1, 2], ids=["alone", "interleaved_twins"])
def test_state_per_series_for_controllers_with_names_of_their_own(twins):
    # 200 controllers with 77 object names per group of `twins`: no layout is
    # shared across groups. No layout a controller passed through while
    # growing may be kept, also when twins reporting point by point keep
    # moving from one shared layout to the next.
    ts = 1_700_000_000_000_000_000
    points = [
        DataPoint(f"ctl-{g:03d}-{k}", f"ctl-{g:03d}-obj-{j:02d}", Value.real(j), "", ts + g, {})
        for g in range(200 // twins)
        for j in range(77)
        for k in range(twins)
    ]
    per_series = _state_bytes_per_series(points)
    assert per_series <= 90, f"{per_series:.1f} bytes of state per series"
