"""BACnet encoding against frozen wire bytes, plus client/simulator behavior."""

import random
import struct
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telegw.bacnet import encoding
from telegw.bacnet.client import (
    BacnetClient,
    BacnetEndpoint,
    DiscoveredObject,
    DiscoveryFailed,
    EmptyQuery,
    Timeout,
    UnknownName,
)
from telegw.bacnet.encoding import (
    Aborted,
    Enumerated,
    MalformedTag,
    ObjectRef,
    PropertyQuery,
    PropResult,
    Rejected,
    ServiceError,
    _app_value,
    _total,
    app_real,
    decode_rpm_ack,
    decode_rpm_request,
    encode_rpm_ack,
    encode_rpm_request,
    object_type_id,
    property_id,
    rpm_ack_items,
    unit_token,
    unwrap,
    wrap,
)
from telegw.model import Value
from telegw.sim.bacnet_server import BacnetSim, SimObject

import reference_bacnet
from bacnet_fixtures import (
    EmptyListEntrySim,
    rector_controller_objects,
    small_inventory,
    wide_inventory,
)

AV1 = ObjectRef.of("analog-value", 1)
PV = property_id("present-value")
# the first application value of some octets, decoded as the ack walker decodes one
read_app_value = _total(lambda data: _app_value(data, 0)[0])


def endpoint(sim, **kw):
    kw.setdefault("timeout_ms", 500)
    kw.setdefault("retries", 2)
    return BacnetEndpoint("127.0.0.1", sim.port, device_instance=sim.device_instance, **kw)


class TestFrozenWireBytes:
    def test_single_query_request_datagram(self):
        apdu = encode_rpm_request(1, [PropertyQuery(AV1, PV)])
        assert wrap(apdu, True).hex() == "810a001301040005010e0c008000011e09551f"

    def test_real_valued_ack_datagram(self):
        ack = encode_rpm_ack(1, [PropResult(AV1, PV, None, values=(43.0,))])
        assert wrap(ack, False).hex() == "810a0019010030010e0c008000011e29554e44422c00004f1f"

    def test_real_tag_bytes(self):
        assert app_real(43.0) == bytes([0x44, 0x42, 0x2C, 0x00, 0x00])
        assert app_real(3.1415927410125732) == bytes([0x44, 0x40, 0x49, 0x0F, 0xDB])

    def test_decode_frozen_ack(self):
        datagram = bytes.fromhex("810a0019010030010e0c008000011e29554e44422c00004f1f")
        results = decode_rpm_ack(unwrap(datagram), 1)
        assert results == [PropResult(AV1, PV, None, values=(43.0,))]

    def test_object_id_packing(self):
        assert encoding.objectid_content(AV1) == struct.pack(">I", (2 << 22) | 1)
        assert encoding.objectid_content(ObjectRef.of("device", 1234)) == struct.pack(
            ">I", (8 << 22) | 1234
        )


class TestTagPrimitives:
    def test_unsigned_minimal_octets(self):
        assert encoding.app_unsigned(0) == bytes([0x21, 0x00])
        assert encoding.app_unsigned(255) == bytes([0x21, 0xFF])
        assert encoding.app_unsigned(256) == bytes([0x22, 0x01, 0x00])
        assert encoding.app_unsigned(70000) == bytes([0x23, 0x01, 0x11, 0x70])

    def test_boolean_value_in_tag(self):
        assert encoding.app_boolean(True) == b"\x11"
        assert encoding.app_boolean(False) == b"\x10"

    def test_charstring_utf8(self):
        b = encoding.app_charstring("ok")
        assert b == bytes([0x73, 0x00]) + b"ok"
        assert read_app_value(b) == "ok"

    def test_charstring_extended_length(self):
        name = "a-rather-long-object-name"
        b = encoding.app_charstring(name)
        assert b[0] == 0x75 and b[1] == len(name) + 1
        assert read_app_value(b) == name

    def test_enumerated_distinct_from_unsigned(self):
        v = read_app_value(encoding.app_enumerated(62))
        assert isinstance(v, Enumerated) and v == 62
        v = read_app_value(encoding.app_unsigned(62))
        assert not isinstance(v, Enumerated) and v == 62

    def test_unit_token_mapping(self):
        assert unit_token(62) == "degrees-celsius"
        assert unit_token(9999) == "unit-9999"

    def test_npdu_with_routing_fields_skipped(self):
        apdu = encode_rpm_ack(3, [PropResult(AV1, PV, None, values=(1.0,))])
        npdu = bytes([0x01, 0x2C]) + struct.pack(">HB2s", 10, 2, b"ab") + struct.pack(
            ">HB1s", 20, 1, b"x"
        ) + bytes([0xFF])
        datagram = struct.pack(">BBH", 0x81, 0x0A, 4 + len(npdu) + len(apdu)) + npdu + apdu
        assert decode_rpm_ack(unwrap(datagram), 3)[0].values == (1.0,)


_objs = st.builds(
    ObjectRef,
    type_id=st.sampled_from([0, 1, 2, 3, 4, 5, 8]),
    instance=st.integers(0, 0x3FFFFF),
)
_queries = st.lists(
    st.builds(
        PropertyQuery,
        obj=_objs,
        prop=st.integers(0, 4194303),
        array_index=st.one_of(st.none(), st.integers(0, 65535)),
    ),
    min_size=1,
    max_size=20,
)


@settings(max_examples=200)
@given(invoke=st.integers(0, 255), queries=_queries)
def test_rpm_request_roundtrip(invoke, queries):
    got_invoke, got = decode_rpm_request(encode_rpm_request(invoke, queries))
    assert got_invoke == invoke
    assert got == queries


def _f32(x: float) -> float:
    return struct.unpack(">f", struct.pack(">f", x))[0]


_app_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**16).map(Enumerated),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(_f32),
    st.text(max_size=30),
    _objs,
)
_results = st.lists(
    st.one_of(
        st.builds(
            PropResult,
            obj=_objs,
            prop=st.integers(0, 4194303),
            array_index=st.one_of(st.none(), st.integers(0, 65535)),
            values=st.tuples() | st.tuples(_app_values) | st.tuples(_app_values, _app_values),
        ),
        st.builds(
            PropResult,
            obj=_objs,
            prop=st.integers(0, 4194303),
            array_index=st.one_of(st.none(), st.integers(0, 65535)),
            error=st.tuples(
                st.sampled_from(sorted(encoding.ERROR_CLASSES)),
                st.sampled_from(sorted(encoding.ERROR_CODES)),
            ),
        ),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200)
@given(invoke=st.integers(0, 255), results=_results)
def test_rpm_ack_roundtrip(invoke, results):
    assert decode_rpm_ack(encode_rpm_ack(invoke, results), invoke) == results


def test_decoder_is_total_under_fuzz():
    rng = random.Random(0xBAC0)
    valid = wrap(
        encode_rpm_ack(
            7,
            [
                PropResult(AV1, PV, None, values=(43.0,)),
                PropResult(AV1, 77, None, values=("zone",)),
                PropResult(ObjectRef(3, 9), PV, 1, error=("object", "unknown-object")),
            ],
        ),
        False,
    )
    allowed = (MalformedTag, ServiceError, Rejected, Aborted)
    for i in range(3000):
        if i % 2 == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        else:
            mutated = bytearray(valid)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            blob = bytes(mutated)
        try:
            decode_rpm_ack(unwrap(blob))
        except allowed:
            pass


class TestClientAgainstSim:
    def test_single_present_value(self):
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                res = c.read_properties([PropertyQuery(AV1, PV)])
                assert res == [PropResult(AV1, PV, None, values=(43.0,))]

    def test_empty_query_rejected(self):
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                with pytest.raises(EmptyQuery):
                    c.read_properties([])

    def test_unknown_object_is_result_level_error(self):
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                res = c.read_properties(
                    [PropertyQuery(ObjectRef.of("analog-value", 999), PV)]
                )
                assert res[0].error == ("object", "unknown-object")

    def test_77_point_controller_read(self):
        objs = rector_controller_objects()
        with BacnetSim(2001, objs) as sim:
            with BacnetClient(endpoint(sim)) as c:
                queries = [PropertyQuery(o.ref, PV) for o in objs]
                res = c.read_properties(queries)
                assert len(res) == 77
                assert all(r.error is None for r in res)
                assert len(sim.request_log) == 1  # one datagram each way

    def test_chunked_equals_unchunked(self):
        objs = rector_controller_objects()
        queries = [PropertyQuery(o.ref, PV) for o in objs]
        with BacnetSim(2001, objs) as big:
            with BacnetClient(endpoint(big)) as c:
                whole = c.read_properties(queries)
        with BacnetSim(2001, objs, max_response=480) as small:
            with BacnetClient(endpoint(small)) as c:
                parts = c.read_properties(queries)
                assert len(small.request_log) > 1  # forced into several exchanges
        assert parts == whole

    def test_retries_absorb_lost_datagrams(self):
        with BacnetSim(100, small_inventory()) as sim:
            sim.drop_requests(2)
            with BacnetClient(endpoint(sim)) as c:
                res = c.read_properties([PropertyQuery(AV1, PV)])
                assert res[0].values == (43.0,)

    def test_timeout_when_device_silent(self):
        with BacnetSim(100, small_inventory()) as sim:
            sim.drop_requests(10**9)
            with BacnetClient(endpoint(sim, timeout_ms=50, retries=1)) as c:
                with pytest.raises(Timeout):
                    c.read_properties([PropertyQuery(AV1, PV)])


class TestDiscovery:
    def test_three_objects_with_names_and_units(self):
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                found = c.discover_objects()
        assert found == [
            DiscoveredObject(ObjectRef.of("analog-input", 4), "co2-level", "parts-per-million"),
            DiscoveredObject(ObjectRef.of("analog-value", 1), "zone-temp", "degrees-celsius"),
            DiscoveredObject(ObjectRef.of("binary-input", 2), "occupancy", None),
        ]

    def test_large_inventory_walked_by_index(self):
        objs = wide_inventory(120)
        with BacnetSim(3000, objs, max_response=480) as sim:
            with BacnetClient(endpoint(sim)) as c:
                found = c.discover_objects()
                # whole-list attempt aborted, then count read via index 0
                assert any(n == 1 for n in sim.request_log)
        assert len(found) == 120
        assert [d.name for d in found[:3]] == ["pt-001", "pt-002", "pt-003"]

    @staticmethod
    def inventory(objs):
        return [DiscoveredObject(o.ref, o.name, o.units) for o in sorted(objs, key=lambda o: o.ref)]

    def test_77_object_controller_in_three_requests(self):
        objs = rector_controller_objects()
        with BacnetSim(2001, objs) as sim:
            with BacnetClient(endpoint(sim)) as c:
                assert c.discover_objects() == self.inventory(objs)
            assert len(sim.request_log) <= 3  # the object list, then names and units

    @pytest.mark.parametrize("max_response, pad", [(400, 0), (encoding.MAX_APDU, 60)])
    def test_answers_larger_than_guessed_are_halved(self, max_response, pad):
        """A device with a small buffer, or names far longer than the first
        guess, aborts the sized chunks; halving them finds every object."""
        objs = rector_controller_objects()
        for o in objs:
            o.name += "x" * pad
        with BacnetSim(2001, objs, max_response=max_response) as sim:
            with BacnetClient(endpoint(sim)) as c:
                assert c.discover_objects() == self.inventory(objs)
            assert len(sim.request_log) > 3

    def test_empty_entry_in_walked_object_list_fails_discovery(self):
        """An indexed object-list entry answered with no value is a failed
        discovery that names the index, not an IndexError."""
        with EmptyListEntrySim(3000, wide_inventory(120), max_response=480) as sim:
            with BacnetClient(endpoint(sim)) as c:
                with pytest.raises(DiscoveryFailed, match=r"object-list\[2\]"):
                    c.discover_objects()

    def test_discovery_excludes_device_object(self):
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                assert all(d.ref.type_name != "device" for d in c.discover_objects())


class TestNamedReads:
    def test_read_by_name(self):
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                res = c.read_by_name(["co2-level", "zone-temp"])
                assert res[0].values == (618.0,)
                assert res[1].values == (43.0,)

    def test_unknown_name(self):
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                with pytest.raises(UnknownName) as e:
                    c.read_by_name(["zone-temp", "nope-1", "nope-2"])
                assert e.value.names == ["nope-1", "nope-2"]

    def test_read_points_kinds_and_units(self):
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                c.clock_ns = lambda: 777
                pts = c.read_points(
                    ["co2-level", "occupancy"], "ctrl-1", tags={"building": "B"}
                )
        assert [p.parameter for p in pts] == ["co2-level", "occupancy"]
        assert pts[0].value.raw == 618.0 and pts[0].unit == "parts-per-million"
        assert pts[1].value.raw is True and pts[1].unit == ""
        assert all(p.timestamp == 777 and dict(p.tags) == {"building": "B"} for p in pts)


    def test_object_that_moved_is_read_again_from_the_next_poll(self):
        names = ["co2-level", "zone-temp"]
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                assert [p.parameter for p in c.read_points(names, "ctrl-1")] == names
                old = ObjectRef.of("analog-input", 4)
                co2 = sim.objects.pop(old)
                co2.instance = 5
                sim.objects[co2.ref] = co2
                sim.order[sim.order.index(old)] = co2.ref
                # this poll still delivers the object that stayed, and the next discovers again
                assert [p.parameter for p in c.read_points(names, "ctrl-1")] == ["zone-temp"]
                assert [p.parameter for p in c.read_points(names, "ctrl-1")] == names

    def test_object_that_disappeared_fails_the_next_poll(self):
        names = ["co2-level", "zone-temp"]
        with BacnetSim(100, small_inventory()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                c.read_points(names, "ctrl-1")
                old = ObjectRef.of("analog-input", 4)
                del sim.objects[old]
                sim.order.remove(old)
                assert [p.parameter for p in c.read_points(names, "ctrl-1")] == ["zone-temp"]
                with pytest.raises(UnknownName) as e:
                    c.read_points(names, "ctrl-1")
                assert e.value.names == ["co2-level"]


class _AnsweringSim(BacnetSim):
    """A simulator whose present-value answers are given per object, as
    keyword arguments of the ``PropResult`` it sends."""

    def __init__(self, objects, answers):
        super().__init__(100, objects)
        self.answers = answers

    def _answer(self, q):
        if q.prop == PV and q.obj in self.answers:
            return PropResult(q.obj, PV, q.array_index, **self.answers[q.obj])
        return super()._answer(q)


def test_read_points_across_result_kinds():
    """One poll of every kind of answer: what becomes a point, with which
    value and unit, and what is dropped under which reason."""
    ai = lambda i, name: SimObject("analog-input", i, name, units="degrees-celsius")
    bv = lambda i, name: SimObject("binary-value", i, name)
    objects = [
        ai(1, "real"), ai(2, "unsigned"), ai(3, "enumerated"), ai(4, "boolean"),
        ai(5, "text"), ai(6, "two-values"), ai(7, "empty"), ai(8, "null"),
        ai(9, "object-id"), ai(10, "access-error"),
        SimObject("analog-value", 11, "no-units"),
        bv(1, "flag-on"), bv(2, "flag-off"), bv(3, "flag-boolean"), bv(4, "flag-unsigned"),
        bv(5, "flag-text"), bv(6, "flag-real"), bv(7, "flag-empty"), bv(8, "flag-gone"),
    ]
    answers = {
        o.ref: a for o, a in zip(objects, [
            {"values": (21.5,)}, {"values": (7,)}, {"values": (Enumerated(3),)},
            {"values": (True,)}, {"values": ("auto",)}, {"values": (1.5, 2.5)},
            {"values": ()}, {"values": (None,)}, {"values": (AV1,)},
            {"error": ("property", "unknown-property")}, {"values": (-4.25,)},
            {"values": (Enumerated(1),)}, {"values": (Enumerated(0),)}, {"values": (False,)},
            {"values": (2,)}, {"values": ("on",)}, {"values": (1.0,)}, {"values": ()},
            {"error": ("object", "unknown-object")},
        ])
    }
    with _AnsweringSim(objects, answers) as sim:
        with BacnetClient(endpoint(sim)) as c:
            c.clock_ns = lambda: 5
            dropped = Counter()
            points = c.read_points(None, "ctrl-1", {"site": "S"}, dropped)
    deg = "degrees-celsius"
    assert [(p.parameter, p.value, p.unit) for p in points] == [
        ("real", Value.real(21.5), deg),
        ("unsigned", Value.real(7.0), deg),
        ("enumerated", Value.real(3.0), deg),
        ("boolean", Value.flag(True), deg),
        ("text", Value.text("auto"), deg),
        ("two-values", Value.real(1.5), deg),
        ("no-units", Value.real(-4.25), ""),
        ("flag-on", Value.flag(True), ""),
        ("flag-off", Value.flag(False), ""),
        ("flag-boolean", Value.flag(False), ""),
        ("flag-unsigned", Value.flag(True), ""),
    ]
    assert all(p.entity_id == "ctrl-1" and p.timestamp == 5 for p in points)
    assert all(dict(p.tags) == {"site": "S"} for p in points)
    assert dropped == Counter({"unsupported-value": 4, "no-value": 2,
                               "unknown-property": 1, "unknown-object": 1})


def _canon(x):
    """A comparable form of a decoded result. NaN equals NaN here, and
    -0.0, an Enumerated and a bool stay unequal to 0.0 and a plain int."""
    if isinstance(x, PropResult):
        return ("result", x.obj, x.prop, x.array_index, _canon(x.values), x.error)
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    return (type(x).__name__, repr(x))


def _outcome(decode, *args):
    try:
        return _canon(decode(*args))
    except (MalformedTag, ServiceError, Rejected, Aborted) as e:
        # MalformedTag wording may differ; the other errors carry device data
        return type(e).__name__, None if isinstance(e, MalformedTag) else str(e)


def _as_items(results):
    """Decoded results in the walker's item form."""
    return [(r.obj.type_id, r.obj.instance, r.prop, r.array_index, r.values, r.error)
            for r in results]


def reference_items(apdu, expected_invoke=None):
    return _as_items(reference_bacnet.decode_rpm_ack(apdu, expected_invoke))


def _extended_tags(encode, *args):
    """``encode(*args)`` with every opening and closing tag written in the
    extended tag-number form: 0xFE or 0xFF, then the number (closing tag 4
    becomes 0xFF 0x04)."""
    with mock.patch.multiple(encoding, _opening=lambda n: bytes((0xFE, n)),
                             _closing=lambda n: bytes((0xFF, n))):
        return encode(*args)


def assert_decoders_agree(datagram: bytes, expected_invoke=None) -> None:
    """The one-pass decoders and the reference ones give equal results or
    raise the same exception class, on the datagram and on its APDU."""
    apdu = datagram[6:]  # wrap() writes a 4-octet BVLC and a 2-octet NPDU header
    pairs = [
        (reference_bacnet.unwrap, unwrap, (datagram,)),
        (reference_bacnet.decode_rpm_ack, decode_rpm_ack, (apdu, expected_invoke)),
        (reference_items, rpm_ack_items, (apdu, expected_invoke)),
        (reference_bacnet.decode_rpm_request, decode_rpm_request, (apdu,)),
    ]
    for ref, new, args in pairs:
        assert _outcome(new, *args) == _outcome(ref, *args), (new.__name__, args)


@st.composite
def _wire_inputs(draw):
    """A valid ack or request datagram, a truncation of one, one with 1-3
    octets replaced, or a random blob; and the invoke id to expect."""
    invoke = draw(st.integers(0, 255))
    if draw(st.booleans()):
        results = draw(_results)
        if draw(st.booleans()):
            datagram = wrap(encode_rpm_ack(invoke, results), False)
        else:
            datagram = wrap(_extended_tags(encode_rpm_ack, invoke, results), False)
    else:
        datagram = wrap(encode_rpm_request(invoke, draw(_queries)), True)
    expected = draw(st.sampled_from([None, invoke, (invoke + 1) % 256]))
    kind = draw(st.sampled_from(["valid", "truncated", "mutated", "random"]))
    if kind == "truncated":
        datagram = datagram[: draw(st.integers(0, len(datagram) - 1))]
    elif kind == "mutated":
        blob = bytearray(datagram)
        spots = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
        for at, octet in draw(st.lists(spots, min_size=1, max_size=3)):
            blob[at] = octet
        datagram = bytes(blob)
    elif kind == "random":
        datagram = draw(st.binary(max_size=120))
    return datagram, expected


@settings(max_examples=1000, deadline=None)
@given(case=_wire_inputs())
def test_one_pass_decoders_match_the_reference(case):
    assert_decoders_agree(*case)


@settings(max_examples=300, deadline=None)
@given(invoke=st.integers(0, 255), results=_results, extended=st.booleans())
def test_walked_items_match_both_decoders_field_by_field(invoke, results, extended):
    """Errors, array indexes and, with ``extended``, closing tag 4 as 0xFF
    0x04. Cut short, an ack raises MalformedTag, or, cut between two
    objects, gives the items before the cut, as the reference does."""
    encode = _extended_tags if extended else lambda f, *a: f(*a)
    apdu = encode(encode_rpm_ack, invoke, results)
    items = rpm_ack_items(apdu, invoke)
    assert _canon(items) == _canon(_as_items(results))
    assert _canon(items) == _canon(_as_items(decode_rpm_ack(apdu, invoke)))
    assert _canon(items) == _canon(reference_items(apdu, invoke))
    for n in range(len(apdu)):
        cut = apdu[:n]
        assert _outcome(rpm_ack_items, cut, invoke) == _outcome(reference_items, cut, invoke)
        try:
            got = rpm_ack_items(cut, invoke)
        except MalformedTag:
            continue
        assert 0 < len(got) < len(items) and _canon(got) == _canon(items[: len(got)])


def test_app_value_reader_matches_the_reference_on_every_tag_octet():
    """Every first octet, with every second one after an extended tag number
    and short extended lengths after lvt 5, followed by each prefix of
    tails that read as negative or start a character string in charset 0
    or 1."""
    tails = [bytes.fromhex(t) for t in ("80000541c328fffe0002", "00c328416180ff0102", "014142")]
    heads = [bytes([a]) for a in range(256)]
    heads += [bytes([a, b]) for a in range(0xF0, 0x100) for b in range(256)]
    heads += [bytes([a, n]) for a in range(5, 256, 8) for n in (*range(12), 254, 255)]
    for head in heads:
        for tail in tails:
            for n in range(len(tail) + 1):
                blob = head + tail[:n]
                got = _outcome(read_app_value, blob)
                want = _outcome(lambda b: reference_bacnet.Reader(b).read_app_value(), blob)
                assert got == want, blob.hex()


_AV1_ID = "0c00800001"  # context tag 0, length 4: analog-value 1
_NON_CANONICAL = {
    # a value result, its tags written in forms a decoder meets only from
    # other stacks: extended tag numbers, extended lengths, extended closings
    "closing 4 extended": f"30070e{_AV1_ID}1e29554e44422c0000ff041f",
    "closing 1 extended": f"30070e{_AV1_ID}1e29554e44422c00004fff01",
    "opening 1 extended": f"30070e{_AV1_ID}fe0129554e44422c00004f1f",
    "opening 4 extended": f"30070e{_AV1_ID}1e2955fe0444422c00004f1f",
    "object id tag number extended": "30070efc0000800001" "1e29554e44422c00004f1f",
    "object id length extended": "30070e0d0400800001" "1e29554e44422c00004f1f",
    "property length 254": f"30070e{_AV1_ID}1e2dfe0001554e44422c00004f1f",
    "real tag number extended": f"30070e{_AV1_ID}1e29554ef404422c00004f1f",
    "real length extended": f"30070e{_AV1_ID}1e29554e4504422c00004f1f",
    "array index length extended": f"30070e{_AV1_ID}1e29553d01054e44422c00004f1f",
    "closing 5 extended": f"30070e{_AV1_ID}1e29555e91019120ff051f",
    "request closing 1 extended": f"0005070e{_AV1_ID}1e09551901ff01",
}


@pytest.mark.parametrize("apdu", _NON_CANONICAL.values(), ids=list(_NON_CANONICAL))
def test_non_canonical_tags_decode_as_the_reference_decodes_them(apdu):
    datagram = wrap(bytes.fromhex(apdu), False)
    apdu = datagram[6:]
    is_request = apdu[0] >> 4 == encoding.PDU_CONFIRMED
    ref = reference_bacnet.decode_rpm_request if is_request else reference_bacnet.decode_rpm_ack
    ref(apdu)  # each case is one the reference accepts
    assert_decoders_agree(datagram, 7)


class TestPresentValueRequest:
    """The steady poll sends one request encoded once per discovery."""

    @pytest.fixture
    def pv_encodings(self, monkeypatch):
        """The query count of every present-value request the client encodes."""
        counts = []
        encode = encoding.encode_rpm_request

        def counting(invoke, queries, *args):
            if all(q.prop == PV for q in queries):
                counts.append(len(queries))
            return encode(invoke, queries, *args)

        monkeypatch.setattr(encoding, "encode_rpm_request", counting)
        return counts

    def test_encoded_once_for_five_polls(self, pv_encodings):
        with BacnetSim(2001, rector_controller_objects()) as sim:
            with BacnetClient(endpoint(sim)) as c:
                polls = [c.read_points(None, "ctrl-1") for _ in range(5)]
                assert len(sim.request_log) == 3 + 5  # one discovery, then one read per poll
        assert pv_encodings == [77]
        assert [len(p) for p in polls] == [77] * 5

    def test_encoded_again_after_a_failed_poll(self, pv_encodings):
        with BacnetSim(2001, rector_controller_objects()) as sim:
            with BacnetClient(endpoint(sim, timeout_ms=200, retries=1)) as c:
                c.read_points(None, "ctrl-1")
                sim.drop_requests(2)  # both attempts of the next poll
                with pytest.raises(Timeout):
                    c.read_points(None, "ctrl-1")
                assert len(c.read_points(None, "ctrl-1")) == 77
        assert pv_encodings == [77, 77]

    def test_split_read_yields_the_points_of_a_whole_read(self):
        def two_polls(sim):
            with BacnetClient(endpoint(sim)) as c:
                c.clock_ns = lambda: 1
                return [c.read_points(None, "ctrl-1") for _ in range(2)]

        objs = rector_controller_objects()
        with BacnetSim(2001, objs) as big:
            whole = two_polls(big)
        with BacnetSim(2001, objs, max_response=480) as small:
            parts = two_polls(small)
            assert small.request_log.count(77) == 2  # each poll's whole read was aborted
        assert parts == whole
        assert len(whole[1]) == 77
