"""Line protocol serialization against the independent grammar parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telegw.lineproto import BadIdentifier, LineRecord, NoFields, to_line
from telegw.model import FLAG, REAL, TEXT, Value

from lp_parser import parse_line


def rec(measurement="co2", tags=None, fields=None, ts=0):
    return LineRecord(measurement, tags or {}, fields or {"value": Value.real(1.0)}, ts)


class TestFrozenForms:
    def test_reference_line(self):
        r = LineRecord(
            "co2",
            {"device": "aranet-01", "room": "A1"},
            {"value": Value.real(618.0)},
            1623139200000000000,
        )
        assert to_line(r) == "co2,device=aranet-01,room=A1 value=618 1623139200000000000"

    def test_tag_escaping(self):
        r = rec(tags={"room": "room A,1"}, ts=5)
        assert to_line(r) == "co2,room=room\\ A\\,1 value=1 5"

    def test_equals_in_tag_value(self):
        r = rec(tags={"expr": "a=b"}, ts=5)
        assert to_line(r) == "co2,expr=a\\=b value=1 5"

    def test_measurement_escaping(self):
        r = rec(measurement="supply air, temp", ts=1)
        assert to_line(r) == "supply\\ air\\,\\ temp value=1 1"

    def test_text_field_quoting(self):
        r = rec(fields={"state": Value.text('say "hi"\\now')}, ts=9)
        assert to_line(r) == 'co2 state="say \\"hi\\"\\\\now" 9'

    def test_flag_fields(self):
        r = rec(fields={"occupied": Value.flag(True), "fault": Value.flag(False)}, ts=2)
        assert to_line(r) == "co2 occupied=true,fault=false 2"

    def test_real_rendering(self):
        cases = [
            (618.0, "618"),
            (22.5, "22.5"),
            (-3.0, "-3"),
            (1e21, "1e+21"),
            (0.001, "0.001"),
        ]
        for x, want in cases:
            assert to_line(rec(fields={"v": Value.real(x)}, ts=0)) == f"co2 v={want} 0"

    def test_no_fields_rejected(self):
        with pytest.raises(NoFields):
            to_line(LineRecord("co2", {}, {}, 0))

    def test_empty_measurement_rejected(self):
        with pytest.raises(BadIdentifier):
            to_line(LineRecord("", {}, {"v": Value.real(1.0)}, 0))

    def test_newline_in_text_rejected(self):
        with pytest.raises(BadIdentifier):
            to_line(rec(fields={"v": Value.text("a\nb")}))


_name = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\n\r", exclude_categories=("Cs",)
    ),
    min_size=1,
    max_size=12,
)
_tagval = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\n\r", exclude_categories=("Cs",)
    ),
    max_size=12,
)
_field_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(Value.real),
    st.booleans().map(Value.flag),
    st.text(
        alphabet=st.characters(
            codec="utf-8", exclude_characters="\n\r", exclude_categories=("Cs",)
        ),
        max_size=20,
    ).map(Value.text),
)


@settings(max_examples=300)
@given(
    measurement=_name,
    tags=st.dictionaries(_name, _tagval, max_size=4),
    fields=st.dictionaries(_name, _field_value, min_size=1, max_size=4),
    ts=st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
def test_roundtrip_through_independent_parser(measurement, tags, fields, ts):
    line = to_line(LineRecord(measurement, tags, fields, ts))
    m, t, f, parsed_ts = parse_line(line)
    assert m == measurement
    assert t == tags
    assert parsed_ts == ts
    assert set(f) == set(fields)
    for k, v in fields.items():
        if v.kind == REAL:
            assert isinstance(f[k], float) and f[k] == v.raw
        elif v.kind == FLAG:
            assert f[k] is v.raw
        else:
            assert f[k] == v.raw
