"""Framing and register codecs against frozen wire bytes and a struct oracle."""

import math
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from telegw.modbus import (
    CountOutOfRange,
    ExceptionResponse,
    LengthMismatch,
    MalformedFrame,
    RegisterCodec,
    SpanMismatch,
    TransactionMismatch,
    decode_read_response,
    decode_write_response,
    encode_read,
    encode_write_multiple,
)
from telegw.modbus.protocol import build_read_response, build_write_response, parse_request


def oracle_read_frame(tx, unit, fc, address, count):
    # independent single-shot pack, no shared helpers with the implementation
    return struct.pack(">HHHBBHH", tx, 0, 6, unit, fc, address, count)


class TestEncodeRead:
    def test_frozen_single_register(self):
        frame = encode_read(1, 1, "holding", 0, 1)
        assert frame.hex() == "000100000006010300000001"
        assert frame == oracle_read_frame(1, 1, 0x03, 0, 1)

    def test_frozen_two_registers_unit_17(self):
        frame = encode_read(2, 17, "holding", 0x1000, 2)
        assert frame.hex() == "000200000006110310000002"
        assert frame == oracle_read_frame(2, 17, 0x03, 0x1000, 2)

    def test_input_table_uses_fc_04(self):
        assert encode_read(5, 3, "input", 10, 4) == oracle_read_frame(5, 3, 0x04, 10, 4)

    def test_count_bounds(self):
        with pytest.raises(CountOutOfRange):
            encode_read(1, 1, "holding", 0, 0)
        with pytest.raises(CountOutOfRange):
            encode_read(1, 1, "holding", 0, 126)
        assert encode_read(1, 1, "holding", 0, 125)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            encode_read(1, 1, "coils", 0, 1)

    @pytest.mark.parametrize("unit", [-1, 256, 257])
    def test_unit_outside_a_byte_is_rejected_not_masked(self, unit):
        # 257 used to go out as unit 1 and -1 as unit 255: a read of the wrong device
        with pytest.raises(ValueError, match="unit"):
            encode_read(1, unit, "holding", 0, 1)
        with pytest.raises(ValueError, match="unit"):
            encode_write_multiple(1, unit, 0, [1])

    @settings(max_examples=200)
    @given(
        tx=st.integers(0, 0xFFFF),
        unit=st.integers(0, 0xFF),
        fn=st.sampled_from(["holding", "input"]),
        address=st.integers(0, 0xFFFF),
        count=st.integers(1, 125),
    )
    def test_matches_struct_oracle(self, tx, unit, fn, address, count):
        fc = 0x03 if fn == "holding" else 0x04
        assert encode_read(tx, unit, fn, address, count) == oracle_read_frame(
            tx, unit, fc, address, count
        )


class TestDecodeReadResponse:
    @staticmethod
    def response(tx, unit, fc, words):
        payload = struct.pack(f">{len(words)}H", *words)
        return struct.pack(">HHHBBB", tx, 0, 3 + len(payload), unit, fc, len(payload)) + payload

    def test_two_register_payload(self):
        frame = self.response(7, 1, 0x03, [0x4049, 0x0FDB])
        assert decode_read_response(frame, 7, 2) == [0x4049, 0x0FDB]

    def test_exception_response(self):
        frame = struct.pack(">HHHBBB", 7, 0, 3, 1, 0x83, 0x02)
        with pytest.raises(ExceptionResponse) as e:
            decode_read_response(frame, 7, 2)
        assert e.value.code == 0x02
        assert e.value.name == "illegal-data-address"

    def test_transaction_mismatch(self):
        frame = self.response(8, 1, 0x03, [1])
        with pytest.raises(TransactionMismatch):
            decode_read_response(frame, 7, 1)

    def test_byte_count_disagreement(self):
        frame = self.response(7, 1, 0x03, [1, 2])
        with pytest.raises(LengthMismatch):
            decode_read_response(frame, 7, 3)

    def test_truncated_frame(self):
        frame = self.response(7, 1, 0x03, [1, 2])[:-1]
        with pytest.raises(LengthMismatch):
            decode_read_response(frame, 7, 2)

    def test_nonzero_protocol_id(self):
        frame = bytearray(self.response(7, 1, 0x03, [1]))
        frame[2] = 0x01
        with pytest.raises(MalformedFrame):
            decode_read_response(bytes(frame), 7, 1)

    def test_write_response_roundtrip(self):
        frame = struct.pack(">HHHBBHH", 9, 0, 6, 1, 0x10, 0x1000, 3)
        assert decode_write_response(frame, 9) == (0x1000, 3)

    def test_write_exception(self):
        frame = struct.pack(">HHHBBB", 9, 0, 3, 1, 0x90, 0x02)
        with pytest.raises(ExceptionResponse):
            decode_write_response(frame, 9)


class TestServerHelpers:
    def test_request_roundtrip_read(self):
        req = parse_request(encode_read(3, 2, "input", 0x20, 6))
        assert (req.tx, req.unit, req.fc, req.address, req.count) == (3, 2, 0x04, 0x20, 6)

    def test_request_roundtrip_write(self):
        req = parse_request(encode_write_multiple(4, 1, 0x1000, [23, 1, 15]))
        assert (req.address, req.count, req.words) == (0x1000, 3, (23, 1, 15))

    def test_response_builders_agree_with_decoders(self):
        frame = build_read_response(11, 1, 0x03, [5, 6, 7])
        assert decode_read_response(frame, 11, 3) == [5, 6, 7]
        frame = build_write_response(12, 1, 0x40, 2)
        assert decode_write_response(frame, 12) == (0x40, 2)


class TestCodecs:
    def test_f32_big_endian_pi(self):
        codec = RegisterCodec("f32")
        want = struct.unpack(">f", bytes([0x40, 0x49, 0x0F, 0xDB]))[0]
        assert codec.decode([0x4049, 0x0FDB]) == want
        assert codec.decode([0x4049, 0x0FDB]) == pytest.approx(3.1415927)

    def test_f32_little_word_order(self):
        codec = RegisterCodec("f32", word_order="little")
        assert codec.decode([0x0FDB, 0x4049]) == pytest.approx(3.1415927)

    def test_i16_sign(self):
        codec = RegisterCodec("i16")
        assert codec.decode([0xFFFF]) == -1.0
        assert codec.decode([0x8000]) == -32768.0
        assert codec.decode([0x7FFF]) == 32767.0

    def test_u32_with_scale(self):
        codec = RegisterCodec("u32", scale=0.001)
        # 0x0001_86A0 = 100000 by integer oracle
        assert (0x0001 << 16) | 0x86A0 == 100000
        assert codec.decode([0x0001, 0x86A0]) == 100.0

    def test_i32_negative(self):
        codec = RegisterCodec("i32")
        assert codec.decode([0xFFFF, 0xFFFE]) == -2.0

    def test_offset(self):
        codec = RegisterCodec("u16", scale=0.1, offset=-40.0)
        assert codec.decode([450]) == pytest.approx(5.0)

    def test_span_mismatch(self):
        with pytest.raises(SpanMismatch):
            RegisterCodec("f32").decode([1])
        with pytest.raises(SpanMismatch):
            RegisterCodec("u16").decode([1, 2])

    def test_bad_codec_config(self):
        with pytest.raises(ValueError):
            RegisterCodec("u64")
        with pytest.raises(ValueError):
            RegisterCodec("u16", word_order="middle")
        with pytest.raises(ValueError):
            RegisterCodec("u16", scale=0.0)


@settings(max_examples=300)
@given(
    datatype=st.sampled_from(["u16", "i16", "u32", "i32", "f32"]),
    word_order=st.sampled_from(["big", "little"]),
    scale=st.sampled_from([1.0, 0.1, 0.01, 0.001, 10.0]),
    offset=st.sampled_from([0.0, -40.0, 100.0]),
    data=st.data(),
)
def test_register_roundtrip_words_value_words(datatype, word_order, scale, offset, data):
    # f32 registers already carry engineering units; scaling an f32 span
    # loses low bits to float absorption, so the inverse holds at identity
    if datatype == "f32":
        scale, offset = 1.0, 0.0
    codec = RegisterCodec(datatype, word_order, scale, offset)
    words = data.draw(
        st.lists(st.integers(0, 0xFFFF), min_size=codec.span, max_size=codec.span)
    )
    value = codec.decode(words)
    assume(math.isfinite(value))  # NaN payload patterns have no equality
    assert codec.encode(value) == words
