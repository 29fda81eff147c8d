"""Client behavior against the device simulator: policies, faults, history."""

import datetime
import socket
import struct
import threading
import time

import pytest

from telegw.modbus import (
    ConnectionPolicy,
    ConnectTimeout,
    ExceptionResponse,
    HistoricalReadConfig,
    ModbusClient,
    ModbusError,
    ReadyTimeout,
    RegisterBinding,
    RegisterCodec,
    TransactionMismatch,
    WriteRejected,
)
from telegw.modbus.client import coalesce
from telegw.sim import FaultModel, ModbusSim

from devicemaps import (
    cem_c31_bindings,
    cirwatt_b_bindings,
    lacecal_bindings,
    load_plausible,
)
from net_fixtures import full_listener

FAST = ConnectionPolicy(connect_timeout_ms=400, io_timeout_ms=1000)
PERSIST = ConnectionPolicy(mode="persistent", connect_timeout_ms=400, io_timeout_ms=1000)


def client_for(sim, policy=FAST, unit=1):
    return ModbusClient("127.0.0.1", sim.port, unit=unit, policy=policy)


class TestBasicReads:
    def test_read_words_back(self):
        with ModbusSim() as sim:
            sim.load(0x10, [1, 2, 3, 4])
            c = client_for(sim)
            assert c.read_registers("holding", 0x10, 4) == [1, 2, 3, 4]

    def test_input_table_is_separate(self):
        with ModbusSim() as sim:
            sim.load(0, [7], table="input")
            sim.load(0, [9], table="holding")
            c = client_for(sim)
            assert c.read_registers("input", 0, 1) == [7]
            assert c.read_registers("holding", 0, 1) == [9]

    def test_a_model_advances_in_the_table_it_is_bound_to(self):
        class Count:
            n = 0

            def step(self, now_ns):
                self.n += 1
                return self.n

        with ModbusSim() as sim:
            sim.load(512, [7])  # a holding register at the same address
            sim.bind_model(512, RegisterCodec("u16"), Count(), table="input")
            c = client_for(sim)
            assert [c.read_registers("input", 512, 1)[0] for _ in range(3)] == [2, 3, 4]
            assert c.read_registers("holding", 512, 1) == [7]
            assert c.read_registers("input", 512, 1) == [5]

    def test_unmapped_address_is_exception_02(self):
        with ModbusSim() as sim:
            c = client_for(sim)
            with pytest.raises(ExceptionResponse) as e:
                c.read_registers("holding", 0x9000, 1)
            assert e.value.code == 0x02

    def test_write_then_read(self):
        with ModbusSim() as sim:
            c = client_for(sim)
            c.write_registers(0x50, [23, 1, 15])
            assert c.read_registers("holding", 0x50, 3) == [23, 1, 15]

    def test_transaction_ids_increment_per_connection(self):
        with ModbusSim() as sim:
            sim.load(0, [1])
            c = client_for(sim, PERSIST)
            c.connect()
            c.read_registers("holding", 0, 1)
            c.read_registers("holding", 0, 1)
            assert c._tx == 2
            c.close()

    def test_stale_frame_skipped_response_matched_by_id(self):
        # hand-rolled server that answers with a wrong-id frame first
        lst = socket.socket()
        lst.bind(("127.0.0.1", 0))
        lst.listen(1)
        port = lst.getsockname()[1]

        def serve():
            conn, _ = lst.accept()
            frame = conn.recv(300)
            tx = struct.unpack(">H", frame[:2])[0]
            stale = struct.pack(">HHHBBBH", (tx + 7) & 0xFFFF, 0, 5, 1, 0x03, 2, 999)
            good = struct.pack(">HHHBBBH", tx, 0, 5, 1, 0x03, 2, 42)
            conn.sendall(stale + good)
            conn.recv(300)
            conn.close()

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        try:
            c = ModbusClient("127.0.0.1", port, policy=PERSIST)
            assert c.read_registers("holding", 0, 1) == [42]
            c.close()
        finally:
            lst.close()


class TestCoalescing:
    def test_contiguous_spans_merge(self):
        groups = coalesce(cem_c31_bindings())
        spans = [(start, count) for _, start, count, _ in groups]
        assert spans == [(0, 15), (16, 24), (0x0100, 4)]

    def test_group_never_exceeds_read_limit(self):
        bindings = [
            RegisterBinding(f"p{i}", "holding", 2 * i, RegisterCodec("u32"))
            for i in range(100)
        ]
        groups = coalesce(bindings)
        assert all(count <= 125 for _, _, count, _ in groups)
        assert sum(count for _, _, count, _ in groups) == 200

    def test_tables_never_mix(self):
        bindings = [
            RegisterBinding("a", "holding", 0, RegisterCodec("u16")),
            RegisterBinding("b", "input", 1, RegisterCodec("u16")),
        ]
        assert len(coalesce(bindings)) == 2


class TestReadParameters:
    def test_cem_c31_full_poll(self):
        with ModbusSim() as sim:
            bindings = cem_c31_bindings()
            expect = load_plausible(sim, bindings)
            c = client_for(sim)
            report = c.read_parameters(coalesce(bindings), "meter-1", {"feeder": "F1"})
            assert not report.errors
            assert len(report.points) == 23
            got = {p.parameter: p.value.raw for p in report.points}
            assert got == expect
            assert all(dict(p.tags) == {"feeder": "F1"} for p in report.points)
            reads = [e for e in sim.request_log if e.kind == "read"]
            assert len(reads) == 3  # coalesced, not 23 requests

    def test_cirwatt_b_has_29_parameters(self):
        with ModbusSim() as sim:
            bindings = cirwatt_b_bindings()
            load_plausible(sim, bindings)
            report = client_for(sim).read_parameters(coalesce(bindings), "meter-2")
            assert len(report.points) == 29 and not report.errors

    def test_lacecal_has_29_parameters_one_group(self):
        bindings = lacecal_bindings()
        assert len(bindings) == 29
        assert [(s, c) for _, s, c, _ in coalesce(bindings)] == [(0x1010, 58)]

    def test_bad_address_degrades_to_annotation(self):
        with ModbusSim(fault=FaultModel.exception_on(13)) as sim:
            bindings = cem_c31_bindings()
            load_plausible(sim, bindings)
            report = client_for(sim).read_parameters(coalesce(bindings), "meter-1")
            # cos_phi_l2 sits at register 13; everything else survives
            assert set(report.errors) == {"cos_phi_l2"}
            assert report.errors["cos_phi_l2"] == "illegal-data-address"
            assert len(report.points) == 22

    def test_points_timestamped_at_read_completion(self):
        with ModbusSim() as sim:
            sim.load(0, [1, 2])
            c = client_for(sim)
            ticks = iter([111, 222, 333])
            c.clock_ns = lambda: next(ticks)
            report = c.read_parameters(
                coalesce([RegisterBinding("a", "holding", 0, RegisterCodec("u16")),
                          RegisterBinding("b", "holding", 1, RegisterCodec("u16"))]),
                "dev",
            )
            assert [p.timestamp for p in report.points] == [111, 111]


class TestConnectionPolicies:
    def test_per_request_close_opens_one_connection_per_request(self):
        with ModbusSim() as sim:
            sim.load(0, [1])
            c = client_for(sim)
            for _ in range(3):
                c.read_registers("holding", 0, 1)
            assert sum(1 for e in sim.request_log if e.kind == "connect") == 3

    def test_persistent_reuses_one_connection(self):
        with ModbusSim() as sim:
            sim.load(0, [1])
            c = client_for(sim, PERSIST)
            c.connect()
            for _ in range(3):
                c.read_registers("holding", 0, 1)
            c.close()
            assert sum(1 for e in sim.request_log if e.kind == "connect") == 1


class TestHostLookup:
    @pytest.fixture
    def lookups(self, monkeypatch):
        """Every host ``socket.getaddrinfo`` is asked for; ``fail`` holds
        the errors to raise, one per lookup, before answers resume. Only
        the loopback address resolves; any other host is unknown."""
        hosts, fail, resolve = [], [], socket.getaddrinfo

        def counting(host, *args, **kwargs):
            hosts.append(host)
            if fail:
                raise fail.pop(0)
            if host not in ("127.0.0.1", b"127.0.0.1"):
                raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
            return resolve(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", counting)
        return hosts, fail

    def test_a_host_the_resolver_rejects_fails_at_once(self, lookups):
        hosts, _ = lookups
        c = ModbusClient("a..b", 502, policy=ConnectionPolicy(connect_timeout_ms=500))
        with pytest.raises(socket.gaierror):
            c.connect()
        assert len(hosts) == 1

    def test_a_lookup_that_may_succeed_later_is_retried(self, lookups):
        hosts, fail = lookups
        fail.extend(socket.gaierror(socket.EAI_AGAIN, "try again") for _ in range(2))
        with ModbusSim() as sim:
            sim.load(0, [4])
            assert client_for(sim).read_registers("holding", 0, 1) == [4]
        assert len(hosts) == 3


class TestInterrupt:
    def test_a_stop_right_after_the_socket_is_published_ends_its_connect(self):
        """The socket is published once its connect has started, so a stop
        at any point after that ends the connect rather than missing it."""
        with full_listener() as port:
            c = ModbusClient("127.0.0.1", port, policy=ConnectionPolicy(
                connect_timeout_ms=3000, io_timeout_ms=3000))
            publish = c._publish

            def publish_then_stop(sock):
                publish(sock)
                c.interrupt()

            c._publish = publish_then_stop
            t0 = time.monotonic()
            with pytest.raises(ModbusError):
                c.read_registers("holding", 0, 1)
            elapsed = time.monotonic() - t0
            c.close()
        assert elapsed < 0.5, f"the read took {elapsed:.2f} s"


class TestSingleConnectionLimit:
    def test_second_persistent_connect_refused_while_first_holds(self):
        with ModbusSim(fault=FaultModel.single_connection_limit()) as sim:
            sim.load(0, [1])
            a = client_for(sim, PERSIST)
            a.connect()
            assert a.read_registers("holding", 0, 1) == [1]
            b = client_for(sim, PERSIST)
            with pytest.raises(ConnectTimeout):
                b.connect()
            a.close()
            # once the holder disconnects the device listens again
            b2 = client_for(sim, ConnectionPolicy(mode="persistent",
                                                  connect_timeout_ms=2000,
                                                  io_timeout_ms=1000))
            b2.connect()
            assert b2.read_registers("holding", 0, 1) == [1]
            b2.close()

    def test_two_per_request_close_clients_interleave_cleanly(self):
        with ModbusSim(fault=FaultModel.single_connection_limit()) as sim:
            sim.load(0, [5])
            policy = ConnectionPolicy(connect_timeout_ms=2000, io_timeout_ms=1000)
            a, b = client_for(sim, policy), client_for(sim, policy)
            failures = 0
            for i in range(40):
                c = a if i % 2 == 0 else b
                try:
                    assert c.read_registers("holding", 0, 1) == [5]
                except Exception:
                    failures += 1
            assert failures == 0


class TestRejectAlternate:
    def test_no_retry_fails_every_second_request(self):
        with ModbusSim(fault=FaultModel.reject_alternate_connections()) as sim:
            sim.load(0, [5])
            c = client_for(sim, ConnectionPolicy(connect_timeout_ms=2000,
                                                 io_timeout_ms=1000,
                                                 request_retries=0))
            outcomes = []
            for _ in range(20):
                try:
                    c.read_registers("holding", 0, 1)
                    outcomes.append(True)
                except Exception:
                    outcomes.append(False)
            assert outcomes == [True, False] * 10

    def test_one_retry_absorbs_every_reset(self):
        with ModbusSim(fault=FaultModel.reject_alternate_connections()) as sim:
            sim.load(0, [5])
            c = client_for(sim, ConnectionPolicy(connect_timeout_ms=2000,
                                                 io_timeout_ms=1000,
                                                 request_retries=1))
            for _ in range(20):
                assert c.read_registers("holding", 0, 1) == [5]


class TestHistoricalBlock:
    CFG = HistoricalReadConfig(poll_interval_ms=10)

    def test_handshake_request_sequence(self):
        with ModbusSim(fault=FaultModel.delayed_ready(2)) as sim:
            bindings = lacecal_bindings()
            load_plausible(sim, bindings)
            c = client_for(sim, PERSIST)
            day = datetime.date(2023, 1, 15)
            report = c.read_historical_block(day, self.CFG, bindings, "analyzer-1")
            assert len(report.points) == 29 and not report.errors
            assert all(dict(p.tags)["date"] == "2023-01-15" for p in report.points)
            writes = [e for e in sim.request_log if e.kind == "write"]
            polls = [e for e in sim.request_log
                     if e.kind == "read" and e.address == self.CFG.ready_address and e.count == 1]
            data_reads = [e for e in sim.request_log
                          if e.kind == "read" and e.address == 0x1010]
            assert len(writes) == 1 and writes[0].address == self.CFG.date_address
            assert len(polls) == 3  # two not-staged answers, then staged
            assert len(data_reads) == 1
            assert sim.date_selected == (23, 1, 15)

    def test_ready_timeout_when_block_never_stages(self):
        cfg = HistoricalReadConfig(poll_interval_ms=1, max_polls=5)
        with ModbusSim(fault=FaultModel.delayed_ready(10_000)) as sim:
            load_plausible(sim, lacecal_bindings())
            c = client_for(sim, PERSIST)
            with pytest.raises(ReadyTimeout):
                c.read_historical_block(datetime.date(2023, 1, 15), cfg,
                                        lacecal_bindings(), "analyzer-1")
            polls = [e for e in sim.request_log
                     if e.kind == "read" and e.address == cfg.ready_address]
            assert len(polls) == 5

    def test_rejected_date_write(self):
        with ModbusSim(fault=FaultModel.exception_on(0x1000, 0x02)) as sim:
            c = client_for(sim, PERSIST)
            with pytest.raises(WriteRejected) as e:
                c.read_historical_block(datetime.date(2023, 1, 15), self.CFG,
                                        lacecal_bindings(), "analyzer-1")
            assert e.value.code == 0x02

    def test_staging_works_without_a_fault_model(self):
        # the ready flag must answer polls on a plain sim too, not only when
        # a delayed_ready fault is injected
        with ModbusSim() as sim:
            bindings = lacecal_bindings()
            load_plausible(sim, bindings)
            c = client_for(sim, PERSIST)
            report = c.read_historical_block(datetime.date(2024, 6, 1), self.CFG,
                                             bindings, "analyzer-1")
            assert len(report.points) == 29 and not report.errors
            polls = [e for e in sim.request_log
                     if e.kind == "read" and e.address == self.CFG.ready_address]
            assert len(polls) == 1

    def test_immediately_ready_needs_one_poll(self):
        with ModbusSim(fault=FaultModel.delayed_ready(0)) as sim:
            bindings = lacecal_bindings()
            load_plausible(sim, bindings)
            c = client_for(sim, PERSIST)
            report = c.read_historical_block(datetime.date(2024, 6, 1), self.CFG,
                                             bindings, "analyzer-1")
            assert len(report.points) == 29
            polls = [e for e in sim.request_log
                     if e.kind == "read" and e.address == self.CFG.ready_address]
            assert len(polls) == 1
