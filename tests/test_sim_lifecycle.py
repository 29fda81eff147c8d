"""Simulators stop at once: stop() wakes the serving thread instead of
waiting for a poll timeout, and a stopped simulator does not listen."""

import socket
import time

import pytest

from telegw.mqtt.client import MqttClient
from telegw.sim import BacnetSim, FaultModel, ModbusSim, MqttBroker, SimObject


def _wait_for(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.002)


def _broker_idle():
    broker = MqttBroker().start()
    return broker, broker._accept_thread, []


def _broker_with_session():
    broker = MqttBroker().start()
    client = MqttClient("127.0.0.1", broker.port, "probe")
    client.connect()
    _wait_for(lambda: broker.session_count == 1)
    return broker, broker._accept_thread, [client]


def _modbus_idle():
    sim = ModbusSim().start()
    return sim, sim._thread, []


def _modbus_single_connection_held():
    sim = ModbusSim(fault=FaultModel.single_connection_limit()).start()
    conn = socket.create_connection(("127.0.0.1", sim.port))
    _wait_for(lambda: len(sim._conns) == 1)
    return sim, sim._thread, [conn]


def _bacnet_idle():
    sim = BacnetSim(1, [SimObject("analog-input", 1, "t")]).start()
    return sim, sim._thread, []


@pytest.mark.parametrize(
    "make",
    [
        _broker_idle,
        _broker_with_session,
        _modbus_idle,
        _modbus_single_connection_held,
        _bacnet_idle,
    ],
)
def test_stop_returns_promptly(make):
    sim, thread, peers = make()
    try:
        t0 = time.monotonic()
        sim.stop()
        elapsed = time.monotonic() - t0
    finally:
        for peer in peers:
            peer.close()
    assert not thread.is_alive()
    assert elapsed < 0.05


def test_single_connection_sim_does_not_listen_after_stop():
    sim = ModbusSim(fault=FaultModel.single_connection_limit()).start()
    port = sim.port
    with socket.create_connection(("127.0.0.1", port)):
        _wait_for(lambda: len(sim._conns) == 1)
        sim.stop()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
