"""Device simulators: enough behavioral fidelity to run and test the whole
gateway without hardware, including the awkward parts (single-connection
meters, connection-resetting firmware, staged history blocks, lossy brokers).
"""

from .values import Constant, RandomWalk, SimClock
from .modbus_server import FaultModel, ModbusSim
from .bacnet_server import BacnetSim, SimObject
from .broker import MqttBroker
from .fleet import DeviceClass, MqttFleet, ParamSpec, aranet_class, solve_change_prob

__all__ = [
    "BacnetSim",
    "Constant",
    "DeviceClass",
    "FaultModel",
    "ModbusSim",
    "MqttBroker",
    "MqttFleet",
    "ParamSpec",
    "RandomWalk",
    "SimClock",
    "SimObject",
    "aranet_class",
    "solve_change_prob",
]
