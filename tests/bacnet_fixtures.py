"""Controller object inventories for BACnet tests.

The reference building controller exposes 77 objects: 38 room temperature
inputs, one outdoor temperature input, and 38 fan-coil on/off flags.
"""

from telegw.bacnet.encoding import PropResult, property_id
from telegw.sim.bacnet_server import BacnetSim, SimObject


def rector_controller_objects() -> list[SimObject]:
    objs = []
    for i in range(1, 39):
        objs.append(
            SimObject(
                "analog-input", i, f"room-temp-{i:02d}",
                units="degrees-celsius", value=21.0 + (i % 5) * 0.5,
            )
        )
    objs.append(SimObject("analog-input", 39, "outdoor-temp",
                          units="degrees-celsius", value=14.5))
    for i in range(1, 39):
        objs.append(SimObject("binary-value", i, f"fan-coil-{i:02d}", value=i % 2 == 0))
    assert len(objs) == 77
    return objs


def small_inventory() -> list[SimObject]:
    return [
        SimObject("analog-value", 1, "zone-temp", units="degrees-celsius", value=43.0),
        SimObject("analog-input", 4, "co2-level", units="parts-per-million", value=618.0),
        SimObject("binary-input", 2, "occupancy", value=True),
    ]


def wide_inventory(n: int) -> list[SimObject]:
    return [
        SimObject("analog-value", i, f"pt-{i:03d}", units="degrees-celsius", value=20.0 + i)
        for i in range(1, n + 1)
    ]


class EmptyListEntrySim(BacnetSim):
    """A controller that answers an indexed read of ``object-list[2]`` with
    an empty value list instead of an object identifier."""

    def _answer(self, q):
        if q.prop == property_id("object-list") and q.array_index == 2:
            return PropResult(q.obj, q.prop, 2, values=())
        return super()._answer(q)
