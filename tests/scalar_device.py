"""One device's square-law current and its derivatives, as scalars.

Runs the solver's batch kernel `devices.drain_currents` on a single
device, so the device tests exercise the code the solver runs.
"""

from cnfetsim.devices import CnfetParams, MosfetParams, Polarity, drain_currents, square_law


def drain_current(p: CnfetParams | MosfetParams, vgs: float, vds: float
                  ) -> tuple[float, float, float]:
    """(id, dId/dvgs, dId/dvds); id is negative for a conducting P device."""
    # Drain, gate and source on nodes 0, 1 and 2, the source at 0 V; a
    # voltage minus 0.0 is that voltage, so the kernel sees vgs and vds.
    device = (0, 1, 2, p.polarity is Polarity.P, *square_law(p))
    gds, gm, _, i = drain_currents([device], [vds, vgs, 0.0])
    return i, gm, gds
