"""Relay layouts shared by the tests and the CI runtime check.

It imports nothing but the package, so a runtime install without the test
extras can use it too.
"""

from mdma_relay.topology import NetworkTopology, default_paper_setup


def line_topology(m: int) -> NetworkTopology:
    """The paper layout with its relay line generalised to m relays; m = 10
    ties relay-destination distances (y = 40 and y = -40, and so on), and
    m > 20 exceeds the closed form's relay cap."""
    topo, _ = default_paper_setup()
    relays = tuple((50.0, 55.0 - 100.0 * (i - 0.5) / m) for i in range(1, m + 1))
    return NetworkTopology(topo.s1_pos, topo.s2_pos, topo.d_pos, relays, topo.alpha)
