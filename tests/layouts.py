"""Relay layouts shared by the tests and the CI runtime check.

It imports nothing but the package, so a runtime install without the test
extras can use it too.
"""

from mdma_relay.topology import NetworkTopology, default_paper_setup


def line_topology(m: int, tie_gap: float = 0.0) -> NetworkTopology:
    """The paper layout with its relay line generalised to m relays; m = 10
    ties relay-destination distances (y = 40 and y = -40, and so on), and
    m > 20 exceeds the closed form's relay cap.  ``tie_gap`` scales every
    negative y by 1 + tie_gap, which breaks those ties by about that much."""
    topo, _ = default_paper_setup()
    ys = (55.0 - 100.0 * (i - 0.5) / m for i in range(1, m + 1))
    relays = tuple((50.0, y * (1.0 + tie_gap) if y < 0.0 else y) for y in ys)
    return NetworkTopology(topo.s1_pos, topo.s2_pos, topo.d_pos, relays, topo.alpha)


def underflow_topology(origin: tuple[float, float]) -> NetworkTopology:
    """The paper layout moved so that `origin` is at (0, 0), with relay 1 at
    (1e-200, 0): its link to whatever node sits at the origin has a rate
    d**alpha/snr that underflows to 0, an infinite mean SNR.  Origin (20, 20)
    puts source 1 there; (100, 0) puts the destination there."""
    topo, _ = default_paper_setup()
    ox, oy = origin

    def moved(p):
        return (p[0] - ox, p[1] - oy)

    relays = ((1e-200, 0.0), *(moved(r) for r in topo.relay_pos[1:]))
    return NetworkTopology(moved(topo.s1_pos), moved(topo.s2_pos), moved(topo.d_pos), relays, topo.alpha)
