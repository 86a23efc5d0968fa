"""Relay layouts shared by the tests and the CI runtime check.

It imports nothing but the standard library and the package, so a runtime
install without the test extras can use it too.
"""

from dataclasses import replace

from mdma_relay.topology import NetworkTopology, SystemConfig, default_paper_setup


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


def far_topology(node: str) -> NetworkTopology:
    """The paper layout with one node 1e103 away, so that every link to it
    has a distance**alpha that overflows: an infinite rate, an SNR of 0.
    ``node`` is "source1", moved to (20, 1e103), "relay1", to (50, 1e103),
    or "destination", to (1e103, 0)."""
    topo, _ = default_paper_setup()
    return replace(topo, **{
        "source1": {"s1_pos": (20.0, 1e103)},
        "relay1": {"relay_pos": ((50.0, 1e103), *topo.relay_pos[1:])},
        "destination": {"d_pos": (1e103, 0.0)},
    }[node])


def near_source_topology() -> NetworkTopology:
    """The paper layout with source 1 at (0, 0) and the destination at
    (1e-110, 0): their link's rate d**alpha/snr underflows to 0."""
    topo, _ = default_paper_setup()
    return replace(topo, s1_pos=(0.0, 0.0), d_pos=(1e-110, 0.0))


def zero_snr_direct_setup(layout: str) -> tuple[NetworkTopology, SystemConfig]:
    """Source 1 so far from the destination that its direct gain overflows,
    a direct SNR of 0: alpha = 3, -50 dBm noise and 3030 dBm, a linear SNR
    of 1e308.  "separated" puts the destination at (0, 0), the sources at
    (6e102, 0) and (1e102, 0) and 4 relays at (3.2e102 + 0.2e102 i, 0); its
    condition bound is about 268, so its closed form would bin.  "open-relay"
    adds a fifth relay at (6e102, 1), next to source 1, so that an open
    relay's link to the destination overflows too, an SNR of 0 beside the
    others' SNRs above it.  "tied" puts source 1 at (0, 1e103), source 2 at
    (0, 20) and 8 relays at (0, 5e102 + 10 i), all of whose rates tie at 1.25."""
    topo, config = default_paper_setup(power_dbm=3030.0)
    if layout in ("separated", "open-relay"):
        relays = tuple((3.2e102 + 0.2e102 * i, 0.0) for i in range(4)) + ((6e102, 1.0),) * (layout == "open-relay")
        return NetworkTopology((6e102, 0.0), (1e102, 0.0), (0.0, 0.0), relays, topo.alpha), config
    relays = tuple((0.0, 5e102 + 10.0 * i) for i in range(8))
    return NetworkTopology((0.0, 1e103), (0.0, 20.0), (0.0, 0.0), relays, topo.alpha), config


def subnormal_rate_setup() -> tuple[NetworkTopology, SystemConfig]:
    """The paper layout at 3030 dBm (a linear SNR of 1e308) with relay 1 0.1
    from source 1: their link's rate, 1e-311, is subnormal, so its mean SNR
    1/rate overflows to infinity."""
    topo, config = default_paper_setup(power_dbm=3030.0)
    x, y = topo.s1_pos
    return replace(topo, relay_pos=((x + 0.1, y), *topo.relay_pos[1:])), config
