import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mdma_relay.topology import (
    ConfigError,
    DegenerateGeometryError,
    NetworkTopology,
    SystemConfig,
    default_paper_setup,
    euclidean,
    link_rates,
    load_setup,
    save_setup,
)

from layouts import far_topology, line_topology


def test_s1_to_destination_distance(paper_setup):
    topo, _ = paper_setup
    d = topo.link_distances
    assert d.s1_d == pytest.approx(82.4621, abs=1e-4)
    assert d.s2_d == pytest.approx(101.9804, abs=1e-4)


def test_first_relay_position(paper_setup):
    topo, _ = paper_setup
    assert topo.relay_pos[0] == (50.0, 48.75)
    assert topo.relay_pos[7] == (50.0, -38.75)
    assert topo.num_relays == 8


@pytest.mark.parametrize("s1, s2, d, relays, message", [
    ((0, 0), (1, 1), (0, 0), [(2, 2)], "nodes s1 and d are coincident at (0.0, 0.0)"),
    ((0, 0), (1, 1), (5, 5), [(5, 5)], "nodes r1 and d are coincident at (5.0, 5.0)"),
    ((3, 4), (1, 1), (3, 4), [(2, 2), (6, 6)], "nodes s1 and d are coincident at (3.0, 4.0)"),
    ((0, 0), (7.5, -2), (7.5, -2), [(2, 2), (6, 6)], "nodes s2 and d are coincident at (7.5, -2.0)"),
    ((0, 0), (1, 1), (9, 9), [(2, 2), (0, 0), (4, 4)], "nodes s1 and r2 are coincident at (0.0, 0.0)"),
    ((0, 0), (1, 1), (9, 9), [(2, 2), (3, 3), (1, 1)], "nodes s2 and r3 are coincident at (1.0, 1.0)"),
    ((0, 0), (1, 1), (50, 5), [(2, 2), (3, 3), (50, 5)], "nodes r3 and d are coincident at (50.0, 5.0)"),
    # Several zero-length links: the first in the order s1-d, s2-d, then
    # s1-rk, s2-rk, rk-d for k = 1, 2, ... is named.
    ((0, 0), (0, 0), (0, 0), [(0, 0)], "nodes s1 and d are coincident at (0.0, 0.0)"),
    ((0, 0), (1, 1), (9, 9), [(2, 2), (9, 9), (3, 3), (1, 1)],
     "nodes r2 and d are coincident at (9.0, 9.0)"),
], ids=["s1-d", "r1-d", "s1-d-two-relays", "s2-d", "s1-r2", "s2-r3", "r3-d", "all", "r2-d-before-s2-r4"])
def test_coincident_nodes_rejected(s1, s2, d, relays, message):
    with pytest.raises(DegenerateGeometryError) as err:
        NetworkTopology(s1_pos=s1, s2_pos=s2, d_pos=d, relay_pos=relays, alpha=3)
    assert str(err.value) == message


def test_invalid_topology_inputs():
    with pytest.raises(ConfigError):
        NetworkTopology((0, 0), (1, 1), (2, 2), [], alpha=3)
    with pytest.raises(ConfigError):
        NetworkTopology((0, 0), (1, 1), (2, 2), [(3, 3)], alpha=0.0)
    with pytest.raises(ConfigError):
        NetworkTopology((math.nan, 0), (1, 1), (2, 2), [(3, 3)], alpha=3)


@pytest.mark.parametrize("edit, got", [
    ({"s1_pos": "20"}, "'20'"),  # float() of each character would read (2, 0)
    ({"relay_pos": ["55", "45"]}, "'55'"),
    ({"s1_pos": (20, 20, 99)}, "(20, 20, 99)"),
    ({"s1_pos": (True, 20)}, "(True, 20)"),
    ({"d_pos": 100}, "100"),
    ({"s2_pos": (10**400, 0)}, f"({10**400}, 0)"),
    ({"relay_pos": [(50, math.inf)]}, "(50, inf)"),
    ({"s1_pos": (math.nan, 0)}, "(nan, 0)"),
], ids=["string", "string-relays", "three-numbers", "boolean", "one-number", "integer-past-the-float-range", "infinite",
        "nan"])
def test_a_coordinate_is_exactly_two_real_numbers(edit, got):
    fields = dict(s1_pos=(20, 20), s2_pos=(0, 20), d_pos=(100, 0), relay_pos=[(50, 5)])
    with pytest.raises(ConfigError) as err:
        NetworkTopology(**dict(fields, **edit))
    assert str(err.value) == f"a coordinate must be two finite real numbers, got {got}"


@pytest.mark.parametrize("alpha", [True, "3", None, 0, -1.0, math.inf, math.nan, 10**400])
def test_the_path_loss_exponent_is_a_positive_real_number(alpha):
    with pytest.raises(ConfigError) as err:
        NetworkTopology((20, 20), (0, 20), (100, 0), [(50, 5)], alpha)
    assert str(err.value) == f"path-loss exponent must be a positive real number, got {alpha!r}"


def test_a_topology_takes_any_real_numbers_as_floats():
    topo = NetworkTopology(np.array([20, 20]), (np.float32(0.0), 20), [100, 0], [(50, np.int64(5))], 3)
    assert (topo.s1_pos, topo.s2_pos, topo.d_pos, topo.relay_pos) == ((20.0, 20.0), (0.0, 20.0), (100.0, 0.0),
                                                                       ((50.0, 5.0),))
    assert all(type(v) is float for p in (topo.s1_pos, topo.s2_pos, topo.d_pos, *topo.relay_pos) for v in p)
    assert type(topo.alpha) is float and topo.alpha == 3.0
    assert topo == NetworkTopology((20.0, 20.0), (0.0, 20.0), (100.0, 0.0), ((50.0, 5.0),), 3.0)


def test_distance_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = tuple(rng.uniform(-50, 50, 2))
        b = tuple(rng.uniform(-50, 50, 2))
        assert euclidean(a, b) == euclidean(b, a)


def test_paper_defaults(paper_setup):
    topo, cfg = paper_setup
    assert cfg.gamma_th == 1.0
    assert cfg.beta_s == 5 and cfg.beta_p == 5
    assert cfg.noise_dbm == -50.0
    assert topo.alpha == 3.0


def test_snr_linear():
    cfg = SystemConfig(power_dbm=20.0, noise_dbm=-50.0)
    assert cfg.snr_linear() == pytest.approx(1e7)
    assert SystemConfig(noise_dbm=-math.inf).snr_linear() == math.inf
    assert SystemConfig(power_dbm=math.inf).snr_linear() == math.inf


def test_gamma_th_monotone_in_rate():
    thresholds = [SystemConfig(rate_r0=r).gamma_th for r in (0.25, 0.5, 1.0, 2.0, 3.0)]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.3, 1 / 3, 0.5, 0.7, 0.9, 0.999, 1.0])
@pytest.mark.parametrize("total_bits,rate", [(10.0, 1.0), (7.0, 2.0), (13.0, 0.5)])
def test_slot_split_ceiling_identity(eta, total_bits, rate):
    cfg = SystemConfig(eta=eta, total_bits=total_bits, rate_r0=rate)
    whole = math.ceil(round(total_bits / rate, 9))
    assert cfg.beta_s + cfg.beta_p in (whole, whole + 1)
    assert cfg.beta_s >= 0 and cfg.beta_p >= 0
    assert cfg.beta_t == whole >= 1


def test_eta_float_fuzz_does_not_overcount():
    # 0.7*10 and 0.3*10 both carry float error; ceilings must stay exact.
    cfg = SystemConfig(eta=0.7, total_bits=10.0, rate_r0=1.0)
    assert (cfg.beta_s, cfg.beta_p) == (7, 3)
    assert SystemConfig(total_bits=0.1 * 3, rate_r0=0.1).beta_t == 3  # 3.0000000000000004 slots


def test_rate_lambda_scales_with_alpha():
    topo, cfg = default_paper_setup()
    base = link_rates(topo, cfg)
    doubled = NetworkTopology(
        s1_pos=topo.s1_pos,
        s2_pos=topo.s2_pos,
        d_pos=(
            topo.s1_pos[0] + 2 * (topo.d_pos[0] - topo.s1_pos[0]),
            topo.s1_pos[1] + 2 * (topo.d_pos[1] - topo.s1_pos[1]),
        ),
        relay_pos=topo.relay_pos,
        alpha=topo.alpha,
    )
    scaled = link_rates(doubled, cfg)
    assert scaled.direct[0] == pytest.approx(base.direct[0] * 2**topo.alpha)


def test_without_relay_cooperation_no_relay_hears_a_source():
    topo, cfg = default_paper_setup()
    coop, alone = link_rates(topo, cfg), link_rates(topo, cfg, cooperate=False)
    assert np.isinf(alone.source_relay).all() and alone.source_relay.shape == coop.source_relay.shape == (2, 8)
    assert (alone.gates == 1.0).all() and (coop.gates < 1.0).all()
    assert np.array_equal(alone.direct, coop.direct) and np.array_equal(alone.miss, coop.miss)
    assert np.array_equal(alone.relay_dest, coop.relay_dest)


def test_a_link_whose_distance_to_the_alpha_overflows_has_an_infinite_rate_quietly():
    # A node 1e103 away: distance**alpha overflows, an SNR of 0; noiseless
    # every rate is 0, as it is for every finite distance.
    _, cfg = default_paper_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for node, link in (("source1", "direct"), ("relay1", "relay_dest"), ("destination", "relay_dest")):
            topo = far_topology(node)
            for noise_dbm, rate in ((cfg.noise_dbm, math.inf), (-math.inf, 0.0)):
                rates = link_rates(topo, replace(cfg, noise_dbm=noise_dbm))
                assert getattr(rates, link)[0] == rate, (node, noise_dbm)
                if node != "destination":
                    assert rates.source_relay[0][0] == rate, (node, noise_dbm)


def _per_source_reference(topo, cfg, source, cooperate):
    """One source's links by the formulas each layer once applied itself: a
    vector power per row, each row a column of one (m, 3) array, a scalar
    power for the direct link, the gates as one vector ``expm1``, 0 at a zero
    threshold, and the direct miss as a scalar ``expm1``."""
    d, snr, g, a = topo.link_distances, cfg.snr_linear(), cfg.gamma_th, topo.alpha
    rows = d.per_relay.T.copy().T
    with np.errstate(over="ignore"):
        gains = np.float64((d.s1_d, d.s2_d)[source - 1]) ** a, rows[source - 1] ** a, rows[2] ** a
        direct, source_relay, relay_dest = (x / snr if snr < math.inf else np.zeros_like(x) for x in gains)
    if not cooperate:
        source_relay = np.full(topo.num_relays, math.inf)
    gates = -np.expm1(-source_relay * g) if g else np.zeros(topo.num_relays)
    miss = -math.expm1(-float(direct) * g) if g else 0.0
    return float(direct), source_relay, relay_dest, gates, miss


def test_the_link_table_has_the_bits_of_the_per_source_formulas():
    # Every 1 dB, where the 5 dB golden grid would see a vector expm1 for the
    # direct misses only at 5 and 10 dBm.
    topo, cfg = default_paper_setup()
    for layout in (topo, *(line_topology(m) for m in (1, 10, 16, 24))):
        for power in range(-30, 61):
            for edit in ({}, {"rate_r0": 1e-17}, {"noise_dbm": -math.inf}):
                at = replace(cfg, power_dbm=float(power), **edit)
                for cooperate in (True, False):
                    links = link_rates(layout, at, cooperate)
                    for s in (1, 2):
                        got = (links.direct[s - 1], links.source_relay[s - 1], links.relay_dest,
                               links.gates[s - 1], links.miss[s - 1])
                        want = _per_source_reference(layout, at, s, cooperate)
                        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want], (
                            layout.num_relays, power, edit, cooperate, s)


def test_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig(eta=1.5)
    with pytest.raises(ConfigError):
        SystemConfig(rate_r0=0.0)
    with pytest.raises(ConfigError):
        SystemConfig(total_bits=-1.0)
    with pytest.raises(ConfigError):
        SystemConfig(granularity=0)


def test_setup_roundtrip(tmp_path, paper_setup):
    topo, cfg = paper_setup
    path = tmp_path / "setup.json"
    save_setup(path, topo, cfg)
    topo2, cfg2 = load_setup(path)
    assert topo2 == topo
    assert cfg2 == cfg
    doc = json.loads(path.read_text())
    assert doc["topology"]["s1"] == [20.0, 20.0]
    assert doc["system"]["noise_dbm"] == -50.0
    assert "beta_t" not in doc["system"]  # derived, like beta_s and beta_p


def test_malformed_setup_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"system": {}}))
    with pytest.raises(ConfigError):
        load_setup(path)
