import json
import math

import numpy as np
import pytest

from mdma_relay.topology import (
    ConfigError,
    DegenerateGeometryError,
    LinkParam,
    NetworkTopology,
    SystemConfig,
    default_paper_setup,
    distances,
    euclidean,
    link_rates,
    load_setup,
    save_setup,
)


def test_s1_to_destination_distance(paper_setup):
    topo, _ = paper_setup
    d = distances(topo)
    assert d.s1_d == pytest.approx(82.4621, abs=1e-4)
    assert d.s2_d == pytest.approx(101.9804, abs=1e-4)


def test_first_relay_position(paper_setup):
    topo, _ = paper_setup
    assert topo.relay_pos[0] == (50.0, 48.75)
    assert topo.relay_pos[7] == (50.0, -38.75)
    assert topo.num_relays == 8


def test_coincident_nodes_rejected():
    with pytest.raises(DegenerateGeometryError):
        NetworkTopology(
            s1_pos=(0, 0), s2_pos=(1, 1), d_pos=(0, 0), relay_pos=[(2, 2)], alpha=3
        )
    with pytest.raises(DegenerateGeometryError):
        NetworkTopology(
            s1_pos=(0, 0), s2_pos=(1, 1), d_pos=(5, 5), relay_pos=[(5, 5)], alpha=3
        )


def test_invalid_topology_inputs():
    with pytest.raises(ConfigError):
        NetworkTopology((0, 0), (1, 1), (2, 2), [], alpha=3)
    with pytest.raises(ConfigError):
        NetworkTopology((0, 0), (1, 1), (2, 2), [(3, 3)], alpha=0.0)
    with pytest.raises(ConfigError):
        NetworkTopology((math.nan, 0), (1, 1), (2, 2), [(3, 3)], alpha=3)


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
    base = link_rates(topo, cfg, 1)
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
    scaled = link_rates(doubled, cfg, 1)
    assert scaled.direct == pytest.approx(base.direct * 2**topo.alpha)


def test_link_param_validation():
    with pytest.raises(ConfigError):
        LinkParam(0.0)
    with pytest.raises(ConfigError):
        LinkParam(-1.0)
    assert LinkParam(2.0).mean_snr == 0.5


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
