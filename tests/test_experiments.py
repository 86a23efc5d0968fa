import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mdma_relay
from mdma_relay import analytic, cli, experiments, simulator
from mdma_relay.analytic import step_outages
from mdma_relay.cli import main
from mdma_relay.experiments import (
    CSV_COLUMNS,
    SweepSpec,
    _sigma_gate,
    run_manifest,
    run_sweep,
    validate,
    write_rows_csv,
)
from chain_reference import overall_outage, stationary_distribution
from mdma_relay.markov import build_chain, ring_distribution
from mdma_relay.simulator import SimOptions, shared_draws, simulate
from mdma_relay.topology import (
    ConfigError,
    NetworkTopology,
    default_paper_setup,
    link_rates,
    save_setup,
    topology_to_dict,
)


def line_topology(m: int) -> NetworkTopology:
    """The reference layout with m relays on its x=50 line; m=10 ties two
    relay-destination distances (y=40 and y=-40)."""
    topo, _ = default_paper_setup()
    relays = tuple((50.0, 55.0 - 100.0 * (i - 0.5) / m) for i in range(1, m + 1))
    return NetworkTopology(topo.s1_pos, topo.s2_pos, topo.d_pos, relays, topo.alpha)


@pytest.fixture(scope="module")
def setup10():
    return default_paper_setup(power_dbm=10.0)


# ---------------------------------------------------------------------------
# SweepSpec validation
# ---------------------------------------------------------------------------

def test_spec_requires_schemes():
    with pytest.raises(ConfigError):
        SweepSpec("power_dbm", (0.0, 10.0), (), 1000)


def test_spec_requires_sorted_nonempty_grid():
    with pytest.raises(ConfigError):
        SweepSpec("power_dbm", (), ("mdma",), 1000)
    with pytest.raises(ConfigError):
        SweepSpec("power_dbm", (10.0, 0.0), ("mdma",), 1000)


def test_spec_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        SweepSpec("noise_floor", (1.0,), ("mdma",), 1000)
    with pytest.raises(ConfigError):
        SweepSpec("power_dbm", (1.0,), ("ofdma",), 1000)


def test_spec_refuses_a_repeated_scheme():
    with pytest.raises(ConfigError, match="scheme 'mdma' is listed more than once"):
        SweepSpec("power_dbm", (4.0,), ("mdma", "mdma"), 1000)
    with pytest.raises(ConfigError, match="scheme 'tdma' is listed more than once"):
        SweepSpec.from_dict(dict(_spec(), schemes=["tdma", "noma", "tdma"]))


def test_spec_refuses_strings_for_lists():
    with pytest.raises(ConfigError, match="'values' must be a list"):
        SweepSpec("power_dbm", "04", ("mdma",), 1000)
    with pytest.raises(ConfigError, match="'schemes' must be a list"):
        SweepSpec("power_dbm", (4.0,), "mdma", 1000)


def test_spec_from_dict_roundtrip():
    spec = SweepSpec.from_dict(
        {"parameter": "eta", "values": [0.5, 0.7], "schemes": ["mdma"], "trials": 20000, "seed": 3}
    )
    assert spec.parameter == "eta"
    assert spec.values == (0.5, 0.7)
    with pytest.raises(ConfigError):
        SweepSpec.from_dict({"parameter": "eta"})


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------

def test_eta_sweep_analytic_op_decreases(setup10):
    topo, cfg = setup10
    spec = SweepSpec("eta", (0.5, 0.7, 0.9), ("mdma",), 5000, seed=1)
    rows = run_sweep(spec, topo, cfg)
    ops = [r.analytic_op for r in rows]
    assert all(o is not None for o in ops)
    assert ops[0] > ops[1] > ops[2]


def test_power_sweep_analytic_op_strictly_decreasing(setup10):
    topo, cfg = setup10
    spec = SweepSpec("power_dbm", tuple(float(p) for p in range(0, 31, 6)), ("mdma",), 2000, seed=1)
    rows = run_sweep(spec, topo, cfg)
    ops = [r.analytic_op for r in rows]
    assert all(a > b for a, b in zip(ops, ops[1:]))


def test_baseline_rows_have_no_analytic_fields(setup10):
    topo, cfg = setup10
    spec = SweepSpec("power_dbm", (10.0,), ("mdma", "tdma", "fdma", "noma"), 3000, seed=2)
    rows = run_sweep(spec, topo, cfg)
    by_scheme = {r.scheme: r for r in rows}
    assert by_scheme["mdma"].analytic_op is not None
    for scheme in ("tdma", "fdma", "noma"):
        row = by_scheme[scheme]
        assert row.analytic_op is None and row.analytic_tc is None and row.analytic_phi is None
        assert row.sim_op is not None and not row.error


def test_relay_count_sweep_and_in_row_errors(setup10):
    topo, cfg = setup10
    spec = SweepSpec("relay_count", (1, 4, 8, 12), ("mdma",), 2000, seed=3)
    rows = run_sweep(spec, topo, cfg)
    assert [r.value for r in rows] == [1.0, 4.0, 8.0, 12.0]
    assert all(not r.error for r in rows[:3])
    assert rows[3].error  # only eight relays exist
    assert rows[3].sim_op is None


def test_granularity_sweep_runs(setup10):
    topo, cfg = setup10
    spec = SweepSpec("granularity", (10, 100), ("mdma",), 2000, seed=4)
    rows = run_sweep(spec, topo, cfg)
    assert all(not r.error for r in rows)


# ---------------------------------------------------------------------------
# broadcast draws shared by the schemes of a sweep point
# ---------------------------------------------------------------------------

ALL_SCHEMES = ("mdma", "tdma", "fdma", "noma")
README_POWERS = tuple(float(p) for p in range(0, 31, 2))


def _sweep_outputs(monkeypatch, tmp_path, spec, topo, cfg, options, share):
    """The CSV of `run_sweep` and every estimate behind it.  Without `share`,
    each scheme runs as a lone `simulate`, drawing its own episodes."""
    seen = []

    def spy(*args, **kwargs):
        est = simulate(*args, **kwargs)
        assert (kwargs["draws"] is not None) == share
        seen.append((json.dumps(est.to_dict()), est.occupancy_counts.tolist(),
                     est.decode_attempts, est.decode_empties))
        return est

    with monkeypatch.context() as m:
        m.setattr(experiments, "simulate", spy)
        if not share:
            m.setattr(experiments, "shared_draws", lambda *args: None)
        rows = run_sweep(spec, topo, cfg, options)
    path = tmp_path / f"shared-{share}.csv"
    write_rows_csv(path, rows)
    return path.read_bytes(), seen


@pytest.mark.parametrize("order", ["readme", "reversed"])
@pytest.mark.parametrize("parameter, values, trials, edits, options, chunk", [
    pytest.param("power_dbm", (-30.0, *README_POWERS), 20_000, {}, SimOptions(), None, id="readme"),
    pytest.param("power_dbm", (0.0, 30.0), 20_000, {"noise_dbm": -math.inf}, SimOptions(), None,
                 id="noiseless"),
    pytest.param("relay_count", (1, 3, 8), 20_000, {}, SimOptions(), None, id="relay-count"),
    pytest.param("power_dbm", README_POWERS, 10_000, {}, SimOptions(relay_cooperation=False), None,
                 id="no-cooperation"),
    *[pytest.param("power_dbm", (-30.0, 0.0, 4.0, 10.0, 30.0), trials, {}, SimOptions(), None,
                   id=f"trials-{trials}") for trials in (1, 7, simulator._CHUNK + 1)],
    pytest.param("power_dbm", (4.0, 10.0), 3_000, {}, SimOptions(), 7, id="chunk-7"),
])
def test_shared_draws_change_no_result(setup10, monkeypatch, tmp_path, order, parameter, values,
                                       trials, edits, options, chunk):
    topo, cfg = setup10
    if chunk:
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
    schemes = ALL_SCHEMES if order == "readme" else ALL_SCHEMES[::-1]
    spec = SweepSpec(parameter, values, schemes, trials, seed=1)
    shared = _sweep_outputs(monkeypatch, tmp_path, spec, topo, replace(cfg, **edits), options, True)
    lone = _sweep_outputs(monkeypatch, tmp_path, spec, topo, replace(cfg, **edits), options, False)
    assert len(shared[1]) == len(values) * len(schemes)
    assert shared == lone


@pytest.mark.parametrize("power", [4.0, 30.0])
def test_a_sweep_point_draws_each_broadcast_chunk_once(setup10, monkeypatch, power):
    topo, cfg = setup10
    drawn = {1: 0, 2: 0}
    draw = simulator._Episodes.draw

    def spy(self, n):
        drawn[self.source] += n
        return draw(self, n)

    def episodes(schemes):
        drawn.update({1: 0, 2: 0})
        run_sweep(SweepSpec("power_dbm", (power,), schemes, 20_000, seed=2), topo, cfg)
        return dict(drawn)

    monkeypatch.setattr(simulator._Episodes, "draw", spy)
    alone = {scheme: episodes((scheme,)) for scheme in ALL_SCHEMES}
    for schemes in (ALL_SCHEMES, ALL_SCHEMES[::-1]):
        together = episodes(schemes)
        for source in (1, 2):
            assert together[source] <= alone["fdma"][source] + simulator._CHUNK
        # Drawn apart, the schemes draw about twice as much.
        assert sum(together.values()) < 0.7 * sum(sum(d.values()) for d in alone.values())


def test_a_shared_sweep_point_keeps_little_memory(setup10):
    topo, cfg = setup10
    run_sweep(SweepSpec("power_dbm", (10.0,), ALL_SCHEMES, 100), topo, cfg)  # warm caches
    tracemalloc.start()
    try:
        run_sweep(SweepSpec("power_dbm", (10.0,), ALL_SCHEMES, 200_000, seed=3), topo, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Flags only: keeping each chunk's cumsums as well peaked at 9.4 MB, its SNRs at 38 MB.
    assert peak < 5e6


def test_shared_draws_refuse_a_traced_or_different_run(setup10):
    topo, cfg = setup10
    draws = shared_draws(topo, cfg, 3)
    for scheme in ("mdma", "tdma", "fdma"):
        with pytest.raises(ValueError, match="traced run"):
            simulate(scheme, topo, cfg, 100, seed=3, options=SimOptions(trace_limit=10), draws=draws)
    others = [
        (topo, cfg, 4, SimOptions(), draws),  # seed
        (topo, cfg, 3, SimOptions(), {1: draws[2], 2: draws[1]}),  # source
        (topo, replace(cfg, power_dbm=11.0), 3, SimOptions(), draws),  # rates
        (replace(topo, relay_pos=topo.relay_pos[:3]), cfg, 3, SimOptions(), draws),  # relays
        (topo, replace(cfg, rate_r0=1.5), 3, SimOptions(), draws),  # threshold
        (topo, cfg, 3, SimOptions(relay_cooperation=False), draws),  # cooperation
    ]
    for scheme in ALL_SCHEMES:
        for t, c, seed, options, d in others:
            with pytest.raises(ValueError, match="made for another run"):
                simulate(scheme, t, c, 100, seed=seed, options=options, draws=d)
        shared = simulate(scheme, topo, cfg, 100, seed=3, draws=draws)
        assert shared.to_dict() == simulate(scheme, topo, cfg, 100, seed=3).to_dict()


# ---------------------------------------------------------------------------
# CSV and manifest
# ---------------------------------------------------------------------------

def test_csv_byte_stability(tmp_path, setup10):
    topo, cfg = setup10
    spec = SweepSpec("power_dbm", (6.0, 12.0), ("mdma", "tdma"), 4000, seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(p1, run_sweep(spec, topo, cfg))
    write_rows_csv(p2, run_sweep(spec, topo, cfg))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.split(b"\n", 1)[0].decode()
    assert header == ",".join(CSV_COLUMNS)


def test_manifest_contains_hash_and_versions(setup10):
    topo, cfg = setup10
    spec = SweepSpec("eta", (0.5,), ("mdma",), 10000, seed=6)
    doc = run_manifest(spec, topo, cfg, SimOptions())
    assert len(doc["config_sha256"]) == 64
    assert "mdma_relay" in doc["versions"]
    again = run_manifest(spec, topo, cfg, SimOptions())
    assert doc["config_sha256"] == again["config_sha256"]


def test_manifest_refuses_a_setting_json_cannot_hold(setup10):
    topo, cfg = setup10
    spec = SweepSpec("eta", (0.5,), ("mdma",), 10000)
    with pytest.raises(ConfigError, match="noise_dbm"):
        run_manifest(spec, topo, replace(cfg, noise_dbm=-math.inf), SimOptions())


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_at_reference_setup(setup10):
    topo, cfg = setup10
    report = validate(topo, cfg, trials=150_000, seed=11)
    assert report.passed, "\n".join(report.lines())
    names = [c.name for c in report.checks]
    assert "relay_sum_cdf_vs_uniformization" in names
    assert "stationary_vs_occupancy" in names
    assert "overall_op_vs_frequency" in names
    assert any(n.startswith("step_outage:") for n in names)


def test_validate_stable_across_seeds(setup10):
    topo, cfg = setup10
    for seed in (1, 2, 3, 4, 5):
        assert validate(topo, cfg, trials=50_000, seed=seed).passed


def test_step_gate_allows_half_a_count():
    # At n*p = 0.08 a correct engine shows one failure 8% of the time and two
    # 0.3% of the time; 3 sigma alone (1.2e-4) would fail the single one.
    n, p = 7200, 1.13e-5
    assert _sigma_gate(p, 1 / n, n, "one").passed
    assert not _sigma_gate(p, 2 / n, n, "two").passed
    assert _sigma_gate(0.0, 0.0, n, "exact").passed
    assert not _sigma_gate(0.0, 1 / n, n, "zero-variance").passed
    # With many expected failures the half count barely widens 3 sigma.
    assert not _sigma_gate(0.1, 0.1 + 3.1 * math.sqrt(0.09 / 50_000), 50_000, "wide").passed


def test_validate_tied_layout_skips_only_the_closed_form_check(setup10):
    _, cfg = setup10
    report = validate(line_topology(10), cfg, trials=50_000, seed=12)
    assert report.passed, "\n".join(report.lines())
    names = [c.name for c in report.checks]
    assert "relay_sum_cdf_vs_uniformization" not in names
    assert "overall_op_vs_frequency" in names


def test_validate_discretization_error_shrinks(setup10):
    # Self-convergence: refining the bin count moves the relay-step outage
    # toward its fine-grained limit.
    topo, cfg = setup10
    from mdma_relay.analytic import step_outages

    low = replace(cfg, power_dbm=4.0)
    coarse = step_outages(topo, replace(low, granularity=10))[1].relay
    mid = step_outages(topo, replace(low, granularity=100))[1].relay
    fine = step_outages(topo, replace(low, granularity=2000))[1].relay
    ref = step_outages(topo, replace(low, granularity=8000))[1].relay
    assert abs(fine - ref) < abs(mid - ref) < abs(coarse - ref)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_analyze(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert main(["analyze", "--paper-defaults", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["beta_s"] == 5 and doc["beta_p"] == 5
    assert 0 < doc["overall_op"] < 1


@pytest.mark.parametrize("power_dbm", ["-10", "-8"])
def test_cli_analyze_at_low_power_matches_the_direct_solve(tmp_path, power_dbm):
    out = tmp_path / "a.json"
    argv = ["analyze", "--paper-defaults", "--power-dbm", power_dbm, "--out", str(out)]
    assert main(argv) == 0
    topo, cfg = default_paper_setup(power_dbm=float(power_dbm))
    outs = step_outages(topo, cfg)
    chain = build_chain(outs, cfg.beta_s, cfg.beta_p)
    pi = stationary_distribution(chain)
    direct = overall_outage(pi, outs, chain.states)
    assert abs(json.loads(out.read_text())["overall_op"] - direct) < 1e-9
    assert np.max(np.abs(pi - ring_distribution(outs, cfg.beta_s, cfg.beta_p))) < 1e-12


@pytest.mark.parametrize("power_dbm", ["-12", "-14", "-16"])
def test_cli_analyze_where_every_attempt_fails(tmp_path, power_dbm):
    out = tmp_path / "a.json"
    chain = tmp_path / "c.json"
    assert main(["analyze", "--paper-defaults", "--power-dbm", power_dbm, "--out", str(out)]) == 0
    assert main(["dump-chain", "--paper-defaults", "--power-dbm", power_dbm, "--out", str(chain)]) == 0
    # Strict JSON: the infinite slot cost is written as null, not Infinity.
    doc = json.loads(out.read_text(), parse_constant=_refuse)
    assert (doc["overall_op"], doc["slot_cost"], doc["efficiency"]) == (1.0, None, 0.0)
    doc = json.loads(chain.read_text(), parse_constant=_refuse)
    assert (doc["overall_outage"], doc["slot_cost"], doc["efficiency"]) == (1.0, None, 0.0)


@pytest.mark.parametrize("eta", ["0.3", "0.5", "0.7", "0.9"])
@pytest.mark.parametrize("power_dbm", ["-12", "-14", "-16"])
def test_every_attempt_fails_at_every_eta(tmp_path, power_dbm, eta):
    # A sum of outages near 1 rounds to either side of 1; the overall outage
    # must still be exactly 1 here, whatever the payload split.
    out = tmp_path / "a.json"
    chain = tmp_path / "c.json"
    setup = ["--paper-defaults", "--power-dbm", power_dbm, "--eta", eta]
    assert main(["analyze", *setup, "--out", str(out)]) == 0
    assert main(["dump-chain", *setup, "--out", str(chain)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_refuse)
    assert (doc["overall_op"], doc["slot_cost"], doc["efficiency"]) == (1.0, None, 0.0)
    doc = json.loads(chain.read_text(), parse_constant=_refuse)
    assert (doc["overall_outage"], doc["slot_cost"], doc["efficiency"]) == (1.0, None, 0.0)


def _refuse(token):
    raise AssertionError(f"{token} is not valid JSON")


# The tied relay sum's bins come from stepping its phase-type chain, O(n m),
# so the largest granularity accepted takes well under a second.
@pytest.mark.parametrize("relays, extra", [(10, []), (24, []), (10, ["--granularity", "1000000"])],
                         ids=["10", "24", "10-n1e6"])
def test_cli_analyze_tied_and_many_relays(tmp_path, relays, extra):
    _, cfg = default_paper_setup()
    config = tmp_path / "line.json"
    save_setup(config, line_topology(relays), cfg)
    out = tmp_path / "a.json"
    assert main(["analyze", "--config", str(config), *extra, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0 < doc["overall_op"] < 1
    assert all(0.0 < v < 1.0 for v in doc["step_outages"].values())


def test_cli_simulate_with_trace(tmp_path):
    out = tmp_path / "sim.json"
    trace = tmp_path / "trace.csv"
    rc = main([
        "simulate", "--paper-defaults", "--scheme", "tdma", "--trials", "2000",
        "--seed", "1", "--trace-slots", "50", "--trace-out", str(trace),
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["scheme"] == "tdma" and doc["slots"] == 2000
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "slot,scheme,state,outcome,mrc_total,decode_set_bitmask"
    assert len(lines) == 51


@pytest.mark.parametrize("scheme, power", [
    pytest.param("noma", [], id="noma-solo1-never-tried"),
    pytest.param("mdma", ["--power-dbm", "-30"], id="mdma-no-pairs"),
])
def test_cli_simulate_writes_strict_json(tmp_path, scheme, power):
    # NOMA at rho 0.7 almost never sends stream 1 solo; at -30 dBm MDMA never
    # delivers.  Such estimates are undefined and written as null, not NaN.
    out = tmp_path / "sim.json"
    argv = ["simulate", "--paper-defaults", "--scheme", scheme, "--trials", "20000",
            "--seed", "1", "--out", str(out)] + power
    assert main(argv) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    if scheme == "noma":
        assert doc["per_step"]["solo1"]["attempts"] == 0
        assert doc["per_step"]["solo1"]["op"] is None
    else:
        assert doc["overall_op"] == 1.0 and doc["pairs"] == 0
        assert doc["tc_empirical"] is None and doc["slots_per_pair"] is None


def test_cli_refuses_trace_requests_it_cannot_honour(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    base = ["simulate", "--paper-defaults", "--trials", "200", "--seed", "1"]
    assert main(base + ["--scheme", "noma", "--trace-slots", "50", "--trace-out", str(trace)]) == 2
    assert main(base + ["--scheme", "mdma", "--trace-out", str(trace)]) == 2
    assert capsys.readouterr().err.count("error:") == 2
    assert not trace.exists()


def test_cli_sweep_refuses_small_trials(tmp_path):
    spec = {"parameter": "power_dbm", "values": [10.0], "schemes": ["mdma"], "trials": 500, "seed": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["sweep", "--paper-defaults", "--spec", str(spec_path), "--out", str(tmp_path)])
    assert rc == 2
    rc = main([
        "sweep", "--paper-defaults", "--spec", str(spec_path),
        "--out", str(tmp_path), "--allow-small-trials",
    ])
    assert rc == 0
    csv_path = tmp_path / "sweep_power_dbm.csv"
    manifest = tmp_path / "sweep_power_dbm.manifest.json"
    assert csv_path.exists() and manifest.exists()
    assert "config_sha256" in json.loads(manifest.read_text())


def test_cli_dump_chain(tmp_path):
    out = tmp_path / "chain.json"
    assert main(["dump-chain", "--paper-defaults", "--eta", "0.7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 2 * 7 + 4 * 3
    assert math.isclose(sum(doc["stationary"]), 1.0, abs_tol=1e-9)


def test_cli_dump_chain_memory_is_linear_in_the_states(tmp_path):
    topo, cfg = default_paper_setup()
    config = tmp_path / "long.json"
    save_setup(config, topo, replace(cfg, total_bits=2000.0))
    out = tmp_path / "chain.json"
    argv = ["dump-chain", "--config", str(config), "--out", str(out)]
    main(argv)  # warm caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(out.read_text())["states"]) == 6000
    # A dense 6 000 x 6 000 matrix alone is 288 MB; the sparse dump peaks near 10 MB.
    assert peak < 20e6


def _analyze_at(tmp_path, total_bits: float, eta: str) -> dict:
    topo, cfg = default_paper_setup()
    config = tmp_path / f"payload{total_bits:g}.json"
    save_setup(config, topo, replace(cfg, total_bits=total_bits))
    out = tmp_path / "a.json"
    assert main(["analyze", "--config", str(config), "--eta", eta, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("eta", ["1", "0.5"])
def test_cli_analyze_past_the_state_cap(tmp_path, eta):
    # 4.9e5 bits at eta 0.5 would be a chain of 1 470 000 states, past the
    # cap, but analyze sums over phases and lists no state.  A single phase
    # (eta 1) and phases of equal length (eta 0.5) make OP independent of
    # the payload size, exactly.
    doc = _analyze_at(tmp_path, 4.9e5, eta)
    small = _analyze_at(tmp_path, 10.0, eta)
    assert doc["overall_op"] == small["overall_op"]
    assert doc["slot_cost"] == small["slot_cost"]
    slots = doc["beta_s"] + 2 * doc["beta_p"]
    assert 2 * slots == {"1": 980_000, "0.5": 1_470_000}[eta]  # chain states
    assert doc["efficiency"] == pytest.approx(2.0 / (doc["slot_cost"] * slots), rel=1e-15)


def test_cli_analyze_where_the_slot_count_passes_the_float_range(tmp_path):
    # beta_s + 2 beta_p is an int of about 2.55e308: the efficiency would be
    # below the smallest normal float, so it is 0; OP and T_c are finite.
    doc = _analyze_at(tmp_path, 1.7e308, "0.5")
    assert doc["beta_s"] + 2 * doc["beta_p"] > sys.float_info.max
    assert doc["overall_op"] == _analyze_at(tmp_path, 10.0, "0.5")["overall_op"]
    assert math.isfinite(doc["slot_cost"]) and doc["efficiency"] == 0.0


@pytest.mark.parametrize("total_bits", [4.9e5, 1e308])
@pytest.mark.parametrize("command", [["dump-chain"], ["simulate", "--scheme", "mdma", "--trials", "10"]],
                         ids=["dump-chain", "simulate-mdma"])
def test_cli_per_state_commands_refuse_a_chain_past_the_cap(tmp_path, capsys, command, total_bits):
    topo, cfg = default_paper_setup()
    config = tmp_path / "long.json"
    save_setup(config, topo, replace(cfg, total_bits=total_bits))
    assert main([*command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    states = "1470000" if total_bits == 4.9e5 else "3.000000e+308"
    assert captured.out == ""
    assert captured.err == (f"error: the protocol chain would have {states} states, "
                            "more than the 1000000 supported\n")


@pytest.mark.parametrize("total_bits, states", [(2e6, "8000000"), (1e308, "4.000000e+308")])
@pytest.mark.parametrize("scheme", ["tdma", "fdma", "noma"])
def test_baselines_refuse_a_run_past_the_cap(tmp_path, capsys, scheme, total_bits, states):
    # TDMA and FDMA list a label and an occupancy entry for each of their
    # 4 * beta_t states, as MDMA does for its chain's, and NOMA's two solo
    # streams a row per slot of their beta_t payloads, so they share its cap.
    topo, cfg = default_paper_setup()
    config = tmp_path / "long.json"
    save_setup(config, topo, replace(cfg, total_bits=total_bits))
    assert main(["simulate", "--scheme", scheme, "--trials", "10", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    message = f"the protocol chain would have {states} states, more than the 1000000 supported"
    assert captured.out == "" and captured.err == f"error: {message}\n"
    # A sweep records the refusal in the scheme's row.
    spec = SweepSpec("power_dbm", (10.0, 20.0), (scheme,), 100, seed=1)
    rows = run_sweep(spec, topo, replace(cfg, total_bits=total_bits))
    assert [(row.error, row.sim_op) for row in rows] == [(message, None)] * 2


def test_cli_validate_small(capsys):
    rc = main(["validate", "--paper-defaults", "--trials", "60000", "--seed", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "validation: PASS" in captured.out


def _paper_config(**edits) -> dict:
    topo, _ = default_paper_setup()
    return {"topology": dict(topology_to_dict(topo), **edits), "system": {}}


def _spec(**edits) -> dict:
    return dict({"parameter": "power_dbm", "values": [10.0], "schemes": ["mdma"],
                 "trials": 10_000}, **edits)


@pytest.mark.parametrize(
    "flag, content, message",
    [
        pytest.param("--config", _paper_config(relays=[[100.0, 0.0]]), "error:",
                     id="relay-on-destination"),
        pytest.param("--config", _paper_config(s1=["a", 20]), "error:", id="non-numeric-coordinate"),
        pytest.param("--config", dict(_paper_config(), system={"power_dbm": "x"}), "error:",
                     id="non-numeric-power"),
        pytest.param("--config", None, "error:", id="missing-config"),
        pytest.param("--spec", _spec(trials="x"), "error:", id="non-numeric-trials"),
        pytest.param("--spec", None, "error:", id="missing-spec"),
        # A string would be split into characters: "04" sweeps 0 and 4 dBm.
        pytest.param("--spec", _spec(values="04"), "'values' must be a list", id="string-values"),
        pytest.param("--spec", _spec(schemes="mdma"), "'schemes' must be a list",
                     id="string-schemes"),
        pytest.param("--spec", _spec(values=["a"]), "sweep values must be numbers",
                     id="non-numeric-value"),
        pytest.param("--spec", _spec(parameter="granularity", values=[1.5]),
                     "granularity values must be whole numbers", id="fractional-granularity"),
        pytest.param("--spec", _spec(parameter="relay_count", values=[2.5]),
                     "relay_count values must be whole numbers", id="fractional-relay-count"),
        pytest.param("--spec", _spec(values=[math.nan]), "sweep values must be finite",
                     id="nan-value"),
        pytest.param("--spec", _spec(parameter="eta", values=[0.5, math.inf]),
                     "sweep values must be finite", id="infinite-value"),
        pytest.param("--config", dict(_paper_config(), system={"power_dbm": -math.inf}),
                     "linear SNR of 0", id="zero-snr"),
        pytest.param("--config", dict(_paper_config(), system={"power_dbm": 4000.0}),
                     "overflows the linear SNR", id="overflowing-snr"),
        pytest.param("--config", dict(_paper_config(), system={"rate_r0": 2000.0}),
                     "overflows the threshold", id="overflowing-threshold"),
        pytest.param("--config", dict(_paper_config(), system={"total_bits": math.inf}),
                     "total_bits must be positive and finite", id="infinite-payload"),
        pytest.param("--config", dict(_paper_config(), system={"total_bits": 1e308,
                                                               "rate_r0": 1e-10}),
                     "total_bits 1e+308 over rate_r0 1e-10 overflows the slot count",
                     id="overflowing-slot-count"),
        pytest.param("--config", dict(_paper_config(), system={"granularity": 1000.5}),
                     "granularity must be a whole number", id="fractional-config-granularity"),
        pytest.param("--config", dict(_paper_config(), system={"granularity": math.nan}),
                     "granularity must be a whole number", id="nan-granularity"),
        pytest.param("--config", dict(_paper_config(), system={"granularity": math.inf}),
                     "granularity must be a whole number", id="infinite-granularity"),
        pytest.param("--config", dict(_paper_config(), system={"granularity": True}),
                     "granularity must be a number, got True", id="boolean-granularity"),
        pytest.param("--config", dict(_paper_config(), system={"granularity": 1e20}),
                     "granularity 100000000000000000000 is outside [1, 1000000]",
                     id="unallocatable-granularity"),
        pytest.param("--config", dict(_paper_config(), system={"granularity": 10**10}),
                     "granularity 10000000000 is outside [1, 1000000]",
                     id="oversized-granularity"),
        # Python's json reads an integer exactly, however long.
        pytest.param("--config", dict(_paper_config(), system={"total_bits": 10**400}),
                     "total_bits is too large for a float",
                     id="overflowing-integer-payload"),
        pytest.param("--spec", _spec(values=[10**400]),
                     "sweep value of power_dbm is too large for a float",
                     id="overflowing-integer-value"),
        pytest.param("--spec", _spec(trials=math.inf), "sweep trials must be a whole number",
                     id="infinite-trials"),
        pytest.param("--spec", _spec(trials="10000"), "sweep trials must be a whole number",
                     id="string-trials"),
        pytest.param("--spec", _spec(trials=10000.7), "sweep trials must be a whole number",
                     id="fractional-trials"),
        pytest.param("--spec", _spec(trials=True), "sweep trials must be a whole number",
                     id="boolean-trials"),
        # Python's json reads a number too large for a float as inf.
        pytest.param("--spec", json.dumps(_spec()).replace("}", ', "seed": 1e400}'),
                     "sweep seed must be a whole number", id="overflowing-seed"),
        pytest.param("--spec", _spec(seed=1.5), "sweep seed must be a whole number",
                     id="fractional-seed"),
        pytest.param("--spec", _spec(seed=-1), "sweep seed must be non-negative",
                     id="negative-seed"),
        pytest.param("--spec", _spec(schemes=["mdma", "mdma"]),
                     "scheme 'mdma' is listed more than once", id="repeated-scheme"),
        # NaN passes every range check, so each field is refused by name up front.
        pytest.param("--power-dbm", "nan", "power_dbm must not be NaN", id="nan-power-flag"),
        *(pytest.param("--config", dict(_paper_config(), system={name: math.nan}),
                       f"{name} must not be NaN", id=f"nan-{name}")
          for name in ("power_dbm", "noise_dbm", "rate_r0", "total_bits", "eta",
                       "bandwidth_units", "power_units")),
    ],
)
def test_cli_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, flag, content, message):
    path = tmp_path / "input.json"
    if content is not None and flag != "--power-dbm":
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    if flag == "--power-dbm":
        argv = ["analyze", "--paper-defaults", flag, content]
    elif flag == "--config":
        argv = ["analyze", "--config", str(path)]
    else:
        argv = ["sweep", "--paper-defaults", "--spec", str(path), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err


def _main_output(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one cli.main call; argparse's own
    exits (help, bad arguments) come as SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_a_reused_parser_leaks_nothing_between_commands(tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    argvs = [
        ["analyze", "--paper-defaults", "--granularity", "200", "--out", "analyze.json"],
        ["--help"],
        ["simulate", "--paper-defaults", "--trials", "500", "--seed", "3", "--out", "sim.json"],
        ["no-such-command"],
        ["analyze", "--paper-defaults"],
        ["analyze", "--help"],
        ["sweep", "--paper-defaults", "--spec", "spec.json", "--allow-small-trials",
         "--out", "sweep"],
        ["analyze", "--paper-defaults", "--no-such-flag"],
        ["dump-chain", "--paper-defaults", "--eta", "0.7", "--literal-personal1-wrap"],
        ["sweep", "--paper-defaults"],
        ["simulate", "--paper-defaults", "--trials", "500"],
        ["dump-chain", "--paper-defaults", "--eta", "0.7"],
    ]
    # Every command twice, each time after a different one.
    argvs += argvs[::-1]

    setup = cli._setup

    def run_all(side: str) -> tuple[list, dict, dict]:
        cwd = tmp_path / side
        cwd.mkdir()
        (cwd / "spec.json").write_text(json.dumps(_spec(trials=500, seed=1)))
        monkeypatch.chdir(cwd)
        results, namespaces = [], {}
        for i, argv in enumerate(argvs):
            # Every command's first step; records the namespace main passes on.
            def spy(args, i=i):
                namespaces[i] = dict(vars(args))
                return setup(args)

            monkeypatch.setattr(cli, "_setup", spy)
            # The help width is read when help is printed, not when the parser is built.
            monkeypatch.setenv("COLUMNS", str(60 + 40 * (i % 2)))
            results.append(_main_output(argv))
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
        return results, files, namespaces

    cached = run_all("cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = run_all("fresh")
    assert cached == fresh
    codes = [0, 0, 0, 2, 0, 0, 0, 2, 0, 2, 0, 0]
    assert [code for code, _, _ in cached[0]] == codes + codes[::-1]
    assert len(cached[2]) == 14  # every command that parsed
    # The --granularity and --out of the first analyze are gone in the next one.
    assert cached[2][4]["granularity"] is None and cached[2][4]["out"] is None


@pytest.mark.parametrize("relays, power_dbm, granularity", [
    (8, 10.0, 1000), (10, 10.0, 1000), (8, -30.0, 1000), (8, 30.0, 1), (8, 20.0, 100_000),
])
def test_step_outages_read_each_sources_link_rates_once(monkeypatch, relays, power_dbm,
                                                         granularity):
    calls = []

    def spy(topology, config, source):
        calls.append(source)
        return link_rates(topology, config, source)

    monkeypatch.setattr(analytic, "link_rates", spy)
    topo = line_topology(relays)
    cfg = replace(default_paper_setup()[1], power_dbm=power_dbm, granularity=granularity)
    outs = step_outages(topo, cfg)
    assert calls == [1, 2]
    # The decode-failure probabilities are the ones decode_fail_probs gives.
    for source, out in outs.items():
        assert out.empty == float(np.prod(analytic.decode_fail_probs(topo, cfg, source)))


def test_config_granularity_written_as_a_float_is_the_same_setting(tmp_path):
    outs = []
    for g in (1000, 1000.0):
        config, out = tmp_path / f"config-{g!r}.json", tmp_path / f"analyze-{g!r}.json"
        config.write_text(json.dumps(dict(_paper_config(), system={"granularity": g})))
        assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_cli_negative_seed_is_an_error(capsys, command):
    assert main([command, "--paper-defaults", "--trials", "100", "--seed", "-1"]) == 2
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--trials", "100", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["--trials", "0"], "slots must be at least 1"),
])
def test_validate_refuses_a_bad_seed_or_trial_count_before_any_check(capsys, monkeypatch, flags, message):
    def series(*args, **kwargs):
        raise AssertionError("the relay-sum check ran")

    monkeypatch.setattr(experiments, "relay_sum_cdf_uniformized", series)
    assert main(["validate", "--paper-defaults", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("scheme", ["mdma", "noma"])
def test_cli_negative_trace_slots_is_an_error(capsys, scheme):
    argv = ["simulate", "--paper-defaults", "--scheme", scheme, "--trials", "100", "--seed", "1"]
    assert main(argv + ["--trace-slots", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert "error: trace_limit must be non-negative, got -3" in captured.err


def _fresh_main(cwd: Path, *argvs: list[str]) -> tuple[list[int], list[str]]:
    """Run cli.main on each argv in a new interpreter (this one has loaded
    scipy already); return the exit codes and the scipy modules the
    interpreter loaded."""
    script = (
        "import json, sys\n"
        "from mdma_relay.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mdma_relay.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    codes, scipy_modules = json.loads(proc.stdout.rstrip("\n").rpartition("\n")[2])
    return codes, scipy_modules


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(_spec(trials=500, seed=1)))
    codes, scipy_modules = _fresh_main(
        tmp_path,
        ["analyze", "--paper-defaults", "--out", "analyze.json"],
        ["dump-chain", "--paper-defaults", "--out", "chain.json"],
        ["simulate", "--paper-defaults", "--trials", "2000", "--out", "simulate.json"],
        ["sweep", "--paper-defaults", "--spec", "spec.json", "--allow-small-trials", "--out", "."],
        ["validate", "--paper-defaults", "--trials", "20000", "--seed", "1"],
    )
    assert codes == [0, 0, 0, 0, 0]
    assert scipy_modules == []


def test_validate_checks_the_closed_form_against_uniformization(capsys):
    assert main(["validate", "--paper-defaults", "--trials", "20000", "--seed", "1"]) == 0
    assert "PASS relay_sum_cdf_vs_uniformization" in capsys.readouterr().out


def test_cli_requires_setup_source(capsys):
    assert main(["analyze"]) == 2
    assert "error:" in capsys.readouterr().err
