import json
import math
from dataclasses import replace

import numpy as np
import pytest

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
from mdma_relay.markov import (
    build_chain,
    overall_outage,
    ring_distribution,
    stationary_distribution,
)
from mdma_relay.simulator import SimOptions
from mdma_relay.topology import (
    ConfigError,
    NetworkTopology,
    default_paper_setup,
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


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_at_reference_setup(setup10):
    topo, cfg = setup10
    report = validate(topo, cfg, trials=150_000, seed=11)
    assert report.passed, "\n".join(report.lines())
    names = [c.name for c in report.checks]
    assert "relay_sum_cdf_vs_quadrature" in names
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
    assert "relay_sum_cdf_vs_quadrature" not in names
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
    direct = overall_outage(pi, outs, list(chain.states))
    assert abs(json.loads(out.read_text())["overall_op"] - direct) < 1e-9
    assert np.max(np.abs(pi - ring_distribution(outs, cfg.beta_s, cfg.beta_p))) < 1e-12


@pytest.mark.parametrize("power_dbm", ["-12", "-14", "-16"])
def test_cli_analyze_where_every_attempt_fails(tmp_path, power_dbm):
    out = tmp_path / "a.json"
    assert main(["analyze", "--paper-defaults", "--power-dbm", power_dbm, "--out", str(out)]) == 0
    text = out.read_text()
    assert '"slot_cost": Infinity' in text
    doc = json.loads(text)
    assert (doc["overall_op"], doc["slot_cost"], doc["efficiency"]) == (1.0, math.inf, 0.0)


@pytest.mark.parametrize("relays", [10, 24])
def test_cli_analyze_tied_and_many_relays(tmp_path, relays):
    _, cfg = default_paper_setup()
    config = tmp_path / "line.json"
    save_setup(config, line_topology(relays), cfg)
    out = tmp_path / "a.json"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 0 < doc["overall_op"] < 1
    assert all(0.0 <= v <= 1.0 for v in doc["step_outages"].values())


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
    ],
)
def test_cli_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, flag, content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(json.dumps(content))
    if flag == "--config":
        argv = ["analyze", "--config", str(path)]
    else:
        argv = ["sweep", "--paper-defaults", "--spec", str(path), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


def test_cli_requires_setup_source(capsys):
    assert main(["analyze"]) == 2
    assert "error:" in capsys.readouterr().err
