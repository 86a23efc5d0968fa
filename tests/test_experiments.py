import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
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
    analytic_solution,
    run_manifest,
    run_sweep,
    validate,
    write_rows_csv,
)
from chain_reference import overall_outage, stationary_distribution
from layouts import (far_topology, line_topology, near_source_topology, subnormal_rate_setup, underflow_topology,
                     zero_snr_direct_setup)
from mdma_relay.markov import build_chain, ring_distribution
from mdma_relay.simulator import SimOptions, simulate, trace_to_csv_rows
from mdma_relay.topology import (
    ConfigError,
    default_paper_setup,
    link_rates,
    load_setup,
    save_setup,
    topology_to_dict,
)


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
    """The CSV of `run_sweep` and every estimate behind it, with the start
    slots that each of its streams counts.  Without `share`, each scheme runs
    as a lone `simulate`, without the point's pool, drawing its own episodes."""
    seen, counted = [], {}  # counted: stream -> start slot of each episode it counts

    def spy(*args, pool, **kwargs):
        assert pool is not None
        counted.clear()
        est = simulate(*args, pool=pool if share else None, **kwargs)
        seen.append((json.dumps(est.to_dict()), est.occupancy_counts.tolist(),
                     est.decode_attempts, est.decode_empties, sorted(counted.items())))
        return est

    def count_spy(cls):
        def count(self, idx, start, rep, tag, _count=cls.count):
            stream = f"{type(self).__name__}{getattr(self, 'source', '')}"
            counted.setdefault(stream, []).extend(start[start < self.tally.slots].tolist())
            _count(self, idx, start, rep, tag)
        return count

    with monkeypatch.context() as m:
        m.setattr(experiments, "simulate", spy)
        for cls in (simulator._BcastStream, simulator._JointStream):
            m.setattr(cls, "count", count_spy(cls))
        rows = run_sweep(spec, topo, cfg, options)
    path = tmp_path / f"shared-{share}.csv"
    write_rows_csv(path, rows)
    return path.read_bytes(), seen


@pytest.mark.parametrize("order", ["readme", "reversed"])
@pytest.mark.parametrize("parameter, values, trials, edits, options, chunk, keep", [
    pytest.param("power_dbm", (-30.0, *README_POWERS), 20_000, {}, SimOptions(), None, None, id="readme"),
    pytest.param("power_dbm", (0.0, 30.0), 20_000, {"noise_dbm": -math.inf}, SimOptions(), None, None,
                 id="noiseless"),
    pytest.param("relay_count", (1, 3, 8), 20_000, {}, SimOptions(), None, None, id="relay-count"),
    pytest.param("power_dbm", README_POWERS, 10_000, {}, SimOptions(relay_cooperation=False), None, None,
                 id="no-cooperation"),
    *[pytest.param("power_dbm", (-30.0, 0.0, 4.0, 10.0, 30.0), trials, {}, SimOptions(), None, None,
                   id=f"trials-{trials}") for trials in (1, 7, simulator._CHUNK + 1)],
    pytest.param("power_dbm", (4.0, 10.0), 3_000, {}, SimOptions(), 7, None, id="chunk-7"),
    # Budgets of no chunk, one chunk and one and a half at the cap: past the
    # kept chunks, the first run takes the source's generators, and each later
    # one a copy of their state, even if a smaller chunk would still fit.
    *[pytest.param("power_dbm", (-30.0, 0.0, 4.0, 10.0, 30.0), 20_000, {}, SimOptions(), None, keep,
                   id=f"keep-{keep}") for keep in (0, 1, 1.5)],
    *[pytest.param("power_dbm", (4.0, 10.0), 3_000, {}, SimOptions(), 7, keep,
                   id=f"chunk-7-keep-{keep}") for keep in (0, 1, 1.5)],
])
def test_shared_draws_change_no_result(setup10, monkeypatch, draw_cap, tmp_path, order, parameter, values,
                                       trials, edits, options, chunk, keep):
    """`keep`: the chunks at the cap that a pooled source has room to keep,
    if not the shipped `_KEEP_BYTES`."""
    topo, cfg = setup10
    if chunk:
        draw_cap(chunk)
    if keep is not None:
        monkeypatch.setattr(simulator, "_KEEP_BYTES", keep * simulator._kept_bytes(simulator._BCAST_CHUNK))
    kept_at_fork, fork = [], simulator._Episodes.fork  # what a source kept when a reader forked it
    monkeypatch.setattr(simulator._Episodes, "fork",
                        lambda self: kept_at_fork.append(len(self.kept)) or fork(self))
    schemes = ALL_SCHEMES if order == "readme" else ALL_SCHEMES[::-1]
    spec = SweepSpec(parameter, values, schemes, trials, seed=1)
    shared = _sweep_outputs(monkeypatch, tmp_path, spec, topo, replace(cfg, **edits), options, True)
    lone = _sweep_outputs(monkeypatch, tmp_path, spec, topo, replace(cfg, **edits), options, False)
    assert len(shared[1]) == len(values) * len(schemes)
    assert all(streams for *_, streams in shared[1])
    assert shared == lone
    if keep is not None:  # runs went on alone, with room for a chunk after reading what was kept
        assert max(kept_at_fork) >= int(keep)


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


@pytest.mark.parametrize("power", [-30.0, 4.0, 30.0])
def test_a_sweep_point_prepares_each_chunk_once(setup10, monkeypatch, power):
    """Each chunk's placement arrays are derived where it is drawn: once per
    broadcast chunk, however many schemes read it, and once per joint chunk."""
    topo, cfg = setup10
    counts = dict.fromkeys(("bcast_drawn", "bcast_read", "joint_drawn", "prepared"), 0)

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name, owner, attr in (("bcast_drawn", simulator._Episodes, "draw"),
                              ("bcast_read", simulator._BcastStream, "draw"),
                              ("joint_drawn", simulator._JointStream, "draw"),
                              ("prepared", simulator, "_prepare")):
        monkeypatch.setattr(owner, attr, spy(name, getattr(owner, attr)))
    run_sweep(SweepSpec("power_dbm", (power,), ALL_SCHEMES, 20_000, seed=2), topo, cfg)
    assert counts["prepared"] == counts["bcast_drawn"] + counts["joint_drawn"]
    # Broadcast chunks have several readers, which did not prepare them.
    assert counts["bcast_read"] >= 2 * counts["bcast_drawn"]


@pytest.mark.parametrize("power", [4.0, 30.0])
def test_a_sweep_point_draws_few_broadcast_chunks(setup10, monkeypatch, power):
    """Draws sized by the slots a run has left: a 1e4-trial 4-scheme point
    draws at most 2 broadcast chunks per source."""
    topo, cfg = setup10
    drawn, draw = [], simulator._Episodes.draw  # the source of each draw

    def spy(self, n):
        drawn.append(self.source)
        return draw(self, n)

    monkeypatch.setattr(simulator._Episodes, "draw", spy)
    run_sweep(SweepSpec("power_dbm", (power,), ALL_SCHEMES, 10_000, seed=2), topo, cfg)
    assert 1 <= drawn.count(1) <= 2 and 1 <= drawn.count(2) <= 2


def test_a_shared_chunk_is_read_only(setup10):
    topo, cfg = setup10
    pool = {}
    for scheme in ALL_SCHEMES:
        simulate(scheme, topo, cfg, 5_000, seed=3, pool=pool)
    assert len(pool) == 2  # one entry per source, read by every scheme
    arrays = 0
    for episodes in pool.values():
        assert episodes.kept
        for ep in episodes.kept:
            assert set(ep) == {"ok", "relay", "relay_ok", "cum_len", "cum_succ", "succ_end"}
            for value in ep.values():
                for a in value if isinstance(value, list) else [value]:
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = a[-1]
                    arrays += 1
    assert arrays >= 2 * 6  # per source, at least one chunk of the six arrays above


def test_a_shared_sweep_point_keeps_little_memory(setup10):
    topo, cfg = setup10
    run_sweep(SweepSpec("power_dbm", (10.0,), ALL_SCHEMES, 100), topo, cfg)  # warm caches
    tracemalloc.start()
    try:
        run_sweep(SweepSpec("power_dbm", (10.0,), ALL_SCHEMES, 200_000, seed=3), topo, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Flags and int16 placement arrays read 4.1 MB; int64 arrays peaked at 9.0 MB,
    # flags only at 2.9 MB, and keeping each chunk's SNRs at 38 MB.
    assert peak < 5e6


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_point_past_its_budget_keeps_what_lone_runs_keep(setup10, monkeypatch):
    """With room for one chunk per source, a 1e6-trial point keeps that and
    each run draws the rest itself, from the source's generators, so the point
    peaks near a lone run.  Keeping every chunk, it peaked at 13.6 MB, against
    3.8 MB for the lone runs."""
    topo, cfg = setup10
    monkeypatch.setattr(simulator, "_KEEP_BYTES", simulator._kept_bytes(simulator._BCAST_CHUNK))
    run_sweep(SweepSpec("power_dbm", (10.0,), ALL_SCHEMES, 100), topo, cfg)  # warm caches
    lone = max(_peak(lambda: simulate(scheme, topo, cfg, 1_000_000, seed=3)) for scheme in ALL_SCHEMES)
    spec = SweepSpec("power_dbm", (10.0,), ALL_SCHEMES, 1_000_000, seed=3)
    point = _peak(lambda: run_sweep(spec, topo, cfg))
    assert lone < 5e6, lone  # a lone run keeps only the chunk in use
    assert point < lone + 1.5e6, (point, lone)


def test_one_pool_gives_every_run_its_lone_result(setup10):
    """A pool reused across seeds, sources' rates, thresholds, cooperation and
    a traced run: each run reads only episodes drawn under its own key."""
    topo, cfg = setup10
    runs = [
        (topo, cfg, 3, SimOptions()),
        (topo, cfg, 4, SimOptions()),  # seed
        (topo, replace(cfg, power_dbm=11.0), 3, SimOptions()),  # rates
        (replace(topo, relay_pos=topo.relay_pos[:3]), cfg, 3, SimOptions()),  # relays
        (topo, replace(cfg, rate_r0=1.5), 3, SimOptions()),  # threshold
        (topo, cfg, 3, SimOptions(relay_cooperation=False)),  # cooperation
        (topo, cfg, 3, SimOptions(trace_limit=10)),  # traced: draws its own
    ]
    pool = {}
    for scheme in ALL_SCHEMES:
        for t, c, seed, options in runs:
            if scheme == "noma" and options.trace_limit:
                continue  # NOMA records no trace
            shared = simulate(scheme, t, c, 2_000, seed=seed, options=options, pool=pool)
            lone = simulate(scheme, t, c, 2_000, seed=seed, options=options)
            assert shared.to_dict() == lone.to_dict()
            assert trace_to_csv_rows(shared.trace) == trace_to_csv_rows(lone.trace)
    # Two sources for each untraced run; a traced run adds nothing.
    assert len(pool) == 2 * (len(runs) - 1)


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


# sha256 of the CSV of README's power sweep over every scheme at 1e4 trials
# per point, seed 1, on the paper layout, recorded from commit 8619c2a.  It
# pins the shared pool and the CSV as `golden_simulate.json` pins `simulate`.
README_SWEEP_CSV_SHA256 = "90306812de8afbf18f6dba2fb2e648310c95793d2db67021bd4c51bf1e3130f8"


@pytest.mark.parametrize("chunk", [4096, pytest.param(7, marks=pytest.mark.slow)])
def test_the_readme_sweep_keeps_its_csv_bytes(draw_cap, tmp_path, chunk):
    """At the shipped caps (broadcast draws sized by need, joint draws at most
    4 096) and with every draw capped at 7 episodes."""
    if chunk == 7:
        draw_cap(chunk)
    topo, cfg = default_paper_setup()
    path = tmp_path / "sweep.csv"
    write_rows_csv(path, run_sweep(SweepSpec("power_dbm", README_POWERS, ALL_SCHEMES, 10_000, seed=1), topo, cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == README_SWEEP_CSV_SHA256


@pytest.mark.parametrize("topo, error", [
    (underflow_topology((100.0, 0.0)), "rates must be positive"),
    (near_source_topology(), "link rate must be positive, got 0.0"),
], ids=["relay1-destination", "source1-destination"])
def test_a_sweep_row_records_a_rate_to_the_destination_that_underflows(topo, error):
    """Relay 1 at 1e-200 from the destination, or source 1 at 1e-110: every
    scheme's row carries the closed form's refusal instead of outages."""
    rows = run_sweep(SweepSpec("power_dbm", (4.0, 10.0), ALL_SCHEMES, 1_000), topo, default_paper_setup()[1])
    assert len(rows) == 8
    assert all(row.error.startswith(error) and row.sim_op is None for row in rows)


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


@pytest.mark.parametrize("power", [4.0, 10.0])
def test_validate_passes_without_relay_cooperation(setup10, power):
    # The closed form takes the option too: every gate is 1, so it skips the
    # relay steps that the simulator never takes.
    topo, cfg = setup10
    options = SimOptions(relay_cooperation=False)
    report = validate(topo, replace(cfg, power_dbm=power), trials=100_000, seed=0, options=options)
    assert report.passed, "\n".join(report.lines())
    assert not any(c.name.endswith(":relay") for c in report.checks)
    assert "relay_sum_cdf_vs_uniformization" not in [c.name for c in report.checks]


def test_a_sweep_without_relay_cooperation_agrees_with_its_closed_form(setup10):
    topo, cfg = setup10
    spec = SweepSpec("power_dbm", (4.0, 10.0), ("mdma",), 20_000, seed=0)
    for row in run_sweep(spec, topo, cfg, SimOptions(relay_cooperation=False)):
        alone = analytic_solution(topo, replace(cfg, power_dbm=row.value), False)
        assert row.analytic_op == alone.overall_op
        assert abs(row.analytic_op - row.sim_op) < 5 * row.sim_op_stderr
        # Relays lower the outage, so without them it is higher.
        assert row.analytic_op > analytic_solution(topo, replace(cfg, power_dbm=row.value)).overall_op


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


@pytest.mark.parametrize("relays", [10, 16])
def test_validate_tied_or_ill_conditioned_layout_skips_only_the_closed_form_check(setup10, relays):
    # line10 is tied; line16's condition bound is past the closed form's.
    _, cfg = setup10
    report = validate(line_topology(relays), cfg, trials=50_000, seed=12)
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


# Tied and over-cap relay steps are exact and use no bins, so the largest
# granularity accepted costs them nothing.
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


# Every command that reads a configuration file, and its id.
EVERY_COMMAND = [(command, f"{command[0]}{'-' + command[2] if command[0] == 'simulate' else ''}")
                 for command in (["analyze"], ["dump-chain"], ["validate", "--trials", "2000"],
                                 *(["simulate", "--scheme", s, "--trials", "2000"] for s in ALL_SCHEMES),
                                 ["sweep", "--allow-small-trials", "--spec", "{spec}", "--out", "{out}"])]

# A topology's numbers are checked as the system's are.  Read with float(),
# "20" was the point (2, 0), a third entry was dropped and JSON's `true` was 1.
MALFORMED_TOPOLOGIES = [
    ("string-coordinate", {"s1": "20"}, "a coordinate must be two finite real numbers, got '20'"),
    ("string-relays", {"relays": ["55", "45"]}, "a coordinate must be two finite real numbers, got '55'"),
    ("three-numbers", {"s1": [20, 20, 99]}, "a coordinate must be two finite real numbers, got [20, 20, 99]"),
    ("boolean-coordinate", {"s1": [True, 20]}, "a coordinate must be two finite real numbers, got [True, 20]"),
    ("boolean-alpha", {"alpha": True}, "path-loss exponent must be a positive real number, got True"),
    ("string-alpha", {"alpha": "3"}, "path-loss exponent must be a positive real number, got '3'"),
]


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
        # Each efficiency is at most 2 / (bandwidth_units * power_units), so
        # a product below the normal floats is refused, by every command:
        # 1e-300 squared is 0 (a ZeroDivisionError in simulate and sweep), and
        # 2 / 1e-320 is inf (a JSON ValueError, or inf in the sweep's CSV).
        *(pytest.param(("--config", command), dict(_paper_config(), system={"bandwidth_units": bw, "power_units": pw}),
                       f"error: bandwidth_units {bw} and power_units {pw} must be positive with a product of at "
                       "least 2.225e-308\n", id=f"units-{bw}-{name}")
          for bw, pw in ((1e-300, 1e-300), (1e-320, 1.0))
          for command, name in EVERY_COMMAND),
        *(pytest.param(("--config", command), _paper_config(**edit), f"error: {message}\n", id=f"{case}-{name}")
          for case, edit, message in MALFORMED_TOPOLOGIES
          for command, name in EVERY_COMMAND),
    ],
)
def test_cli_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, flag, content, message):
    path = tmp_path / "input.json"
    flag, command = flag if isinstance(flag, tuple) else (flag, ["analyze"])
    if content is not None and flag != "--power-dbm":
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    if flag == "--power-dbm":
        argv = ["analyze", "--paper-defaults", flag, content]
    elif flag == "--config":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_spec(schemes=list(ALL_SCHEMES), trials=2000)))
        argv = [command[0], "--config", str(path), *(a.format(spec=spec, out=tmp_path) for a in command[1:])]
    else:
        argv = ["sweep", "--paper-defaults", "--spec", str(path), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err


@pytest.mark.parametrize("argv, what", [
    pytest.param(["analyze", "--paper-defaults", "--out", "{missing}/out.json"], "output", id="analyze-out"),
    pytest.param(["dump-chain", "--paper-defaults", "--out", "{missing}/out.json"], "output", id="dump-chain-out"),
    pytest.param(["simulate", "--paper-defaults", "--trials", "200", "--out", "{missing}/out.json"], "output",
                 id="simulate-out"),
    pytest.param(["simulate", "--paper-defaults", "--trials", "200", "--trace-slots", "5",
                  "--trace-out", "{missing}/trace.csv"], "trace", id="simulate-trace-out"),
    pytest.param(["sweep", "--paper-defaults", "--allow-small-trials", "--spec", "{spec}", "--out", "{spec}"],
                 "sweep output", id="sweep-out-is-a-file"),
])
def test_cli_unwritable_output_is_an_error_not_a_traceback(tmp_path, capsys, argv, what):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"parameter": "power_dbm", "values": [10.0], "schemes": ["mdma"], "trials": 200}))
    argv = [a.format(missing=tmp_path / "missing", spec=spec) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: cannot write {what} {argv[-1]}: " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


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


@pytest.mark.parametrize("node", ["source1", "relay1", "destination", "separated", "tied", "open-relay", "subnormal"])
@pytest.mark.parametrize("command", [
    pytest.param(["analyze"], id="analyze"),
    pytest.param(["simulate", "--trials", "2000"], id="simulate"),
    *(pytest.param(["simulate", "--scheme", s, "--trials", "2000"], id=f"simulate-{s}") for s in ALL_SCHEMES[1:]),
    pytest.param(["validate", "--trials", "20000"], id="validate"),
    pytest.param(["dump-chain"], id="dump-chain"),
    pytest.param(["sweep", "--allow-small-trials", "--spec", "{spec}", "--out", "{out}"], id="sweep"),
])
def test_a_node_whose_links_overflow_gets_one_answer(tmp_path, node, command):
    """A node 1e103 away: each link to it has an infinite rate, not an
    OverflowError from distance**alpha, and nothing warns.  A far source or
    destination fails every delivery, and ``analyze`` and ``simulate`` both
    print an ``overall_op`` of 1.0.  Where only source 1's direct link
    overflows ("separated", "tied"), or an open relay's link to the
    destination too ("open-relay"), its relay steps still deliver, and
    ``simulate`` reads ``analyze``'s ``overall_op`` within 5 standard errors.
    A subnormal source-relay rate ("subnormal") is an infinite mean SNR.  A
    one-point sweep of every scheme writes no error in any row."""
    config = tmp_path / "far.json"
    far = node in ("source1", "relay1", "destination")
    setup = ((far_topology(node), default_paper_setup()[1]) if far
             else subnormal_rate_setup() if node == "subnormal" else zero_snr_direct_setup(node))
    save_setup(config, *setup)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec(values=[setup[1].power_dbm], schemes=list(ALL_SCHEMES), trials=2000)))
    command = [arg.format(spec=spec, out=tmp_path / "sweep") for arg in command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _main_output([*command, "--config", str(config)])
        exact = json.loads(_main_output(["analyze", "--config", str(config)])[1])["overall_op"]
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (0, "")
    if command[0] == "sweep":
        with open(tmp_path / "sweep" / "sweep_power_dbm.csv", newline="") as rows:
            assert [row["error"] for row in csv.DictReader(rows)] == [""] * 4
    elif far and node != "relay1" and command[:2] in (["analyze"], ["simulate", "--trials"]):
        assert json.loads(out)["overall_op"] == exact == 1.0
    elif command[:2] == ["simulate", "--trials"] and not far and node != "subnormal":  # MDMA; 7e-303 there
        estimate = json.loads(out)
        assert abs(estimate["overall_op"] - exact) <= 5.0 * estimate["overall_op_stderr"]


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

    def spy(topology, config, *cooperate):
        calls.append(config)
        return link_rates(topology, config, *cooperate)

    monkeypatch.setattr(analytic, "link_rates", spy)
    topo = line_topology(relays)
    cfg = replace(default_paper_setup()[1], power_dbm=power_dbm, granularity=granularity)
    outs = step_outages(topo, cfg)
    assert calls == [cfg]  # one table holds both sources' links
    # The decode-failure probabilities and broadcast outages are the table's.
    links = link_rates(topo, cfg)
    for source, out in outs.items():
        assert out.empty == float(np.prod(links.gates[source - 1]))
        assert out.bcast == links.miss[source - 1]


@pytest.mark.parametrize("argv, tables", [
    pytest.param(["analyze"], 1, id="analyze"),
    *(pytest.param(["simulate", "--scheme", s, "--trials", "2000"], 1, id=f"simulate-{s}") for s in ALL_SCHEMES),
    pytest.param(["dump-chain"], 1, id="dump-chain"),
    pytest.param(["validate", "--trials", "20000"], 3, id="validate"),
    pytest.param(["sweep", "--allow-small-trials", "--spec", "{spec}", "--out", "{out}"], 5, id="sweep"),
])
def test_each_command_computes_one_link_table_per_reader(monkeypatch, tmp_path, argv, tables):
    # analyze, simulate and dump-chain read one table; validate one each for
    # its simulation, its closed-form check and its step outages; a
    # four-scheme sweep point one for its analytic columns and one per scheme.
    # Each source read its own links before: 2, 2, 2, 8 and 10.
    computed = []

    def spy(*args):
        computed.append(args)
        return link_rates(*args)

    for module in (analytic, experiments, simulator):
        monkeypatch.setattr(module, "link_rates", spy)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec(schemes=list(ALL_SCHEMES), trials=2000)))
    argv = [argv[0], "--paper-defaults", *(a.format(spec=spec, out=tmp_path) for a in argv[1:])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(computed) == tables


def _spy(monkeypatch, module, name) -> list[tuple]:
    """The arguments of every call to ``module.name`` from here on."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("where, rows, exact", [
    (["--paper-defaults"], [1001], []),
    (["--paper-defaults", "--power-dbm", "20", "--granularity", "100000"], [], [2]),
    (["--config", "line10.json"], [], [2]),
], ids=["paper", "paper-n1e5", "line10-tied"])
def test_analyze_computes_its_step_outages_once(monkeypatch, tmp_path, where, rows, exact):
    # `analyze` reads the step outages twice, for the chain and to print them;
    # the second read is a lookup, so each source's links, the closed form's
    # basis (each edge once, for both sources) and the exact relay steps of
    # the tied layout and of 1e5 bins, one call for both sources, are
    # computed once.
    save_setup(tmp_path / "line10.json", line_topology(10), default_paper_setup()[1])
    argv = ["analyze", *(str(tmp_path / a) if a.endswith(".json") else a for a in where)]
    # The same command without the memo prints the same bytes.
    with monkeypatch.context() as m:
        m.setattr(analytic, "_step_outages", analytic._step_outages.__wrapped__)
        assert main([*argv, "--out", str(tmp_path / "unmemoized.json")]) == 0
    links = _spy(monkeypatch, analytic, "link_rates")
    binned = _spy(monkeypatch, analytic, "bin_relay_sum")
    steps = _spy(monkeypatch, analytic, "relay_step_outages")
    built, real_basis = [], analytic.exp_cdf_basis

    def basis(gammas, rates):
        built.append(len(gammas))
        return real_basis(gammas, rates)

    monkeypatch.setattr(analytic, "exp_cdf_basis", basis)
    assert main([*argv, "--out", str(tmp_path / "a.json")]) == 0
    assert len(links) == 1  # both sources' links, in one table
    assert [len(cdfs) for cdfs, *_ in binned] == ([2] if rows else [])
    assert (built, [len(gates) for _, _, gates, _, _ in steps]) == (rows, exact)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "unmemoized.json").read_bytes()


def test_config_granularity_written_as_a_float_is_the_same_setting(tmp_path):
    outs = []
    for g in (1000, 1000.0):
        config, out = tmp_path / f"config-{g!r}.json", tmp_path / f"analyze-{g!r}.json"
        config.write_text(json.dumps(dict(_paper_config(), system={"granularity": g})))
        assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_OVERRIDES = [
    {"power_dbm": 17.5}, {"eta": 0.3}, {"granularity": 250},
    {"power_dbm": -4.0, "eta": 0.85, "granularity": 4096},
]
_FLAGS = {"power_dbm": "--power-dbm", "eta": "--eta", "granularity": "--granularity"}


@pytest.mark.parametrize("overrides", _OVERRIDES, ids=["power", "eta", "granularity", "all"])
@pytest.mark.parametrize("source", ["paper-defaults", "config"])
def test_setup_applies_the_overrides_as_replace_does(tmp_path, source, overrides):
    if source == "config":
        path = tmp_path / "setup.json"
        save_setup(path, line_topology(10), replace(default_paper_setup()[1], noise_dbm=-60.0, total_bits=12.0))
        where, (topo, cfg) = ["--config", str(path)], load_setup(path)
    else:
        where, (topo, cfg) = ["--paper-defaults"], default_paper_setup()
    flags = [arg for name, value in overrides.items() for arg in (_FLAGS[name], str(value))]
    got = cli._setup(cli.build_parser().parse_args(["analyze", *where, *flags]))
    assert got == (topo, replace(cfg, **overrides))
    assert type(got[1].granularity) is int


@pytest.mark.parametrize("flag, value, message", [
    ("--eta", "1.5", "eta must lie in [0, 1], got 1.5"),
    ("--granularity", "0", "granularity 0 is outside [1, 1000000]"),
    ("--power-dbm", "1e308", "power_dbm 1e+308 over noise_dbm -50.0 overflows the linear SNR"),
])
def test_setup_refuses_a_bad_override_with_its_message(capsys, flag, value, message):
    assert main(["analyze", "--paper-defaults", flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_an_override_does_not_hide_a_bad_value_in_the_config_file(tmp_path, capsys):
    # The file's system is checked as written, then again as overridden.
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(dict(_paper_config(), system={"eta": 1.5})))
    assert main(["analyze", "--config", str(path), "--eta", "0.5"]) == 2
    assert capsys.readouterr() == ("", "error: eta must lie in [0, 1], got 1.5\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--paper-defaults"],
    ["dump-chain", "--paper-defaults"],
    ["simulate", "--paper-defaults", "--trials", "200"],
    ["sweep", "--paper-defaults", "--allow-small-trials", "--spec", "spec.json", "--out", "sweep"],
    ["validate", "--paper-defaults", "--trials", "2000", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_cli_closed_standard_output_is_an_error_not_a_traceback(tmp_path, argv):
    # Standard output is a pipe whose read end is closed, so every write to it fails.
    (tmp_path / "spec.json").write_text(json.dumps(_spec(trials=200, seed=1)))
    env = dict(os.environ, PYTHONPATH=str(Path(mdma_relay.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mdma_relay.cli", *argv], cwd=tmp_path, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: [Errno 32] Broken pipe\n"


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


def test_cli_refuses_a_trace_past_the_cap_before_drawing(capsys, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("episodes were drawn")

    monkeypatch.setattr(simulator._Episodes, "draw", draw)
    argv = ["simulate", "--paper-defaults", "--trials", "3000000"]
    assert main(argv + ["--trace-slots", str(simulator.MAX_TRACE_SLOTS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: trace_limit must be at most {simulator.MAX_TRACE_SLOTS}, " \
                           f"got {simulator.MAX_TRACE_SLOTS + 1}\n"


def test_cli_accepts_a_trace_at_the_cap(tmp_path):
    trace = tmp_path / "trace.csv"
    argv = ["simulate", "--paper-defaults", "--trials", "300", "--seed", "1",
            "--trace-slots", str(simulator.MAX_TRACE_SLOTS), "--trace-out", str(trace), "--out",
            str(tmp_path / "sim.json")]
    assert main(argv) == 0
    assert len(trace.read_text().splitlines()) == 1 + 300  # header, then every slot of the run


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


@pytest.mark.parametrize("cooperation", [[], ["--no-relay-cooperation"]], ids=["cooperation", "no-cooperation"])
@pytest.mark.parametrize("layout", ["paper", "line24", "eta0"])
def test_validate_answers_a_noiseless_layout(tmp_path, capsys, layout, cooperation):
    # Noiseless every rate is 0 and no broadcast is missed, so step_outages
    # takes no relay step and bins nothing; validate once checked the closed
    # form there anyway and refused it (`rates must be positive, got [0. 0. ...]`).
    topo, cfg = default_paper_setup()
    topo = line_topology(24) if layout == "line24" else topo
    cfg = replace(cfg, noise_dbm=-math.inf, eta=0.0 if layout == "eta0" else cfg.eta)
    save_setup(tmp_path / "noiseless.json", topo, cfg)
    argv = ["validate", "--config", str(tmp_path / "noiseless.json"), "--trials", "20000", *cooperation]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and "FAIL" not in out and out.endswith("validation: PASS\n")
    assert "relay_sum_cdf_vs_uniformization" not in out


def test_validate_checks_the_closed_form_against_uniformization(capsys):
    assert main(["validate", "--paper-defaults", "--trials", "20000", "--seed", "1"]) == 0
    assert "PASS relay_sum_cdf_vs_uniformization" in capsys.readouterr().out
    # Past one basis block of bins no source's step outage uses the closed form.
    assert main(["validate", "--paper-defaults", "--trials", "20000", "--seed", "1", "--granularity", "100000"]) == 0
    assert "relay_sum_cdf_vs_uniformization" not in capsys.readouterr().out


def test_cli_requires_setup_source(capsys):
    assert main(["analyze"]) == 2
    assert "error:" in capsys.readouterr().err
