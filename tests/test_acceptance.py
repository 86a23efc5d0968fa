"""Acceptance suite: every criterion at its stated tolerance and scale.

Each test prints one pass/fail line through the terminal-summary hook in
conftest.  Runs are seeded, so the suite is deterministic end to end.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from chain_reference import dense, stationary_distribution
from conftest import record_acceptance
from relay_reference import numeric_relay_sum_cdf, relay_sum_cdf_quadrature, step2_outage_quadrature

from mdma_relay.analytic import relay_sum_cdf, step_outages
from mdma_relay.experiments import (
    DEFAULT_POWER_GRID,
    SweepSpec,
    analytic_solution,
    run_sweep,
    write_rows_csv,
)
from mdma_relay.markov import build_chain, ring_distribution
from mdma_relay.simulator import simulate
from mdma_relay.topology import NetworkTopology, link_rates


def random_distinct_gates(rng, m):
    """Random gates and pairwise well-separated rates of m relays."""
    while True:
        lam = rng.uniform(0.3, 4.0, m)
        if m == 1:
            break
        gaps = np.abs(np.subtract.outer(lam, lam))[~np.eye(m, dtype=bool)]
        if gaps.min() > 0.02 * lam.max():
            break
    return rng.uniform(0.05, 0.9, m), lam


def test_criterion_1_cdf_vs_quadrature():
    """100 random instances, m in 1..4, 20 grid points, max error < 1e-8, < 10 s."""
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    for k in range(100):
        m = 1 + k % 4
        gates, rates = random_distinct_gates(rng, m)
        gmax = 3.0 / rates.min()
        gammas = np.linspace(gmax / 20.0, gmax, 20)
        closed = relay_sum_cdf(gates, rates)(gammas)
        oracle = relay_sum_cdf_quadrature(gates, rates, gammas)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    record_acceptance(
        "1 closed-form CDF vs adaptive quadrature",
        ok,
        f"max err {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-8
    assert elapsed < 10.0


@pytest.mark.parametrize("power_dbm", [6.0, 10.0, 14.0, 20.0])
def test_criterion_2_step2_vs_conditional_monte_carlo(power_dbm, paper_setup):
    """Relay-step outage vs a 2e6-slot conditional frequency within 3 sigma."""
    topo, cfg = paper_setup
    cfg = replace(cfg, power_dbm=power_dbm)
    t0 = time.time()
    outs = step_outages(topo, cfg)
    est = simulate("mdma", topo, cfg, 2_000_000, seed=int(200 + power_dbm))
    stats = est.per_step["shared:relay"]
    analytic = outs[1].relay
    sigma = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / stats.attempts)
    dev = abs(stats.op - analytic)
    elapsed = time.time() - t0
    ok = dev <= 3 * sigma + 1e-15 and elapsed < 60.0
    record_acceptance(
        f"2 relay-step outage vs conditional MC at {power_dbm:g} dBm",
        ok,
        f"dev {dev:.2e} vs 3sig {3 * sigma:.2e}, n={stats.attempts}, {elapsed:.1f}s",
    )
    assert dev <= 3 * sigma + 1e-15
    assert elapsed < 60.0


def test_criterion_3_chain_correctness(paper_setup):
    """Row sums, solver agreement, and 1e7-slot occupancy at 10 dBm."""
    topo, cfg = paper_setup
    t0 = time.time()
    outs = step_outages(topo, cfg)
    chain = build_chain(outs, cfg.beta_s, cfg.beta_p)
    row_err = float(np.max(np.abs(dense(chain).sum(axis=1) - 1.0)))
    pi_ring = ring_distribution(outs, cfg.beta_s, cfg.beta_p)
    pi_direct = stationary_distribution(chain)
    solver_gap = float(np.max(np.abs(pi_ring - pi_direct)))
    est = simulate("mdma", topo, cfg, 10_000_000, seed=303)
    occ_gap = float(np.max(np.abs(est.occupancy - pi_ring)))
    elapsed = time.time() - t0
    ok = row_err < 1e-12 and solver_gap < 1e-9 and occ_gap < 5e-3 and elapsed < 120.0
    record_acceptance(
        "3 chain correctness (rows, solvers, occupancy at 1e7 slots)",
        ok,
        f"rows {row_err:.1e}, solvers {solver_gap:.1e}, occupancy {occ_gap:.1e}, {elapsed:.0f}s",
    )
    assert row_err < 1e-12
    assert solver_gap < 1e-9
    assert occ_gap < 5e-3
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_4_overall_op_on_power_grid(paper_setup):
    """Analytic overall outage vs per-slot failure frequency, 3 sigma, 16 points."""
    topo, cfg0 = paper_setup
    worst_z = 0.0
    for p in DEFAULT_POWER_GRID:
        cfg = replace(cfg0, power_dbm=p)
        sol = analytic_solution(topo, cfg)
        est = simulate("mdma", topo, cfg, 1_000_000, seed=40 + int(p))
        z = abs(est.overall_op - sol.overall_op) / est.overall_op_stderr
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"{p} dBm: z={z:.2f}"
    record_acceptance(
        "4 overall outage vs simulation on 0..30 dBm grid",
        worst_z <= 3.0,
        f"worst z {worst_z:.2f} over 16 points at 1e6 slots",
    )


def test_criterion_5_slot_cost_and_efficiency_identities(paper_setup):
    """T_c and phi formulas reproduced by the simulator's pair statistics."""
    topo, cfg = paper_setup
    sol = analytic_solution(topo, cfg)
    est = simulate("mdma", topo, cfg, 1_000_000, seed=505)
    per_pair = cfg.beta_s + 2 * cfg.beta_p

    tc_hat = est.slots_per_pair / per_pair
    tc_sigma = est.slots_per_pair_stderr / per_pair
    tc_dev = abs(tc_hat - sol.slot_cost)

    phi_hat = est.phi_empirical
    phi_sigma = est.phi_stderr
    phi_dev = abs(phi_hat - sol.efficiency)

    ok = tc_dev <= 3 * tc_sigma and phi_dev <= 3 * phi_sigma
    record_acceptance(
        "5 slot-cost and efficiency identities",
        ok,
        f"Tc dev {tc_dev:.2e} vs 3sig {3 * tc_sigma:.2e}; "
        f"phi dev {phi_dev:.2e} vs 3sig {3 * phi_sigma:.2e}",
    )
    assert tc_dev <= 3 * tc_sigma
    assert phi_dev <= 3 * phi_sigma


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.slow
def test_criterion_6_qualitative_claims(paper_setup, tmp_path):
    """Scheme orderings and crossovers, verified from the sweep CSV files."""
    topo, cfg0 = paper_setup
    grid = DEFAULT_POWER_GRID
    trials = 150_000

    # (a) analytic outage decreases as the shared ratio grows.
    eta_spec = SweepSpec("eta", (0.5, 0.7, 0.9), ("mdma",), trials, seed=61)
    eta_path = tmp_path / "sweep_eta.csv"
    write_rows_csv(eta_path, run_sweep(eta_spec, topo, cfg0))
    eta_rows = _read_csv(eta_path)
    eta_ops = [float(r["analytic_op"]) for r in eta_rows]
    claim_a = eta_ops[0] > eta_ops[1] > eta_ops[2]
    record_acceptance(
        "6a analytic outage decreases in eta {0.5, 0.7, 0.9}",
        claim_a,
        " > ".join(f"{v:.4f}" for v in eta_ops),
    )

    # Power sweeps: baselines once, MDMA per eta variant.
    by_scheme: dict[str, list[dict]] = {}
    base_spec = SweepSpec("power_dbm", grid, ("tdma", "fdma", "noma"), trials, seed=62)
    base_path = tmp_path / "sweep_power_baselines.csv"
    write_rows_csv(base_path, run_sweep(base_spec, topo, cfg0))
    for row in _read_csv(base_path):
        by_scheme.setdefault(row["scheme"], []).append(row)
    for eta in (0.5, 0.7, 0.9):
        spec = SweepSpec("power_dbm", grid, ("mdma",), trials, seed=63)
        path = tmp_path / f"sweep_power_mdma_eta{eta}.csv"
        write_rows_csv(path, run_sweep(spec, topo, replace(cfg0, eta=eta)))
        by_scheme[f"mdma{eta}"] = _read_csv(path)

    # (b) NOMA has the highest simulated outage everywhere.
    claim_b = True
    for i, p in enumerate(grid):
        noma_op = float(by_scheme["noma"][i]["sim_op"])
        others = [float(by_scheme[k][i]["sim_op"]) for k in ("tdma", "fdma", "mdma0.5", "mdma0.7", "mdma0.9")]
        if not all(noma_op > o for o in others):
            claim_b = False
    record_acceptance("6b NOMA simulated outage highest on the grid", claim_b)

    # (c) NOMA efficiency overtakes eta 0.5 and 0.7 but stays below eta 0.9.
    noma_phi = [float(r["sim_phi"]) for r in by_scheme["noma"]]
    phi05 = [float(r["sim_phi"]) for r in by_scheme["mdma0.5"]]
    phi07 = [float(r["sim_phi"]) for r in by_scheme["mdma0.7"]]
    phi09 = [float(r["sim_phi"]) for r in by_scheme["mdma0.9"]]
    crossings = {}
    claim_c = True
    for label, ref in (("eta0.5", phi05), ("eta0.7", phi07)):
        above = [p for p, n, r in zip(grid, noma_phi, ref) if n > r]
        below = [p for p, n, r in zip(grid, noma_phi, ref) if n <= r]
        if not above or grid[-1] not in above:
            claim_c = False
            continue
        lo = max(below) if below else grid[0]
        hi = min(a for a in above if a > lo)
        crossings[label] = (lo, hi)
    stays_below_09 = all(n < r for n, r in zip(noma_phi, phi09))
    claim_c = claim_c and stays_below_09
    detail = ", ".join(f"{k} crossover in ({lo:g}, {hi:g}] dBm" for k, (lo, hi) in crossings.items())
    record_acceptance(
        "6c NOMA efficiency overtakes eta 0.5/0.7, stays below eta 0.9",
        claim_c,
        detail or "no crossover found",
    )

    # (d) FDMA efficiency is the lowest everywhere.
    claim_d = True
    for i in range(len(grid)):
        fdma_phi = float(by_scheme["fdma"][i]["sim_phi"])
        others = [float(by_scheme[k][i]["sim_phi"]) for k in ("tdma", "noma", "mdma0.5", "mdma0.7", "mdma0.9")]
        if not all(fdma_phi < o for o in others):
            claim_d = False
    record_acceptance("6d FDMA efficiency lowest on the grid", claim_d)

    assert claim_a and claim_b and claim_c and claim_d


def test_criterion_7_degenerate_inputs(paper_setup):
    """Tied rates take the exact phase-type step and match quadrature; eta 0 and 1 run end to end."""
    topo8, cfg = paper_setup
    # Two relays at mirrored positions share the destination distance exactly.
    topo = NetworkTopology(
        s1_pos=topo8.s1_pos,
        s2_pos=topo8.s2_pos,
        d_pos=(100.0, 0.0),
        relay_pos=((50.0, 20.0), (50.0, -20.0)),
        alpha=3.0,
    )
    links = link_rates(topo, cfg)
    assert links.relay_dest[0] == links.relay_dest[1]
    grid = np.linspace(0.05, 4.0, 25)
    numeric = numeric_relay_sum_cdf(links.gates[0], links.relay_dest, grid)
    oracle = relay_sum_cdf_quadrature(links.gates[0], links.relay_dest, grid)
    tie_err = float(np.max(np.abs(numeric - oracle)))

    # End to end: the relay-step outage of each source against quadrature.
    outs = step_outages(topo, cfg)
    step_err = 0.0
    for source, relay_op in ((1, outs[1].relay), (2, outs[2].relay)):
        exact = step2_outage_quadrature(float(links.direct[source - 1]), cfg.gamma_th, links.gates[source - 1],
                                        links.relay_dest)
        step_err = max(step_err, abs(relay_op - exact))
    step_tol = 5.0 / cfg.granularity

    degenerate_ok = True
    try:
        for eta in (0.0, 1.0):
            cfg_e = replace(cfg, eta=eta)
            sol = analytic_solution(topo8, cfg_e)
            est = simulate("mdma", topo8, cfg_e, 30_000, seed=707)
            assert 0.0 <= sol.overall_op < 1.0
            assert est.pairs > 0
    except Exception:
        degenerate_ok = False
        raise
    finally:
        ok = tie_err < 1e-5 and step_err < step_tol and degenerate_ok
        record_acceptance(
            "7 tied rates and eta in {0, 1}",
            ok,
            f"tie max err {tie_err:.2e}, relay step err {step_err:.2e}",
        )
    assert tie_err < 1e-5
    assert step_err < step_tol
