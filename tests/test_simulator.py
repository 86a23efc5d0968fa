import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mdma_relay import simulator
from mdma_relay.analytic import step_outages
from mdma_relay.markov import solve_chain
from mdma_relay.simulator import (
    SCHEMES,
    SimOptions,
    draw_link_snr,
    make_rng,
    run_baseline,
    run_mdma,
    simulate,
    trace_to_csv_rows,
)
from mdma_relay.topology import (
    ConfigError,
    LinkParam,
    default_paper_setup,
    link_rates,
)


@pytest.fixture(scope="module")
def setup10():
    return default_paper_setup(power_dbm=10.0)


# ---------------------------------------------------------------------------
# link draws
# ---------------------------------------------------------------------------

def test_draw_mean_matches_link(setup10):
    topo, cfg = setup10
    rates = link_rates(topo, cfg, 1)
    link = LinkParam(rates.direct)
    rng = make_rng(101)
    draws = draw_link_snr(link, rng, 1_000_000)
    assert abs(draws.mean() / link.mean_snr - 1.0) < 0.01


def test_draw_outage_frequency_matches_exponential_cdf(setup10):
    topo, cfg = setup10
    rates = link_rates(topo, cfg, 1)
    link = LinkParam(rates.direct)
    rng = make_rng(102)
    draws = draw_link_snr(link, rng, 1_000_000)
    p = -math.expm1(-rates.direct * cfg.gamma_th)
    freq = float(np.mean(draws < cfg.gamma_th))
    sigma = math.sqrt(p * (1 - p) / draws.size)
    assert abs(freq - p) <= 3 * sigma


def test_equal_distance_links_have_equal_laws():
    link = LinkParam(0.73)
    a = draw_link_snr(link, make_rng(7), 20_000)
    b = draw_link_snr(link, make_rng(8), 20_000)
    stat = ks_2samp(a, b).statistic
    n = 20_000
    critical_1pct = 1.628 * math.sqrt(2 / n)
    assert stat < critical_1pct


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_identical_seeds_reproduce_everything(setup10):
    topo, cfg = setup10
    a = run_mdma(topo, cfg, 30_000, seed=5)
    b = run_mdma(topo, cfg, 30_000, seed=5)
    assert a.to_dict() == b.to_dict()
    assert np.array_equal(a.occupancy_counts, b.occupancy_counts)
    c = run_mdma(topo, cfg, 30_000, seed=6)
    assert c.failures != a.failures


# ---------------------------------------------------------------------------
# failure-free limit
# ---------------------------------------------------------------------------

def test_infinite_snr_failure_free(setup10):
    topo, cfg = setup10
    quiet = replace(cfg, noise_dbm=-math.inf)
    est = run_mdma(topo, quiet, 4_500, seed=1)
    assert est.failures == 0
    cycle = quiet.beta_s + 2 * quiet.beta_p
    assert est.pairs == 4_500 // cycle
    assert est.slots_per_pair == pytest.approx(cycle)


def test_tdma_infinite_snr_pair_cost(setup10):
    topo, cfg = setup10
    quiet = replace(cfg, noise_dbm=-math.inf)
    est = run_baseline("tdma", topo, quiet, 4_000, seed=1)
    assert est.failures == 0
    assert est.slots_per_pair == pytest.approx(2 * math.ceil(cfg.total_bits / cfg.rate_r0))


# Slots per cycle (MDMA, TDMA, FDMA) or per pair (NOMA) when nothing fails.
CYCLE = {"mdma": 15, "tdma": 20, "fdma": 10, "noma": 10}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("link", ["10dBm", "-30dBm", "noiseless"])
def test_every_scheme_fills_exactly_the_requested_slots(setup10, scheme, link):
    topo, cfg = setup10
    cfg = {
        "10dBm": cfg,
        "-30dBm": replace(cfg, power_dbm=-30.0),  # nothing ever succeeds
        "noiseless": replace(cfg, noise_dbm=-math.inf),  # nothing ever fails
    }[link]
    cycle = CYCLE[scheme]
    bands = ["band1", "band2"] if scheme == "fdma" else [""]
    for slots in (1, 2, cycle - 1, cycle, cycle + 1, simulator._CHUNK + 1):
        est = simulate(scheme, topo, cfg, slots, seed=2)
        for band in bands:
            used = [c for lab, c in zip(est.occupancy_labels, est.occupancy_counts) if lab.startswith(band)]
            assert sum(used) == slots, (band, slots)
        if scheme != "noma":
            assert est.attempts == len(bands) * slots
        if link == "-30dBm":
            assert est.failures == est.attempts and est.pairs == 0
        if link == "noiseless":
            assert est.failures == 0 and est.pairs == slots // cycle


@pytest.mark.parametrize("scheme", SCHEMES)
def test_results_do_not_depend_on_the_draw_chunk(setup10, scheme, monkeypatch):
    topo, cfg = setup10
    low = replace(cfg, power_dbm=4.0)
    options = SimOptions(trace_limit=0 if scheme == "noma" else 5_000)
    runs = [simulate(scheme, topo, low, 5_000, seed=3, options=options)]
    monkeypatch.setattr(simulator, "_CHUNK", 7)
    runs.append(simulate(scheme, topo, low, 5_000, seed=3, options=options))
    ref, small = runs
    assert json.dumps(small.to_dict()) == json.dumps(ref.to_dict())
    assert np.array_equal(small.occupancy_counts, ref.occupancy_counts)
    assert (small.decode_attempts, small.decode_empties) == (ref.decode_attempts, ref.decode_empties)
    assert trace_to_csv_rows(small.trace) == trace_to_csv_rows(ref.trace)
    assert len(ref.trace) == (0 if scheme == "noma" else 5_000)
    for a, b in zip(small.trace, ref.trace):
        assert a.snrs.keys() == b.snrs.keys()
        assert all(np.array_equal(a.snrs[k], b.snrs[k]) for k in a.snrs)


# ---------------------------------------------------------------------------
# bookkeeping identities via traces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["mdma", "tdma", "fdma"])
def test_trace_decode_set_and_mrc_identities(setup10, scheme):
    topo, cfg = setup10
    low = replace(cfg, power_dbm=4.0)
    est = simulate(scheme, topo, low, 3_000, seed=9, options=SimOptions(trace_limit=3_000))
    assert len(est.trace) == 3_000
    pending = {}
    saw_relay = 0
    for ev in est.trace:
        phase, kind, rep = ev.state.split(":")
        if kind == "bcast":
            mask = 0
            for i, snr in enumerate(ev.snrs["source_relay"]):
                if snr >= low.gamma_th:
                    mask |= 1 << i
            assert mask == ev.decode_mask
            if ev.outcome == "failure" and mask:
                pending[(phase, rep)] = (ev.snrs["direct"], mask)
        else:
            saw_relay += 1
            direct, mask = pending.pop((phase, rep))
            assert mask == ev.decode_mask
            total = direct + sum(
                snr for i, snr in enumerate(ev.snrs["relay_dest"]) if mask >> i & 1
            )
            assert ev.mrc_total == pytest.approx(total, rel=1e-12)
            assert ev.snrs["retained_direct"] == direct
            assert (ev.outcome == "success") == (ev.mrc_total >= low.gamma_th)
    assert saw_relay > 100


def test_decode_set_law(setup10):
    topo, cfg = setup10
    low = replace(cfg, power_dbm=-2.0)
    est = run_mdma(topo, low, 200_000, seed=13)
    from mdma_relay.analytic import decode_fail_probs

    for src in (1, 2):
        p_empty = float(np.prod(decode_fail_probs(topo, low, src)))
        n = est.decode_attempts[src]
        assert n > 5_000
        freq = est.decode_empties[src] / n
        sigma = math.sqrt(p_empty * (1 - p_empty) / n)
        assert abs(freq - p_empty) <= 3 * sigma


def test_outcome_independence_within_state(setup10):
    topo, cfg = setup10
    est = run_mdma(topo, cfg, 60_000, seed=17, options=SimOptions(trace_limit=60_000))
    outcomes = [1.0 if ev.outcome == "failure" else 0.0 for ev in est.trace if ev.state == "shared:bcast:1"]
    x = np.array(outcomes)
    x -= x.mean()
    n = x.size
    assert n > 2_000
    denom = float(np.dot(x, x))
    for lag in (1, 2, 3):
        r = float(np.dot(x[:-lag], x[lag:])) / denom
        assert abs(r) < 4.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# agreement with the chain model
# ---------------------------------------------------------------------------

def test_occupancy_tracks_stationary_distribution(setup10):
    topo, cfg = setup10
    outs = step_outages(topo, cfg)
    sol = solve_chain(outs, cfg.beta_s, cfg.beta_p)
    est = run_mdma(topo, cfg, 400_000, seed=21)
    assert est.occupancy_labels == [s.label for s in sol.states]
    assert np.max(np.abs(est.occupancy - sol.stationary)) < 5e-3


def test_overall_op_matches_analytic(setup10):
    topo, cfg = setup10
    outs = step_outages(topo, cfg)
    sol = solve_chain(outs, cfg.beta_s, cfg.beta_p)
    est = run_mdma(topo, cfg, 400_000, seed=23)
    assert abs(est.overall_op - sol.overall_op) <= 3 * est.overall_op_stderr


def test_per_step_frequencies_match(setup10):
    topo, cfg = setup10
    low = replace(cfg, power_dbm=6.0)
    outs = step_outages(topo, low)
    est = run_mdma(topo, low, 400_000, seed=27)
    for key, analytic in [
        ("shared:bcast", outs[1].bcast),
        ("personal1:bcast", outs[1].bcast),
        ("personal2:bcast", outs[2].bcast),
        ("shared:relay", outs[1].relay),
    ]:
        stats = est.per_step[key]
        sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12) / stats.attempts)
        assert abs(stats.op - analytic) <= 3 * sigma + 1e-9, key


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_unknown_scheme_rejected(setup10):
    topo, cfg = setup10
    with pytest.raises(ConfigError):
        run_baseline("cdma", topo, cfg, 100)


def test_fdma_resource_accounting(setup10):
    topo, cfg = setup10
    est = run_baseline("fdma", topo, cfg, 50_000, seed=3)
    assert est.bandwidth_units == 2.0 and est.power_units == 2.0
    # Identical pair statistics at one resource set would score four times higher.
    rescaled = 2.0 * est.pairs / est.slots
    assert est.phi_empirical == pytest.approx(rescaled / 4.0)


def test_fdma_runs_both_bands_every_slot(setup10):
    topo, cfg = setup10
    est = run_baseline("fdma", topo, cfg, 20_000, seed=4)
    assert est.attempts == 2 * est.slots
    band1 = sum(est.occupancy_counts[i] for i, lab in enumerate(est.occupancy_labels) if lab.startswith("band1"))
    assert band1 == est.slots


@pytest.mark.parametrize("scheme, step, rho, sources", [
    pytest.param("tdma", "payload{s}:bcast", 0.7, (1, 2), id="tdma"),
    pytest.param("fdma", "band{s}:bcast", 0.7, (1, 2), id="fdma"),
    # Only the stream that finishes its payload last transmits solo.
    pytest.param("noma", "solo{s}", 0.7, (2,), id="noma-solo2"),
    pytest.param("noma", "solo{s}", 0.1, (1,), id="noma-solo1"),
])
def test_baseline_broadcasts_fail_as_the_direct_link_law(setup10, scheme, step, rho, sources):
    topo, cfg = setup10
    est = simulate(scheme, topo, cfg, 200_000, seed=31, options=SimOptions(noma_rho=rho))
    for s in sources:
        p = -math.expm1(-link_rates(topo, cfg, s).direct * cfg.gamma_th)
        stats = est.per_step[step.format(s=s)]
        assert stats.attempts > 1_000
        sigma = math.sqrt(p * (1 - p) / stats.attempts)
        assert abs(stats.op - p) <= 3 * sigma, (s, stats.op, p, stats.attempts)


def test_noma_runs_and_reports(setup10):
    topo, cfg = setup10
    est = run_baseline("noma", topo, cfg, 50_000, seed=5)
    assert est.pairs > 0
    assert 0.0 < est.overall_op < 1.0
    assert est.bandwidth_units == 1.0 and est.power_units == 1.0


def test_noma_interference_raises_outage_vs_mdma(setup10):
    topo, cfg = setup10
    mdma = simulate("mdma", topo, cfg, 60_000, seed=6)
    noma = simulate("noma", topo, cfg, 60_000, seed=6)
    assert noma.overall_op > mdma.overall_op


def test_noma_sic_order_options(setup10):
    # Instantaneous ordering gives the momentarily weaker stream a second
    # chance after cancellation, so it clearly lowers outage at high power.
    topo, cfg = setup10
    high = replace(cfg, power_dbm=30.0)
    mean_order = run_baseline("noma", topo, high, 30_000, seed=7)
    instant = run_baseline("noma", topo, high, 30_000, seed=7, options=SimOptions(noma_sic_order="instant"))
    assert instant.overall_op < mean_order.overall_op


def test_relay_cooperation_flag(setup10):
    topo, cfg = setup10
    low = replace(cfg, power_dbm=4.0)
    with_relays = run_mdma(topo, low, 60_000, seed=8)
    without = run_mdma(topo, low, 60_000, seed=8, options=SimOptions(relay_cooperation=False))
    assert without.overall_op > with_relays.overall_op
    relay_visits = sum(
        without.occupancy_counts[i]
        for i, lab in enumerate(without.occupancy_labels)
        if ":relay:" in lab
    )
    assert relay_visits == 0


def test_invalid_options():
    with pytest.raises(ConfigError):
        SimOptions(noma_rho=0.0)
    with pytest.raises(ConfigError):
        SimOptions(noma_sic_order="uplink")


def test_slots_validation(setup10):
    topo, cfg = setup10
    with pytest.raises(ConfigError):
        run_mdma(topo, cfg, 0)
    with pytest.raises(ConfigError):
        run_baseline("tdma", topo, cfg, 0)
