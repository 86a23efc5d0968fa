import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mdma_relay import simulator
from mdma_relay.analytic import step_outages
from mdma_relay.markov import STEP_KINDS, Phase, ProtocolState, phase_plan, solve_chain
from mdma_relay.simulator import (
    SCHEMES,
    SimOptions,
    make_rng,
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


def draw_link_snr(link: LinkParam, rng: np.random.Generator, size: int) -> np.ndarray:
    """Fresh exponential SNR draws with mean 1/rate."""
    return rng.standard_exponential(size) / link.rate_lambda


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
    a = simulate("mdma", topo, cfg, 30_000, seed=5)
    b = simulate("mdma", topo, cfg, 30_000, seed=5)
    assert a.to_dict() == b.to_dict()
    assert np.array_equal(a.occupancy_counts, b.occupancy_counts)
    c = simulate("mdma", topo, cfg, 30_000, seed=6)
    assert c.failures != a.failures


# ---------------------------------------------------------------------------
# failure-free limit
# ---------------------------------------------------------------------------

def test_infinite_snr_failure_free(setup10):
    topo, cfg = setup10
    quiet = replace(cfg, noise_dbm=-math.inf)
    est = simulate("mdma", topo, quiet, 4_500, seed=1)
    assert est.failures == 0
    cycle = quiet.beta_s + 2 * quiet.beta_p
    assert est.pairs == 4_500 // cycle
    assert est.slots_per_pair == pytest.approx(cycle)


def test_tdma_infinite_snr_pair_cost(setup10):
    topo, cfg = setup10
    quiet = replace(cfg, noise_dbm=-math.inf)
    est = simulate("tdma", topo, quiet, 4_000, seed=1)
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
    est = simulate("mdma", topo, low, 200_000, seed=13)
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
    est = simulate("mdma", topo, cfg, 60_000, seed=17, options=SimOptions(trace_limit=60_000))
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
    est = simulate("mdma", topo, cfg, 400_000, seed=21)
    assert est.occupancy_labels == [s.label for s in sol.states]
    assert np.max(np.abs(est.occupancy - sol.stationary)) < 5e-3


def test_overall_op_matches_analytic(setup10):
    topo, cfg = setup10
    outs = step_outages(topo, cfg)
    sol = solve_chain(outs, cfg.beta_s, cfg.beta_p)
    est = simulate("mdma", topo, cfg, 400_000, seed=23)
    assert abs(est.overall_op - sol.overall_op) <= 3 * est.overall_op_stderr


def test_per_step_frequencies_match(setup10):
    topo, cfg = setup10
    low = replace(cfg, power_dbm=6.0)
    outs = step_outages(topo, low)
    est = simulate("mdma", topo, low, 400_000, seed=27)
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
        simulate("cdma", topo, cfg, 100)


@pytest.mark.parametrize("scheme", ["mdma", "tdma", "fdma"])
def test_band_schemes_take_their_labels_from_markov(setup10, scheme):
    topo, cfg = setup10
    plan = {
        "mdma": phase_plan(cfg.beta_s, cfg.beta_p),
        "tdma": [Phase("payload1", 1, cfg.beta_t), Phase("payload2", 2, cfg.beta_t)],
        "fdma": [Phase("band1", 1, cfg.beta_t), Phase("band2", 2, cfg.beta_t)],
    }[scheme]
    est = simulate(scheme, topo, cfg, 2_000, seed=1)
    assert est.occupancy_labels == [ProtocolState(p.name, step, j).label
                                    for p in plan for j in range(1, p.reps + 1) for step in (1, 2)]
    assert list(est.per_step) == [f"{p.name}:{kind}" for p in plan for kind in STEP_KINDS]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_each_band_is_charged_one_bandwidth_and_one_power_unit(setup10, scheme):
    topo, cfg = setup10
    bands = 2 if scheme == "fdma" else 1
    est = simulate(scheme, topo, cfg, 1_000, seed=2)
    assert (est.bandwidth_units, est.power_units) == (bands, bands)
    est = simulate(scheme, topo, replace(cfg, bandwidth_units=1.5, power_units=3.0), 1_000, seed=2)
    assert (est.bandwidth_units, est.power_units) == (bands * 1.5, bands * 3.0)


def test_fdma_resource_accounting(setup10):
    topo, cfg = setup10
    est = simulate("fdma", topo, cfg, 50_000, seed=3)
    assert est.bandwidth_units == 2.0 and est.power_units == 2.0
    # Identical pair statistics at one resource set would score four times higher.
    rescaled = 2.0 * est.pairs / est.slots
    assert est.phi_empirical == pytest.approx(rescaled / 4.0)


def test_fdma_runs_both_bands_every_slot(setup10):
    topo, cfg = setup10
    est = simulate("fdma", topo, cfg, 20_000, seed=4)
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
    est = simulate("noma", topo, cfg, 50_000, seed=5)
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
    mean_order = simulate("noma", topo, high, 30_000, seed=7)
    instant = simulate("noma", topo, high, 30_000, seed=7, options=SimOptions(noma_sic_order="instant"))
    assert instant.overall_op < mean_order.overall_op


def test_relay_cooperation_flag(setup10):
    topo, cfg = setup10
    low = replace(cfg, power_dbm=4.0)
    with_relays = simulate("mdma", topo, low, 60_000, seed=8)
    without = simulate("mdma", topo, low, 60_000, seed=8, options=SimOptions(relay_cooperation=False))
    assert without.overall_op > with_relays.overall_op
    relay_visits = sum(
        without.occupancy_counts[i]
        for i, lab in enumerate(without.occupancy_labels)
        if ":relay:" in lab
    )
    assert relay_visits == 0


@pytest.mark.parametrize("m", [1, 3, 8, 16])
def test_empty_decode_sets_from_column_ands_equal_any(m):
    rng = np.random.default_rng(m)
    flags = rng.random((4_096, m)) < 0.2
    flags[::7] = True
    flags[3::11] = False
    empty = simulator._none_set(flags)
    assert empty.dtype == bool and empty.any() and not empty.all()
    assert np.array_equal(empty, ~flags.any(axis=1))


def _sic_by_selection(first, x1, x2, gamma_th):
    """Successive cancellation spelled out: pick the stream decoded first,
    decode it against the other, then the other against what is left."""
    xs, xw = np.where(first, x1, x2), np.where(first, x2, x1)
    with np.errstate(invalid="ignore"):
        ok_s, sinr_s = xs >= gamma_th * (1.0 + xw), xs / (1.0 + xw)
        resid = np.where(ok_s, 0.0, xs)
        ok_w, sinr_w = xw >= gamma_th * (1.0 + resid), xw / (1.0 + resid)
    return ({1: np.where(first, ok_s, ok_w), 2: np.where(first, ok_w, ok_s)},
            {1: np.where(first, sinr_s, sinr_w), 2: np.where(first, sinr_w, sinr_s)})


@pytest.mark.parametrize("gamma_th", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("order", ["scalar", "column", "element"])
def test_sic_rule_equals_successive_cancellation(gamma_th, order):
    rng = np.random.default_rng(23)
    x1, x2 = rng.exponential(2.0, (2, 3_000, 6))
    for x in (x1, x2):  # no noise, deep fades, and powers exactly at a threshold
        x[rng.random(x.shape) < 0.05] = math.inf
        x[rng.random(x.shape) < 0.05] = 0.0
    at = rng.random(x1.shape) < 0.05
    x1[at] = gamma_th * (1.0 + x2[at])
    x2[at[::-1]] = gamma_th
    firsts = {
        "scalar": [True, False, np.True_, np.False_],
        "column": [rng.random(6) < 0.5],
        "element": [x1 >= x2],
    }[order]
    for first in firsts:
        ok, sinr = simulator._sic(first, x1, x2, gamma_th, sinr=True)
        ref_ok, ref_sinr = _sic_by_selection(first, x1, x2, gamma_th)
        flags, none = simulator._sic(first, x1, x2, gamma_th)
        assert none is None
        for s in (1, 2):
            assert ok[s].dtype == bool and flags[s].dtype == bool
            assert np.array_equal(ok[s], ref_ok[s]) and np.array_equal(flags[s], ref_ok[s])
            assert np.array_equal(sinr[s].view(np.uint64), ref_sinr[s].view(np.uint64))


def _noma_outputs(topo, cfg, slots, options):
    est = simulate("noma", topo, cfg, slots, seed=4, options=options)
    return (json.dumps(est.to_dict()), est.occupancy_counts.tolist(), est.decode_attempts,
            est.decode_empties, est.pair_duration_sum, est.pair_duration_sumsq)


@pytest.mark.parametrize("link", ["-30dBm", "4dBm", "10dBm", "30dBm", "noiseless"])
def test_noma_whole_pairs_equal_the_pair_by_pair_walk(setup10, link, monkeypatch):
    topo, cfg = setup10
    cfg = replace(cfg, noise_dbm=-math.inf) if link == "noiseless" else replace(
        cfg, power_dbm=float(link[:-3]))
    variants = [(SimOptions(), 10), (SimOptions(noma_rho=0.1), 10),
                (SimOptions(noma_sic_order="instant"), 10),
                (SimOptions(relay_cooperation=False), 10), (SimOptions(), 1), (SimOptions(), 25)]
    cases = [(replace(cfg, total_bits=bits), slots, options)
             for options, bits in variants
             for slots in sorted({1, bits - 1, bits, bits + 1, simulator._CHUNK + 1} - {0})]
    cases.append((cfg, 50_000, SimOptions()))
    whole, placed, counted = simulator._whole_pairs, [], []

    def spy(joint, solo, beta_t, t, tally):
        end = whole(joint, solo, beta_t, t, tally)
        placed.append(end - t)
        return end

    def outputs():
        counted.clear()
        out = [_noma_outputs(topo, c, slots, options) for c, slots, options in cases]
        with monkeypatch.context() as m:
            m.setattr(simulator, "_CHUNK", 7)
            out.append(_noma_outputs(topo, cfg, 3_000, SimOptions()))
        return out, list(counted)

    # Each counted episode's stream, chunk position and slot: NOMA records no
    # trace, so this is the only place a misplaced slot shows.
    for cls in (simulator._JointStream, simulator._BcastStream):
        def count(self, idx, start, rep, tag, _count=cls.count):
            counted.append((type(self).__name__, getattr(self, "source", 0), idx, start.tolist()))
            _count(self, idx, start, rep, tag)
        monkeypatch.setattr(cls, "count", count)
    monkeypatch.setattr(simulator, "_whole_pairs", spy)
    ref = outputs()
    assert (sum(placed) > 0) == (link != "-30dBm")  # at -30 dBm no pair ever ends
    # With no pair placed whole, the take-by-take walk places every pair.
    monkeypatch.setattr(simulator, "_whole_pairs", lambda joint, solo, beta_t, t, tally: t)
    assert outputs() == ref


def test_invalid_options():
    with pytest.raises(ConfigError):
        SimOptions(noma_rho=0.0)
    with pytest.raises(ConfigError):
        SimOptions(noma_sic_order="uplink")


def test_slots_validation(setup10):
    topo, cfg = setup10
    for scheme in SCHEMES:
        with pytest.raises(ConfigError, match="slots must be at least 1"):
            simulate(scheme, topo, cfg, 0)
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            simulate(scheme, topo, cfg, 100, seed=-1)
