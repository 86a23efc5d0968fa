import json
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from layouts import near_source_topology, underflow_topology
from mdma_relay import simulator
from mdma_relay.analytic import step_outages
from mdma_relay.markov import (
    STEP_KINDS,
    Phase,
    build_chain,
    phase_plan,
    ring_distribution,
    solve_chain,
    state_label,
)
from mdma_relay.simulator import (
    SCHEMES,
    SimOptions,
    make_rng,
    simulate,
    trace_to_csv_rows,
)
from mdma_relay.topology import (
    ConfigError,
    default_paper_setup,
    link_rates,
)


@pytest.fixture(scope="module")
def setup10():
    return default_paper_setup(power_dbm=10.0)


def draw_link_snr(rate: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Fresh exponential SNR draws with mean 1/rate."""
    return rng.standard_exponential(size) / rate


# ---------------------------------------------------------------------------
# link draws
# ---------------------------------------------------------------------------

def test_draw_mean_matches_link(setup10):
    topo, cfg = setup10
    rate = float(link_rates(topo, cfg).direct[0])
    rng = make_rng(101)
    draws = draw_link_snr(rate, rng, 1_000_000)
    assert abs(draws.mean() * rate - 1.0) < 0.01


def test_draw_outage_frequency_matches_exponential_cdf(setup10):
    topo, cfg = setup10
    links = link_rates(topo, cfg)
    rng = make_rng(102)
    draws = draw_link_snr(float(links.direct[0]), rng, 1_000_000)
    p = links.miss[0]  # the table's direct-link law, 1 - exp(-rate * g)
    freq = float(np.mean(draws < cfg.gamma_th))
    sigma = math.sqrt(p * (1 - p) / draws.size)
    assert abs(freq - p) <= 3 * sigma


def test_equal_distance_links_have_equal_laws():
    a = draw_link_snr(0.73, make_rng(7), 20_000)
    b = draw_link_snr(0.73, make_rng(8), 20_000)
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
    for slots in (1, 2, cycle - 1, cycle, cycle + 1, simulator._CHUNK + 1, simulator._BCAST_CHUNK + 1):
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
def test_results_do_not_depend_on_the_draw_chunk(setup10, scheme, draw_cap):
    topo, cfg = setup10
    low = replace(cfg, power_dbm=4.0)
    options = SimOptions(trace_limit=0 if scheme == "noma" else 5_000)
    runs = [simulate(scheme, topo, low, 5_000, seed=3, options=options)]
    draw_cap(7)
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


@pytest.mark.parametrize("power", [10.0, 30.0])
def test_payloads_past_the_int16_range_do_not_depend_on_the_chunk_size(monkeypatch, draw_cap, power):
    """Chunks at the shipped caps keep their placement arrays as int16, and a
    payload of 40 000 slots, past int16, is placed with them; chunks of
    16 384 keep them as int64.  An overflow would tell the two apart."""
    topo, cfg = default_paper_setup(power_dbm=power)
    cfg = replace(cfg, total_bits=40_000.0)
    dtypes, prepared = set(), simulator._Episodes.prepared  # every chunk, kept or not

    def spy(self, n):
        ep = prepared(self, n)
        dtypes.add(ep["cum_len"].dtype)
        return ep

    def run(shared):
        dtypes.clear()
        pool = {} if shared else None
        return [simulate(s, topo, cfg, 150_000, seed=5, pool=pool).to_dict() for s in SCHEMES]

    monkeypatch.setattr(simulator._Episodes, "prepared", spy)
    narrow = run(True)
    assert all(est["pairs"] for est in narrow)
    assert dtypes == {np.dtype(np.int16)}
    draw_cap(1 << 14)
    assert narrow == run(False)
    assert np.dtype(np.int64) in dtypes


@pytest.mark.parametrize("scheme", ["mdma", "noma"])
def test_a_cycle_longer_than_a_chunk_keeps_memory_bounded_by_the_chunk(setup10, scheme):
    # At -30 dBm nothing succeeds, so no cycle or pair ever ends: memory that
    # held a cycle whole would grow with the run.  A chunk takes well under 1 MB.
    topo, cfg = setup10
    tracemalloc.start()
    try:
        est = simulate(scheme, topo, replace(cfg, power_dbm=-30.0), 300_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.pairs == 0
    assert peak < 5e6, f"{peak / 1e6:.1f} MB"


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
            # Relays are drawn only for a broadcast the destination missed.
            assert ev.snrs["source_relay"].size == (0 if ev.outcome == "success" else len(topo.relay_pos))
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


@pytest.mark.parametrize("power, relay_pos", [
    pytest.param(-2.0, None, id="-2dBm"),  # the destination misses nearly every broadcast
    # It misses 5-10% of them, so decode sets are counted over those alone.  On
    # the paper layout every set would be nonempty (P = 1e-14); two far relays
    # leave it empty often enough for a 3-sigma gate to show a bias.
    pytest.param(20.0, ((-150.0, 40.0), (-150.0, 0.0)), id="20dBm-far-relays"),
])
def test_decode_set_law(setup10, power, relay_pos):
    topo, cfg = setup10
    if relay_pos:
        topo = replace(topo, relay_pos=relay_pos)
    low = replace(cfg, power_dbm=power)
    est = simulate("mdma", topo, low, 200_000, seed=13)
    gates = link_rates(topo, low).gates

    for src in (1, 2):
        p_empty = float(np.prod(gates[src - 1]))
        n = est.decode_attempts[src]
        assert n > 5_000
        freq = est.decode_empties[src] / n
        sigma = math.sqrt(p_empty * (1 - p_empty) / n)
        assert abs(freq - p_empty) <= 3 * sigma


class _RowSpy:
    """A generator that adds the rows each draw reads to `rows[stream]`."""

    def __init__(self, rng, rows, stream):
        self.rng, self.rows, self.stream = rng, rows, stream
        self.bit_generator = rng.bit_generator  # a reader taking the generators saves its state

    def standard_exponential(self, shape):
        self.rows[self.stream] += shape[0]
        return self.rng.standard_exponential(shape)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("power", [4.0, 30.0])
def test_relays_are_drawn_only_for_missed_broadcasts(setup10, monkeypatch, scheme, power):
    """Source-relay generators (streams 1 and 4 for broadcasts, 7 and 10 for
    NOMA's joint episodes) read one row per broadcast the destination missed,
    and per joint episode where it missed some stream; a decoded broadcast
    adds no decode attempt."""
    topo, cfg = setup10
    rows, missed, drawn = ({k: 0 for k in (1, 4, 7, 10)} for _ in range(3))
    make_rng, bcast, joint = simulator.make_rng, simulator._Episodes.draw, simulator._JointStream.draw

    def spy_rng(seed, stream=0):
        rng = make_rng(seed, stream)
        return _RowSpy(rng, rows, stream) if stream in rows else rng

    def spy_bcast(self, n):
        ep = bcast(self, n)
        drawn[3 * self.source - 2] += n
        missed[3 * self.source - 2] += int(np.count_nonzero(~ep["ok"]))
        return ep

    def spy_joint(self, left):
        ep = joint(self, left)
        n = ep["cum_len"].size - 1
        for stream in (7, 10):
            drawn[stream] += n
            missed[stream] += int(np.count_nonzero(~(ep["ok"][1] & ep["ok"][2])))
        return ep

    monkeypatch.setattr(simulator, "make_rng", spy_rng)
    monkeypatch.setattr(simulator._Episodes, "draw", spy_bcast)
    monkeypatch.setattr(simulator._JointStream, "draw", spy_joint)
    est = simulate(scheme, topo, replace(cfg, power_dbm=power), 20_000, seed=11)
    assert rows == missed
    assert sum(missed.values()) > 0
    if power == 30.0:  # about 1% of broadcasts miss, and 23% of NOMA's joint episodes
        assert sum(rows.values()) < 0.5 * sum(drawn.values()), (rows, drawn)
    # A broadcast the run counts is a decode attempt exactly when it failed.
    bcast_failures = sum(v.failures for key, v in est.per_step.items() if "relay" not in key)
    assert sum(est.decode_attempts.values()) == bcast_failures


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
    est = simulate("mdma", topo, cfg, 400_000, seed=21)
    assert est.occupancy_labels == list(build_chain(outs, cfg.beta_s, cfg.beta_p).states)
    assert np.max(np.abs(est.occupancy - ring_distribution(outs, cfg.beta_s, cfg.beta_p))) < 5e-3


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
    assert est.occupancy_labels == [state_label(p.name, step, j)
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
        p = link_rates(topo, cfg).miss[s - 1]
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
    # No relay hears a source: a traced broadcast records source-relay SNRs of 0.
    options = SimOptions(relay_cooperation=False, trace_limit=200)
    bcasts = [ev for ev in simulate("mdma", topo, low, 200, seed=8, options=options).trace
              if "source_relay" in ev.snrs]
    assert bcasts and all(not ev.snrs["source_relay"].any() and ev.decode_mask == 0 for ev in bcasts)


@pytest.mark.parametrize("m", [1, 3, 8, 16])
def test_empty_decode_sets_from_column_ands_equal_any(m):
    rng = np.random.default_rng(m)
    flags = rng.random((4_096, m)) < 0.2
    flags[::7] = True
    flags[3::11] = False
    empty = simulator._none_set(flags)
    assert empty.dtype == bool and empty.any() and not empty.all()
    assert np.array_equal(empty, ~flags.any(axis=1))


def _walk(ep, runs):
    """Each placed episode's start slot, repetition and tag, run by run."""
    cum_len = np.concatenate(([0], np.cumsum(ep["length"])))
    start, rep, tag = [], [], []
    for first, stop, slot, before, t in runs:
        for i in range(first, stop):
            start.append(slot + cum_len[i] - cum_len[first])
            rep.append(before)
            tag.append(t)
            before += int(ep["success"][0][i])
    return np.array(start), np.array(rep), np.array(tag)


def _count_per_episode(tally, ep, table, source, runs):
    """The reference for `_BcastStream.count`: gather every episode's labels
    from the table, then bincount them per label.  Decode sets are counted
    over the broadcasts the destination missed, the only ones drawn."""
    start, rep, tag = _walk(ep, runs)
    idx = slice(runs[0][0], runs[-1][1])
    lab_b, lab_r, key_b, key_r, _ = table[tag, rep].T
    b = start < tally.slots
    r = ep["relay"][idx] & (start + 1 < tally.slots)
    for lab, key, sent, ok in (lab_b, key_b, b, ep["ok"]), (lab_r, key_r, r, ep["relay_ok"]):
        tally.occupancy += np.bincount(lab[sent], minlength=tally.occupancy.size)
        tally.attempts += np.bincount(key[sent], minlength=tally.attempts.size)
        tally.failures += np.bincount(key[sent & ~ok[idx]], minlength=tally.failures.size)
    miss = b & ~ep["ok"][idx]
    tally.decode_attempts[source] += int(miss.sum())
    tally.decode_empties[source] += int((miss & ~ep["relay"][idx]).sum())


def test_per_cell_counts_equal_the_per_episode_count():
    """Random chunks and placements: runs of 1 to 5 repetitions in tables
    padded to the widest, a first run resumed mid-way, a last run that the
    chunk end may cut, and a run end that may fall on a relay slot."""
    seen = {"padded": 0, "cut": 0, "relay episode at slots - 1": 0}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        ok = rng.random(n) < 0.5
        empty = ~ok & (rng.random(n) < 0.3)
        relay = ~ok & ~empty
        relay_ok = relay & (rng.random(n) < 0.6)
        ep = {"ok": ok, "relay": relay, "relay_ok": relay_ok,
              "length": 1 + relay, "success": [ok | relay_ok]}
        simulator._prepare(ep, ep["length"], ep["success"])
        reps = rng.integers(1, 6, int(rng.integers(1, 5)))
        # Occupancy labels, step keys and band per cell; a short run's row is
        # padded with its first repetition's, as `_run_bands` builds it.
        table = np.zeros((len(reps), reps.max(), 5), dtype=np.int64)
        table[..., :2] = rng.integers(0, 12, table[..., :2].shape)
        table[..., 2:4] = rng.integers(0, 6, table[..., 2:4].shape)
        for t, k in enumerate(reps):
            table[t, k:] = table[t, 0]
        runs, i, slot = [], int(rng.integers(0, 3)), int(rng.integers(0, 5))
        tag = int(rng.integers(len(reps)))
        before = int(rng.integers(reps[tag]))  # resumed from the last chunk
        while i < n:
            first, need = i, reps[tag] - before
            while i < n and need:
                need -= int(ep["success"][0][i])
                i += 1
            runs.append((first, i, slot, before, tag))
            seen["cut"] += bool(need)
            slot += 2 * (i - first) + int(rng.integers(0, 4))  # other streams' slots between runs
            tag, before = int(rng.integers(len(reps))), 0
        if not runs:
            continue
        start, _, _ = _walk(ep, runs)
        relays = start[relay[runs[0][0]:]]
        if seed % 3 == 0 and relays.size:
            slots = int(rng.choice(relays)) + 1
            seen["relay episode at slots - 1"] += 1
        else:
            slots = int(rng.integers(1, start[-1] + 3))
        seen["padded"] += bool((reps < reps.max()).any())

        got, want = (simulator._Tally("mdma", list(range(12)), list(range(6)), 1, slots, 0) for _ in range(2))
        episodes = SimpleNamespace(source=2, mean_len=float(ep["length"].mean()), chunk=lambda k, size: ep)
        stream = simulator._BcastStream(got, episodes, table)
        stream.ready(0)
        for first, stop, at, before, tag in runs:
            stream.place(*(np.array([v]) for v in (first, stop, at, before)), tag)
        stream.flush()
        _count_per_episode(want, ep, table, 2, runs)
        for name in ("occupancy", "attempts", "failures"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (seed, name)
        assert (got.decode_attempts, got.decode_empties) == (want.decode_attempts, want.decode_empties)
    assert min(seen.values()) >= 20, seen


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


# ---------------------------------------------------------------------------
# per-run bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["mdma", "fdma", "noma"])
def test_an_estimate_cannot_change_what_later_runs_count_into(setup10, scheme):
    topo, cfg = setup10
    first = simulate(scheme, topo, cfg, 200, seed=3)
    labels, keys = list(first.occupancy_labels), sorted(first.per_step)
    first.occupancy_labels[0] = "changed"
    first.occupancy_labels.append("extra")
    again = simulate(scheme, topo, cfg, 200, seed=3)
    assert again.occupancy_labels == labels and sorted(again.per_step) == keys
    assert json.dumps(again.to_dict()) == json.dumps(simulate(scheme, topo, cfg, 200, seed=3).to_dict())


def test_the_shared_layout_is_read_only():
    labels, keys, _, table = simulator._layout((tuple(phase_plan(5, 6)),))
    assert isinstance(labels, tuple) and isinstance(keys, tuple)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1


def _settle_by_list_max(tally):
    """The reference for `_Tally._settle`: the latest end over a list of
    every band's ends, and durations from `np.diff` with a prepend, summed
    in `dur_sum` as `_Tally` once did."""
    n = min(e.size for e in tally.cycle_ends)
    if n:
        close = np.max([e[:n] for e in tally.cycle_ends], axis=0)
        d = np.diff(close, prepend=tally.last_close).astype(float)
        tally.pairs, tally.last_close = tally.pairs + n, int(close[-1])
        tally.dur_sum, tally.dur_sumsq = tally.dur_sum + d.sum(), tally.dur_sumsq + d @ d
        tally.cycle_ends = [e[n:] for e in tally.cycle_ends]


@pytest.mark.parametrize("bands", [1, 2])
def test_settle_matches_the_list_max_and_diff_reference(bands):
    """Random cycle ends, bands of unequal lengths, several settles per run,
    and ends past `slots`, which are dropped.  The durations' float sum is
    exact, so it is `last_close`, which `estimate` reports."""
    seen = {"past slots": 0, "left over": 0}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        slots = int(rng.integers(20, 2_000))
        got = simulator._Tally("fdma", [], [], bands, slots, 0)
        want = SimpleNamespace(cycle_ends=[np.zeros(0, dtype=np.int64)] * bands,
                               pairs=0, last_close=0, dur_sum=0.0, dur_sumsq=0.0)
        t = [0] * bands
        for _ in range(int(rng.integers(2, 9))):
            band = int(rng.integers(bands))
            ends = t[band] + np.cumsum(rng.integers(1, 40, int(rng.integers(0, 60))))
            t[band] = int(ends[-1]) if ends.size else t[band]
            got.cycle_end(band, ends)  # settles
            want.cycle_ends[band] = np.concatenate((want.cycle_ends[band], ends[ends <= slots]))
            _settle_by_list_max(want)
            assert (got.pairs, got.last_close, float(got.last_close), got.dur_sumsq) == \
                (want.pairs, want.last_close, want.dur_sum, want.dur_sumsq), seed
            assert all(np.array_equal(g, w) for g, w in zip(got.cycle_ends, want.cycle_ends))
            seen["left over"] += any(e.size for e in got.cycle_ends)  # one band ahead of the other
        seen["past slots"] += max(t) > slots
    assert seen["past slots"] >= 20 and (seen["left over"] >= 20 or bands == 1), seen


def test_infinite_means_give_infinite_snrs_per_element():
    means = np.array([math.inf, 2.0, math.inf, 0.5])
    got = simulator._exp(make_rng(1), (6, 4), means)
    want = make_rng(1).standard_exponential((6, 4)) * means
    assert np.isinf(got[:, [0, 2]]).all()
    assert np.array_equal(got[:, [1, 3]], want[:, [1, 3]])
    rng = make_rng(1)
    assert np.isinf(simulator._exp(rng, (6, 4), np.full(4, math.inf))).all()
    assert rng.random() == make_rng(1).random()  # nothing drawn


def test_a_source_relay_rate_that_underflows_makes_only_that_relay_decode():
    """Relay 1 at 1e-200 from source 1: it decodes every broadcast of source 1,
    and the others are drawn as before, so the relay step agrees with the
    closed form instead of never failing."""
    topo, cfg = underflow_topology((20.0, 20.0)), default_paper_setup(power_dbm=4.0)[1]
    rates = link_rates(topo, cfg).source_relay[0]
    assert rates[0] == 0.0 and rates[1:].min() > 0.0
    est = simulate("mdma", topo, cfg, 200_000, seed=1)
    want = step_outages(topo, cfg)[1].relay
    for key in ("shared:relay", "personal1:relay"):
        step = est.per_step[key]
        assert step.failures > 0
        assert abs(step.op - want) <= 4 * math.sqrt(want * (1 - want) / step.attempts) + 0.5 / step.attempts


@pytest.mark.parametrize("layout, message", [
    ("relay1-destination", "rates must be positive"),
    ("source1-destination", "link rate must be positive, got 0.0"),
], ids=["relay1-destination", "source1-destination"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_relay_dest_rate_that_underflows_is_refused_as_the_closed_form_refuses_it(scheme, layout, message):
    # Relay 1 or source 1 so close to the destination that its link's rate underflows to 0.
    # link_rates refuses it, and the closed form and the simulator refuse it there.
    topo = underflow_topology((100.0, 0.0)) if layout == "relay1-destination" else near_source_topology()
    cfg = default_paper_setup(power_dbm=4.0)[1]
    rates = link_rates(topo, replace(cfg, rate_r0=1e-17))  # at a zero threshold every reception succeeds
    assert (rates.relay_dest if layout == "relay1-destination" else rates.direct)[0] == 0.0
    with pytest.raises(ConfigError, match=message) as links:
        link_rates(topo, cfg)
    with pytest.raises(ConfigError, match=message) as analyze:
        step_outages(topo, cfg)
    with pytest.raises(ConfigError, match=message) as sim:
        simulate(scheme, topo, cfg, 100)
    assert str(sim.value) == str(analyze.value) == str(links.value)


_PAPER = default_paper_setup()


@pytest.mark.parametrize("topo, cfg, cooperate", [
    pytest.param(_PAPER[0], replace(_PAPER[1], noise_dbm=-math.inf), True, id="noiseless"),
    pytest.param(_PAPER[0], replace(_PAPER[1], rate_r0=1e-17, total_bits=1e-17), True, id="zero-threshold"),
    pytest.param(_PAPER[0], _PAPER[1], False, id="no-cooperation"),
    # 0 times the infinite source-relay rates of no cooperation is NaN.
    pytest.param(_PAPER[0], replace(_PAPER[1], rate_r0=1e-17, total_bits=1e-17), False,
                 id="zero-threshold-no-cooperation"),
    pytest.param(underflow_topology((20.0, 20.0)), _PAPER[1], True, id="underflow-source1"),
    # At a positive threshold link_rates refuses a relay-destination rate of 0.
    pytest.param(underflow_topology((100.0, 0.0)), replace(_PAPER[1], rate_r0=1e-17, total_bits=1e-17), True,
                 id="underflow-destination"),
    pytest.param(_PAPER[0], replace(_PAPER[1], power_dbm=-61.0), True, id="-61dBm"),
    pytest.param(_PAPER[0], replace(_PAPER[1], power_dbm=200.0), True, id="200dBm"),
])
def test_broadcast_draw_sizes_are_defined_at_the_edge_inputs(topo, cfg, cooperate):
    """The mean episode length that sizes broadcast draws is finite and in
    [1, 2], and every draw size a positive int no larger than the cap."""
    links = link_rates(topo, cfg, cooperate)  # the table `simulate` computes
    for source in (1, 2):
        with np.errstate(over="ignore", divide="ignore"):  # as `simulate` builds it: a rate of 0 is an infinite mean
            episodes = simulator._Episodes(0, source, links, cfg.gamma_th)
        assert 1.0 <= episodes.mean_len <= 2.0
        tally = simulator._Tally("mdma", [], [], 1, 1, 0)
        stream = simulator._BcastStream(tally, episodes, np.zeros((1, 1, 5), dtype=np.int64))
        for left in (1, 7, 10_000, 10**15):
            n = stream.size(left)
            assert type(n) is int and 1 <= n <= simulator._BCAST_CHUNK


@pytest.mark.parametrize("scheme", ["mdma", "tdma"])
def test_a_lone_run_draws_for_its_share_of_the_band(monkeypatch, scheme):
    """A band that alternates the sources sizes each source's own draws by
    its share of the band's repetitions: a lone 1e4-slot run draws at most
    1.3 times the broadcast episodes it places.  Sized for a band of one
    source alone, they drew about 2.1 times as many."""
    drawn, placed = [0], [0]
    draw, count = simulator._Episodes.draw, simulator._BcastStream.count

    def spy_draw(self, n):
        drawn[0] += n
        return draw(self, n)

    def spy_count(self, idx, start, rep, tag):
        placed[0] += idx.stop - idx.start
        count(self, idx, start, rep, tag)

    monkeypatch.setattr(simulator._Episodes, "draw", spy_draw)
    monkeypatch.setattr(simulator._BcastStream, "count", spy_count)
    topo, cfg = default_paper_setup()
    for power in range(0, 31, 2):
        drawn[0] = placed[0] = 0
        simulate(scheme, topo, replace(cfg, power_dbm=float(power)), 10_000, seed=1)
        assert placed[0] <= drawn[0] <= 1.3 * placed[0], (power, drawn, placed)


@pytest.mark.parametrize("power, cooperate", [(4.0, True), (10.0, True), (4.0, False), (30.0, True)])
def test_the_mean_episode_length_is_that_of_the_drawn_episodes(power, cooperate):
    topo, cfg = default_paper_setup(power_dbm=power)
    for source in (1, 2):
        episodes = simulator._Episodes(7, source, link_rates(topo, cfg, cooperate), cfg.gamma_th)
        relay = episodes.draw(200_000)["relay"]
        p = episodes.mean_len - 1.0  # the share of episodes with a relay slot
        assert abs(relay.mean() - p) <= 4 * math.sqrt(p * (1 - p) / relay.size) + 1e-9, (source, p)


def test_a_relay_dest_rate_of_0_is_taken_where_the_closed_form_takes_it():
    """Noiseless every rate is 0, and at a zero threshold every reception
    succeeds: neither is refused, and nothing fails."""
    topo, cfg = underflow_topology((100.0, 0.0)), default_paper_setup()[1]
    for edge in (replace(cfg, noise_dbm=-math.inf), replace(cfg, rate_r0=1e-17, total_bits=1e-17)):
        assert not link_rates(topo, edge).relay_dest[0] > 0.0
        assert all(out.bcast == out.relay == 0.0 for out in step_outages(topo, edge).values())
        for scheme in SCHEMES:
            assert simulate(scheme, topo, edge, 50).overall_op == 0.0
