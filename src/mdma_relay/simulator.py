"""Slot-accurate Monte Carlo simulation of the cooperative protocol.

Mirrors the Markov model's accounting exactly: one state transition per
time slot, including the broadcast self-loop taken when the destination
and every relay miss the broadcast.  The relay-forwarding slot combines
the broadcast slot's retained direct SNR with fresh relay-to-destination
draws (maximal ratio combining adds branch SNRs); the retained value is
discarded once its repetition succeeds or restarts.

TDMA, FDMA and NOMA baselines reuse the same relay cooperation mechanics
and differ only in medium access.  Where the baselines are underspecified,
every assumption is a configurable ``SimOptions`` field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import markov
from .topology import ConfigError, LinkParam, NetworkTopology, SystemConfig, link_rates

SCHEMES = ("mdma", "tdma", "fdma", "noma")

# Resource units (bandwidth, power) charged per scheme: FDMA runs the two
# sources on two bands with two power budgets.
SCHEME_RESOURCES = {
    "mdma": (1.0, 1.0),
    "tdma": (1.0, 1.0),
    "fdma": (2.0, 2.0),
    "noma": (1.0, 1.0),
}


@dataclass(frozen=True)
class SimOptions:
    """Simulator knobs not fixed by the protocol definition."""

    relay_cooperation: bool = True
    noma_rho: float = 0.7            # power fraction allotted to source 1
    noma_sic_order: str = "mean"     # "mean" or "instant" received-power order
    trace_limit: int = 0             # record at most this many slot events

    def __post_init__(self):
        if not 0.0 < self.noma_rho < 1.0:
            raise ConfigError("noma_rho must lie strictly between 0 and 1")
        if self.noma_sic_order not in ("mean", "instant"):
            raise ConfigError("noma_sic_order must be 'mean' or 'instant'")


@dataclass(frozen=True)
class SlotEvent:
    """One simulated slot, for traces and bookkeeping checks."""

    slot: int
    scheme: str
    state: str
    outcome: str                  # "success" or "failure"
    snrs: dict = field(repr=False)
    decode_mask: int = 0          # bitmask of relays that decoded the broadcast
    mrc_total: float | None = None


@dataclass
class StepStats:
    attempts: int = 0
    failures: int = 0

    @property
    def op(self) -> float:
        return self.failures / self.attempts if self.attempts else math.nan

    @property
    def stderr(self) -> float:
        if not self.attempts:
            return math.nan
        p = self.op
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.attempts)


@dataclass
class SimEstimate:
    """Aggregated estimators from one simulation run."""

    scheme: str
    slots: int
    seed: int
    attempts: int
    failures: int
    successes: int
    per_step: dict[str, StepStats]
    occupancy_labels: list[str]
    occupancy_counts: np.ndarray
    pairs: int
    pair_duration_sum: float
    pair_duration_sumsq: float
    bandwidth_units: float
    power_units: float
    decode_attempts: dict[int, int]
    decode_empties: dict[int, int]
    trace: list[SlotEvent]

    @property
    def overall_op(self) -> float:
        return self.failures / self.attempts if self.attempts else math.nan

    @property
    def overall_op_stderr(self) -> float:
        if not self.attempts:
            return math.nan
        p = self.overall_op
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.attempts)

    @property
    def occupancy(self) -> np.ndarray:
        total = self.occupancy_counts.sum()
        if not total:
            return self.occupancy_counts.astype(float)
        return self.occupancy_counts / total

    @property
    def slots_per_pair(self) -> float:
        return self.pair_duration_sum / self.pairs if self.pairs else math.nan

    @property
    def slots_per_pair_stderr(self) -> float:
        if self.pairs < 2:
            return math.nan
        mean = self.slots_per_pair
        var = max(self.pair_duration_sumsq / self.pairs - mean * mean, 0.0)
        return math.sqrt(var / self.pairs)

    @property
    def tc_empirical(self) -> float:
        """Slots per delivered reception."""
        return self.slots / self.successes if self.successes else math.nan

    @property
    def phi_empirical(self) -> float:
        """Delivered pairs per slot, bandwidth unit and power unit, times 2."""
        if not self.pairs:
            return 0.0
        return 2.0 * self.pairs / (self.slots * self.bandwidth_units * self.power_units)

    @property
    def phi_stderr(self) -> float:
        spp = self.slots_per_pair
        err = self.slots_per_pair_stderr
        if math.isnan(spp) or math.isnan(err) or spp <= 0:
            return math.nan
        return 2.0 * err / (spp * spp * self.bandwidth_units * self.power_units)

    def occupancy_dict(self) -> dict[str, float]:
        occ = self.occupancy
        return {lab: float(occ[i]) for i, lab in enumerate(self.occupancy_labels)}

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "slots": self.slots,
            "seed": self.seed,
            "overall_op": self.overall_op,
            "overall_op_stderr": self.overall_op_stderr,
            "per_step": {
                k: {
                    "attempts": v.attempts,
                    "failures": v.failures,
                    "op": v.op,
                    "stderr": v.stderr,
                }
                for k, v in sorted(self.per_step.items())
            },
            "pairs": self.pairs,
            "slots_per_pair": self.slots_per_pair,
            "tc_empirical": self.tc_empirical,
            "phi_empirical": self.phi_empirical,
            "phi_stderr": self.phi_stderr,
            "occupancy": self.occupancy_dict(),
        }


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic, platform-independent generator for (seed, stream)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def draw_link_snr(link: LinkParam, rng: np.random.Generator, size=None):
    """Fresh exponential SNR draw(s) with mean 1/rate."""
    return rng.standard_exponential(size) / link.rate_lambda


def _means(rates) -> np.ndarray | float:
    """1/rate with rate 0 (infinite SNR) mapped to an infinite mean."""
    arr = np.asarray(rates, dtype=float)
    out = np.where(arr > 0, 1.0 / np.where(arr > 0, arr, 1.0), math.inf)
    return float(out) if arr.ndim == 0 else out


class _BcastPool:
    """Chunked draws for broadcast slots: direct SNR plus all decode gates.

    Comparisons against the threshold are vectorized per chunk so the slot
    loop only indexes.
    """

    def __init__(self, rng, direct_mean, gate_means, gamma_th, chunk=1 << 13):
        self._rng = rng
        self._dmean = float(direct_mean)
        self._gmeans = np.asarray(gate_means, dtype=float)
        self._g = gamma_th
        self._chunk = chunk
        self._pos = chunk

    def _refill(self):
        n, m = self._chunk, self._gmeans.size
        if math.isinf(self._dmean):
            self._dv = np.full(n, math.inf)
        else:
            self._dv = self._rng.standard_exponential(n) * self._dmean
        if np.isinf(self._gmeans).any():
            self._rv = np.full((n, m), math.inf)
        else:
            self._rv = self._rng.standard_exponential((n, m)) * self._gmeans
        self._dok = self._dv >= self._g
        self._rb = self._rv >= self._g
        self._rany = self._rb.any(axis=1)
        self._pos = 0

    def next(self):
        i = self._pos
        if i >= self._chunk:
            self._refill()
            i = 0
        self._pos = i + 1
        return self._dv[i], self._dok[i], self._rv[i], self._rb[i], self._rany[i]


class _ExpRowPool:
    """Chunked rows of independent exponentials with per-column means."""

    def __init__(self, rng, means, chunk=1 << 12):
        self._rng = rng
        self._means = np.asarray(means, dtype=float)
        self._chunk = chunk
        self._buf = np.empty((0, self._means.size))
        self._pos = 0

    def next_row(self) -> np.ndarray:
        if self._pos >= self._buf.shape[0]:
            if np.isinf(self._means).any():
                self._buf = np.full((self._chunk, self._means.size), math.inf)
            else:
                self._buf = (
                    self._rng.standard_exponential((self._chunk, self._means.size))
                    * self._means
                )
            self._pos = 0
        row = self._buf[self._pos]
        self._pos += 1
        return row


def _bitmask(flags) -> int:
    return int(sum(1 << i for i, f in enumerate(flags) if f))


class _Tally:
    """Counters every runner keeps, turned into a SimEstimate by `estimate`."""

    def __init__(self, labels: list[str], step_keys: list[str]):
        self.labels = labels
        self.occupancy = np.zeros(len(labels), dtype=np.int64)
        self.per_step = {key: StepStats() for key in step_keys}
        self.decode_attempts = {1: 0, 2: 0}
        self.decode_empties = {1: 0, 2: 0}
        self.trace: list[SlotEvent] = []
        self.pairs = 0
        self.dur_sum = self.dur_sumsq = 0.0
        self.pair_start = 0

    def close_pair(self, slot: int) -> None:
        d = slot + 1 - self.pair_start
        self.pairs += 1
        self.dur_sum += d
        self.dur_sumsq += d * d
        self.pair_start = slot + 1

    def estimate(self, scheme: str, config: SystemConfig, slots: int, seed: int) -> SimEstimate:
        # Every attempt is one step of one state and either fails or succeeds.
        attempts = sum(v.attempts for v in self.per_step.values())
        failures = sum(v.failures for v in self.per_step.values())
        bw, pw = SCHEME_RESOURCES[scheme]
        return SimEstimate(
            scheme=scheme,
            slots=slots,
            seed=seed,
            attempts=attempts,
            failures=failures,
            successes=attempts - failures,
            per_step=self.per_step,
            occupancy_labels=self.labels,
            occupancy_counts=self.occupancy,
            pairs=self.pairs,
            pair_duration_sum=self.dur_sum,
            pair_duration_sumsq=self.dur_sumsq,
            bandwidth_units=bw * config.bandwidth_units,
            power_units=pw * config.power_units,
            decode_attempts=self.decode_attempts,
            decode_empties=self.decode_empties,
            trace=self.trace,
        )


# ---------------------------------------------------------------------------
# Band engine: MDMA, TDMA and FDMA.  A band cycles through its own phases
# of (name, source, repetitions) and takes one step per slot.  MDMA and
# TDMA run one band; FDMA runs one single-phase band per source.
# ---------------------------------------------------------------------------

def _run_bands(
    topology: NetworkTopology,
    config: SystemConfig,
    scheme: str,
    bands: list[list[tuple[str, int, int]]],
    slots: int,
    seed: int,
    options: SimOptions,
) -> SimEstimate:
    """Step every band once per slot, in band order.

    A pair is delivered in the slot where the smallest completed-cycle
    count across bands goes up.
    """
    gamma_th = config.gamma_th
    rates = {s: link_rates(topology, config, s) for s in (1, 2)}
    rng = make_rng(seed, 0)
    bpool = {
        s: _BcastPool(rng, _means(rates[s].direct), _means(rates[s].source_relay), gamma_th)
        for s in (1, 2)
    }
    nodecode = np.zeros(topology.num_relays, dtype=bool)
    cooperate = options.relay_cooperation
    tracing = options.trace_limit > 0

    labels: list[str] = []
    step_keys: list[str] = []
    phase_bases = []  # per band, per phase: index of (bcast, rep 1)
    for plan in bands:
        phase_bases.append([])
        for name, _src, reps in plan:
            phase_bases[-1].append(len(labels))
            step_keys += [f"{name}:bcast", f"{name}:relay"]
            for j in range(1, reps + 1):
                labels.append(f"{name}:bcast:{j}")
                labels.append(f"{name}:relay:{j}")
    tally = _Tally(labels, step_keys)
    cycles = [0] * len(bands)

    def band_steps(k: int):
        """Generator taking band k's step for one slot per resumption."""
        # Local references keep the slot loop free of dict formatting.
        phase_rows = [
            (
                bpool[src].next,
                src,
                reps,
                phase_bases[k][i],
                tally.per_step[f"{name}:bcast"],
                tally.per_step[f"{name}:relay"],
                name,
            )
            for i, (name, src, reps) in enumerate(bands[k])
        ]
        relay_pool = _ExpRowPool(rng, _means(rates[1].relay_dest))
        occupancy = tally.occupancy
        decode_attempts = tally.decode_attempts
        decode_empties = tally.decode_empties
        trace = tally.trace

        phase_idx, rep, step = 0, 1, 1
        retained = 0.0
        cmask = nodecode

        for slot in range(slots):
            draw_bcast, src, reps, base, bstats, rstats, name = phase_rows[phase_idx]
            advanced = False
            if step == 1:
                g, ok, row, rowb, anyb = draw_bcast()
                if not cooperate:
                    rowb, anyb = nodecode, False
                decode_attempts[src] += 1
                if not anyb:
                    decode_empties[src] += 1
                occupancy[base + 2 * (rep - 1)] += 1
                bstats.attempts += 1
                if ok:
                    advanced = True
                else:
                    bstats.failures += 1
                    if anyb:
                        retained = g
                        cmask = rowb
                        step = 2
                if tracing and len(trace) < options.trace_limit:
                    trace.append(
                        SlotEvent(
                            slot,
                            scheme,
                            f"{name}:bcast:{rep}",
                            "success" if ok else "failure",
                            {"direct": float(g), "source_relay": np.array(row)},
                            _bitmask(rowb),
                        )
                    )
            else:
                rid = relay_pool.next_row()
                mrc = retained + float(np.dot(rid, cmask))
                ok = mrc >= gamma_th
                occupancy[base + 2 * (rep - 1) + 1] += 1
                rstats.attempts += 1
                if ok:
                    advanced = True
                else:
                    rstats.failures += 1
                step = 1
                if tracing and len(trace) < options.trace_limit:
                    trace.append(
                        SlotEvent(
                            slot,
                            scheme,
                            f"{name}:relay:{rep}",
                            "success" if ok else "failure",
                            {"relay_dest": np.array(rid), "retained_direct": retained},
                            _bitmask(cmask),
                            mrc,
                        )
                    )
            if advanced:
                step = 1
                rep += 1
                if rep > reps:
                    rep = 1
                    phase_idx += 1
                    if phase_idx >= len(phase_rows):
                        phase_idx = 0
                        cycles[k] += 1
                        if min(cycles) > tally.pairs:
                            tally.close_pair(slot)
            yield

    # zip resumes the bands in order, once per slot, until the slots run out.
    for _ in zip(*(band_steps(k) for k in range(len(bands)))):
        pass
    return tally.estimate(scheme, config, slots, seed)


def run_mdma(
    topology: NetworkTopology,
    config: SystemConfig,
    slots: int,
    seed: int = 0,
    options: SimOptions = SimOptions(),
) -> SimEstimate:
    """Simulate the shared/personalized two-phase protocol."""
    if slots < 1:
        raise ConfigError("slots must be at least 1")
    plan = [
        (name, markov.PHASE_SOURCE[name], reps)
        for name, reps in markov.phase_plan(config.beta_s, config.beta_p)
    ]
    return _run_bands(topology, config, "mdma", [plan], slots, seed, options)


def _payload_reps(config: SystemConfig) -> int:
    return max(1, math.ceil(round(config.total_bits / config.rate_r0, 9)))


# ---------------------------------------------------------------------------
# NOMA baseline: superposed transmission with successive interference
# cancellation; relay cooperation applies per stream in dedicated slots.
# ---------------------------------------------------------------------------

def _run_noma(topology, config, slots, seed, options) -> SimEstimate:
    if options.trace_limit > 0:
        raise ConfigError("the NOMA simulator records no slot trace")
    beta_t = _payload_reps(config)
    gamma_th = config.gamma_th
    m = topology.num_relays
    rates = {s: link_rates(topology, config, s) for s in (1, 2)}
    share = {1: options.noma_rho, 2: 1.0 - options.noma_rho}
    # Mean received powers in noise units: full power and the split share.
    full_at_d = {s: _means(rates[s].direct) for s in (1, 2)}
    full_at_r = {s: _means(rates[s].source_relay) for s in (1, 2)}
    split_at_d = {s: share[s] * full_at_d[s] for s in (1, 2)}
    split_at_r = {s: share[s] * full_at_r[s] for s in (1, 2)}
    rd_means = _means(rates[1].relay_dest)
    instant = options.noma_sic_order == "instant"
    s1_strong_at_d = split_at_d[1] >= split_at_d[2]
    s1_strong_at_r = split_at_r[1] >= split_at_r[2]

    labels = ["joint", "solo1", "solo2", "relay1", "relay2"]
    index = {lab: i for i, lab in enumerate(labels)}

    rng = make_rng(seed, 0)
    pool_d = {s: _ExpRowPool(rng, np.ones(1), chunk=1 << 14) for s in (1, 2)}
    pool_r = {s: _ExpRowPool(rng, np.ones(m)) for s in (1, 2)}
    relay_pool = _ExpRowPool(rng, rd_means)
    cooperate = options.relay_cooperation

    tally = _Tally(labels, labels)
    occupancy = tally.occupancy
    per_step = tally.per_step
    decode_attempts = tally.decode_attempts
    decode_empties = tally.decode_empties

    delivered = {1: 0, 2: 0}
    # Queue of (stream, retained post-cancellation SINR, decode set).
    pending_relay: list[tuple[int, float, np.ndarray]] = []

    for slot in range(slots):
        if pending_relay:
            s, retained, cset = pending_relay.pop(0)
            label = f"relay{s}"
            occupancy[index[label]] += 1
            rid = relay_pool.next_row()
            mrc = retained + float(np.dot(rid, cset))
            stats = per_step[label]
            stats.attempts += 1
            if mrc >= gamma_th:
                delivered[s] += 1
            else:
                stats.failures += 1
        else:
            active = [s for s in (1, 2) if delivered[s] < beta_t]
            if len(active) == 1:
                # A lone unfinished source transmits at full power.
                s = active[0]
                label = f"solo{s}"
                occupancy[index[label]] += 1
                decode_attempts[s] += 1
                p = float(pool_d[s].next_row()[0]) * full_at_d[s]
                gains = pool_r[s].next_row() * full_at_r[s]
                decoded = (gains >= gamma_th) if cooperate else np.zeros(m, dtype=bool)
                if not decoded.any():
                    decode_empties[s] += 1
                stats = per_step[label]
                stats.attempts += 1
                if p >= gamma_th:
                    delivered[s] += 1
                else:
                    stats.failures += 1
                    if decoded.any():
                        pending_relay.append((s, p, decoded.copy()))
            else:
                label = "joint"
                occupancy[index[label]] += 1
                p1 = float(pool_d[1].next_row()[0]) * split_at_d[1]
                p2 = float(pool_d[2].next_row()[0]) * split_at_d[2]
                g1 = pool_r[1].next_row() * split_at_r[1]
                g2 = pool_r[2].next_row() * split_at_r[2]
                # Destination-side cancellation in decode order.
                s1_first = (p1 >= p2) if instant else s1_strong_at_d
                ps, pw = (p1, p2) if s1_first else (p2, p1)
                ok_s = ps >= gamma_th * (1.0 + pw)
                sinr_s = ps / (1.0 + pw)
                resid = 0.0 if ok_s else ps
                ok_w = pw >= gamma_th * (1.0 + resid)
                sinr_w = pw / (1.0 + resid)
                ok_d = {1: ok_s, 2: ok_w} if s1_first else {1: ok_w, 2: ok_s}
                sinr_d = {1: sinr_s, 2: sinr_w} if s1_first else {1: sinr_w, 2: sinr_s}
                # Relay-side cancellation, vectorized across relays.
                if cooperate:
                    s1f = (g1 >= g2) if instant else s1_strong_at_r
                    gs = np.where(s1f, g1, g2)
                    gw = np.where(s1f, g2, g1)
                    rok_s = gs >= gamma_th * (1.0 + gw)
                    rok_w = gw >= gamma_th * (1.0 + np.where(rok_s, 0.0, gs))
                    dec = {
                        1: np.where(s1f, rok_s, rok_w),
                        2: np.where(s1f, rok_w, rok_s),
                    }
                else:
                    dec = {1: np.zeros(m, dtype=bool), 2: np.zeros(m, dtype=bool)}
                stats = per_step[label]
                for s in (1, 2):
                    decode_attempts[s] += 1
                    if not dec[s].any():
                        decode_empties[s] += 1
                    stats.attempts += 1
                    if ok_d[s]:
                        delivered[s] += 1
                    else:
                        stats.failures += 1
                        if dec[s].any():
                            pending_relay.append((s, float(sinr_d[s]), dec[s].copy()))
        if delivered[1] >= beta_t and delivered[2] >= beta_t:
            tally.close_pair(slot)
            delivered = {1: 0, 2: 0}
            pending_relay.clear()

    return tally.estimate("noma", config, slots, seed)


def run_baseline(
    scheme: str,
    topology: NetworkTopology,
    config: SystemConfig,
    slots: int,
    seed: int = 0,
    options: SimOptions = SimOptions(),
) -> SimEstimate:
    """Simulate a TDMA, FDMA or NOMA baseline under identical cooperation mechanics.

    TDMA alternates the sources, each delivering its full payload in turn.
    FDMA runs the single-source protocol for both sources concurrently on
    orthogonal bands (two bandwidth units, two power units).
    """
    if slots < 1:
        raise ConfigError("slots must be at least 1")
    if scheme == "noma":
        return _run_noma(topology, config, slots, seed, options)
    beta_t = _payload_reps(config)
    if scheme == "tdma":
        bands = [[("payload1", 1, beta_t), ("payload2", 2, beta_t)]]
    elif scheme == "fdma":
        bands = [[("band1", 1, beta_t)], [("band2", 2, beta_t)]]
    else:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return _run_bands(topology, config, scheme, bands, slots, seed, options)


def simulate(
    scheme: str,
    topology: NetworkTopology,
    config: SystemConfig,
    slots: int,
    seed: int = 0,
    options: SimOptions = SimOptions(),
) -> SimEstimate:
    """Dispatch on scheme name; MDMA plus the three baselines."""
    if scheme == "mdma":
        return run_mdma(topology, config, slots, seed, options)
    return run_baseline(scheme, topology, config, slots, seed, options)


def trace_to_csv_rows(trace: list[SlotEvent]) -> list[dict]:
    """Rows for the per-slot trace export."""
    return [
        {
            "slot": ev.slot,
            "scheme": ev.scheme,
            "state": ev.state,
            "outcome": ev.outcome,
            "mrc_total": "" if ev.mrc_total is None else f"{ev.mrc_total:.10g}",
            "decode_set_bitmask": ev.decode_mask,
        }
        for ev in trace
    ]
