"""Slot-accurate Monte Carlo simulation of the cooperative protocol.

Mirrors the Markov model's accounting exactly: one state transition per
time slot, including the broadcast self-loop taken when the destination
and every relay miss the broadcast.  The relay-forwarding slot combines
the broadcast slot's retained direct SNR with fresh relay-to-destination
draws (maximal ratio combining adds branch SNRs).

The engine works on episodes: a broadcast slot plus, when the destination
missed it and some relay decoded it, a relay slot.  Given the source they
are i.i.d., so they are drawn as arrays, one generator per (source, link
kind), and cut into repetitions at their successes; an episode's slot is a
cumsum of episode lengths and the counters come from `bincount`.  TDMA,
FDMA and NOMA baselines reuse the same relay cooperation mechanics and
differ only in medium access.  Where the baselines are underspecified,
every assumption is a configurable ``SimOptions`` field.

`simulate(scheme, ...)` is the one entry point.  MDMA, TDMA and FDMA are
band schemes: a list of bands, each a list of `markov.Phase(name, source,
reps)` that the band cycles through, with the chain's state labels.  MDMA
and TDMA run one band, FDMA one per source; NOMA runs one.  Each band is
charged one bandwidth and one power unit.

Whole cycles and NOMA pairs are placed at once from these cumsums; only one
that reaches past a chunk or the end of the run is walked take by take.
NOMA's cancellation needs no choice of the stronger stream (see `_sic`).

A source's broadcast episodes come from the same generators in MDMA, TDMA,
FDMA and NOMA's solo streams.  The schemes of one sweep point share them
(`shared_draws`): each chunk is drawn once and read by every scheme, so each
result is the one a lone run gives, but the schemes' estimates at that point
are correlated, and a difference between schemes is not a difference of
independent samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .markov import STEP_KINDS, Phase, phase_plan, state_label
from .topology import ConfigError, NetworkTopology, SystemConfig, link_rates

SCHEMES = ("mdma", "tdma", "fdma", "noma")

# Episodes drawn per refill of a stream.  Each stream's generators are read
# in order, so results do not depend on this size; it only bounds memory.
_CHUNK = 1 << 12


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
        if self.trace_limit < 0:
            raise ConfigError(f"trace_limit must be non-negative, got {self.trace_limit}")


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
        return StepStats(self.attempts, self.failures).op

    @property
    def overall_op_stderr(self) -> float:
        return StepStats(self.attempts, self.failures).stderr

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
        """JSON-ready estimates; an undefined one (NaN, such as the outage of
        a step never attempted) becomes None, since JSON has no NaN."""
        return {
            "scheme": self.scheme,
            "slots": self.slots,
            "seed": self.seed,
            "overall_op": _defined(self.overall_op),
            "overall_op_stderr": _defined(self.overall_op_stderr),
            "per_step": {
                k: {
                    "attempts": v.attempts,
                    "failures": v.failures,
                    "op": _defined(v.op),
                    "stderr": _defined(v.stderr),
                }
                for k, v in sorted(self.per_step.items())
            },
            "pairs": self.pairs,
            "slots_per_pair": _defined(self.slots_per_pair),
            "tc_empirical": _defined(self.tc_empirical),
            "phi_empirical": self.phi_empirical,
            "phi_stderr": _defined(self.phi_stderr),
            "occupancy": self.occupancy_dict(),
        }


def _defined(x: float) -> float | None:
    return None if math.isnan(x) else x


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic, platform-independent generator for (seed, stream)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _means(rates) -> np.ndarray | float:
    """1/rate with rate 0 (infinite SNR) mapped to an infinite mean."""
    arr = np.asarray(rates, dtype=float)
    out = np.where(arr > 0, 1.0 / np.where(arr > 0, arr, 1.0), math.inf)
    return float(out) if arr.ndim == 0 else out


def _exp(rng, shape, means) -> np.ndarray:
    """Exponential SNRs with the given means; infinite means (no noise) give inf."""
    if np.isinf(means).any():
        return np.full(shape, math.inf)
    out = rng.standard_exponential(shape)
    out *= means
    return out


def _none_set(flags) -> np.ndarray:
    """Rows of an n x m bool array with no flag set.  On a few thousand rows,
    m column ANDs take a quarter of the time of ~flags.any(axis=1)."""
    out = ~flags[:, 0]
    for j in range(1, flags.shape[1]):
        out &= ~flags[:, j]
    return out


def _relay_slots(rng, need, retained, decoded, rd_means, gamma_th):
    """Relay-to-destination rows of the episodes in `need`, their MRC totals
    (retained SNR plus decoding relays), and which episodes decode there."""
    rows = _exp(rng, (int(need.sum()), decoded.shape[1]), rd_means)
    mrc = retained[need] + np.einsum("ij,ij->i", rows, decoded[need])
    ok = np.zeros(need.size, dtype=bool)
    ok[need] = mrc >= gamma_th
    return rows, mrc, ok


def _sic(first, x1, x2, gamma_th, sinr=False):
    """Successive interference cancellation of streams received at powers x1
    and x2, stream 1 first where `first`: whether each decodes, and its SINR if
    `sinr`.  With s_k that stream k clears g against the other, stream 1 decodes
    iff s1 | (~first & s2 & x1 >= g), and so on: the first decodes iff its s_k,
    the second meets g*(1.0 + 0.0) == g once the first is cancelled, s_k => x_k >= g."""
    with np.errstate(invalid="ignore"):  # inf/inf without noise, where all decode
        s1, s2 = x1 >= gamma_th * (1.0 + x2), x2 >= gamma_th * (1.0 + x1)
        clear = {1: ~np.asarray(first) & s2, 2: first & s1}  # the other was cancelled first
        ok = {1: s1 | (clear[1] & (x1 >= gamma_th)), 2: s2 | (clear[2] & (x2 >= gamma_th))}
        return ok, ({1: x1 / (1.0 + np.where(clear[1], 0.0, x2)),
                     2: x2 / (1.0 + np.where(clear[2], 0.0, x1))} if sinr else None)


def _bitmask(flags) -> int:
    return int(sum(1 << i for i, f in enumerate(flags) if f))


class _Tally:
    """Counters of one run, turned into a SimEstimate by `estimate`."""

    def __init__(self, scheme, labels, step_keys, bands, slots, trace_limit):
        self.scheme, self.labels, self.step_keys = scheme, labels, step_keys
        self.slots, self.trace_limit = slots, trace_limit
        self.occupancy = np.zeros(len(labels), dtype=np.int64)
        self.attempts = np.zeros(len(step_keys), dtype=np.int64)
        self.failures = np.zeros(len(step_keys), dtype=np.int64)
        self.decode_attempts, self.decode_empties = {1: 0, 2: 0}, {1: 0, 2: 0}
        self.events: list[tuple[int, int, SlotEvent]] = []  # (slot, band, event)
        self.cycle_ends: list[list[int]] = [[] for _ in range(bands)]
        self.pairs, self.last_close, self.dur_sum, self.dur_sumsq = 0, 0, 0.0, 0.0

    def add(self, labels, keys, failed) -> None:
        """Count slots in occupancy `labels` and attempts of step `keys`."""
        self.occupancy += np.bincount(labels, minlength=self.occupancy.size)
        self.attempts += np.bincount(keys, minlength=self.attempts.size)
        self.failures += np.bincount(keys[failed], minlength=self.failures.size)

    def cycle_end(self, band: int, ends: list[int]) -> None:
        """Band `band` ended cycles before the slots `ends`."""
        self.cycle_ends[band] += [e for e in ends if e <= self.slots]
        if len(self.cycle_ends[band]) >= _CHUNK:
            self._settle()

    def _settle(self) -> None:
        """A pair is delivered once every band has ended that cycle, at the latest end."""
        n = min(len(e) for e in self.cycle_ends)
        if n:
            close = np.max([e[:n] for e in self.cycle_ends], axis=0)
            d = np.diff(close, prepend=self.last_close).astype(float)
            self.pairs, self.last_close = self.pairs + n, int(close[-1])
            self.dur_sum, self.dur_sumsq = self.dur_sum + d.sum(), self.dur_sumsq + d @ d
            self.cycle_ends = [e[n:] for e in self.cycle_ends]

    def estimate(self, config: SystemConfig, seed: int) -> SimEstimate:
        self._settle()
        # Every attempt is one step of one state and either fails or succeeds.
        per_step = {key: StepStats(int(a), int(f))
                    for key, a, f in zip(self.step_keys, self.attempts, self.failures)}
        attempts, failures = int(self.attempts.sum()), int(self.failures.sum())
        bands = len(self.cycle_ends)  # each band takes a bandwidth and a power unit
        self.events.sort(key=lambda e: e[:2])
        return SimEstimate(
            scheme=self.scheme, slots=self.slots, seed=seed,
            attempts=attempts, failures=failures, successes=attempts - failures,
            per_step=per_step, occupancy_labels=self.labels, occupancy_counts=self.occupancy,
            pairs=self.pairs, pair_duration_sum=float(self.dur_sum),
            pair_duration_sumsq=float(self.dur_sumsq),
            bandwidth_units=bands * config.bandwidth_units, power_units=bands * config.power_units,
            decode_attempts=self.decode_attempts, decode_empties=self.decode_empties,
            trace=[ev for _, _, ev in self.events[: self.trace_limit]],
        )


class _Stream:
    """I.i.d. episodes of one kind, drawn a chunk at a time and placed in order.

    Each placement records its runs as arrays (first, stop, start slot,
    repetitions before it, tag), counted before the next chunk is drawn, so
    memory is bounded by the chunk.  Lane l of `success` flags stream l+1.
    """

    def __init__(self, tally: _Tally):
        self.tally, self.n, self.pos, self.runs_placed = tally, 0, 0, []

    def take(self, needs, slot: int, before: int, tag: int) -> tuple[int, list[int]]:
        """Place episodes from `slot` on, up to the first lane to gain its `needs`
        successes or to the chunk end; return their slots and successes per lane."""
        if self.pos == self.n:
            self._refill(slot)
        start, stop = self.pos, self.n
        for at, cum, need in zip(self.succ_at, self.cum_succ, needs):
            j = cum.item(start) + need - 1  # the success that meets the need
            if j < len(at):
                stop = min(stop, at.item(j) + 1)
        got = [cum.item(stop) - cum.item(start) for cum in self.cum_succ]
        self.pos = stop
        self.runs_placed.append(([start], [stop], [slot], [before], [tag]))
        return self.cum_len.item(stop) - self.cum_len.item(start), got

    def runs(self, reps: int, slot: int):
        """(first, stop, slots) of each whole run of `reps` lane-0 successes left."""
        if self.pos == self.n:
            self._refill(slot)
        stop = self.succ_at[0][self.cum_succ[0].item(self.pos) + reps - 1 :: reps] + 1
        first = np.concatenate(([self.pos], stop[:-1]))
        return first, stop, self.cum_len[stop] - self.cum_len[first]

    def after(self, lane: int, k):
        """The episode after success `k` (from 0) of `lane`; n + 1 past the chunk."""
        at = self.succ_at[lane]
        return np.append(at + 1, self.n + 1)[np.minimum(k, at.size)]

    def take_runs(self, first, stop, slot, tag: int) -> None:
        """Place whole runs found by `runs` from the given slots on."""
        self.runs_placed.append((first, stop, slot, np.zeros_like(stop), np.full_like(stop, tag)))
        self.pos = int(stop[-1])

    def _refill(self, slot: int) -> None:
        """Count the chunk, then read the next.  From `slot` on, the run has
        room for at most one episode per slot left, so no more are asked for;
        a chunk another run drew first may hold more."""
        self.flush()
        self.ep = self.draw(min(_CHUNK, self.tally.slots - slot))
        # Slots and successes per lane before each episode, and where the successes are.
        self.cum_len = np.concatenate(([0], np.cumsum(self.ep["length"])))
        self.cum_succ = [np.concatenate(([0], np.cumsum(s))) for s in self.ep["success"]]
        self.succ_at = [np.flatnonzero(s) for s in self.ep["success"]]
        self.n, self.pos = self.cum_len.size - 1, 0

    def flush(self) -> None:
        """Count the episodes placed from the current chunk."""
        if not self.runs_placed:
            return
        cols = [np.concatenate(c) for c in zip(*self.runs_placed)]
        order = np.argsort(cols[0])  # runs placed whole and one by one interleave
        first, stop, slot, before, tag = (c[order] for c in cols)
        seg = np.repeat(np.arange(first.size), stop - first)
        idx = slice(first[0], stop[-1])  # the segments tile it in order
        cum_len, cum_succ = self.cum_len, self.cum_succ[0]
        start = slot[seg] + cum_len[idx] - cum_len[first][seg]
        rep = before[seg] + cum_succ[idx] - cum_succ[first][seg]
        self.count(idx, start, rep, tag[seg])
        self.runs_placed = []


def _draw_key(seed, source, rates, gamma_th, cooperate) -> tuple:
    """Everything a source's broadcast episodes depend on."""
    return (seed, source, gamma_th, cooperate, float(rates.direct),
            tuple(rates.source_relay.tolist()), tuple(rates.relay_dest.tolist()))


# What `_BcastStream.count` reads of an episode, and all that a shared chunk keeps.
_FLAGS = ("ok", "empty", "relay", "relay_ok")


class _Episodes:
    """Full-power broadcast episodes of one source, drawn a chunk at a time
    from its direct, source-relay and relay-destination generators.

    Chunk k is drawn when it is first read, with the size that reader asks
    for.  A private source has one reader, which holds the chunk it reads, so
    the source keeps none.  A shared one (`shared_draws`) keeps every chunk it
    draws, as its flags only, for the other schemes of one operating point."""

    def __init__(self, seed, source, rates, gamma_th, cooperate, shared=False):
        self.key = _draw_key(seed, source, rates, gamma_th, cooperate)
        self.source, self.gamma_th, self.cooperate = source, gamma_th, cooperate
        self.rngs = [make_rng(seed, 3 * (source - 1) + k) for k in range(3)]
        self.means = [_means(rates.direct), _means(rates.source_relay), _means(rates.relay_dest)]
        self.kept, self.drawn = ([] if shared else None), 0

    def chunk(self, k: int, n: int) -> dict:
        """Chunk k, drawn with n episodes if no reader has reached it, plus each
        episode's length and success, which a shared chunk does not keep."""
        if k < self.drawn:
            ep = self.kept[k]
        else:
            ep, self.drawn = self.draw(n), self.drawn + 1
            if self.kept is not None:
                ep = {f: ep[f] for f in _FLAGS}
                self.kept.append(ep)
        return dict(ep, length=1 + ep["relay"], success=[ep["ok"] | ep["relay_ok"]])

    def draw(self, n: int) -> dict:
        g = self.gamma_th
        direct = _exp(self.rngs[0], n, self.means[0])
        sr = _exp(self.rngs[1], (n, self.means[1].size), self.means[1])
        decoded = sr >= g if self.cooperate else np.zeros(sr.shape, dtype=bool)
        ok, empty = direct >= g, _none_set(decoded)  # no relay decoded
        relay = ~ok & ~empty
        rows, mrc, relay_ok = _relay_slots(self.rngs[2], relay, direct, decoded, self.means[2], g)
        return {"direct": direct, "sr": sr, "decoded": decoded, "ok": ok, "empty": empty,
                "relay": relay, "rows": rows, "mrc": mrc, "relay_ok": relay_ok}


def shared_draws(topology: NetworkTopology, config: SystemConfig, seed: int,
                 options: SimOptions = SimOptions()) -> dict[int, _Episodes]:
    """Broadcast episodes of both sources, to pass as `simulate(..., draws=...)`
    to every scheme run at one operating point with this seed and these options.
    Each chunk is drawn once, by the first scheme to reach it, and kept as four
    flags per episode, without SNRs, for the others to read."""
    return {s: _Episodes(seed, s, link_rates(topology, config, s), config.gamma_th,
                         options.relay_cooperation, shared=True) for s in (1, 2)}


def _broadcasts(draws, tally, seed, source, rates, gamma_th, cooperate) -> _Episodes:
    """The episodes of `source` for one run: from `draws` if given, else private."""
    if draws is None:
        return _Episodes(seed, source, rates, gamma_th, cooperate)
    if tally.trace_limit:
        raise ValueError("shared draws keep no SNRs; a traced run must draw its own")
    episodes = draws[source]
    if episodes.key != _draw_key(seed, source, rates, gamma_th, cooperate):
        raise ValueError(f"the shared draws of source {source} were made for another run")
    return episodes


class _BcastStream(_Stream):
    """Full-power broadcast episodes of one source (MDMA, TDMA, FDMA, NOMA solo),
    read chunk by chunk from `episodes`.
    `table[tag, rep]`: broadcast and relay labels, their step keys, and band."""

    def __init__(self, tally, episodes: _Episodes, table):
        super().__init__(tally)
        self.episodes, self.source, self.table, self.chunks = episodes, episodes.source, table, 0

    def draw(self, n: int) -> dict:
        self.chunks += 1
        return self.episodes.chunk(self.chunks - 1, n)

    def count(self, idx, start, rep, tag) -> None:
        ep, tally, slots = self.ep, self.tally, self.tally.slots
        lab_b, lab_r, key_b, key_r, band = self.table[tag, rep].T
        b = start < slots
        r = ep["relay"][idx] & (start + 1 < slots)
        tally.add(lab_b[b], key_b[b], ~ep["ok"][idx][b])
        tally.add(lab_r[r], key_r[r], ~ep["relay_ok"][idx][r])
        tally.decode_attempts[self.source] += int(b.sum())
        tally.decode_empties[self.source] += int((b & ep["empty"][idx]).sum())
        if tally.trace_limit:
            self._trace(idx, start, lab_b, lab_r, band)

    def _trace(self, idx, start, lab_b, lab_r, band) -> None:
        """Decode the placed episodes that fall in the traced slots into events."""
        ep, tally = self.ep, self.tally
        end = min(tally.trace_limit, tally.slots)
        relay_row = np.cumsum(ep["relay"]) - 1
        for j in np.flatnonzero(start < end):
            i, t = idx.start + j, int(start[j])
            direct, mask = float(ep["direct"][i]), _bitmask(ep["decoded"][i])
            tally.events.append((t, band[j], SlotEvent(
                t, tally.scheme, tally.labels[lab_b[j]],
                "success" if ep["ok"][i] else "failure",
                {"direct": direct, "source_relay": ep["sr"][i].copy()}, mask)))
            if ep["relay"][i] and t + 1 < end:
                k = relay_row[i]
                tally.events.append((t + 1, band[j], SlotEvent(
                    t + 1, tally.scheme, tally.labels[lab_r[j]],
                    "success" if ep["relay_ok"][i] else "failure",
                    {"relay_dest": ep["rows"][k].copy(), "retained_direct": direct},
                    mask, float(ep["mrc"][k]))))


def _whole_cycles(prog, band: int, t: int, tally: _Tally) -> int:
    """Place the cycles from slot `t` on that every stream's chunk holds whole
    and that end within the run; return the slot after them.  A stream
    transmits one run of repetitions per cycle of its band."""
    runs = [stream.runs(reps, t) for stream, reps, _ in prog]
    c = min(len(stop) for _, stop, _ in runs)
    dur = np.array([d[:c] for _, _, d in runs]).reshape(len(prog), c)
    ends = t + np.cumsum(dur.sum(axis=0))
    c = int(np.searchsorted(ends, tally.slots, side="right"))
    if c == 0:
        return t
    dur = dur[:, :c]
    run_slot = np.concatenate(([t], ends[: c - 1])) + np.cumsum(dur, axis=0) - dur
    for (stream, reps, tag), (first, stop, _), slot in zip(prog, runs, run_slot):
        stream.take_runs(first[:c], stop[:c], slot, tag)
    tally.cycle_end(band, ends[:c].tolist())
    return int(ends[c - 1])


def _whole_pairs(joint, solo, beta_t: int, t: int, tally: _Tally) -> int:
    """Place the NOMA pairs from slot `t` on that the chunks hold whole and
    that end within the run; return the slot after them.  A pair sends jointly
    until a stream has `beta_t` successes, then the other alone until it has them too."""
    if joint.pos == joint.n:  # the walk draws the next chunk of a spent stream
        return t
    # The joint stop of a pair begun at each episode; chase the chain of starts.
    stop_from = np.minimum(*(joint.after(lane, cum[:-1] + beta_t - 1)
                             for lane, cum in enumerate(joint.cum_succ))).tolist()
    starts, i = [], joint.pos
    while i < joint.n and stop_from[i] <= joint.n:
        starts.append(i)
        i = stop_from[i]
    if not starts:
        return t
    first, stop = np.array(starts), np.array(starts[1:] + [i])
    joint_dur = joint.cum_len[stop] - joint.cum_len[first]
    dur, c, solo_runs = joint_dur.copy(), first.size, []
    # The lagging stream's solo stream meets the pairs' needs in order.
    for stream, cum in zip(solo, joint.cum_succ):
        need = beta_t - (cum[stop] - cum[first])
        lag, s_first, s_stop = np.flatnonzero(need), [], []
        if stream.pos < stream.n:  # a spent one holds no pair until the walk redraws it
            s_stop = stream.after(0, stream.cum_succ[0][stream.pos] + np.cumsum(need[lag]) - 1)
            s_stop = s_stop[: np.searchsorted(s_stop, stream.n, side="right")]
            s_first = np.concatenate(([stream.pos], s_stop))[:-1]
            dur[lag[: s_stop.size]] += stream.cum_len[s_stop] - stream.cum_len[s_first]
        if len(s_stop) < lag.size:
            c = min(c, int(lag[len(s_stop)]))
        solo_runs.append((stream, lag, s_first, s_stop))
    ends = t + np.cumsum(dur[:c])
    c = int(np.searchsorted(ends, tally.slots, side="right"))
    if c == 0:
        return t
    pair_slot = np.concatenate(([t], ends[: c - 1]))
    joint.take_runs(first[:c], stop[:c], pair_slot, 0)
    for stream, lag, s_first, s_stop in solo_runs:
        k = int(np.searchsorted(lag, c))
        if k:
            stream.take_runs(s_first[:k], s_stop[:k], (pair_slot + joint_dur[:c])[lag[:k]], 0)
    tally.cycle_end(0, ends[:c].tolist())
    return int(ends[c - 1])


def _run_bands(
    topology: NetworkTopology,
    config: SystemConfig,
    scheme: str,
    bands: list[list[Phase]],
    slots: int,
    seed: int,
    options: SimOptions,
    draws: dict | None,
) -> SimEstimate:
    """MDMA, TDMA and FDMA: each band cycles through its phases, and
    consecutive phases of one source form a run.  MDMA and TDMA run one band;
    FDMA runs one band per source."""
    labels, step_keys, runs = [], [], []  # runs: band, source, labels and keys per rep
    for band, plan in enumerate(bands):
        for name, src, reps in plan:
            if not runs or runs[-1][:2] != (band, src):
                runs.append((band, src, []))
            for j in range(1, reps + 1):
                runs[-1][2].append((len(labels), len(labels) + 1, len(step_keys), len(step_keys) + 1, band))
                labels += [state_label(name, step, j) for step in (1, 2)]
            step_keys += [f"{name}:{kind}" for kind in STEP_KINDS]
    tally = _Tally(scheme, labels, step_keys, len(bands), slots, options.trace_limit)
    width = max(len(r[2]) for r in runs)
    table = np.array([r[2] + r[2][:1] * (width - len(r[2])) for r in runs])
    streams = {s: _BcastStream(tally, _broadcasts(draws, tally, seed, s, link_rates(topology, config, s),
                                                  config.gamma_th, options.relay_cooperation), table)
               for s in (1, 2)}
    programs = [[(streams[src], len(reps), tag) for tag, (b, src, reps) in enumerate(runs) if b == band]
                for band in range(len(bands))]

    starts = [0] * len(bands)  # the slot each band's next cycle begins at
    while any(t < slots for t in starts):
        # Per band: whole cycles at once, then one cycle run by run, which
        # draws the next chunk of a stream that ran out or reaches the end of
        # the run.  Taking turns keeps the bands' cycle counts close.
        for band, prog in enumerate(programs):
            if starts[band] >= slots:
                continue
            t, i, done = _whole_cycles(prog, band, starts[band], tally), 0, 0
            while t < slots:
                stream, reps, tag = prog[i]
                dur, got = stream.take((reps - done,), t, done, tag)
                t, done = t + dur, done + got[0]
                if done == reps:
                    done, i = 0, (i + 1) % len(prog)
                    if i == 0:
                        tally.cycle_end(band, [t])
                        break
            starts[band] = t
    for stream in streams.values():
        stream.flush()
    return tally.estimate(config, seed)


# ---------------------------------------------------------------------------
# NOMA baseline: superposed transmission with successive interference
# cancellation; relay cooperation applies per stream in dedicated slots.
# ---------------------------------------------------------------------------

class _JointStream(_Stream):
    """NOMA joint episodes: one superposed slot, then a relay slot for stream 1
    if it needs one, then one for stream 2."""

    def __init__(self, tally, seed, rates, gamma_th, options):
        super().__init__(tally)
        self.gamma_th, self.options = gamma_th, options
        self.rngs = {s: [make_rng(seed, 6 + 3 * (s - 1) + k) for k in range(3)] for s in (1, 2)}
        # Mean received powers in noise units at each stream's power share.
        share = {1: options.noma_rho, 2: 1.0 - options.noma_rho}
        self.at_d = {s: share[s] * _means(rates[s].direct) for s in (1, 2)}
        self.at_r = {s: share[s] * _means(rates[s].source_relay) for s in (1, 2)}
        self.rd_means = _means(rates[1].relay_dest)

    def draw(self, n: int) -> dict:
        g, instant = self.gamma_th, self.options.noma_sic_order == "instant"
        p = {s: _exp(self.rngs[s][0], n, self.at_d[s]) for s in (1, 2)}
        gains = {s: _exp(self.rngs[s][1], (n, self.at_r[s].size), self.at_r[s]) for s in (1, 2)}
        # Cancellation at the destination, and at each relay.
        first = p[1] >= p[2] if instant else self.at_d[1] >= self.at_d[2]
        ok, sinr = _sic(first, p[1], p[2], g, sinr=True)
        first = gains[1] >= gains[2] if instant else self.at_r[1] >= self.at_r[2]
        dec, _ = _sic(first, gains[1], gains[2], g)
        ep = {"ok": ok, "empty": {}, "relay": {}, "relay_ok": {}}
        for s in (1, 2):
            ep["empty"][s] = _none_set(dec[s]) | (not self.options.relay_cooperation)
            ep["relay"][s] = ~ok[s] & ~ep["empty"][s]
            _, _, ep["relay_ok"][s] = _relay_slots(
                self.rngs[s][2], ep["relay"][s], sinr[s], dec[s], self.rd_means, g)
        ep["length"] = 1 + ep["relay"][1] + ep["relay"][2]
        ep["success"] = [ok[s] | ep["relay_ok"][s] for s in (1, 2)]
        return ep

    def count(self, idx, start, rep, tag) -> None:
        ep, tally, slots = self.ep, self.tally, self.tally.slots
        b = start < slots
        nb, relay_slot = int(b.sum()), start + 1  # stream 2's relay slot follows stream 1's
        tally.occupancy[0] += nb
        for s in (1, 2):
            r = ep["relay"][s][idx] & (relay_slot < slots)
            relay_slot = relay_slot + ep["relay"][s][idx]
            tally.occupancy[2 + s] += int(r.sum())
            tally.attempts[[0, 2 + s]] += (nb, int(r.sum()))
            tally.failures[[0, 2 + s]] += (int((b & ~ep["ok"][s][idx]).sum()),
                                           int((r & ~ep["relay_ok"][s][idx]).sum()))
            tally.decode_attempts[s] += nb
            tally.decode_empties[s] += int((b & ep["empty"][s][idx]).sum())


def _run_noma(topology, config, slots, seed, options, draws) -> SimEstimate:
    if options.trace_limit > 0:
        raise ConfigError("the NOMA simulator records no slot trace")
    beta_t = config.beta_t
    labels = ["joint", "solo1", "solo2", "relay1", "relay2"]
    tally = _Tally("noma", labels, labels, 1, slots, 0)
    rates = {s: link_rates(topology, config, s) for s in (1, 2)}
    # A lone unfinished source transmits at full power: a broadcast episode.
    solo = [
        _BcastStream(tally, _broadcasts(draws, tally, seed, s, rates[s], config.gamma_th,
                                        options.relay_cooperation),
                     np.array([[(s, 2 + s, s, 2 + s, 0)] * beta_t]))
        for s in (1, 2)
    ]
    joint = _JointStream(tally, seed, rates, config.gamma_th, options)

    t = 0
    while t < slots:
        # Whole pairs, then the one that reaches past a chunk or the run, walked:
        t, done = _whole_pairs(joint, solo, beta_t, t, tally), [0, 0]  # its deliveries
        while t < slots:
            if max(done) < beta_t:
                dur, got = joint.take((beta_t - done[0], beta_t - done[1]), t, 0, 0)
                done = [d + n for d, n in zip(done, got)]
            else:
                lane = 0 if done[0] < beta_t else 1
                dur, (n,) = solo[lane].take((beta_t - done[lane],), t, 0, 0)
                done[lane] += n
            t += dur
            if min(done) >= beta_t:
                tally.cycle_end(0, [t])
                break
    for stream in (joint, *solo):
        stream.flush()
    return tally.estimate(config, seed)


def simulate(
    scheme: str,
    topology: NetworkTopology,
    config: SystemConfig,
    slots: int,
    seed: int = 0,
    options: SimOptions = SimOptions(),
    *,
    draws: dict | None = None,
) -> SimEstimate:
    """Simulate `slots` slots of MDMA, or of the TDMA, FDMA or NOMA baseline
    under the same relay cooperation mechanics.  TDMA alternates the sources,
    each delivering its full payload in turn; FDMA runs the single-source
    protocol for both sources concurrently on orthogonal bands.

    `draws`, from `shared_draws` with the same topology, config, seed and
    options, supplies the broadcast episodes: schemes run with one set read
    each chunk that another has drawn instead of drawing it again, and give
    the results they give without it.  Without it a run draws its own and
    keeps only the chunk in use.  Draws made for another run, or handed to a
    traced one, raise ValueError.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if slots < 1:
        raise ConfigError("slots must be at least 1")
    if scheme == "mdma":  # only MDMA's plan is a chain, and bound by its state cap
        bands = [phase_plan(config.beta_s, config.beta_p)]
    elif scheme == "tdma":
        bands = [[Phase("payload1", 1, config.beta_t), Phase("payload2", 2, config.beta_t)]]
    elif scheme == "fdma":
        bands = [[Phase("band1", 1, config.beta_t)], [Phase("band2", 2, config.beta_t)]]
    elif scheme == "noma":
        return _run_noma(topology, config, slots, seed, options, draws)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return _run_bands(topology, config, scheme, bands, slots, seed, options, draws)


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
