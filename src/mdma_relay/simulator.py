"""Slot-accurate Monte Carlo simulation of the cooperative protocol.

Mirrors the Markov model's accounting exactly: one state transition per
time slot, including the broadcast self-loop taken when the destination
and every relay miss the broadcast.  The relay-forwarding slot combines
the broadcast slot's retained direct SNR with fresh relay-to-destination
draws (maximal ratio combining adds branch SNRs).

The engine works on episodes: a broadcast slot plus, when the destination
missed it and some relay decoded it, a relay slot.  Given the source they
are i.i.d., so they are drawn as arrays, one generator per (source, link
kind), and cut into repetitions at their successes.  Relay-side SNRs are
drawn only for the broadcasts the destination missed, the only ones whose
decode sets matter, and decode sets are counted over those alone.  An
episode's slot is a cumsum of episode lengths, derived once per chunk where
it is made (`_prepare`).  A broadcast draw is sized by the source's expected
episode length for the slots the run has left, up to the int16 limit of the
placement arrays: all of them for a chunk a source keeps, so a run of 1e4
slots reads one chunk per source, and the stream's share of its band's
repetitions for one a run draws alone.  NOMA's joint draws take at most
one episode per slot left, and 4 096.  The counters are kept per (run,
repetition) cell: each chunk's episodes are counted per cell with
`bincount`, and the cells' counts are added to their labels.  TDMA, FDMA
and NOMA baselines reuse the same relay cooperation mechanics and differ
only in medium access.  Where the baselines are underspecified, every
assumption is a configurable ``SimOptions`` field.

`simulate(scheme, ...)` is the one entry point.  MDMA, TDMA and FDMA are
band schemes: a list of bands, each a list of `markov.Phase(name, source,
reps)` that the band cycles through, with the chain's state labels.  MDMA
and TDMA run one band, FDMA one per source; NOMA runs one.  Each band is
charged one bandwidth and one power unit.

Each band, and NOMA, places its episodes through one resumable cursor: runs
or pairs are placed at once from these cumsums up to the first that a chunk
end cuts, which is placed up to the chunk end and resumed from the next chunk.
NOMA computes the joint stop of a pair begun at every episode as one array
and reads only the stops along its chain of pair starts.  A band plan's
labels, step keys and count table are built once per plan (`_layout`).
NOMA's cancellation needs no choice of the stronger stream (see `_sic`).

Every stream reads one link table (`link_rates`, computed once per run):
its rates set the draws' means, and its gates and direct misses the mean
episode length.  A source's broadcast episodes come from the same generators
in MDMA, TDMA, FDMA and NOMA's solo streams, and depend on its seed, link
rates and threshold alone (without relay cooperation, `link_rates` makes the
source-relay rates infinite).  Runs given one `pool`, as the schemes of one
sweep point are, share them by that key: each chunk is drawn and prepared
once and kept, read-only, for every untraced run, while the source's kept
chunks fit `_KEEP_BYTES`, 16 MiB.  That is twice what a 1e6-trial point
keeps of a source, so such a point draws each chunk once.  A run that needs
a chunk past the kept ones draws the rest itself, from the generators as the
last kept chunk left them: the first such run takes them, and each later
one a copy of their state.  So past the budget each scheme draws the tail
itself, trading time for memory (a 1e7-trial point at 10 dBm took 8.5-9.2 s
and 78 MB, against 7.0-8.0 s and 165 MB keeping every chunk).  A lone or
traced run's source has no budget, and its run draws every chunk itself.
Each generator is read in order either way, so each result is the one a
lone run gives, but the schemes' estimates at a point are correlated, and a
difference between schemes is not a difference of independent samples.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .markov import STEP_KINDS, Phase, phase_plan, refuse_past_cap, state_label
from .topology import ConfigError, LinkSet, NetworkTopology, SystemConfig, link_rates

SCHEMES = ("mdma", "tdma", "fdma", "noma")

# Each stream's generators are read in order, so results depend on no draw
# size; the caps bound memory.  A broadcast stream draws the episodes the run
# can still use (`_BcastStream.size`), at most the largest n with 3n < 2**15,
# so that a kept chunk keeps its placement arrays as int16 (`_prepare`).
_BCAST_CHUNK = (1 << 15) // 3
# A pooled source keeps the chunks it draws while they fit this many bytes,
# each charged the most it can hold (`_kept_bytes`, 9 bytes an episode): about
# 1.9M episodes, twice what a 1e6-trial sweep point keeps of either source.
_KEEP_BYTES = 16 << 20
# NOMA's joint stream draws at most one episode per slot left and at most this many.
_CHUNK = 1 << 12

# Traced slots a run may record: a traced slot keeps its event, SNR arrays
# included, until the run ends, about 0.7 kB (MDMA) to 1.4 kB (FDMA) each.
MAX_TRACE_SLOTS = 100_000


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
        if self.trace_limit > MAX_TRACE_SLOTS:
            raise ConfigError(f"trace_limit must be at most {MAX_TRACE_SLOTS}, got {self.trace_limit}")


@dataclass(frozen=True)
class SlotEvent:
    """One simulated slot, for traces and bookkeeping checks."""

    slot: int
    scheme: str
    state: str
    outcome: str                  # "success" or "failure"
    snrs: dict = field(repr=False)
    # Bitmask of relays that decoded the broadcast.  Relays are drawn only for
    # a broadcast the destination missed: one it decoded records an empty
    # "source_relay" array and mask 0.
    decode_mask: int = 0
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
    # Per source: broadcasts the destination missed, and those no relay
    # decoded either.  Decode sets do not depend on the direct SNR, so
    # empties / attempts estimates the empty-set probability without bias.
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
    """1/rate; a rate of 0 (infinite SNR) or a subnormal one gives an infinite mean."""
    return 1.0 / np.asarray(rates, dtype=float)


def _exp(rng, shape, means) -> np.ndarray:
    """Exponential SNRs with the given means, per element; an infinite mean
    (no noise, or a link so short that its rate underflows) or a draw past
    the float maximum gives inf.  When every mean is infinite nothing is drawn."""
    inf = np.isinf(means)
    if inf.all():
        return np.full(shape, math.inf)
    out = rng.standard_exponential(shape)
    out *= means
    if inf.any():
        np.copyto(out, math.inf, where=inf)  # a draw of 0 times inf would be NaN
    return out


def _none_set(flags) -> np.ndarray:
    """Rows of an n x m bool array with no flag set.  On a few thousand rows,
    m column ANDs take a quarter of the time of ~flags.any(axis=1)."""
    out = ~flags[:, 0]
    for j in range(1, flags.shape[1]):
        out &= ~flags[:, j]
    return out


def _relay_slots(rng, need, retained, decoded, rd_means, gamma_th):
    """Relay-to-destination SNRs of the rows flagged in `need`, their MRC
    totals (retained SNR plus decoding relays), and which rows decode there."""
    idx = np.flatnonzero(need)  # `take` by index is several times faster than a mask
    rows = _exp(rng, (idx.size, decoded.shape[1]), rd_means)
    mrc = retained.take(idx) + np.einsum("ij,ij->i", rows, decoded.take(idx, axis=0))
    ok = np.zeros(need.size, dtype=bool)
    ok[idx] = mrc >= gamma_th
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
        self.cycle_ends = [np.zeros(0, dtype=np.int64) for _ in range(bands)]
        self.pairs, self.last_close, self.dur_sumsq = 0, 0, 0.0

    def cycle_end(self, band: int, ends: np.ndarray) -> None:
        """Band `band` ended cycles before the slots `ends`.  The bands take
        turns, so the ends a band holds past the others' are about a chunk's."""
        self.cycle_ends[band] = np.concatenate((self.cycle_ends[band], ends[ends <= self.slots]))
        self._settle()

    def _settle(self) -> None:
        """A pair is delivered once every band has ended that cycle, at the
        latest end.  The pairs' durations sum to `last_close`."""
        ends = self.cycle_ends
        n = min(e.size for e in ends)
        if n:
            close = functools.reduce(np.maximum, [e[:n] for e in ends])  # one band: its own ends
            d = np.empty(n)  # the pairs' durations
            d[0] = close[0] - self.last_close
            np.subtract(close[1:], close[:-1], out=d[1:])
            self.pairs, self.last_close = self.pairs + n, int(close[-1])
            self.dur_sumsq += d @ d
            self.cycle_ends = [e[n:] for e in ends]

    def estimate(self, config: SystemConfig, seed: int) -> SimEstimate:
        # Every attempt is one step of one state and either fails or succeeds.
        per_step = {key: StepStats(a, f)
                    for key, a, f in zip(self.step_keys, self.attempts.tolist(), self.failures.tolist())}
        attempts, failures = int(self.attempts.sum()), int(self.failures.sum())
        bands = len(self.cycle_ends)  # each band takes a bandwidth and a power unit
        self.events.sort(key=lambda e: e[:2])
        return SimEstimate(
            scheme=self.scheme, slots=self.slots, seed=seed,
            attempts=attempts, failures=failures, successes=attempts - failures,
            per_step=per_step, occupancy_labels=self.labels, occupancy_counts=self.occupancy,
            pairs=self.pairs, pair_duration_sum=float(self.last_close),  # integer durations: exact
            pair_duration_sumsq=float(self.dur_sumsq),
            bandwidth_units=bands * config.bandwidth_units, power_units=bands * config.power_units,
            decode_attempts=self.decode_attempts, decode_empties=self.decode_empties,
            trace=[ev for _, _, ev in self.events[: self.trace_limit]],
        )


class _Stream:
    """I.i.d. episodes of one kind, drawn a chunk at a time and placed in order.

    A placement records runs of consecutive episodes as arrays (first, stop,
    start slot, repetitions before it, tag) in chunk order; a run a chunk end
    cuts goes on in the next chunk with its repetitions so far in `before`.
    They are counted before the next chunk is read, so memory is bounded by
    the chunk.  It reads a chunk prepared where it was made (`_prepare`),
    read-only if a source keeps it; lane l is stream l+1.  Until the first
    read the stream holds an empty chunk.
    """

    def __init__(self, tally: _Tally, lanes: int):
        self.tally, self.n, self.pos, self.runs_placed = tally, 0, 0, []
        self.cum_len, self.cum_succ = np.zeros(1, dtype=np.int64), [np.zeros(1, dtype=np.int64)] * lanes
        self.succ_end = [np.ones(1, dtype=np.int64)] * lanes

    def ready(self, slot: int) -> None:
        """Draw the next chunk if this one is spent."""
        if self.pos == self.n:
            self._refill(slot)

    def after(self, lane: int, k):
        """The episode after success `k` (from 0) of `lane`; n + 1 past the chunk."""
        end = self.succ_end[lane]
        return end[np.minimum(k, end.size - 1)]

    def place(self, first, stop, slot, before, tag: int) -> None:
        """Place the runs [first, stop), which go on from `pos`, at the given
        slots.  Runs that hold no episode are dropped: before its first draw
        a stream has no chunk to count them in."""
        if stop.size and stop[-1] > first[0]:
            self.runs_placed.append((first, stop, slot, before, np.full(stop.size, tag)))
            self.pos = int(stop[-1])

    def _refill(self, slot: int) -> None:
        """Count the chunk, then read the next, prepared (`_prepare`), for the
        slots the run has left from `slot` on."""
        self.flush()
        ep = self.ep = self.draw(self.tally.slots - slot)
        self.cum_len, self.cum_succ, self.succ_end = ep["cum_len"], ep["cum_succ"], ep["succ_end"]
        self.n, self.pos = self.cum_len.size - 1, 0

    def flush(self) -> None:
        """Count the episodes placed from the current chunk."""
        placed = self.runs_placed
        if not placed:
            return
        first, stop, slot, before, tag = placed[0] if len(placed) == 1 else map(np.concatenate, zip(*placed))
        idx, size = slice(first[0], stop[-1]), stop - first  # the runs tile idx in order
        # An episode's slot and repetition are its run's offsets plus its cumsums.
        cum_len, cum_succ = self.cum_len, self.cum_succ[0]
        start = np.repeat(slot - cum_len[first], size) + cum_len[idx]
        rep = np.repeat(before - cum_succ[first], size) + cum_succ[idx]
        self.count(idx, start, rep, np.repeat(tag, size))
        self.runs_placed = []


def _prepare(ep: dict, length, success) -> dict:
    """Add to chunk `ep` what placing it reads: slots and, per lane, successes
    before each episode, and the episode after each success, then n + 1; int16
    while 3 slots per episode fit, a quarter of int64's memory in a kept chunk."""
    n = length.size
    cum = np.zeros((1 + len(success), n + 1), _cum_dtype(n))
    for row, x in zip(cum, (length, *success)):
        np.cumsum(x, out=row[1:])
    ep["cum_len"], *ep["cum_succ"] = cum
    ep["succ_end"] = [np.append(s.nonzero()[0] + 1, n + 1).astype(cum.dtype) for s in success]
    return ep


def _cum_dtype(n: int) -> type:
    return np.int16 if 3 * n < 1 << 15 else np.int64


# All a kept chunk keeps: the flags `_BcastStream.count` reads, then `_prepare`'s.
_KEPT = ("ok", "relay", "relay_ok", "cum_len", "cum_succ", "succ_end")


def _kept_bytes(n: int) -> int:
    """The most a kept chunk of n episodes holds: three flags per episode,
    then `_prepare`'s two cumsums and its success ends, n + 1 long at most."""
    return 3 * n + 3 * (n + 1) * np.dtype(_cum_dtype(n)).itemsize


def _scatter(miss, flags, n: int) -> np.ndarray:
    """n-long flags that are `flags` at the rows `miss` and False elsewhere."""
    out = np.zeros(n, dtype=bool)
    out[miss] = flags
    return out


class _Episodes:
    """Full-power broadcast episodes of one source, drawn a chunk at a time
    from its direct, source-relay and relay-destination generators.

    A relay's decode flag matters only for a broadcast the destination
    missed, so source-relay SNRs are drawn only for those: `sr` and `decoded`
    hold one row per missed broadcast, in episode order, and `rows` and `mrc`
    one per relay episode.

    Chunk k is drawn when a reader first needs it, with the size that reader
    asks for, and prepared there (`_prepare`): its lengths, success cumsums
    and success ends are derived once.  The source keeps it for later readers
    while it fits the byte budget, as three read-only flags per episode and
    the prepared arrays.  It draws nothing past the first chunk that does
    not fit: a reader that needs that chunk goes on alone (`fork`), from the
    generators as the last kept chunk left them, so each generator is still
    read in order.  A source without a budget keeps nothing, and its reader
    goes on alone at once.

    Its means and mean episode length come from row ``source - 1`` of the
    run's link table ``links``."""

    def __init__(self, seed, source, links, gamma_th, budget=0):
        self.source, self.gamma_th, s = source, gamma_th, source - 1
        self.rngs = [make_rng(seed, 3 * s + k) for k in range(3)]
        self.means = [_means(links.direct[s]), _means(links.source_relay[s]), _means(links.relay_dest)]
        self.kept, self.room, self.states = [], budget, None  # states: see `fork`
        # Mean slots per episode: 1, plus a relay slot when the destination
        # missed and some relay decoded.
        self.mean_len = 1.0 + float(links.miss[s]) * (1.0 - float(links.empty[s]))

    def chunk(self, k: int, n: int) -> dict | None:
        """Kept chunk k, drawn with n episodes if no reader has reached it;
        None if the budget has no room left for it."""
        if k < len(self.kept):
            return self.kept[k]
        need = _kept_bytes(n)
        if need > self.room:
            return None
        self.room -= need
        ep = self.prepared(n)
        ep = {f: ep[f] for f in _KEPT}
        for v in ep.values():  # read-only: no reader may change what a later one reads
            for a in v if isinstance(v, list) else [v]:
                a.setflags(write=False)
        self.kept.append(ep)
        return ep

    def fork(self) -> _Episodes:
        """A source for one reader past the kept chunks, which keeps nothing.
        The first such reader takes the generators, past the last kept chunk,
        and this source keeps their `states` there and no more chunks; each
        later reader starts from a copy of them, so a lone run copies none."""
        own = copy.copy(self)
        own.kept, own.room = [], 0
        if self.states is None:
            self.room, self.states = 0, [g.bit_generator.state for g in self.rngs]
        else:
            own.rngs = [np.random.default_rng() for _ in self.states]
            for g, state in zip(own.rngs, self.states):
                g.bit_generator.state = state
        return own

    def prepared(self, n: int) -> dict:
        """The next n episodes, prepared (`_prepare`)."""
        ep = self.draw(n)
        return _prepare(ep, 1 + ep["relay"], [ep["ok"] | ep["relay_ok"]])

    def draw(self, n: int) -> dict:
        g = self.gamma_th
        direct = _exp(self.rngs[0], n, self.means[0])
        ok = direct >= g
        miss = np.flatnonzero(~ok)
        sr = _exp(self.rngs[1], (miss.size, self.means[1].size), self.means[1])
        decoded = sr >= g
        relay = ~_none_set(decoded)  # some relay decoded
        rows, mrc, relay_ok = _relay_slots(self.rngs[2], relay, direct.take(miss), decoded, self.means[2], g)
        return {"direct": direct, "sr": sr, "decoded": decoded, "ok": ok, "relay": _scatter(miss, relay, n),
                "rows": rows, "mrc": mrc, "relay_ok": _scatter(miss, relay_ok, n)}


def _broadcasts(pool, tally, seed, source, links, gamma_th) -> _Episodes:
    """The episodes of `source` for one run: the ones `pool` keeps under all
    they depend on, added there with a budget of `_KEEP_BYTES` by the first
    run to ask; without a `pool`, or for a traced run (a kept chunk keeps no
    SNRs), a source of its own with no budget."""
    if pool is None or tally.trace_limit:
        return _Episodes(seed, source, links, gamma_th)
    key = (seed, source, gamma_th, float(links.direct[source - 1]),
           tuple(links.source_relay[source - 1].tolist()), tuple(links.relay_dest.tolist()))
    if key not in pool:
        pool[key] = _Episodes(seed, source, links, gamma_th, _KEEP_BYTES)
    return pool[key]


class _BcastStream(_Stream):
    """Full-power broadcast episodes of one source (MDMA, TDMA, FDMA, NOMA solo),
    read chunk by chunk from `episodes`, then from `own`, a source of its own
    (`_Episodes.fork`), from the first chunk `episodes` has no room to keep.
    `share` is the stream's share of its band's repetitions.
    `table[tag, rep]`: broadcast and relay labels, their step keys, and band.

    Episodes are counted per cell (tag, rep) of the table, then added to the
    cells' labels.  A short run's row is padded with its first repetition's
    labels, so a label can stand in several cells: only `np.add.at` sums them."""

    def __init__(self, tally, episodes: _Episodes, table, share=1.0):
        super().__init__(tally, 1)
        self.episodes, self.own, self.share, self.chunks = episodes, None, share, 0
        self.source, self.table = episodes.source, table
        # Per cell: the broadcast's label and step key, then the relay slot's.
        lab_b, lab_r, key_b, key_r, _ = table.reshape(-1, table.shape[-1]).T
        self.cells = ((lab_b, key_b, "ok"), (lab_r, key_r, "relay_ok"))

    def size(self, slots: float) -> int:
        """Episodes that fill `slots` slots at the mean episode length, plus
        4 sqrt(slots) and 64: an episode's length (1 or 2) has a variance of at
        most 1/4, so the count that fills them has a standard deviation of at
        most sqrt(slots) / 2, and a second draw is rare."""
        return min(_BCAST_CHUNK, math.ceil(slots / self.episodes.mean_len + 4.0 * math.sqrt(slots) + 64))

    def draw(self, left: int) -> dict:
        """The next chunk for a run with `left` slots left.  A chunk the source
        keeps, which every run of a sweep point reads, fills them all, as FDMA's
        band, which runs one source, does; one this stream draws alone fills
        its share of them."""
        k, self.chunks = self.chunks, self.chunks + 1
        if self.own is None:
            ep = self.episodes.chunk(k, self.size(left))
            if ep is not None:
                return ep
            self.own = self.episodes.fork()
        return self.own.prepared(self.size(self.share * left))

    def count(self, idx, start, rep, tag) -> None:
        ep, tally, slots = self.ep, self.tally, self.tally.slots
        cell = tag * self.table.shape[1] + rep
        b = start < slots
        r = ep["relay"][idx] & (start + 1 < slots)
        for sent, (lab, key, ok) in zip((b, r), self.cells):
            per_cell = np.bincount(cell[sent], minlength=lab.size)
            np.add.at(tally.occupancy, lab, per_cell)
            np.add.at(tally.attempts, key, per_cell)
            np.add.at(tally.failures, key, np.bincount(cell[sent & ~ep[ok][idx]], minlength=lab.size))
        miss = b & ~ep["ok"][idx]
        tally.decode_attempts[self.source] += int(np.count_nonzero(miss))
        tally.decode_empties[self.source] += int(np.count_nonzero(miss & ~ep["relay"][idx]))
        if tally.trace_limit:
            lab_b, lab_r, _, _, band = self.table[tag, rep].T
            self._trace(idx, start, lab_b, lab_r, band)

    def _trace(self, idx, start, lab_b, lab_r, band) -> None:
        """Decode the placed episodes that fall in the traced slots into events.
        An episode's source-relay row is its rank among missed broadcasts, and
        its relay row its rank among relay episodes."""
        ep, tally = self.ep, self.tally
        end = min(tally.trace_limit, tally.slots)
        miss_row, relay_row = np.cumsum(~ep["ok"]) - 1, np.cumsum(ep["relay"]) - 1
        for j in np.flatnonzero(start < end):
            i, t = idx.start + j, int(start[j])
            k, direct = miss_row[i], float(ep["direct"][i])
            sr, mask = (np.empty(0), 0) if ep["ok"][i] else (ep["sr"][k].copy(), _bitmask(ep["decoded"][k]))
            tally.events.append((t, band[j], SlotEvent(
                t, tally.scheme, tally.labels[lab_b[j]],
                "success" if ep["ok"][i] else "failure",
                {"direct": direct, "source_relay": sr}, mask)))
            if ep["relay"][i] and t + 1 < end:
                k = relay_row[i]
                tally.events.append((t + 1, band[j], SlotEvent(
                    t + 1, tally.scheme, tally.labels[lab_r[j]],
                    "success" if ep["relay_ok"][i] else "failure",
                    {"relay_dest": ep["rows"][k].copy(), "retained_direct": direct},
                    mask, float(ep["mrc"][k]))))


def _place_runs(prog, band: int, cursor, tally: _Tally):
    """Place the band's runs from `cursor` = (j, done, t): run j of its cycle,
    `done` repetitions into it, at slot t.  Runs go whole, in cycle order, up
    to the first that a chunk end cuts, which goes up to the chunk end; none
    begins past the end of the run.  Return the cursor after them, which is
    not read once it reaches the end of the run.  A stream transmits one run
    of repetitions per cycle of its band."""
    j, done, t = cursor
    order, size = prog[j:] + prog[:j], len(prog)  # the cycle from run j on
    order[0][0].ready(t)
    # The stops of the runs each stream's chunk holds whole; run j needs reps - done.
    whole = [s.succ_end[0][s.cum_succ[0].item(s.pos) + reps - (done if i == 0 else 0) - 1 : -1 : reps]
             for i, (s, reps, _) in enumerate(order)]
    # Run k from the cursor is run k // size of order[k % size]; run `cut` is the first a chunk end cuts.
    cut = min(w.size * size + i for i, w in enumerate(whole))
    cycles = cut // size + 1
    first, stop, dur = (np.empty((size, cycles), dtype=np.int64) for _ in range(3))
    for i, ((s, _, _), w) in enumerate(zip(order, whole)):
        stop[i] = s.n  # the cut run goes up to the chunk end
        stop[i, : w.size] = w[:cycles]
        first[i] = np.concatenate(([s.pos], stop[i, :-1]))
        dur[i] = s.cum_len[stop[i]] - s.cum_len[first[i]]
    dur = dur.T.ravel()[: cut + 1]
    ends = t + np.cumsum(dur)
    slot = ends - dur
    placed = int(np.searchsorted(slot, tally.slots))
    for i, (s, _, tag) in enumerate(order):
        k = len(range(i, placed, size))
        before = np.zeros(k, dtype=np.int64)
        before[:1] = done if i == 0 else 0
        s.place(first[i, :k], stop[i, :k], slot[i:placed:size], before, tag)
    tally.cycle_end(band, ends[(size - 1 - j) % size : min(placed, cut) : size])
    cum = order[cut % size][0].cum_succ[0]
    done = (cut == 0) * done + int(cum[-1] - cum[first[cut % size, -1]])  # the cut run's, at the chunk end
    return (j + cut) % size, done, int(ends[placed - 1])


@functools.lru_cache(maxsize=4)  # a sweep point runs at most three plans
def _layout(bands: tuple[tuple[Phase, ...], ...]):
    """What a run of `bands` counts into: its state labels and step keys, its
    runs as (band, source, repetitions), and `table[run, rep]` for
    `_BcastStream`, read-only since every run of the plan shares it."""
    labels, step_keys, runs = [], [], []  # runs: band, source, labels and keys per rep
    for band, plan in enumerate(bands):
        for name, src, reps in plan:
            if not runs or runs[-1][:2] != (band, src):
                runs.append((band, src, []))
            for j in range(1, reps + 1):
                runs[-1][2].append((len(labels), len(labels) + 1, len(step_keys), len(step_keys) + 1, band))
                labels += [state_label(name, step, j) for step in (1, 2)]
            step_keys += [f"{name}:{kind}" for kind in STEP_KINDS]
    width = max(len(r[2]) for r in runs)
    table = np.array([r[2] + r[2][:1] * (width - len(r[2])) for r in runs])
    table.setflags(write=False)
    return tuple(labels), tuple(step_keys), tuple((b, src, len(reps)) for b, src, reps in runs), table


def _run_bands(
    config: SystemConfig,
    scheme: str,
    bands: list[list[Phase]],
    slots: int,
    seed: int,
    options: SimOptions,
    pool: dict | None,
    links: LinkSet,
) -> SimEstimate:
    """MDMA, TDMA and FDMA: each band cycles through its phases, and
    consecutive phases of one source form a run.  MDMA and TDMA run one band;
    FDMA runs one band per source."""
    labels, step_keys, runs, table = _layout(tuple(map(tuple, bands)))
    tally = _Tally(scheme, list(labels), list(step_keys), len(bands), slots, options.trace_limit)
    band_reps = [sum(reps for b, _, reps in runs if b == band) for band in range(len(bands))]
    streams = {s: _BcastStream(tally, _broadcasts(pool, tally, seed, s, links, config.gamma_th), table,
                               sum(reps / band_reps[b] for b, src, reps in runs if src == s))
               for s in (1, 2)}
    programs = [[(streams[src], reps, tag) for tag, (b, src, reps) in enumerate(runs) if b == band]
                for band in range(len(bands))]

    cursors = [(0, 0, 0)] * len(bands)  # per band: run of the cycle, repetitions into it, slot
    while any(t < slots for _, _, t in cursors):
        # Each turn places a band's runs up to a chunk end or the end of the
        # run.  Taking turns keeps the bands' cycle counts close.
        for band, prog in enumerate(programs):
            if cursors[band][2] < slots:
                cursors[band] = _place_runs(prog, band, cursors[band], tally)
    for stream in streams.values():
        stream.flush()
    return tally.estimate(config, seed)


# ---------------------------------------------------------------------------
# NOMA baseline: superposed transmission with successive interference
# cancellation; relay cooperation applies per stream in dedicated slots.
# ---------------------------------------------------------------------------

class _JointStream(_Stream):
    """NOMA joint episodes: one superposed slot, then a relay slot for stream 1
    if it needs one, then one for stream 2.  Relay gains are drawn, and each
    relay cancels, only for episodes where the destination missed some stream."""

    def __init__(self, tally, seed, links, gamma_th, options):
        super().__init__(tally, 2)
        self.gamma_th, self.options = gamma_th, options
        self.rngs = {s: [make_rng(seed, 6 + 3 * (s - 1) + k) for k in range(3)] for s in (1, 2)}
        # Mean received powers in noise units at each stream's power share.
        share = {1: options.noma_rho, 2: 1.0 - options.noma_rho}
        self.at_d = {s: share[s] * _means(links.direct[s - 1]) for s in (1, 2)}
        self.at_r = {s: share[s] * _means(links.source_relay[s - 1]) for s in (1, 2)}
        self.rd_means = _means(links.relay_dest)

    def draw(self, left: int) -> dict:
        """At most one episode per slot left: the run has no room for more."""
        n = min(_CHUNK, left)
        g, instant = self.gamma_th, self.options.noma_sic_order == "instant"
        p = {s: _exp(self.rngs[s][0], n, self.at_d[s]) for s in (1, 2)}
        # Cancellation at the destination, then at each relay where it missed a stream.
        first = p[1] >= p[2] if instant else self.at_d[1] >= self.at_d[2]
        ok, sinr = _sic(first, p[1], p[2], g, sinr=True)
        miss = np.flatnonzero(~(ok[1] & ok[2]))
        gains = {s: _exp(self.rngs[s][1], (miss.size, self.at_r[s].size), self.at_r[s]) for s in (1, 2)}
        first = gains[1] >= gains[2] if instant else self.at_r[1] >= self.at_r[2]
        dec, _ = _sic(first, gains[1], gains[2], g)
        ep = {"ok": ok, "relay": {}, "relay_ok": {}}
        for s in (1, 2):
            relay = ~ok[s].take(miss) & ~_none_set(dec[s])
            _, _, relay_ok = _relay_slots(self.rngs[s][2], relay, sinr[s].take(miss), dec[s], self.rd_means, g)
            ep["relay"][s], ep["relay_ok"][s] = _scatter(miss, relay, n), _scatter(miss, relay_ok, n)
        return _prepare(ep, 1 + ep["relay"][1] + ep["relay"][2],
                        [ok[s] | ep["relay_ok"][s] for s in (1, 2)])

    def count(self, idx, start, rep, tag) -> None:
        ep, tally, slots = self.ep, self.tally, self.tally.slots
        b = start < slots
        nb, relay_slot = np.count_nonzero(b), start + 1  # stream 2's relay slot follows stream 1's
        tally.occupancy[0] += nb
        tally.attempts[0] += 2 * nb  # one per stream
        for s in (1, 2):
            relay = ep["relay"][s][idx]
            r = relay & (relay_slot < slots)
            relay_slot = relay_slot + relay
            miss = b & ~ep["ok"][s][idx]  # a failed joint slot, and a decode attempt
            nr, nmiss = np.count_nonzero(r), int(np.count_nonzero(miss))
            tally.occupancy[2 + s] += nr
            tally.attempts[2 + s] += nr
            tally.failures[0] += nmiss
            tally.failures[2 + s] += np.count_nonzero(r & ~ep["relay_ok"][s][idx])
            tally.decode_attempts[s] += nmiss
            tally.decode_empties[s] += int(np.count_nonzero(miss & ~relay))


def _place_pairs(joint, solo, beta_t: int, cursor, tally: _Tally):
    """Place NOMA pairs from `cursor` = (done, t): the pair whose streams have
    `done` deliveries, at slot t.  A pair sends jointly until a stream has
    `beta_t` successes, then the other alone until it has them too.  Pairs go
    whole up to the first that a chunk end cuts, in its joint part or a solo
    part, which goes up to the chunk end; none begins past the end of the run.
    Return the cursor after them, which is not read once it reaches the end
    of the run."""
    done, t = cursor
    alone = max(done) >= beta_t  # the cursor's pair is in its solo part
    (solo[done.index(min(done))] if alone else joint).ready(t)
    n, pos = joint.n, joint.pos
    # The joint stop of a pair begun at each episode, and of the cursor's pair
    # (at once if it is alone); chase the chain of starts, reading only the
    # stops it visits (a pair is several episodes long).
    # Prepared arrays may be int16; what mixes them with beta_t is int64.
    stop_from = np.minimum(*(joint.after(lane, np.add(cum, beta_t - 1, dtype=np.int64))
                             for lane, cum in enumerate(joint.cum_succ)))
    i = pos if alone else min(joint.after(lane, cum.item(pos) + beta_t - d - 1)
                              for lane, (cum, d) in enumerate(zip(joint.cum_succ, done)))
    starts = [pos]
    while i <= n:
        starts.append(i)
        i = stop_from.item(i)
    first = np.array(starts)
    stop = np.append(first[1:], n)  # the last pair's joint part is cut
    need = beta_t - np.array([cum[stop] - cum[first] for cum in joint.cum_succ], dtype=np.int64)
    need[:, 0] -= done
    joint_dur = joint.cum_len[stop] - joint.cum_len[first]
    # The cut pair and its deliveries at the chunk end: so far, the pair the joint chunk cuts.
    cut, at_cut = first.size - 1, (beta_t - need[:, -1]).tolist()
    dur, solo_runs = joint_dur.astype(np.int64), []
    # The lagging stream's solo stream meets the pairs' needs in order.
    for lane, stream in enumerate(solo):
        lag = np.flatnonzero(need[lane, :-1])
        due = stream.cum_succ[0].item(stream.pos) + np.cumsum(need[lane, lag])
        s_stop = np.minimum(stream.after(0, due - 1), stream.n)
        s_first = np.concatenate(([stream.pos], s_stop[:-1]))
        dur[lag] += stream.cum_len[s_stop] - stream.cum_len[s_first]
        w = int(np.searchsorted(due, stream.cum_succ[0][-1], side="right"))  # solo parts held whole
        if w < lag.size and lag[w] < cut:  # this solo chunk cuts a pair first
            cut, at_cut = int(lag[w]), [beta_t, beta_t]
            at_cut[lane] -= int(due[w] - stream.cum_succ[0][-1])
        solo_runs.append((stream, lag, s_first, s_stop))
    ends = t + np.cumsum(dur[: cut + 1])
    pair_slot = ends - dur[: cut + 1]
    placed = int(np.searchsorted(pair_slot, tally.slots))
    joint.place(first[:placed], stop[:placed], pair_slot[:placed], np.zeros(placed, dtype=np.int64), 0)
    for stream, lag, s_first, s_stop in solo_runs:
        k = int(np.searchsorted(lag, placed))
        stream.place(s_first[:k], s_stop[:k], (pair_slot + joint_dur[: cut + 1])[lag[:k]],
                     np.zeros(k, dtype=np.int64), 0)
    tally.cycle_end(0, ends[: min(placed, cut)])
    return at_cut, int(ends[placed - 1])


def _run_noma(config, slots, seed, options, pool, links) -> SimEstimate:
    if options.trace_limit > 0:
        raise ConfigError("the NOMA simulator records no slot trace")
    beta_t = config.beta_t
    refuse_past_cap([Phase("solo1", 1, beta_t), Phase("solo2", 2, beta_t)])  # a row per solo slot
    labels = ["joint", "solo1", "solo2", "relay1", "relay2"]
    tally = _Tally("noma", labels, labels, 1, slots, 0)
    # A lone unfinished source transmits at full power: a broadcast episode.
    solo = [
        _BcastStream(tally, _broadcasts(pool, tally, seed, s, links, config.gamma_th),
                     np.array([[(s, 2 + s, s, 2 + s, 0)] * beta_t]))
        for s in (1, 2)
    ]
    joint = _JointStream(tally, seed, links, config.gamma_th, options)

    cursor = ([0, 0], 0)  # the current pair's deliveries per stream, and slot
    while cursor[1] < slots:
        cursor = _place_pairs(joint, solo, beta_t, cursor, tally)
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
    pool: dict | None = None,
) -> SimEstimate:
    """Simulate `slots` slots of MDMA, or of the TDMA, FDMA or NOMA baseline
    under the same relay cooperation mechanics.  TDMA alternates the sources,
    each delivering its full payload in turn; FDMA runs the single-source
    protocol for both sources concurrently on orthogonal bands.  The run
    computes one link table (`link_rates`), so a layout it refuses is refused
    here as by `analyze`, with its message.

    `pool`, a dict, shares broadcast episodes between the runs given it: an
    untraced run reads a source's episodes from the pool if a run with the
    same seed, link rates and threshold put them there, else adds its own.
    So runs read each chunk that another has drawn instead of drawing it
    again, and give the results they give alone.  The pool keeps a source's
    chunks, until it is dropped, while they fit 16 MiB (at most 9 bytes an
    episode), twice what a 1e6-trial sweep point keeps; past that each run
    draws the rest itself, from the source's generators as the last kept
    chunk left them, so a 1e7-trial point takes up to a third longer and
    half the memory.
    Without a pool, or traced, a run draws its own and keeps only the chunk
    in use.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if slots < 1:
        raise ConfigError("slots must be at least 1")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    links = link_rates(topology, config, options.relay_cooperation)
    # One errstate per run, not per draw: an infinite mean or draw is an overflow or a division by 0.
    with np.errstate(over="ignore", divide="ignore"):
        if scheme == "mdma":
            bands = [phase_plan(config.beta_s, config.beta_p)]
        elif scheme == "tdma":
            bands = [[Phase("payload1", 1, config.beta_t), Phase("payload2", 2, config.beta_t)]]
        elif scheme == "fdma":
            bands = [[Phase("band1", 1, config.beta_t)], [Phase("band2", 2, config.beta_t)]]
        else:
            return _run_noma(config, slots, seed, options, pool, links)
        refuse_past_cap(*bands)  # a band run lists a label and an occupancy entry per state
        return _run_bands(config, scheme, bands, slots, seed, options, pool, links)


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
