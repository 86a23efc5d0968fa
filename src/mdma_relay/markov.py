"""Protocol state machine as a finite Markov chain.

One state per (phase, step, repetition); one state transition per time slot,
including the broadcast-step self-loop taken when the destination and every
relay miss the broadcast.  The stationary distribution weights the per-step
outage probabilities into the overall outage, from which the expected slot
cost per delivered reception and the resource utilization efficiency follow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analytic import SourceOutages
from .topology import ConfigError

ROW_SUM_TOL = 1e-12
# Every structure here grows linearly in the state count.  At 300 000 states
# `dump-chain` takes 6.8 s and 580 MB (peak RSS) and `analyze` 0.4 s and 71 MB,
# so at this cap they need about 1.9 GB and 200 MB; a payload of 1e308 bits
# would run until memory is exhausted.
MAX_CHAIN_STATES = 1_000_000

# Protocol cycle: shared broadcast by source 1, personalized payload of
# source 1, personalized payload of source 2, then new information.
PHASE_ORDER = ("shared", "personal1", "personal2")
PHASE_SOURCE = {"shared": 1, "personal1": 1, "personal2": 2}
STEP_KINDS = ("bcast", "relay")  # step 1 and step 2, as SourceOutages names them


class ProtocolState(NamedTuple):
    phase: str  # one of PHASE_ORDER
    step: int   # 1 = source broadcast, 2 = relay forwarding
    rep: int    # repetition index within the phase, 1-based

    @property
    def kind(self) -> str:
        return STEP_KINDS[self.step - 1]

    @property
    def label(self) -> str:
        return f"{self.phase}:{self.kind}:{self.rep}"


def phase_plan(beta_s: int, beta_p: int) -> list[tuple[str, int]]:
    """Nonempty phases with their repetition counts, in protocol order."""
    if beta_s < 0 or beta_p < 0:
        raise ConfigError("repetition counts must be nonnegative")
    if beta_s + beta_p == 0:
        raise ConfigError("at least one phase must be nonempty")
    states = 2 * (beta_s + 2 * beta_p)  # a broadcast and a relay state per slot
    if states > MAX_CHAIN_STATES:
        raise ConfigError(
            f"the protocol chain would have {Decimal(states):.7g} states, "
            f"more than the {MAX_CHAIN_STATES} supported"
        )
    plan = [("shared", beta_s), ("personal1", beta_p), ("personal2", beta_p)]
    return [(name, reps) for name, reps in plan if reps > 0]


def protocol_states(beta_s: int, beta_p: int) -> list[ProtocolState]:
    """States ordered phase-major with (bcast, relay) interleaved per repetition."""
    return [ProtocolState(phase, step, j) for phase, reps in phase_plan(beta_s, beta_p)
            for j in range(1, reps + 1) for step in (1, 2)]


@dataclass(frozen=True)
class TransitionMatrix:
    """The chain's nonzero transitions as (row, column, probability) triples."""

    states: tuple[ProtocolState, ...]
    triples: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = len(self.states)
        i, j, p = np.array(self.triples, dtype=float).reshape(-1, 3).T
        if not ((np.minimum(i, j) >= 0) & (np.maximum(i, j) < n)).all():
            raise ConfigError("transitions must join states of the state list")
        if not ((p >= 0.0) & (p <= 1.0)).all():
            raise ConfigError("transition probabilities must lie in [0, 1]")
        rows = np.bincount(i.astype(np.int64), weights=p, minlength=n)
        if not np.allclose(rows, 1.0, rtol=0.0, atol=ROW_SUM_TOL):
            raise ConfigError(f"rows must sum to 1 within {ROW_SUM_TOL:g}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense n x n view, built on first read, for the direct solve."""
        t = np.zeros((len(self.states), len(self.states)))
        for i, j, p in self.triples:
            t[i, j] += p
        return t


def labelled(outages: dict[int, SourceOutages]) -> dict[str, float]:
    """The six step outages keyed "phase:bcast" / "phase:relay"; each phase
    takes its source's record."""
    return {
        f"{phase}:{kind}": getattr(outages[PHASE_SOURCE[phase]], kind)
        for phase in PHASE_ORDER
        for kind in STEP_KINDS
    }


def _phases(
    outages: dict[int, SourceOutages], beta_s: int, beta_p: int, literal_personal1_wrap: bool
) -> list[tuple[SourceOutages, int, int, int]]:
    """The ring's nonempty phases in protocol order, each as (source's
    outages, first repetition counted over the ring, repetition count,
    position of the phase it advances into).  Each advances into the next
    and the last wraps to the first, but ``literal_personal1_wrap`` sends
    the first personalized phase back into itself (a transition-table
    variant in which the second source's phase is unreachable)."""
    plan = phase_plan(beta_s, beta_p)
    phases, first = [], 0
    for k, (name, reps) in enumerate(plan):
        into = k if literal_personal1_wrap and name == "personal1" else (k + 1) % len(plan)
        phases.append((outages[PHASE_SOURCE[name]], first, reps, into))
        first += reps
    return phases


def _row(i: int, entries: list[tuple[int, float]]) -> list[tuple[int, int, float]]:
    """Row i's nonzero triples by column; entries sharing a column add in order."""
    cols: dict[int, float] = {}
    for j, p in entries:
        cols[j] = cols.get(j, 0.0) + p
    return [(i, j, p) for j, p in sorted(cols.items()) if p != 0.0]


def build_chain(
    outages: dict[int, SourceOutages],
    beta_s: int,
    beta_p: int,
    literal_personal1_wrap: bool = False,
) -> TransitionMatrix:
    """Sparse transitions of the slotted protocol, from the step outages
    keyed by source, in O(states).

    From a broadcast state: self-loop with probability (broadcast outage) *
    (all-relays-miss), move to the relay step with (broadcast outage) *
    (some relay decoded), and advance with (1 - broadcast outage).  From a
    relay state: fall back to the same repetition's broadcast on failure,
    advance on success.  Advancing out of a phase's last repetition enters
    the first broadcast state of the phase it advances into (`_phases`).
    """
    phases = _phases(outages, beta_s, beta_p, literal_personal1_wrap)
    triples = []
    for src, first, reps, into in phases:
        op_b, op_r, empty = src.bcast, src.relay, src.empty
        for j in range(first, first + reps):
            bcast, relay = 2 * j, 2 * j + 1
            advance = 2 * (j + 1 if j + 1 < first + reps else phases[into][1])
            triples += _row(bcast, [(bcast, op_b * empty), (relay, op_b * (1.0 - empty)),
                                    (advance, 1.0 - op_b)])
            triples += _row(relay, [(bcast, op_r), (advance, 1.0 - op_r)])
    return TransitionMatrix(tuple(protocol_states(beta_s, beta_p)), tuple(triples))


def ring_distribution(
    outages: dict[int, SourceOutages],
    beta_s: int,
    beta_p: int,
    literal_personal1_wrap: bool = False,
) -> np.ndarray:
    """Stationary vector of the protocol chain in closed form.

    The chain is a ring of (broadcast, relay) state pairs, each entered once
    per cycle at its broadcast state and left only by advancing.  A
    broadcast visit leads to an advance, directly or through the relay
    state, with probability q = (1 - op_b) + op_b (1 - e) (1 - op_r), so
    per cycle the broadcast state is visited 1/q times and the relay state
    op_b (1 - e)/q times.

    The chain starts in the first phase and follows the phases it advances
    into.  The first phase on that path that never advances (q = 0: every
    attempt fails) holds all the mass on its first repetition, 1 : op_b (1 - e)
    between its two states; otherwise the cycle the path closes holds it
    (under ``literal_personal1_wrap``, the first personalized phase alone).
    """
    phases = _phases(outages, beta_s, beta_p, literal_personal1_wrap)
    pi = np.zeros(2 * sum(reps for _, _, reps, _ in phases))
    path, k = [], 0
    while k not in path:
        path.append(k)
        src, first, reps, into = phases[k]
        op_b, op_r, empty = src.bcast, src.relay, src.empty
        q = (1.0 - op_b) + op_b * (1.0 - empty) * (1.0 - op_r)
        visits = np.array([1.0, op_b * (1.0 - empty)])
        if q <= 0.0:
            pi[2 * first : 2 * first + 2] = visits
            break
        pi[2 * first : 2 * (first + reps)] = np.tile(visits / q, reps)
        k = into
    # The path takes the phases in order, so those ahead of phase k, where it
    # stopped or closed its cycle, are transient.
    pi[: 2 * phases[k][1]] = 0.0
    return pi / pi.sum()


def stationary_distribution(chain: TransitionMatrix) -> np.ndarray:
    """Stationary row vector of the dense matrix, started from the first
    state; the independent check on ``ring_distribution``.

    Only the states reachable from the first one take part (a phase that
    never advances makes each of its repetitions a closed class).
    Grassmann-Taksar-Heyman elimination censors states out from the last
    one down with sums of nonnegative terms only, so every entry keeps its
    relative accuracy even on nearly absorbing chains.  A state that can no
    longer reach an earlier one is absorbing in the censored chain, and the
    earlier states get no mass (the ``literal_personal1_wrap`` variant).
    """
    reached = np.zeros(len(chain.states), dtype=bool)
    reached[0] = True
    while True:
        grown = reached | (chain.matrix[reached] > 0).any(axis=0)
        if (grown == reached).all():
            break
        reached = grown
    kept = np.flatnonzero(reached)
    p = chain.matrix[np.ix_(kept, kept)].astype(float)
    n = kept.size
    first = 0
    for k in range(n - 1, 0, -1):
        out = p[k, :k].sum()
        if out <= 0.0:
            first = k
            break
        p[:k, k] /= out
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.zeros(n)
    pi[first] = 1.0
    for k in range(first + 1, n):
        pi[k] = pi[:k] @ p[:k, k]
    full = np.zeros(len(chain.states))
    full[kept] = pi / pi.sum()
    return full


def overall_outage(
    pi: np.ndarray, outages: dict[int, SourceOutages], states: list[ProtocolState]
) -> float:
    """Occupancy-weighted average of the per-step outage probabilities.

    An outage above one half is formed as one minus the weighted success
    mass: that sum has only nonnegative terms, so the result never exceeds 1
    and is exactly 1 wherever the success mass is below half an ulp of 1,
    whereas summing outages near 1 lands on either side of 1 by rounding.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (len(states),):
        raise ConfigError("pi must align with the state list")
    ops = [getattr(outages[PHASE_SOURCE[s.phase]], s.kind) for s in states]
    fail = float(sum(p * op for p, op in zip(pi, ops)))
    if fail < 0.5:
        return fail
    return 1.0 - float(sum(p * (1.0 - op) for p, op in zip(pi, ops)))


def slot_cost(op: float) -> float:
    """Expected slots per delivered reception, 1 / (1 - outage); infinite
    when every attempt fails."""
    if not 0.0 <= op <= 1.0:
        raise ConfigError(f"outage must be a probability, got {op}")
    return math.inf if op == 1.0 else 1.0 / (1.0 - op)


def resource_efficiency(
    t_c: float, beta_s: int, beta_p: int, bandwidth_units: float, power_units: float
) -> float:
    """Delivered payload pairs per slot, bandwidth unit and power unit; 0
    when the slot cost is infinite."""
    denom = t_c * (beta_s + 2 * beta_p) * bandwidth_units * power_units
    if not (t_c > 0 and denom > 0):
        raise ConfigError("slot cost, slot counts and resource units must be positive")
    return 2.0 / denom


@dataclass(frozen=True)
class ChainSolution:
    """States, stationary occupancies and the derived scalar metrics."""

    states: tuple[ProtocolState, ...]
    stationary: np.ndarray
    overall_op: float
    slot_cost: float
    efficiency: float


def solve_chain(
    outages: dict[int, SourceOutages],
    beta_s: int,
    beta_p: int,
    bandwidth_units: float = 1.0,
    power_units: float = 1.0,
    literal_personal1_wrap: bool = False,
) -> ChainSolution:
    """Stationary law and scalar metrics from the ring law; builds no
    transition matrix."""
    states = protocol_states(beta_s, beta_p)
    pi = ring_distribution(outages, beta_s, beta_p, literal_personal1_wrap)
    op = overall_outage(pi, outages, states)
    tc = slot_cost(op)
    phi = resource_efficiency(tc, beta_s, beta_p, bandwidth_units, power_units)
    return ChainSolution(tuple(states), pi, op, tc, phi)


def chain_to_json(
    solution: ChainSolution, chain: TransitionMatrix, outages: dict[int, SourceOutages]
) -> str:
    """State list, sparse transition triples, occupancies and step outages
    as a JSON document."""
    doc = {
        "states": [s.label for s in chain.states],
        "transitions": chain.triples,
        "stationary": [float(x) for x in solution.stationary],
        "overall_outage": solution.overall_op,
        "slot_cost": None if math.isinf(solution.slot_cost) else solution.slot_cost,
        "efficiency": solution.efficiency,
        "step_outages": labelled(outages),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
