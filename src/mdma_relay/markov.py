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
from typing import NamedTuple

import numpy as np

from .analytic import SourceOutages
from .topology import ConfigError

ROW_SUM_TOL = 1e-12
# The state list and the ring law grow linearly in the state count; at this
# cap `analyze` already needs about 200 MB, and a payload of 1e308 bits would
# run until memory is exhausted.
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
    states = []
    for phase, reps in phase_plan(beta_s, beta_p):
        for j in range(1, reps + 1):
            states.append(ProtocolState(phase, 1, j))
            states.append(ProtocolState(phase, 2, j))
    return states


@dataclass(frozen=True)
class TransitionMatrix:
    states: tuple[ProtocolState, ...]
    matrix: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.matrix, dtype=float)
        if t.shape != (len(self.states), len(self.states)):
            raise ConfigError("matrix shape must match the state count")
        if (t < 0).any() or (t > 1).any():
            raise ConfigError("transition probabilities must lie in [0, 1]")
        rows = t.sum(axis=1)
        if not np.allclose(rows, 1.0, rtol=0.0, atol=ROW_SUM_TOL):
            raise ConfigError(f"rows must sum to 1 within {ROW_SUM_TOL:g}")

    @property
    def size(self) -> int:
        return len(self.states)

    def sparse_triples(self) -> list[tuple[int, int, float]]:
        rows, cols = np.nonzero(self.matrix)
        return [(int(i), int(j), float(self.matrix[i, j])) for i, j in zip(rows, cols)]


def labelled(outages: dict[int, SourceOutages]) -> dict[str, float]:
    """The six step outages keyed "phase:bcast" / "phase:relay"; each phase
    takes its source's record."""
    return {
        f"{phase}:{kind}": getattr(outages[PHASE_SOURCE[phase]], kind)
        for phase in PHASE_ORDER
        for kind in STEP_KINDS
    }


def build_chain(
    outages: dict[int, SourceOutages],
    beta_s: int,
    beta_p: int,
    literal_personal1_wrap: bool = False,
) -> TransitionMatrix:
    """Transition matrix of the slotted protocol, from the step outages
    keyed by source.

    From a broadcast state: self-loop with probability (broadcast outage) *
    (all-relays-miss), move to the relay step with (broadcast outage) *
    (some relay decoded), and advance with (1 - broadcast outage).  From a
    relay state: fall back to the same repetition's broadcast on failure,
    advance on success.  Advancing out of a phase's last repetition enters
    the next phase's first broadcast state, wrapping to the start of the
    cycle after the second personalized phase.

    ``literal_personal1_wrap`` redirects the advance out of the first
    personalized phase's last repetition back to that phase's own first
    state, reproducing a transition-table variant in which the second
    source's phase is unreachable.
    """
    plan = phase_plan(beta_s, beta_p)
    states = protocol_states(beta_s, beta_p)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    t = np.zeros((n, n))

    first_state = {phase: ProtocolState(phase, 1, 1) for phase, _ in plan}
    next_phase = {}
    for k, (phase, _) in enumerate(plan):
        successor = plan[(k + 1) % len(plan)][0]
        next_phase[phase] = successor

    for phase, reps in plan:
        src = outages[PHASE_SOURCE[phase]]
        op_b, op_r, empty = src.bcast, src.relay, src.empty
        for j in range(1, reps + 1):
            bcast = index[ProtocolState(phase, 1, j)]
            relay = index[ProtocolState(phase, 2, j)]
            if j < reps:
                advance = index[ProtocolState(phase, 1, j + 1)]
            elif literal_personal1_wrap and phase == "personal1":
                advance = index[first_state["personal1"]]
            else:
                advance = index[first_state[next_phase[phase]]]
            t[bcast, bcast] += op_b * empty
            t[bcast, relay] += op_b * (1.0 - empty)
            t[bcast, advance] += 1.0 - op_b
            t[relay, bcast] += op_r
            t[relay, advance] += 1.0 - op_r
    return TransitionMatrix(tuple(states), t)


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
    op_b (1 - e)/q times.  Under ``literal_personal1_wrap`` the first
    personalized phase is a closed ring of its own and holds all the mass.

    A phase that never advances (q = 0: every attempt fails) keeps the
    chain in its first repetition once entered, so the first such phase
    the cycle reaches from its start holds all the mass, on its first
    repetition, in the ratio 1 : op_b (1 - e) between the two states.
    """
    plan = phase_plan(beta_s, beta_p)
    trapped = literal_personal1_wrap and beta_p > 0
    pi = np.zeros(2 * sum(reps for _, reps in plan))
    base, reached = 0, True
    for phase, reps in plan:
        src = outages[PHASE_SOURCE[phase]]
        op_b, op_r, empty = src.bcast, src.relay, src.empty
        q = (1.0 - op_b) + op_b * (1.0 - empty) * (1.0 - op_r)
        visits = np.array([1.0, op_b * (1.0 - empty)])
        if q <= 0.0 and reached:
            pi[:] = 0.0
            pi[base : base + 2] = visits
            break
        if not trapped or phase == "personal1":
            pi[base : base + 2 * reps] = np.tile(visits / q, reps)
        # Under the literal wrap the cycle never gets past personal1.
        reached = reached and not (trapped and phase == "personal1")
        base += 2 * reps
    return pi / pi.sum()


def stationary_distribution(chain: TransitionMatrix) -> np.ndarray:
    """Stationary row vector, started from the first state, with pi @ T == pi
    and sum(pi) == 1.

    Only the states reachable from the first one take part: a phase that
    never advances makes each of its repetitions a closed class, and the
    chain stays in the first one it reaches.  Grassmann-Taksar-Heyman
    elimination then censors states out from the last one down, using only
    sums of nonnegative terms, so every entry keeps its relative accuracy
    even on nearly absorbing chains.  A state that can no longer reach any
    earlier one is absorbing in the censored chain, so the earlier states
    are transient and get no mass (the ``literal_personal1_wrap`` variant).
    It is the independent check on ``ring_distribution``.
    """
    reached = np.zeros(chain.size, dtype=bool)
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
    full = np.zeros(chain.size)
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
        "transitions": chain.sparse_triples(),
        "stationary": [float(x) for x in solution.stationary],
        "overall_outage": solution.overall_op,
        "slot_cost": None if math.isinf(solution.slot_cost) else solution.slot_cost,
        "efficiency": solution.efficiency,
        "step_outages": labelled(outages),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
