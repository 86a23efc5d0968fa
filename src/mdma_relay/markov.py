"""Protocol state machine as a finite Markov chain, and its metrics.

One state per (phase, step, repetition), labelled "phase:kind:rep", and one
transition per time slot, including the broadcast self-loop taken when the
destination and every relay miss.  The overall outage, slot cost and
efficiency come from renewal-reward sums over the phases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .analytic import SourceOutages
from .topology import ConfigError, fits_float

ROW_SUM_TOL = 1e-12
# Bounds the code that builds one entry per state (`refuse_past_cap`).  At
# 300 000 states `dump-chain` takes 7.6 s and 535 MB (peak RSS, 2-core host),
# so at this cap it needs about 1.8 GB; a payload of 1e308 bits would exhaust
# memory.
MAX_CHAIN_STATES = 1_000_000

# Protocol cycle, in order, with the source that sends each phase: shared
# broadcast by source 1, personalized payload of source 1, personalized
# payload of source 2, then new information.
PHASE_SOURCE = {"shared": 1, "personal1": 1, "personal2": 2}
STEP_KINDS = ("bcast", "relay")  # step 1 and step 2, as SourceOutages names them


class Phase(NamedTuple):
    """One phase of a protocol cycle: sent by `source`, `reps` repetitions long."""

    name: str
    source: int
    reps: int


def state_label(phase: str, step: int, rep: int) -> str:
    """The "phase:kind:rep" label of a state; step 1 broadcasts, step 2 relays."""
    return f"{phase}:{STEP_KINDS[step - 1]}:{rep}"


def phase_plan(beta_s: int, beta_p: int) -> list[Phase]:
    """The MDMA cycle's nonempty phases, in protocol order."""
    if beta_s < 0 or beta_p < 0:
        raise ConfigError("repetition counts must be nonnegative")
    if beta_s + beta_p == 0:
        raise ConfigError("at least one phase must be nonempty")
    reps = {"shared": beta_s, "personal1": beta_p, "personal2": beta_p}
    return [Phase(name, source, reps[name]) for name, source in PHASE_SOURCE.items() if reps[name] > 0]


def refuse_past_cap(*bands: list[Phase]) -> None:
    """Refuse, for code that lists the states, bands of more than
    MAX_CHAIN_STATES states in all: a broadcast and a relay state per slot."""
    states = 2 * sum(reps for plan in bands for _, _, reps in plan)
    if states > MAX_CHAIN_STATES:
        raise ConfigError(f"the protocol chain would have {Decimal(states):.7g} states, "
                          f"more than the {MAX_CHAIN_STATES} supported")


def capped_plan(beta_s: int, beta_p: int) -> list[Phase]:
    """`phase_plan`, refused past MAX_CHAIN_STATES states."""
    plan = phase_plan(beta_s, beta_p)
    refuse_past_cap(plan)
    return plan


@dataclass(frozen=True)
class TransitionMatrix:
    """State labels, and the nonzero transitions as (row, column, probability) triples."""

    states: tuple[str, ...]
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


def labelled(outages: dict[int, SourceOutages]) -> dict[str, float]:
    """The six step outages keyed "phase:bcast" / "phase:relay"; each phase
    takes its source's record."""
    return {
        f"{phase}:{kind}": getattr(outages[source], kind)
        for phase, source in PHASE_SOURCE.items()
        for kind in STEP_KINDS
    }


def _phases(
    outages: dict[int, SourceOutages], plan: list[Phase], literal_personal1_wrap: bool
) -> list[tuple[str, SourceOutages, int, int, int, float]]:
    """The ring's phases in order as (name, source's outages, first repetition
    over the ring, repetitions, position of the phase it advances into, q),
    q being the chance that a broadcast visit leads to an advance.  Each
    advances into the next and the last wraps to the first, but
    ``literal_personal1_wrap`` sends the first personalized phase back into
    itself (a variant in which the second source's phase is unreachable)."""
    phases, first = [], 0
    for k, (name, source, reps) in enumerate(plan):
        into = k if literal_personal1_wrap and name == "personal1" else (k + 1) % len(plan)
        src = outages[source]
        q = (1.0 - src.bcast) + src.bcast * (1.0 - src.empty) * (1.0 - src.relay)
        phases.append((name, src, first, reps, into, q))
        first += reps
    return phases


def _held(phases: list[tuple]) -> tuple[list[tuple], bool]:
    """The phases that hold the chain's mass, and whether that is a phase
    that never advances (q = 0), which holds it on its first repetition.
    The chain starts in the first phase and follows the phases it advances
    into until one never advances or the path closes a cycle."""
    path, k = [], 0
    while k not in path:
        if phases[k][5] <= 0.0:
            return [phases[k]], True
        path.append(k)
        k = phases[k][4]
    return [phases[i] for i in path[path.index(k):]], False


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
    """State labels and sparse transitions of the slotted protocol, from the
    step outages keyed by source, in O(states).

    States run phase-major with (bcast, relay) interleaved per repetition.
    From a broadcast state: self-loop with probability (broadcast outage) *
    (all-relays-miss), move to the relay step with (broadcast outage) *
    (some relay decoded), and advance with (1 - broadcast outage).  From a
    relay state: fall back to the same repetition's broadcast on failure,
    advance on success.  Advancing out of a phase's last repetition enters
    the first broadcast state of the phase it advances into (`_phases`).
    """
    phases = _phases(outages, capped_plan(beta_s, beta_p), literal_personal1_wrap)
    labels, triples = [], []
    for name, src, first, reps, into, _ in phases:
        op_b, op_r, empty = src.bcast, src.relay, src.empty
        for j in range(first, first + reps):
            bcast, relay = 2 * j, 2 * j + 1
            advance = 2 * (j + 1 if j + 1 < first + reps else phases[into][2])
            labels += [state_label(name, step, j - first + 1) for step in (1, 2)]
            triples += _row(bcast, [(bcast, op_b * empty), (relay, op_b * (1.0 - empty)),
                                    (advance, 1.0 - op_b)])
            triples += _row(relay, [(bcast, op_r), (advance, 1.0 - op_r)])
    return TransitionMatrix(tuple(labels), tuple(triples))


def ring_distribution(
    outages: dict[int, SourceOutages],
    beta_s: int,
    beta_p: int,
    literal_personal1_wrap: bool = False,
) -> np.ndarray:
    """Stationary vector over `build_chain`'s states, in closed form.

    Each (broadcast, relay) pair is entered once per cycle at its broadcast
    state and left only by advancing, so per cycle the broadcast state is
    visited 1/q times and the relay state op_b (1 - e)/q times; a phase that
    never advances holds the mass 1 : op_b (1 - e) on its first repetition.
    """
    held, stuck = _held(_phases(outages, capped_plan(beta_s, beta_p), literal_personal1_wrap))
    pi = np.zeros(2 * (beta_s + 2 * beta_p))
    for _, src, first, reps, _, q in held:
        visits = np.array([1.0, src.bcast * (1.0 - src.empty)])
        if stuck:
            pi[2 * first : 2 * first + 2] = visits
        else:
            pi[2 * first : 2 * (first + reps)] = np.tile(visits / q, reps)
    return pi / pi.sum()


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
    when the slot cost is infinite or the cycle's slot count is past the
    float range."""
    slots = beta_s + 2 * beta_p
    denom = t_c * (slots if fits_float(slots) else math.inf) * bandwidth_units * power_units
    if not (t_c > 0 and denom > 0):
        raise ConfigError("slot cost, slot counts and resource units must be positive")
    return 2.0 / denom


@dataclass(frozen=True)
class ChainSolution:
    """The chain's scalar metrics."""

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
    """Overall outage, slot cost and efficiency from per-phase renewal sums,
    in O(phases); builds nothing per state.

    Each repetition is a renewal cycle that ends in one success: it lasts
    (1 + op_b (1 - e))/q slots on average and fails in op_b (1 + (1 - e) op_r)/q
    of them.  Weighting each phase by its share of the repetitions keeps the
    sums finite; OP is fails/slots, or 1 - 1/slots from one half up, which
    never exceeds 1 and is exactly 1 where the success share is below half an ulp.
    """
    held, stuck = _held(_phases(outages, phase_plan(beta_s, beta_p), literal_personal1_wrap))
    op = 1.0
    if not stuck:
        total = sum(phase[3] for phase in held)
        slots = fails = 0.0
        for _, src, _, reps, _, q in held:
            share = reps / total / q
            slots += share * (1.0 + src.bcast * (1.0 - src.empty))
            fails += share * src.bcast * (1.0 + (1.0 - src.empty) * src.relay)
        op = fails / slots if fails / slots < 0.5 else 1.0 - 1.0 / slots
    tc = slot_cost(op)
    phi = resource_efficiency(tc, beta_s, beta_p, bandwidth_units, power_units)
    return ChainSolution(op, tc, phi)


def chain_to_json(solution: ChainSolution, chain: TransitionMatrix, stationary: np.ndarray,
                  outages: dict[int, SourceOutages]) -> str:
    """State list, sparse transition triples, stationary occupancies, scalar
    metrics and step outages as a JSON document."""
    doc = {
        "states": list(chain.states),
        "transitions": chain.triples,
        "stationary": [float(x) for x in stationary],
        "overall_outage": solution.overall_op,
        "slot_cost": None if math.isinf(solution.slot_cost) else solution.slot_cost,
        "efficiency": solution.efficiency,
        "step_outages": labelled(outages),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
