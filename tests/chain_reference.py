"""Independent per-state checks on the protocol chain, for the tests.

`markov` computes the chain's metrics from per-phase renewal sums and its
stationary vector from the ring law.  These helpers take the long way
round: a dense transition matrix, a direct Grassmann-Taksar-Heyman solve
over it, and the occupancy-weighted average of the per-state outages.
"""

from __future__ import annotations

import numpy as np

from mdma_relay.analytic import SourceOutages
from mdma_relay.markov import PHASE_SOURCE, TransitionMatrix


def dense(chain: TransitionMatrix) -> np.ndarray:
    """The n x n transition matrix of the chain's sparse triples."""
    t = np.zeros((len(chain.states), len(chain.states)))
    for i, j, p in chain.triples:
        t[i, j] += p
    return t


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
    t = dense(chain)
    reached = np.zeros(len(chain.states), dtype=bool)
    reached[0] = True
    while True:
        grown = reached | (t[reached] > 0).any(axis=0)
        if (grown == reached).all():
            break
        reached = grown
    kept = np.flatnonzero(reached)
    p = t[np.ix_(kept, kept)]
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


def overall_outage(pi: np.ndarray, outages: dict[int, SourceOutages], labels) -> float:
    """Occupancy-weighted average of the per-state outage probabilities, the
    per-state check on ``solve_chain``'s renewal sums.

    Each "phase:kind:rep" label names the step outage of its state.  An
    outage above one half is formed as one minus the weighted success mass,
    as ``solve_chain`` forms it.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (len(labels),):
        raise ValueError("pi must align with the state list")
    ops = []
    for label in labels:
        phase, kind, _ = label.split(":")
        ops.append(getattr(outages[PHASE_SOURCE[phase]], kind))
    fail = float(sum(p * op for p, op in zip(pi, ops)))
    if fail < 0.5:
        return fail
    return 1.0 - float(sum(p * (1.0 - op) for p, op in zip(pi, ops)))
