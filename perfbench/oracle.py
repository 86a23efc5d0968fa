"""60-digit reference values for what `analyze` and `sweep` print.

Independent of the program: it restates the model from the README and
computes with mpmath.

* Relay-step outage of one source: the direct SNR followed by the decoded
  relays' SNRs is a phase-type law.  Phases are direct, then relays in
  order (relay j is entered with probability (1-a_j) times the product of
  the skipped gates a), and it ends in `absorb` after at least one relay or
  in `empty` when no relay decoded.  P(step fails) =
  [exp(Q gamma)]_{direct,absorb} / ((1 - e^{-lambda_d gamma}) (1 - prod a)).
* Overall outage: the protocol chain built from those outages, solved for
  its stationary law by GTH state reduction (Gaussian elimination without
  subtraction, exact to the working precision).
"""

from __future__ import annotations

import mpmath

from workloads import ALPHA, DEST, NOISE_DBM, RATE_R0, S1, S2, Point, line_relays

DPS = 60
mp = mpmath.mp


def _rates(relays: int, power_dbm: float, source: int):
    """(lambda_direct, decode-fail gates a_j, relay->destination rates), gamma."""
    snr = mpmath.mpf(10) ** ((mpmath.mpf(power_dbm) - mpmath.mpf(NOISE_DBM)) / 10)
    gamma = mpmath.mpf(2) ** mpmath.mpf(RATE_R0) - 1
    src = S1 if source == 1 else S2

    def rate(a, b):
        d = mpmath.sqrt((mpmath.mpf(a[0]) - b[0]) ** 2 + (mpmath.mpf(a[1]) - b[1]) ** 2)
        return d ** mpmath.mpf(ALPHA) / snr

    pos = line_relays(relays)
    gates = [-mpmath.expm1(-rate(src, r) * gamma) for r in pos]
    return rate(src, DEST), gates, [rate(r, DEST) for r in pos], gamma


def relay_step_outage(relays: int, power_dbm: float, source: int):
    """Exact failure probability of one source's relay-forwarding step."""
    with mp.workdps(DPS):
        lam_d, gates, lam, gamma = _rates(relays, power_dbm, source)
        m = len(lam)
        absorb, empty = m + 1, m + 2
        q = mpmath.zeros(m + 3, m + 3)

        def route(frm, out_rate, first):
            # Jump to the next decoded relay at or after `first`; return the
            # probability that every remaining relay is skipped.
            skipped = mpmath.mpf(1)
            for k in range(first, m):
                q[frm, 1 + k] += out_rate * skipped * (1 - gates[k])
                skipped *= gates[k]
            return skipped

        q[0, 0] = -lam_d
        q[0, empty] += lam_d * route(0, lam_d, 0)
        for j in range(m):
            q[1 + j, 1 + j] = -lam[j]
            q[1 + j, absorb] += lam[j] * route(1 + j, lam[j], j + 1)
        p = mpmath.expm(q * gamma)
        return +(p[0, absorb] / (-mpmath.expm1(-lam_d * gamma) * (1 - mpmath.fprod(gates))))


def _stationary(rows: list[dict]) -> list:
    """GTH: stationary law of an irreducible chain given as sparse rows."""
    p = [dict(r) for r in rows]
    n = len(p)
    for k in range(n - 1, 0, -1):
        s = mpmath.fsum(v for j, v in p[k].items() if j < k)
        lower = [(j, v) for j, v in p[k].items() if j < k]
        for i in range(k):
            if k not in p[i]:
                continue
            f = p[i][k] / s
            p[i][k] = f
            for j, v in lower:
                p[i][j] = p[i].get(j, 0) + f * v
    pi = [mpmath.mpf(1)]
    for j in range(1, n):
        pi.append(mpmath.fsum(pi[i] * p[i][j] for i in range(j) if j in p[i]))
    total = mpmath.fsum(pi)
    return [x / total for x in pi]


class Reference:
    """Reference values per operating point, computed once and cached."""

    def __init__(self):
        self._steps: dict = {}
        self._overall: dict = {}

    def steps(self, relays: int, power_dbm: float) -> dict:
        """Per source: (broadcast outage, relay-step outage, empty-set probability)."""
        key = (relays, power_dbm)
        if key not in self._steps:
            out = {}
            with mp.workdps(DPS):
                for source in (1, 2):
                    lam_d, gates, _, gamma = _rates(relays, power_dbm, source)
                    out[source] = (-mpmath.expm1(-lam_d * gamma),
                                   relay_step_outage(relays, power_dbm, source),
                                   mpmath.fprod(gates))
            self._steps[key] = out
        return self._steps[key]

    def overall_op(self, point: Point):
        """Occupancy-weighted outage of the protocol chain at `point`."""
        key = (point.relays, point.power_dbm, point.beta_s, point.beta_p)
        if key not in self._overall:
            steps = self.steps(point.relays, point.power_dbm)
            plan = [(1, point.beta_s), (1, point.beta_p), (2, point.beta_p)]
            plan = [(src, reps) for src, reps in plan if reps > 0]
            # States: (bcast, relay) per repetition, phase after phase, in a ring.
            n = 2 * sum(reps for _, reps in plan)
            with mp.workdps(DPS):
                rows, outage = [], []
                for src, reps in plan:
                    op_b, op_r, empty = steps[src]
                    for _ in range(reps):
                        b = len(rows)
                        nxt = (b + 2) % n
                        rows.append({b: op_b * empty, b + 1: op_b * (1 - empty)})
                        rows[b][nxt] = rows[b].get(nxt, 0) + (1 - op_b)
                        rows.append({b: op_r})
                        rows[b + 1][nxt] = rows[b + 1].get(nxt, 0) + (1 - op_r)
                        outage += [op_b, op_r]
                pi = _stationary(rows)
                self._overall[key] = mpmath.fsum(x * o for x, o in zip(pi, outage))
        return self._overall[key]

    def prepare(self, points) -> None:
        for point in points:
            self.overall_op(point)


def rel_err(printed: float, ref) -> float:
    with mp.workdps(DPS):
        return float(abs(mpmath.mpf(printed) - ref) / ref)
