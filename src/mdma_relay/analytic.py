"""Closed-form per-step outage probabilities.

The relay stage is modelled per cascaded path as a gated exponential: with
probability ``gate_prob`` the relay failed to decode the broadcast and
contributes nothing (a point mass at zero), otherwise its forwarded SNR at
the destination is exponential with the relay-to-destination rate.  The sum
over the random decode set has a defective CDF obtained by expanding the
product of the per-path transforms over nonempty relay subsets; each subset
contributes a distinct-rate exponential-sum CDF whose coefficients are
products of pairwise pole ratios.  The expansion indexes the subsets by
bitmask and builds them by doubling, one relay at a time, so every product
is the float a per-subset loop over ascending members gives; each rate's
coefficient is then the exactly rounded sum (``math.fsum``) of its terms.
It costs O(m * 2^m): about 0.15 ms at m = 8 and 40 ms at m = 16.

The second-step outage then follows from binning that CDF and the
threshold-conditioned direct-link SNR on a common grid and summing the mass
of their sum below the threshold.  That is one dot product of the relay mass
with the reversed prefix sums of the direct mass, O(n) in the bin count n.
Where the expansion is undefined (tied rates) or too large (more than
``MAX_RELAYS_CLOSED_FORM`` relays) the relay sum is binned by convolving the
per-path masses instead, ``numeric_relay_sum_pmf``, which is still
O(m * n^2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .topology import ConfigError, LinkParam, NetworkTopology, SystemConfig, link_rates

MAX_RELAYS_CLOSED_FORM = 20
RATE_TIE_RTOL = 1e-9


class ConditioningError(ValueError):
    """A conditional quantity is undefined for these inputs."""


@dataclass(frozen=True)
class GatedExponential:
    """Point mass ``gate_prob`` at zero plus an exponential tail."""

    gate_prob: float
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.gate_prob <= 1.0:
            raise ConfigError(f"gate_prob must lie in [0, 1], got {self.gate_prob}")
        if not self.rate > 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")


def direct_outage(link: LinkParam, gamma_th: float) -> float:
    """Probability the link SNR falls below the threshold: 1 - exp(-rate*g)."""
    if gamma_th < 0:
        raise ConfigError(f"gamma_th must be nonnegative, got {gamma_th}")
    return -math.expm1(-link.rate_lambda * gamma_th)


def decode_fail_probs(
    topology: NetworkTopology, config: SystemConfig, source: int
) -> np.ndarray:
    """Per-relay probability of failing to decode the source broadcast."""
    rates = link_rates(topology, config, source)
    return -np.expm1(-rates.source_relay * config.gamma_th)


@dataclass(frozen=True)
class SubsetTerm:
    """One nonempty decode set: its probability and exponential-CDF mixture."""

    members: tuple[int, ...]
    weight: float
    coeffs: np.ndarray  # aligned with members; CDF term sum_k coeffs[k]*(1-exp(-rate_k*g))


@dataclass(frozen=True)
class DefectiveCdf:
    """CDF of the relay-sum SNR restricted to a nonempty decode set.

    Evaluates to 0 at 0 and to ``total_mass`` (one minus the all-gates-closed
    probability) at infinity.  ``coeff_per_rate`` aggregates every subset term
    so evaluation is O(m).  The per-subset expansion is kept as arrays indexed
    by decode set as a bitmask (bit x set when relay x decoded; row 0 is the
    empty set): ``weights`` (the set's probability) and ``coeffs`` (the
    pole-ratio coefficient of each member; entries of non-members carry no
    meaning).  ``subset_terms`` presents the nonempty sets as ``SubsetTerm``s.
    """

    rates: np.ndarray
    gate_probs: np.ndarray
    coeff_per_rate: np.ndarray
    total_mass: float
    weights: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    def __call__(self, gamma) -> np.ndarray | float:
        g = np.asarray(gamma, dtype=float)
        out = -np.expm1(-np.multiply.outer(g, self.rates)) @ self.coeff_per_rate
        return float(out) if np.isscalar(gamma) else out

    @cached_property
    def subset_terms(self) -> tuple[SubsetTerm, ...]:
        """The expansion as one ``SubsetTerm`` per nonempty subset, in
        ``itertools.combinations`` order (size ascending, then lexicographic),
        built when first read."""
        m = len(self.rates)
        terms = []
        for k in range(1, m + 1):
            members = list(itertools.combinations(range(m), k))
            idx = np.array(members)
            masks = (1 << idx).sum(axis=1)
            coeffs = self.coeffs[masks[:, None], idx]
            terms += map(SubsetTerm, members, self.weights[masks].tolist(), coeffs)
        return tuple(terms)


def relay_sum_cdf(gates: list[GatedExponential]) -> DefectiveCdf:
    """Closed-form defective CDF of the decoded relays' summed SNR.

    Expands over every nonempty relay subset at once; a subset's CDF is the
    distinct-rate exponential-sum mixture with pairwise pole ratios
    ``theta[x, y] = rate_y / (rate_y - rate_x)`` as coefficients.  Only
    defined where ``closed_form_applies``; elsewhere it raises ``ConfigError``.

    The subsets are built by doubling: adding relay y copies the sets built so
    far into those that also hold y, whose weights gain the factor 1 - a_y
    and whose coefficients gain theta[:, y]; the sets without y gain a_y.  So
    every product takes its factors in ascending relay order, the same floats
    as a per-subset ``np.prod`` over the members.  Each rate's coefficient is
    the exactly rounded sum (``math.fsum``) of its members' terms.  Cost
    O(m * 2^m): about 0.15 ms at m = 8, 40 ms at m = 16 and 1.2 s at m = 20.
    """
    if not gates:
        raise ConfigError("at least one relay path is required")
    if not closed_form_applies(gates):
        raise ConfigError(
            f"the subset expansion needs at most {MAX_RELAYS_CLOSED_FORM} relays "
            f"with rates pairwise distinct within {RATE_TIE_RTOL:g}"
        )
    m = len(gates)
    a = np.array([g.gate_prob for g in gates])
    lam = np.array([g.rate for g in gates], dtype=float)
    gap = lam - lam[:, None]
    # x / x is exactly 1.0, so the diagonal leaves a member's own factor as is.
    np.fill_diagonal(gap, lam)
    theta = lam / gap

    inside, outside, coeffs = np.empty(1 << m), np.empty(1 << m), np.empty((1 << m, m))
    inside[0] = outside[0] = coeffs[0] = 1.0  # the empty set
    for y in range(m):
        lo, hi = slice(0, 1 << y), slice(1 << y, 2 << y)
        np.multiply(inside[lo], 1.0 - a[y], out=inside[hi])
        outside[hi] = outside[lo]
        outside[lo] *= a[y]
        np.multiply(coeffs[lo], theta[:, y], out=coeffs[hi])
    weights = inside * outside

    # The subsets holding relay x are the odd blocks of 2^x consecutive masks.
    held = ((weights * coeffs[:, x]).reshape(-1, 2, 1 << x)[:, 1] for x in range(m))
    coeff_per_rate = np.array([math.fsum(t.ravel().tolist()) for t in held])
    total_mass = float(1.0 - np.prod(a))
    return DefectiveCdf(
        rates=lam,
        gate_probs=a,
        coeff_per_rate=coeff_per_rate,
        total_mass=total_mass,
        weights=weights,
        coeffs=coeffs,
    )


def closed_form_applies(gates: list[GatedExponential]) -> bool:
    """Whether ``relay_sum_cdf`` is defined for these paths: at most
    ``MAX_RELAYS_CLOSED_FORM`` of them, with rates pairwise distinct within
    ``RATE_TIE_RTOL``."""
    if len(gates) > MAX_RELAYS_CLOSED_FORM:
        return False
    s = np.sort([g.rate for g in gates])
    return not np.isclose(s[1:], s[:-1], rtol=RATE_TIE_RTOL, atol=0.0).any()


@dataclass(frozen=True)
class BinnedPmf:
    """Probabilities of equal SNR bins of width gamma_th/granularity.

    Bin j (1-based) covers ((j-1)*gamma_th/n, j*gamma_th/n].  Entries are
    nonnegative and total at most 1; conditioned or defective distributions
    are expected.
    """

    probs: np.ndarray
    gamma_th: float
    granularity: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if (p < -1e-15).any():
            raise ConfigError("bin probabilities must be nonnegative")
        if p.sum() > 1.0 + 1e-9:
            raise ConfigError("bin probabilities must total at most 1")
        object.__setattr__(self, "probs", np.maximum(p, 0.0))

    @property
    def total(self) -> float:
        return float(self.probs.sum())


def bin_relay_sum(cdf: DefectiveCdf, gamma_th: float, granularity: int) -> BinnedPmf:
    """CDF increments of the relay sum over the threshold interval.

    The partial-fraction coefficients alternate in sign, so evaluating the
    CDF carries absolute noise of order eps * sum(|coefficients|); increments
    below that floor are clamped to zero, anything more negative is a bug.
    """
    if granularity < 1:
        raise ConfigError("granularity must be at least 1")
    edges = cdf(np.linspace(0.0, gamma_th, granularity + 1))
    diffs = np.diff(edges)
    noise = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(cdf.coeff_per_rate).sum()))
    if (diffs < -noise).any():
        raise ConfigError(
            f"relay-sum CDF decreased by more than the noise floor {noise:.3e}"
        )
    return BinnedPmf(np.maximum(diffs, 0.0), gamma_th, granularity)


def bin_conditional_direct(
    link: LinkParam, gamma_th: float, granularity: int
) -> BinnedPmf:
    """Mass function of the direct SNR conditioned below the threshold."""
    if granularity < 1:
        raise ConfigError("granularity must be at least 1")
    if gamma_th <= 0:
        raise ConditioningError(
            "conditioning on SNR below a zero threshold is undefined"
        )
    # Factored form keeps full precision when rate*gamma_th is tiny.
    lam = link.rate_lambda
    width = gamma_th / granularity
    lower = np.exp(-lam * width * np.arange(granularity))
    seg = -math.expm1(-lam * width)
    denom = -math.expm1(-lam * gamma_th)
    return BinnedPmf(lower * (seg / denom), gamma_th, granularity)


def step2_outage(relay_pmf: BinnedPmf, direct_pmf: BinnedPmf, gates) -> float:
    """Failure probability of the relay-forwarding step.

    Sums the mass of the relay-sum plus conditioned-direct SNR over output
    bins 1..n, as one O(n) dot product of the relay mass with the reversed
    prefix sums of the direct mass, then renormalizes by the
    nonempty-decode-set probability.  Summing raw index pairs up to n
    undercounts the boundary band, a documented O(1/n) bias of this
    estimator.
    """
    if relay_pmf.granularity != direct_pmf.granularity or not math.isclose(
        relay_pmf.gamma_th, direct_pmf.gamma_th
    ):
        raise ConfigError("both mass functions must share gamma_th and granularity")
    gate_probs = np.asarray([g.gate_prob for g in gates], dtype=float)
    empty_prob = float(np.prod(gate_probs))
    if empty_prob >= 1.0:
        raise ConditioningError(
            "no relay can ever decode; the relay step is unreachable"
        )
    n = relay_pmf.granularity
    # Raw index pair (i, j) holds bin-index sum i+j+2, so output bins 1..n are
    # the pairs with i + j <= n - 2: relay bin i meets direct bins 0..n-2-i.
    below = (
        float(relay_pmf.probs[: n - 1] @ np.cumsum(direct_pmf.probs)[n - 2 :: -1])
        if n >= 2
        else 0.0
    )
    return min(max(below / (1.0 - empty_prob), 0.0), 1.0)


@dataclass(frozen=True)
class SourceOutages:
    """Step outages of one source's transmissions.

    ``bcast`` is the outage of the source broadcast at the destination,
    ``relay`` the outage of the relay-forwarding step, and ``empty`` the
    probability that no relay decoded the broadcast.
    """

    bcast: float
    relay: float
    empty: float

    def __post_init__(self):
        for name in ("bcast", "relay", "empty"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {v}")


def source_step_outages(
    topology: NetworkTopology, config: SystemConfig, source: int
) -> SourceOutages:
    """Broadcast outage, relay-step outage and empty-set probability of one source.

    The relay sum is binned from the closed form where it is defined and by
    convolving per-path masses otherwise (tied rates, or more than
    ``MAX_RELAYS_CLOSED_FORM`` relays).
    """
    if math.isinf(config.snr_linear()):
        return SourceOutages(0.0, 0.0, 0.0)
    rates = link_rates(topology, config, source)
    gamma_th = config.gamma_th
    fails = decode_fail_probs(topology, config, source)
    bcast = direct_outage(LinkParam(rates.direct), gamma_th)
    gates = [GatedExponential(a, r) for a, r in zip(fails, rates.relay_dest)]
    empty = float(np.prod(fails))
    if gamma_th == 0.0:
        # Zero threshold: every reception succeeds and the relay step never runs.
        return SourceOutages(0.0, 0.0, 0.0)
    if empty >= 1.0:
        return SourceOutages(bcast, 1.0, empty)
    if closed_form_applies(gates):
        relay_pmf = bin_relay_sum(relay_sum_cdf(gates), gamma_th, config.granularity)
    else:
        relay_pmf = numeric_relay_sum_pmf(gates, gamma_th, config.granularity)
    direct_pmf = bin_conditional_direct(
        LinkParam(rates.direct), gamma_th, config.granularity
    )
    relay = step2_outage(relay_pmf, direct_pmf, gates)
    return SourceOutages(bcast, relay, empty)


def step_outages(
    topology: NetworkTopology, config: SystemConfig
) -> dict[int, SourceOutages]:
    """The step outages of sources 1 and 2, keyed by source."""
    return {source: source_step_outages(topology, config, source) for source in (1, 2)}


# ---------------------------------------------------------------------------
# Numeric convolution: the relay sum where the closed form is undefined, and
# the oracle for the closed form.
# ---------------------------------------------------------------------------

def numeric_relay_sum_cdf(
    gates: list[GatedExponential], gammas, bins: int = 1 << 15
) -> np.ndarray:
    """Relay-sum CDF by grid-point-binned convolution of the gated paths.

    Independent of the subset expansion, and defined for tied rates; the
    cross-check oracle for the closed form.  Continuous mass is snapped to
    grid points k*h (nearest-point binning) so convolution index arithmetic
    is exact; the CDF is then known at half-grid points with O(h**2) error
    and interpolated for arbitrary queries.
    """
    gammas = np.asarray(gammas, dtype=float)
    gmax = float(gammas.max()) if gammas.size else 1.0
    if gmax <= 0:
        gmax = 1.0
    h = gmax / bins
    cuts = (np.arange(bins + 1) - 0.5) * h
    cuts[0] = 0.0
    atom = 1.0
    total = np.zeros(bins)
    for g in gates:
        surv = np.exp(-g.rate * cuts)
        part = (1.0 - g.gate_prob) * (surv[:-1] - surv[1:])
        conv = np.convolve(total, part)[:bins]
        total = conv + atom * part + g.gate_prob * total
        atom *= g.gate_prob
    cum = np.cumsum(total)
    half = (np.arange(bins) + 0.5) * h
    return np.interp(gammas, half, cum, left=0.0, right=float(cum[-1]))


def numeric_relay_sum_pmf(
    gates: list[GatedExponential], gamma_th: float, granularity: int
) -> BinnedPmf:
    """Relay-sum bin masses built by convolving per-path bin masses.

    Each gated path is binned on the threshold grid exactly as the closed
    form is, then the binned masses are convolved (raw convolution indices,
    matching the relay-step estimator's convention); mirrors inverting the
    product transform numerically with O(1/granularity) displacement error.
    """
    n = granularity
    edges = np.linspace(0.0, gamma_th, n + 1)
    acc = np.zeros(n)
    atom = 1.0
    for g in gates:
        seg = (1.0 - g.gate_prob) * (
            np.exp(-g.rate * edges[:-1]) - np.exp(-g.rate * edges[1:])
        )
        shifted = np.concatenate(([0.0], np.convolve(acc, seg)))[:n]
        acc = shifted + atom * seg + g.gate_prob * acc
        atom *= g.gate_prob
    return BinnedPmf(acc, gamma_th, n)
