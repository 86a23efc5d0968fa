"""Closed-form per-step outage probabilities.

The relay stage is modelled per cascaded path as a gated exponential: with
probability ``gate_prob`` the relay failed to decode the broadcast and
contributes nothing (a point mass at zero), otherwise its forwarded SNR at
the destination is exponential with the relay-to-destination rate.  The sum
over the random decode set has a defective CDF with one exponential term per
rate.  Its coefficient is the residue of the product of the per-path
transforms at that rate's pole, a product of m factors built from pairwise
pole ratios, so all m of them cost O(m^2): about 0.06 ms whether m is 8, 16
or 20 on a 2-core host.  The same law expanded over the 2^m decode sets is
kept only as a view (``DefectiveCdf.subset_terms``), built when read.

The second-step outage then follows from binning that CDF and the
threshold-conditioned direct-link SNR on a common grid of n bins and summing
the mass of their sum below the threshold.  Binning evaluates the CDF at the
n + 1 bin edges, one ``1 - exp(-rate * gamma)`` per edge and rate: an
(n + 1)-by-m basis (``exp_cdf_basis``).  The rates are those of the
relay-to-destination hops, which both sources share, so ``step_outages``
builds that basis once per call and bins both sources' relay sums from it.
Summing the mass below the threshold is one dot product of the relay mass
with the reversed prefix sums of the direct mass, O(n).  Where the closed
form is undefined (tied rates) or cancels away (more than
``MAX_RELAYS_CLOSED_FORM`` relays) the relay sum is binned by convolving the
per-path masses instead, ``numeric_relay_sum_pmf``, which is still
O(m * n^2), and no basis is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .topology import ConfigError, LinkParam, NetworkTopology, SystemConfig, link_rates

# The coefficients alternate in sign and their absolute sum grows fast with m:
# on 24 relays of the paper's line (source 1, 0 dBm) it is 8.9e12, the binned
# closed form is off by 4.9e2 relative where the convolution is within
# 1.5e-2, and at 10 and 20 dBm its bins total more than 1.
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
    probability) at infinity, as ``sum_x coeff_per_rate[x] * (1 -
    exp(-rates[x] * g))``, O(m) per point.  ``subset_terms`` is a view of the
    same law as one term per nonempty decode set, built only when read.
    """

    rates: np.ndarray
    gate_probs: np.ndarray
    coeff_per_rate: np.ndarray
    total_mass: float

    def __call__(self, gamma) -> np.ndarray | float:
        out = exp_cdf_basis(np.asarray(gamma, dtype=float), self.rates) @ self.coeff_per_rate
        return float(out) if np.isscalar(gamma) else out

    @cached_property
    def subset_terms(self) -> tuple[SubsetTerm, ...]:
        """The expansion as one ``SubsetTerm`` per nonempty subset, in
        ``itertools.combinations`` order (size ascending, then lexicographic).

        The 2^m decode sets are indexed by bitmask (bit x set when relay x
        decoded; row 0 is the empty set) and built by doubling: adding relay y
        copies the sets built so far into those that also hold y, whose
        weights gain the factor 1 - a_y and whose coefficients gain
        theta[:, y]; the sets without y gain a_y.  So every product takes its
        factors in ascending relay order, the same floats as a per-subset
        ``np.prod`` over the members.  O(m * 2^m) time and memory.
        """
        m, a, theta = len(self.rates), self.gate_probs, _pole_ratios(self.rates)
        inside, outside, coeffs = np.empty(1 << m), np.empty(1 << m), np.empty((1 << m, m))
        inside[0] = outside[0] = coeffs[0] = 1.0  # the empty set
        for y in range(m):
            lo, hi = slice(0, 1 << y), slice(1 << y, 2 << y)
            np.multiply(inside[lo], 1.0 - a[y], out=inside[hi])
            outside[hi] = outside[lo]
            outside[lo] *= a[y]
            np.multiply(coeffs[lo], theta[:, y], out=coeffs[hi])
        weights = inside * outside
        terms = []
        for k in range(1, m + 1):
            members = list(itertools.combinations(range(m), k))
            idx = np.array(members)
            masks = (1 << idx).sum(axis=1)
            terms += map(SubsetTerm, members, weights[masks].tolist(), coeffs[masks[:, None], idx])
        return tuple(terms)


def exp_cdf_basis(gammas: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """``1 - exp(-rates[x] * gammas[k])`` at index ``[k, x]``, built in one buffer.

    A relay-sum CDF is this basis times its coefficients, taken as
    ``basis @ coeff_per_rate``: the rows stay points and the columns rates,
    because transposing the product reorders its sums and moves the
    cancellation noise.
    """
    basis = np.multiply.outer(gammas, rates)
    np.negative(basis, out=basis)
    np.expm1(basis, out=basis)
    return np.negative(basis, out=basis)


def _pole_ratios(lam: np.ndarray) -> np.ndarray:
    """``theta[x, y] = lam_y / (lam_y - lam_x)``, with the diagonal exactly 1.0."""
    gap = lam - lam[:, None]
    # x / x is exactly 1.0, so the diagonal leaves a member's own factor as is.
    np.fill_diagonal(gap, lam)
    return lam / gap


def relay_sum_cdf(gates: list[GatedExponential]) -> DefectiveCdf:
    """Closed-form defective CDF of the decoded relays' summed SNR.

    The relay sum has the MGF ``prod_y (a_y + (1 - a_y) lam_y / (lam_y +
    s))``, with a_y the gate probability and lam_y the rate of path y.  Its
    partial fractions give one coefficient per rate, the residue at the
    pole -lam_x: ``c_x = (1 - a_x) * prod_{y != x} (a_y + (1 - a_y) *
    theta[x, y])`` with pole ratios ``theta[x, y] = lam_y / (lam_y -
    lam_x)``.  That is one m-by-m product, O(m^2): about 0.06 ms at m = 8,
    16 or 20 on a 2-core host, against 0.2 ms, 65 ms and 1.6 s for summing
    the same coefficients over the 2^m decode sets.  Only defined where
    ``closed_form_applies``; elsewhere it raises ``ConfigError``.
    """
    if not gates:
        raise ConfigError("at least one relay path is required")
    if not closed_form_applies(gates):
        raise ConfigError(
            f"the subset expansion needs at most {MAX_RELAYS_CLOSED_FORM} relays "
            f"with rates pairwise distinct within {RATE_TIE_RTOL:g}"
        )
    a = np.array([g.gate_prob for g in gates])
    lam = np.array([g.rate for g in gates], dtype=float)
    factors = a + (1.0 - a) * _pole_ratios(lam)
    np.fill_diagonal(factors, 1.0 - a)
    return DefectiveCdf(
        rates=lam,
        gate_probs=a,
        coeff_per_rate=np.prod(factors, axis=1),
        total_mass=float(1.0 - np.prod(a)),
    )


def closed_form_applies(gates: list[GatedExponential]) -> bool:
    """Whether ``relay_sum_cdf`` is defined for these paths: at most
    ``MAX_RELAYS_CLOSED_FORM`` of them, with rates pairwise distinct within
    ``RATE_TIE_RTOL``."""
    if len(gates) > MAX_RELAYS_CLOSED_FORM:
        return False
    s = np.sort([g.rate for g in gates])
    # The truth table of np.isclose(s[1:], s[:-1], rtol=RATE_TIE_RTOL,
    # atol=0.0) on sorted rates, in 12 us where it takes 33 us at m = 8;
    # equality keeps two infinite rates tied, and NaN ties nothing.
    with np.errstate(invalid="ignore"):
        tied = (s[1:] - s[:-1] <= RATE_TIE_RTOL * np.abs(s[:-1])) | (s[1:] == s[:-1])
    return not tied.any()


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


def bin_relay_sum(
    cdf: DefectiveCdf, gamma_th: float, granularity: int, basis: np.ndarray
) -> BinnedPmf:
    """CDF increments of the relay sum over the threshold interval.

    ``basis`` is ``exp_cdf_basis(np.linspace(0, gamma_th, granularity + 1),
    cdf.rates)``, built by the caller so that sources sharing the rates share
    it; a basis whose shape, first or last row shows another grid or other
    rates is refused.  The partial-fraction coefficients alternate in sign,
    so evaluating the CDF carries absolute noise of order eps *
    sum(|coefficients|); increments below that floor are clamped to zero,
    anything more negative is a bug.
    """
    if granularity < 1:
        raise ConfigError("granularity must be at least 1")
    last = exp_cdf_basis(np.array([gamma_th]), cdf.rates)[0]
    if (
        basis.shape != (granularity + 1, len(cdf.rates))
        or basis[0].any()
        or not (np.abs(basis[-1] - last) <= 1e-9 * last).all()
    ):
        raise ConfigError(
            f"the CDF basis must hold {len(cdf.rates)} rates on "
            f"{granularity + 1} edges from 0 to {gamma_th:g}"
        )
    diffs = np.diff(basis @ cdf.coeff_per_rate)
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
    direct: LinkParam, gates: list[GatedExponential], config: SystemConfig,
    basis: np.ndarray | None,
) -> SourceOutages:
    """Broadcast outage, relay-step outage and empty-set probability of one
    source, at a positive threshold and finite SNR.

    ``basis`` is the relay-to-destination CDF basis on the threshold grid
    (see ``bin_relay_sum``), or None where ``closed_form_applies`` does not
    hold (tied rates, or more than ``MAX_RELAYS_CLOSED_FORM`` relays): the
    relay sum is then binned by convolving per-path masses.
    """
    gamma_th, n = config.gamma_th, config.granularity
    bcast = direct_outage(direct, gamma_th)
    empty = float(np.prod([g.gate_prob for g in gates]))
    if empty >= 1.0:
        return SourceOutages(bcast, 1.0, empty)
    if basis is None:
        relay_pmf = numeric_relay_sum_pmf(gates, gamma_th, n)
    else:
        relay_pmf = bin_relay_sum(relay_sum_cdf(gates), gamma_th, n, basis)
    relay = step2_outage(relay_pmf, bin_conditional_direct(direct, gamma_th, n), gates)
    return SourceOutages(bcast, relay, empty)


def step_outages(
    topology: NetworkTopology, config: SystemConfig
) -> dict[int, SourceOutages]:
    """The step outages of sources 1 and 2, keyed by source.

    Both sources' relay sums have the relay-to-destination rates, so whether
    the closed form applies, and its CDF basis on the threshold grid, are
    settled here once for both.  The basis is built only when some relay can
    decode some source's broadcast.
    """
    if math.isinf(config.snr_linear()):
        return {source: SourceOutages(0.0, 0.0, 0.0) for source in (1, 2)}
    links = {source: link_rates(topology, config, source) for source in (1, 2)}
    gamma_th = config.gamma_th
    if gamma_th == 0.0:
        # Zero threshold: every reception succeeds and the relay step never runs.
        return {source: SourceOutages(0.0, 0.0, 0.0) for source in (1, 2)}
    gates = {}
    for source, rates in links.items():
        # decode_fail_probs(topology, config, source), without a second link_rates.
        fails = -np.expm1(-rates.source_relay * gamma_th)
        gates[source] = [GatedExponential(a, r) for a, r in zip(fails, rates.relay_dest)]
    basis = None
    if closed_form_applies(gates[1]) and any(
        g.gate_prob < 1.0 for paths in gates.values() for g in paths
    ):
        basis = exp_cdf_basis(
            np.linspace(0.0, gamma_th, config.granularity + 1), links[1].relay_dest
        )
    return {
        source: source_step_outages(LinkParam(rates.direct), gates[source], config, basis)
        for source, rates in links.items()
    }


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
