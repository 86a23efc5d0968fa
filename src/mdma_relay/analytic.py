"""Closed-form per-step outage probabilities.

A source's relays are gated exponential paths, held as one array pair
(``GatedPaths``): relay x failed to decode the broadcast with probability
``gate_probs[x]`` and then contributes nothing, otherwise its SNR at the
destination is exponential with rate ``rates[x]``.  The relays' summed SNR
has a defective CDF with one exponential term per rate, whose coefficient is
the residue of the product of the per-path transforms at that rate's pole:
all m cost O(m^2).  The same law over the 2^m decode sets is a view
(``DefectiveCdf.subset_terms``), built only when read.

The relay-step outage bins that CDF and the threshold-conditioned direct
SNR on n bins, one basis of at most ``_BASIS_ROWS`` edges shared by both
sources, and sums the mass of their sum below the threshold, one O(n) dot
product.

The relay sum is also a phase-type law, exact at any relay count and with
tied rates: ``_absorbed_within`` sums its uniformized series of nonnegative
terms from the rows of its jump matrix's powers, and
``relay_sum_cdf_uniformized``, its CDF, is what ``experiments.validate``
checks the closed form against.  Where the closed form is undefined (tied
rates), cancels away (more than ``MAX_RELAYS_CLOSED_FORM`` relays) or would
need more than one basis block (``bins_closed_form``), ``relay_step_outage``
takes the relay step from that chain with the direct SNR as a phase in
front, exact to rounding and without bins.  On a 2-core host one
``step_outages`` call on the paper layout takes about 0.35 ms binned at
1 000 bins and 0.3-0.6 ms exact at any n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .topology import ConfigError, LinkParam, NetworkTopology, SystemConfig, link_rates

# The coefficients alternate in sign and their absolute sum grows fast with m:
# on 24 relays of the paper's line (source 1, 0 dBm) it is 8.9e12, the binned
# closed form is off by 4.9e2 relative, and at 10 and 20 dBm its bins total
# more than 1.  Past the cap, ``relay_step_outage`` is exact at any m.
MAX_RELAYS_CLOSED_FORM = 20
RATE_TIE_RTOL = 1e-9
_EPS = float(np.finfo(float).eps)
# Most edges of the one basis the closed form is binned on.  OpenBLAS splits
# a product of more than about 460 000 elements over its threads (seen with
# 0.3.31), which moves the last bits of some rows; 4096 rows of at most 20
# rates stay far below that, so the binned law does not depend on the thread
# count.  Past it the relay step is exact (``bins_closed_form``).
_BASIS_ROWS = 4096
# Most terms of the exact step's series, which bounds its memory (9 MB of rows on the paper layout).
_MAX_JUMPS = 1 << 17


class ConditioningError(ValueError):
    """A conditional quantity is undefined for these inputs."""


@dataclass(frozen=True, eq=False)
class GatedPaths:
    """Relay paths, one per relay: a point mass ``gate_probs[x]`` at zero
    plus an exponential tail of rate ``rates[x]``, as float arrays of one
    length, at least 1.  ``empty`` is the probability that every gate is
    closed, so that no relay decoded.
    """

    gate_probs: np.ndarray
    rates: np.ndarray
    empty: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.gate_probs, dtype=float)
        lam = np.asarray(self.rates, dtype=float)
        if a.ndim != 1 or a.shape != lam.shape:
            raise ConfigError(f"gate_probs and rates must be 1-D arrays of one length, "
                              f"got shapes {a.shape} and {lam.shape}")
        if not a.size:
            raise ConfigError("at least one relay path is required")
        # Each comparison is false for NaN.
        if not (0.0 <= a.min() and a.max() <= 1.0):
            raise ConfigError(f"gate probabilities must lie in [0, 1], got {a}")
        if not lam.min() > 0.0:
            raise ConfigError(f"rates must be positive, got {lam}")
        object.__setattr__(self, "gate_probs", a)
        object.__setattr__(self, "rates", lam)
        object.__setattr__(self, "empty", float(a.prod()))

    def __len__(self) -> int:
        return len(self.rates)

    @cached_property
    def closed_form(self) -> bool:
        """``closed_form_applies(self.rates)``: whether ``relay_sum_cdf`` is defined."""
        return closed_form_applies(self.rates)

    def with_gates(self, gate_probs) -> GatedPaths:
        """These rates behind other gates, sharing the rates' tie check."""
        out = GatedPaths(gate_probs, self.rates)
        vars(out)["closed_form"] = self.closed_form
        return out


def direct_outage(link: LinkParam, gamma_th: float) -> float:
    """Probability the link SNR falls below the threshold: 1 - exp(-rate*g)."""
    if gamma_th < 0:
        raise ConfigError(f"gamma_th must be nonnegative, got {gamma_th}")
    return -math.expm1(-link.rate_lambda * gamma_th)


def decode_fail_probs(
    topology: NetworkTopology, config: SystemConfig, source: int, cooperate: bool = True
) -> np.ndarray:
    """Per-relay probability of failing to decode the source broadcast: 1
    without relay cooperation, 0 at a zero threshold (inf * 0 is NaN)."""
    rates = link_rates(topology, config, source, cooperate)
    if not config.gamma_th:  # even an SNR of 0 meets it
        return np.zeros(rates.source_relay.shape)
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
    # gammas * -rates has the bits of -(gammas * rates), one pass sooner.
    basis = np.multiply.outer(gammas, -rates)
    np.expm1(basis, out=basis)
    return np.negative(basis, out=basis)


def _pole_ratios(lam: np.ndarray) -> np.ndarray:
    """``theta[x, y] = lam_y / (lam_y - lam_x)``, with the diagonal exactly 1.0."""
    gap = lam - lam[:, None]
    # x / x is exactly 1.0, so the diagonal leaves a member's own factor as is.
    gap.flat[:: len(lam) + 1] = lam
    return lam / gap


def relay_sum_cdf(paths: GatedPaths) -> DefectiveCdf:
    """Closed-form defective CDF of the decoded relays' summed SNR.

    The relay sum has the MGF ``prod_y (a_y + (1 - a_y) lam_y / (lam_y +
    s))``, with a_y the gate probability and lam_y the rate of path y.  Its
    partial fractions give one coefficient per rate, the residue at the
    pole -lam_x: ``c_x = (1 - a_x) * prod_{y != x} (a_y + (1 - a_y) *
    theta[x, y])`` with pole ratios ``theta[x, y] = lam_y / (lam_y -
    lam_x)``.  That is one m-by-m product, O(m^2): about 0.06 ms at m = 8,
    16 or 20 on a 2-core host, against 0.2 ms, 65 ms and 1.6 s for summing
    the same coefficients over the 2^m decode sets.  Only defined where
    ``paths.closed_form``; elsewhere it raises ``ConfigError``.
    """
    if not paths.closed_form:
        raise ConfigError(
            f"the subset expansion needs at most {MAX_RELAYS_CLOSED_FORM} relays "
            f"with rates pairwise distinct within {RATE_TIE_RTOL:g}"
        )
    a, lam = paths.gate_probs, paths.rates
    factors = a + (1.0 - a) * _pole_ratios(lam)
    factors.flat[:: len(a) + 1] = 1.0 - a
    return DefectiveCdf(
        rates=lam,
        gate_probs=a,
        coeff_per_rate=factors.prod(axis=1),
        total_mass=1.0 - paths.empty,
    )


def _phase_type_chain(paths: GatedPaths, direct_rate: float = 0.0):
    """The relay sum as a phase-type law (Neuts 1981), uniformized at its
    largest rate Lam (Jensen 1953).

    Its phases are the relays in order: relay k is entered with probability
    ``1 - a_k`` times the product of the gates it skipped, and the law is
    absorbed once every later gate is closed.  Returns the entry
    probabilities, the jump matrix, the absorption probability per jump and
    Lam, or None where no gate can open.  A relay whose gate is closed is
    never entered, so dropping it is exact and keeps its rate from setting Lam.

    A positive ``direct_rate`` puts a direct phase of that rate in front, and
    Lam covers it too.  It jumps to the relays with the entry probabilities,
    still the ones returned, and absorbs nothing: its no-relay share is lost.
    """
    a, lam = paths.gate_probs, paths.rates
    a, lam = a[a < 1.0], lam[a < 1.0]
    m = len(a)
    if not m:
        return None
    # Row 0 is the start and row r > 0 leaves relay r - 1.  passed[r, j]: the
    # gates of relays r to j - 1 are all closed; nxt[r, j >= r]: relay j is next.
    later = np.arange(m) >= np.arange(m + 1)[:, None]
    passed = np.ones((m + 1, m + 1))
    np.cumprod(np.where(later, a, 1.0), axis=1, out=passed[:, 1:])
    nxt = np.where(later, (1.0 - a) * passed[:, :m], 0.0)
    lam_max = max(lam.max(), direct_rate)
    scale = lam / lam_max
    front = 1 if direct_rate else 0  # the direct phase, if any, is phase 0
    jump, exit_ = np.zeros((front + m, front + m)), np.zeros(front + m)
    jump[front:, front:] = scale[:, None] * nxt[1:] + np.diag(1.0 - scale)
    exit_[front:] = scale * passed[1:, m]
    if front:
        d = direct_rate / lam_max
        jump[0, 0], jump[0, 1:] = 1.0 - d, d * nxt[0]
    return nxt[0], jump, exit_, lam_max


def _absorbed_within(chain, start: np.ndarray, xs) -> np.ndarray:
    """The mass the chain absorbs from row ``start`` within N ~ Pois(x)
    jumps, for each x of ``xs``: ``sum_k P(N > k) * (start J^k exit)``.

    Rows [h, 2h) of ``start J^k`` are rows [0, h) times J^h, J^h squared
    once per round.  The weights are ratio products from the mode (Fox &
    Glynn 1988; e^{-x} underflows past x = 745), the tails P(N > k) their
    reversed sums.  Each x keeps K terms, the first K of 16, 32, ... past x
    where 2 w_K (K + 1), which bounds the rest, is at most 1e-17 of their
    sum, so its value does not depend on the other xs or how many rows are
    built.  More than ``_MAX_JUMPS`` terms raise ``ConfigError``.
    """
    _, jump, exit_, _ = chain
    x = np.asarray(xs, dtype=float).reshape(-1, 1)
    # Rows past ten standard deviations above the largest x (NaN gives the cap).
    size = 1 << int(min(_MAX_JUMPS, x.max() + 10.0 * math.sqrt(x.max()) + 16.0)).bit_length()
    while size <= _MAX_JUMPS:
        rows, power, h = np.empty((size, len(start))), jump, 1
        rows[0] = start
        while h < size:
            np.matmul(rows[:h], power, out=rows[h:2 * h])
            power, h = power @ power, 2 * h
        terms, k = (rows * exit_).sum(axis=1), np.arange(1.0, size + 1.0)
        up = k > np.floor(x)
        # weights[:, j] is w_j / w_mode: products of w_k / w_{k-1} = x / k
        # above the mode and of w_{k-1} / w_k = k / x below it.
        weights = np.ones((len(x), size + 1))
        np.cumprod(np.divide(x, k, out=np.ones(up.shape), where=up), axis=1, out=weights[:, 1:])
        weights[:, :-1] *= np.cumprod(np.divide(k, x, out=np.ones(up.shape), where=~up)[:, ::-1], axis=1)[:, ::-1]
        # Every K's sum of terms times its weights' total, for the stop rule.
        sums = np.cumsum(weights[:, 1:] * np.cumsum(terms), axis=1)
        ks = 16 << np.arange(size.bit_length() - 4)
        stop = (ks > x) & (2.0 * (ks + 1) * weights[:, ks] <= 1e-17 * sums[:, ks - 1])
        if stop.any(axis=1).all():
            weights[np.arange(size + 1) > ks[stop.argmax(axis=1), None]] = 0.0
            tails = np.cumsum(weights[:, :0:-1], axis=1)[:, ::-1]
            return ((tails * terms).sum(axis=1) / (tails[:, 0] + weights[:, 0])).reshape(np.shape(xs))
        size *= 2
    raise ConfigError(f"the exact relay step needs more than {_MAX_JUMPS} jumps "
                      f"(largest rate times threshold {x.max():.4g})")


def relay_sum_cdf_uniformized(paths: GatedPaths, gammas) -> np.ndarray:
    """``P(relay sum <= g, some relay decoded)`` at each g of ``gammas``,
    exactly: nothing cancels, so the deep tail keeps its relative accuracy,
    and tied rates and any relay count need no special case."""
    chain = _phase_type_chain(paths)
    points = np.asarray(gammas, dtype=float)
    if chain is None:
        return np.zeros(points.shape)
    return _absorbed_within(chain, chain[0], chain[3] * points)


def relay_step_outage(direct: LinkParam, paths: GatedPaths, gamma_th: float) -> float:
    """Failure probability of the relay-forwarding step, exactly: ``P(D + R
    <= gamma_th | D <= gamma_th, some relay decoded)``, D the direct SNR and R
    the decoded relays' sum.  D then R is the relays' chain with a direct
    phase in front; the mass it absorbs within gamma_th from that phase,
    a sum of nonnegative terms, is divided by ``P(D <= gamma_th)`` and by
    the relays' entry mass (``1 - empty`` as a sum).
    """
    chain = _phase_type_chain(paths, direct.rate_lambda)
    if chain is None:
        raise ConditioningError("no relay can ever decode; the relay step is unreachable")
    [absorbed] = _absorbed_within(chain, np.eye(len(chain[2]))[0], [chain[3] * gamma_th])
    return min(float(absorbed / (direct_outage(direct, gamma_th) * chain[0].sum())), 1.0)


def closed_form_applies(rates: np.ndarray) -> bool:
    """Whether ``relay_sum_cdf`` is defined for paths of these rates: at most
    ``MAX_RELAYS_CLOSED_FORM`` of them, pairwise distinct within
    ``RATE_TIE_RTOL``."""
    if len(rates) > MAX_RELAYS_CLOSED_FORM:
        return False
    # The truth table of np.isclose(hi, lo, rtol=RATE_TIE_RTOL, atol=0.0) on
    # sorted rates, in float arithmetic, where inf - inf is NaN and warns of
    # nothing; equality keeps two infinite rates tied.  NaN ties nothing, and
    # numpy sorts it last, so dropping it leaves the other neighbours as they are.
    s = sorted(r for r in map(float, rates) if r == r)
    return not any(hi - lo <= RATE_TIE_RTOL * abs(lo) or hi == lo for lo, hi in zip(s, s[1:]))


def bins_closed_form(paths: GatedPaths, granularity: int) -> bool:
    """Whether the relay step of these paths bins the closed form
    (``bin_relay_sum``) rather than taking ``relay_step_outage``: some gate
    can open, ``paths.closed_form`` holds and the n + 1 bin edges fit one
    basis block of ``_BASIS_ROWS``.  Past it binning costs more than the
    exact step, and its cancellation noise piles up: on the paper layout at
    1e5 bins it took 7-11 ms, against 0.3-0.6 ms, and was 8.3e5 off at 20 dBm."""
    return granularity < _BASIS_ROWS and paths.empty < 1.0 and paths.closed_form


@dataclass(frozen=True)
class BinnedPmf:
    """Probabilities of equal SNR bins of width gamma_th/granularity.

    Bin j (1-based) covers ((j-1)*gamma_th/n, j*gamma_th/n].  Entries are
    nonnegative and total at most 1; conditioned or defective distributions
    are expected.  Negative entries down to ``-noise``, the rounding noise of
    whatever computed them, are clamped to zero; anything below is refused.
    """

    probs: np.ndarray
    gamma_th: float
    granularity: int
    noise: float = field(default=1e-15, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        low = p.min(initial=0.0)
        if low < -self.noise:
            raise ConfigError(f"bin probabilities must be nonnegative, got {low:.3e} "
                              f"below the noise floor {self.noise:.3e}")
        if low < 0.0:
            p = np.maximum(p, 0.0)
        if p.sum() > 1.0 + 1e-9:
            raise ConfigError("bin probabilities must total at most 1")
        object.__setattr__(self, "probs", p)

    @property
    def total(self) -> float:
        return float(self.probs.sum())


def bin_relay_sum(cdfs: list[DefectiveCdf], gamma_th: float, granularity: int) -> list[BinnedPmf]:
    """CDF increments over the threshold interval of relay sums that share
    their rates, one ``BinnedPmf`` per CDF.

    The basis ``exp_cdf_basis(np.linspace(0, gamma_th, n + 1), rates)`` is
    built once, and each CDF is one product with it, so sources sharing the
    rates share the basis.  It is one block of at most ``_BASIS_ROWS`` edges:
    more than ``_BASIS_ROWS - 1`` bins are refused, as are CDFs of other
    rates.  The coefficients alternate in sign, so a CDF carries absolute
    noise of order eps * sum(|coefficients|); ``BinnedPmf`` clamps increments
    above minus that floor to zero, and anything more negative is a bug.
    """
    if not 1 <= granularity < _BASIS_ROWS:
        raise ConfigError(f"the closed form is binned on 1 to {_BASIS_ROWS - 1} bins, got {granularity}")
    rates = cdfs[0].rates
    if not all(cdf.rates is rates or np.array_equal(cdf.rates, rates) for cdf in cdfs):
        raise ConfigError("relay sums binned together must share their rates")
    basis = exp_cdf_basis(np.linspace(0.0, gamma_th, granularity + 1), rates)
    return [BinnedPmf(np.diff(basis @ cdf.coeff_per_rate), gamma_th, granularity,
                      64.0 * _EPS * max(1.0, float(np.abs(cdf.coeff_per_rate).sum())))
            for cdf in cdfs]


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
    lam, width = link.rate_lambda, gamma_th / granularity
    probs = np.arange(granularity, dtype=float)
    np.exp(np.multiply(probs, -lam * width, out=probs), out=probs)
    probs *= -math.expm1(-lam * width) / -math.expm1(-lam * gamma_th)
    return BinnedPmf(probs, gamma_th, granularity)


def step2_outage(relay_pmf: BinnedPmf, direct_pmf: BinnedPmf, paths: GatedPaths) -> float:
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
    empty_prob = paths.empty
    if empty_prob >= 1.0:
        raise ConditioningError(
            "no relay can ever decode; the relay step is unreachable"
        )
    n = relay_pmf.granularity
    # Raw index pair (i, j) holds bin-index sum i+j+2, so output bins 1..n are
    # the pairs with i + j <= n - 2: relay bin i meets direct bins 0..n-2-i.
    below = (
        float(relay_pmf.probs[: n - 1] @ direct_pmf.probs.cumsum()[n - 2 :: -1])
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
    direct: LinkParam, paths: GatedPaths, config: SystemConfig,
    relay_pmf: BinnedPmf | None,
) -> SourceOutages:
    """Broadcast outage, relay-step outage and empty-set probability of one
    source, at a positive threshold and finite SNR.

    ``relay_pmf`` is the closed form binned on the threshold grid
    (``bin_relay_sum``) for ``step2_outage``, or None where the closed form
    is not binned (``bins_closed_form``: tied rates, more than
    ``MAX_RELAYS_CLOSED_FORM`` relays, or more than ``_BASIS_ROWS - 1``
    bins): the relay step is then ``relay_step_outage``, exact at any n.
    """
    gamma_th = config.gamma_th
    bcast = direct_outage(direct, gamma_th)
    empty = paths.empty
    if empty >= 1.0:
        return SourceOutages(bcast, 1.0, empty)
    if relay_pmf is None:
        return SourceOutages(bcast, relay_step_outage(direct, paths, gamma_th), empty)
    direct_pmf = bin_conditional_direct(direct, gamma_th, config.granularity)
    return SourceOutages(bcast, step2_outage(relay_pmf, direct_pmf, paths), empty)


def step_outages(
    topology: NetworkTopology, config: SystemConfig, cooperate: bool = True
) -> dict[int, SourceOutages]:
    """The step outages of sources 1 and 2, keyed by source.

    Both sources' relay sums have the relay-to-destination rates, so their
    paths share one rates array and its tie check, and where
    ``bins_closed_form`` holds one ``bin_relay_sum`` call bins both sources
    on one basis; past 4 095 bins every relay step is ``relay_step_outage``.
    A source's relay step is taken only when some relay can decode its
    broadcast: without relay cooperation (``link_rates``) every gate is 1.

    The last result is kept, keyed on the whole ``(topology, config,
    cooperate)`` (frozen, compared by value): ``analyze`` calls this twice
    with one key, and the second call returns a new dict of the same frozen
    ``SourceOutages``.  An exception stores nothing.  Delete the memo once
    ``analyze`` makes one call, which needs the ``calls_per_op == 2.0`` pin
    in ``perfbench/test_perfbench.py`` moved.
    """
    return dict(_step_outages(topology, config, cooperate))


@lru_cache(maxsize=1)
def _step_outages(
    topology: NetworkTopology, config: SystemConfig, cooperate: bool
) -> dict[int, SourceOutages]:
    if math.isinf(config.snr_linear()):
        return {source: SourceOutages(0.0, 0.0, 0.0) for source in (1, 2)}
    links = {source: link_rates(topology, config, source, cooperate) for source in (1, 2)}
    gamma_th = config.gamma_th
    if gamma_th == 0.0:
        # Zero threshold: every reception succeeds and the relay step never runs.
        return {source: SourceOutages(0.0, 0.0, 0.0) for source in (1, 2)}
    # decode_fail_probs(topology, config, source), without a second link_rates.
    fails = {source: -np.expm1(-rates.source_relay * gamma_th) for source, rates in links.items()}
    first = GatedPaths(fails[1], links[1].relay_dest)
    paths = {1: first, 2: first.with_gates(fails[2])}
    binned = [source for source, p in paths.items() if bins_closed_form(p, config.granularity)]
    cdfs = [relay_sum_cdf(paths[source]) for source in binned]
    relay_pmfs = dict(zip(binned, bin_relay_sum(cdfs, gamma_th, config.granularity) if cdfs else ()))
    return {
        source: source_step_outages(LinkParam(rates.direct), paths[source], config, relay_pmfs.get(source))
        for source, rates in links.items()
    }

