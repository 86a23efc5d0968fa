"""Closed-form per-step outage probabilities.

A source's relays are gated exponential paths, its row of the run's link
table (``topology.LinkSet``): relay x failed to decode the broadcast with
probability ``gates[x]`` and then contributes nothing, otherwise its SNR at
the destination is exponential with rate ``relay_dest[x]``.  Every engine
here takes those rows as arrays.  The relays' summed SNR
has a defective CDF with one exponential term per rate, whose coefficient is
the residue of the product of the per-path transforms at that rate's pole:
all m cost O(m^2).  The same law over the 2^m decode sets is a view
(``DefectiveCdf.subset_terms``), built only when read.

The relay-step outage bins that CDF and the threshold-conditioned direct
SNR on n bins, one basis of at most ``_BASIS_ROWS`` edges shared by both
sources, and sums the mass of their sum below the threshold, one O(n) dot
product.

The relay sum is also a phase-type law, exact at any relay count and with tied
rates, in which a link with an SNR of 0 (an infinite rate) is a phase that
takes no time: ``_absorbed_within`` sums its uniformized series of nonnegative
terms from the rows of its jump matrix's powers, and
``relay_sum_cdf_uniformized``, its CDF, is what ``experiments.validate``
checks the closed form against.  The closed form is binned only where its
cancellation keeps at least half the CDF's digits, by a bound from the rates
alone, on 2 to 4 095 bins and where no direct SNR is 0 (``relay_plan``).
Elsewhere ``relay_step_outages`` takes every relay step, exactly and in one
series, from that chain with the direct SNR as a phase in front.  On a 2-core
host a ``step_outages`` call on the paper layout takes 0.2 ms binned at 1 000
bins, 0.2-0.35 ms exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .topology import ConfigError, LinkSet, NetworkTopology, SystemConfig, link_rates

# Most relays the closed form is binned for: the basis has a column per rate,
# and 4096 rows (``_BASIS_ROWS``) of at most 20 rates keep its product far
# below OpenBLAS's thread split.  Past the cap the relay step is exact.
MAX_RELAYS_CLOSED_FORM = 20
# Largest condition bound (``_condition``) the closed form is binned at, about
# 1/sqrt(eps): eps times it bounds the binned CDF's absolute cancellation
# noise, so the CDF keeps at least half its digits.
_MAX_CONDITION = 2.0 ** 26
_EPS = float(np.finfo(float).eps)
_LAYERS = np.array([True, False])[:, None, None]  # the chain's gates of timed relays, then of untimed ones
# Most edges of the one basis the closed form is binned on.  OpenBLAS splits
# a product of more than about 460 000 elements over its threads (seen with
# 0.3.31), which moves the last bits of some rows; 4096 rows of at most
# ``MAX_RELAYS_CLOSED_FORM`` rates stay far below that, so the binned law does
# not depend on the thread count.  Past it the relay step is exact
# (``relay_plan``).
_BASIS_ROWS = 4096
# Most terms of the exact step's series, which bounds its memory (9 MB of rows per source on the paper layout).
_MAX_JUMPS = 1 << 17


class ConditioningError(ValueError):
    """A conditional quantity is undefined for these inputs."""


@dataclass(frozen=True)
class SubsetTerm:
    """One nonempty decode set: its probability and exponential-CDF mixture."""

    members: tuple[int, ...]
    weight: float
    coeffs: np.ndarray  # aligned with members; CDF term sum_k coeffs[k]*(1-exp(-rate_k*g))


@dataclass(frozen=True)
class DefectiveCdf:
    """CDF of the relay-sum SNR restricted to a nonempty decode set.

    Evaluates to 0 at 0 and to one minus the all-gates-closed probability
    at infinity, as ``sum_x coeff_per_rate[x] * (1 -
    exp(-rates[x] * g))``, O(m) per point.  ``subset_terms`` is a view of the
    same law as one term per nonempty decode set, built only when read.
    """

    rates: np.ndarray
    gate_probs: np.ndarray
    coeff_per_rate: np.ndarray

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
    """``theta[x, y] = lam_y / (lam_y - lam_x)``, with the diagonal exactly 1.0,
    built without a warning: infinite where two rates tie, and all NaN if a
    rate is infinite, where inf - inf and inf / inf would warn."""
    if not lam.max() < math.inf:
        return np.full((len(lam), len(lam)), math.nan)
    gap = lam - lam[:, None]
    # x / x is exactly 1.0, so the diagonal leaves a member's own factor as is.
    gap.flat[:: len(lam) + 1] = lam
    return np.divide(lam, gap, out=np.full(gap.shape, math.inf), where=gap != 0.0)


def _condition(theta: np.ndarray) -> float:
    """``sum_x prod_y max(1, |theta[x, y]|)`` of pole ratios ``theta``: each
    factor ``a + (1 - a) * theta`` of a coefficient lies between 1 and theta,
    so this bounds the coefficients' absolute sum behind any gates, and eps
    times it the CDF's cancellation noise at every power.  Infinite for tied
    rates, NaN for an infinite one."""
    return float(np.maximum(np.abs(theta), 1.0).prod(axis=1).sum())


def relay_sum_cdf(gates: np.ndarray, rates: np.ndarray, theta: np.ndarray | None = None) -> DefectiveCdf:
    """Closed-form defective CDF of the decoded relays' summed SNR.

    The relay sum has the MGF ``prod_y (a_y + (1 - a_y) lam_y / (lam_y +
    s))``, with a_y = ``gates[y]`` and lam_y = ``rates[y]``, float arrays of
    one length, at least 1, of gates in [0, 1] and positive rates.  Its
    partial fractions give one coefficient per rate, the residue at the
    pole -lam_x: ``c_x = (1 - a_x) * prod_{y != x} (a_y + (1 - a_y) *
    theta[x, y])`` with pole ratios ``theta[x, y] = lam_y / (lam_y -
    lam_x)``.  That is one m-by-m product, O(m^2): about 0.06 ms at m = 8,
    16 or 20 on a 2-core host, against 0.2 ms, 65 ms and 1.6 s for summing
    the same coefficients over the 2^m decode sets.  Defined wherever its
    pole ratios are finite: tied or infinite rates raise ``ConfigError``.
    ``theta``, if given, is ``_pole_ratios(rates)`` of rates that
    ``relay_plan`` accepted, built once for sources that share them.
    """
    if theta is None:
        theta = _pole_ratios(rates)
        if not np.isfinite(theta).all():
            raise ConfigError(f"the closed form needs pairwise distinct, finite rates, got {rates}")
    factors = gates + (1.0 - gates) * theta
    factors.flat[:: len(gates) + 1] = 1.0 - gates
    return DefectiveCdf(rates=rates, gate_probs=gates, coeff_per_rate=factors.prod(axis=1))


def _phase_type_chain(a, lam, direct_rates):
    """Direct SNRs then relay sums as phase-type laws (Neuts 1981), one per
    row of gates, each uniformized at its largest rate Lam (Jensen 1953).

    Phase 0 is the direct link, of the row's rate in ``direct_rates``, and
    phase k is relay k - 1, entered with probability ``1 - a`` times the
    product of the gates it skipped; the law is absorbed once every later
    gate is closed.  An infinite rate, an SNR of 0, is a phase that takes no
    time, left once entered (a vanishing state; Ajmone Marsan, Conte & Balbo
    1984).  The chain is acyclic in relay order, so an untimed relay is a
    closed gate, and the decode sets that only untimed relays open are
    absorbed as phase 0 ends, or at once where phase 0 is untimed and its
    row of J, at d = 1, is the start.  A closed relay (a = 1) stays a phase
    that is never entered.  Lam is the largest rate of the timed phases that
    can be entered; every scale is clipped at 1.  Returns the entry masses
    (``1 - empty`` as sums), start rows, masses absorbed at once, jump
    matrices, absorption probabilities per jump and each row's Lam.
    """
    s, m = a.shape
    direct_timed = direct_rates < math.inf
    gates = np.where((lam < math.inf) == _LAYERS, a, 1.0)
    # Row 0 is the start and row r > 0 leaves relay r - 1.  passed[r, j]: the
    # gates of relays r to j - 1 are all closed; nxt[r, j >= r]: relay j is next.
    later = np.arange(m) >= np.arange(m + 1)[:, None]
    passed = np.ones((2, s, m + 1, m + 1))
    np.cumprod(np.where(later, gates[..., None, :], 1.0), axis=-1, out=passed[..., 1:])
    nxt = np.where(later, (1.0 - gates[..., None, :]) * passed[..., :m], 0.0)
    # Every timed gate closed, and layer 1 entered (some untimed gate open): a sum over the first.
    share = passed[0, :, 0, m] * nxt[1, :, 0].sum(axis=-1)
    gates, passed, nxt = gates[0], passed[0], nxt[0]
    lam_max = np.where(gates < 1.0, lam, 0.0).max(axis=1)
    np.maximum(lam_max, direct_rates, out=lam_max, where=direct_timed)
    # A phase never entered may pass Lam, or be infinite: clipped, it puts no NaN in J.
    scale = np.divide(lam, lam_max[:, None], out=np.ones((s, m)), where=lam < lam_max[:, None])
    jump, exit_ = np.zeros((s, m + 1, m + 1)), np.zeros((s, m + 1))
    # nxt[r + 1, r] is 0, so the diagonal is 1 - scale alone.
    jump[:, 1:, 1:] = scale[:, :, None] * nxt[:, 1:]
    jump.reshape(s, -1)[:, m + 2::m + 2] = 1.0 - scale
    exit_[:, 1:] = scale * passed[:, 1:, m]
    d = np.divide(direct_rates, lam_max, out=np.ones(s), where=direct_rates < lam_max)
    jump[:, 0, 0], jump[:, 0, 1:], exit_[:, 0] = 1.0 - d, d[:, None] * nxt[:, 0], d * share
    start = np.where(direct_timed[:, None], later[:, 0], jump[:, 0])  # later[:, 0] is phase 0
    return nxt[:, 0].sum(axis=-1) + share, start, np.where(direct_timed, 0.0, share), jump, exit_, lam_max


def _absorbed_within(jump, exit_, start, xs) -> np.ndarray:
    """The mass each chain s absorbs from its start row ``start[s]``
    within N ~ Pois(x) jumps, for each x of ``xs[s]``: ``sum_k P(N > k) *
    (start J^k exit)``.

    Rows [h, 2h) of ``start J^k`` are rows [0, h) times J^h, J^h squared
    once per round.  The weights are ratio products from the mode (Fox &
    Glynn 1988; e^{-x} underflows past x = 745), the tails P(N > k) their
    reversed sums.  Each x keeps K terms, the first K of 16, 32, ... past x
    where 2 w_K (K + 1), which bounds the rest, is at most 1e-17 of their
    sum, so its value does not depend on the other xs, the other chains or
    how many rows are built.  More than ``_MAX_JUMPS`` terms raise
    ``ConfigError``.
    """
    x = np.asarray(xs, dtype=float)[:, :, None]
    # Rows past ten standard deviations above the largest x (NaN gives the cap).
    size = 1 << int(min(_MAX_JUMPS, x.max() + 10.0 * math.sqrt(x.max()) + 16.0)).bit_length()
    while size <= _MAX_JUMPS:
        rows, power, h = np.empty((len(exit_), size, exit_.shape[-1])), jump, 1
        rows[:, 0] = start
        while h < size:
            np.matmul(rows[:, :h], power, out=rows[:, h:2 * h])
            power, h = power @ power, 2 * h
        terms, k = (rows * exit_[:, None]).sum(axis=-1)[:, None], np.arange(1.0, size + 1.0)
        up = k > np.floor(x)
        # weights[..., j] is w_j / w_mode: products of w_k / w_{k-1} = x / k
        # above the mode and of w_{k-1} / w_k = k / x below it.
        weights = np.ones(x.shape[:2] + (size + 1,))
        np.cumprod(np.divide(x, k, out=np.ones(up.shape), where=up), axis=-1, out=weights[..., 1:])
        weights[..., :-1] *= np.cumprod(np.divide(k, x, out=np.ones(up.shape), where=~up)[..., ::-1], axis=-1)[..., ::-1]
        # Every K's sum of terms times its weights' total, for the stop rule.
        sums = np.cumsum(weights[..., 1:] * np.cumsum(terms, axis=-1), axis=-1)
        ks = 16 << np.arange(size.bit_length() - 4)
        stop = (ks > x) & (2.0 * (ks + 1) * weights[..., ks] <= 1e-17 * sums[..., ks - 1])
        if stop.any(axis=-1).all():
            weights[np.arange(size + 1) > ks[stop.argmax(axis=-1), None]] = 0.0
            tails = np.cumsum(weights[..., :0:-1], axis=-1)[..., ::-1]
            return (tails * terms).sum(axis=-1) / (tails[..., 0] + weights[..., 0])
        size *= 2
    raise ConfigError(f"the exact relay step needs more than {_MAX_JUMPS} jumps "
                      f"(largest rate times threshold {x.max():.4g})")


def relay_sum_cdf_uniformized(gates: np.ndarray, rates: np.ndarray, gammas) -> np.ndarray:
    """``P(relay sum <= g, some relay decoded)`` at each g of ``gammas``, exactly,
    from the relay step's chain with a direct SNR of 0: nothing cancels, so the deep
    tail keeps its relative accuracy, and tied or infinite rates need no special case."""
    points = np.asarray(gammas, dtype=float)
    _, start, now, jump, exit_, lam = _phase_type_chain(gates[None], rates[None], np.array([math.inf]))
    return _absorbed_within(jump, exit_, start, lam[:, None] * points.reshape(1, -1))[0].reshape(points.shape) + now[0]


def relay_step_outages(direct: np.ndarray, miss: np.ndarray, gates: np.ndarray, rates: np.ndarray,
                       gamma_th: float) -> list[float]:
    """Failure probability of each source's relay-forwarding step, exactly:
    ``P(D + R <= gamma_th | D <= gamma_th, some relay decoded)`` for each
    row s, D the direct SNR of rate ``direct[s]``, missed with probability
    ``miss[s]``, and R the decoded relays' sum of gates ``gates[s]`` and
    rates ``rates[s]``, (s, m) arrays.  D then R is one chain, its closed
    relays kept and a link with an SNR of 0 a phase that takes no time; the
    mass it absorbs within gamma_th, a sum of nonnegative terms, is divided
    by ``miss`` and by the entry mass (``1 - empty`` as a sum).  One series
    sums every chain; each value has the bits its source gets alone.
    """
    if (gates.min(axis=1) >= 1.0).any():
        raise ConditioningError("no relay can ever decode; the relay step is unreachable")
    entry, start, now, jump, exit_, lam = _phase_type_chain(gates, rates, direct)
    absorbed = _absorbed_within(jump, exit_, start, lam[:, None] * gamma_th)[:, 0] + now
    return [min(float(value / (p * mass)), 1.0) for value, p, mass in zip(absorbed, miss, entry)]


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
    more than ``_BASIS_ROWS - 1`` bins are refused, as are one bin, which
    ``step2_outage`` cannot use, and CDFs of other rates.  The coefficients
    alternate in sign, so a CDF carries absolute noise of order eps *
    sum(|coefficients|); ``BinnedPmf`` clamps increments above minus that
    floor to zero, and anything more negative is a bug.
    """
    if not 2 <= granularity < _BASIS_ROWS:
        raise ConfigError(f"the closed form is binned on 2 to {_BASIS_ROWS - 1} bins, got {granularity}")
    rates = cdfs[0].rates
    if not all(cdf.rates is rates or np.array_equal(cdf.rates, rates) for cdf in cdfs):
        raise ConfigError("relay sums binned together must share their rates")
    # The floats of np.linspace(0.0, gamma_th, granularity + 1), without its overhead.
    edges = np.arange(granularity + 1.0)
    edges *= gamma_th / granularity
    edges[-1] = gamma_th
    basis = exp_cdf_basis(edges, rates)
    pmfs = []
    for cdf in cdfs:
        values = basis @ cdf.coeff_per_rate
        pmfs.append(BinnedPmf(values[1:] - values[:-1], gamma_th, granularity,
                              64.0 * _EPS * max(1.0, float(np.abs(cdf.coeff_per_rate).sum()))))
    return pmfs


def bin_conditional_direct(rate: float, miss: float, gamma_th: float, granularity: int) -> BinnedPmf:
    """Mass function of the direct SNR of rate ``rate`` conditioned below
    the threshold, which it falls below with probability ``miss``."""
    if granularity < 1:
        raise ConfigError("granularity must be at least 1")
    if gamma_th <= 0:
        raise ConditioningError("conditioning on SNR below a zero threshold is undefined")
    # Factored form keeps full precision when rate*gamma_th is tiny.
    width = gamma_th / granularity
    probs = np.arange(granularity, dtype=float)
    np.exp(np.multiply(probs, -rate * width, out=probs), out=probs)
    probs *= -math.expm1(-rate * width) / miss
    return BinnedPmf(probs, gamma_th, granularity)


def step2_outage(relay_pmf: BinnedPmf, direct_pmf: BinnedPmf, empty: float) -> float:
    """Failure probability of the relay-forwarding step.

    Sums the mass of the relay-sum plus conditioned-direct SNR over output
    bins 1..n, as one O(n) dot product of the relay mass with the reversed
    prefix sums of the direct mass, then renormalizes by the
    nonempty-decode-set probability ``1 - empty``.  Summing raw index pairs up to n
    undercounts the boundary band, a documented O(1/n) bias of this
    estimator; one bin holds no pair below the threshold and is refused.
    """
    if relay_pmf.granularity != direct_pmf.granularity or not math.isclose(
        relay_pmf.gamma_th, direct_pmf.gamma_th
    ):
        raise ConfigError("both mass functions must share gamma_th and granularity")
    n = relay_pmf.granularity
    if n < 2:
        raise ConfigError(f"the relay step needs at least 2 bins, got {n}")
    if empty >= 1.0:
        raise ConditioningError("no relay can ever decode; the relay step is unreachable")
    # Raw index pair (i, j) holds bin-index sum i+j+2, so output bins 1..n are
    # the pairs with i + j <= n - 2: relay bin i meets direct bins 0..n-2-i.
    below = float(relay_pmf.probs[: n - 1] @ direct_pmf.probs.cumsum()[n - 2 :: -1])
    return min(max(below / (1.0 - empty), 0.0), 1.0)


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


def relay_plan(links: LinkSet, granularity: int) -> tuple[list[int], np.ndarray | None]:
    """How ``step_outages`` takes the relay steps of ``links``: the sources
    (0 for source 1) whose relay step is taken, and the pole ratios of the
    relay-to-destination rates where those steps bin the closed form, else None.

    No noise or a zero threshold misses no broadcast: no step.  A source's
    relay step is taken where some relay can decode it (``empty < 1``;
    without relay cooperation none can) and some link it takes has an SNR
    above 0; elsewhere it fails, as where a far destination's links all
    overflow.  Both sources share the relay-to-destination rates, so one
    pole-ratio matrix and one condition bound serve both, and both bin or
    neither does.  They bin where the n + 1 bin edges, at least 3 (one bin
    holds no pair below the threshold), fit one basis block of
    ``_BASIS_ROWS``, no direct SNR is 0 (it has no binned law), there are
    at most ``MAX_RELAYS_CLOSED_FORM`` relays and the bound is at most
    ``_MAX_CONDITION``, which tied and infinite rates fail.  Past the block,
    binning the paper layout at 1e5 bins took 7-11 ms against the exact
    step's 0.3-0.6 ms, and was 8.3e5 off at 20 dBm; past the bound the
    16-relay line (2.5e11) read 4.3e-5 at 10 dBm, not 9.7e-16.
    """
    if not links.miss.any():
        return [], None
    rates = links.relay_dest
    opened = [s for s in range(2) if links.empty[s] < 1.0
              and (links.direct[s] < math.inf or rates[links.gates[s] < 1.0].min() < math.inf)]
    if not (opened and 2 <= granularity < _BASIS_ROWS and links.direct[opened].max() < math.inf
            and len(rates) <= MAX_RELAYS_CLOSED_FORM):
        return opened, None
    theta = _pole_ratios(rates)
    return opened, theta if _condition(theta) <= _MAX_CONDITION else None


def step_outages(
    topology: NetworkTopology, config: SystemConfig, cooperate: bool = True
) -> dict[int, SourceOutages]:
    """The step outages of sources 1 and 2, keyed by source, from one link
    table (``link_rates``): each broadcast's outage is its direct link's miss,
    each empty decode set's probability its ``empty``, and the relay steps
    are taken as ``relay_plan`` says, both sources' in
    one ``bin_relay_sum`` call on one basis or in one ``relay_step_outages``
    call.

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
    links = link_rates(topology, config, cooperate)
    gamma_th, n = config.gamma_th, config.granularity
    if not links.miss.any():  # every reception succeeds and the relay step never runs
        return {source: SourceOutages(0.0, 0.0, 0.0) for source in (1, 2)}
    opened, theta = relay_plan(links, n)
    rates, empty, relays = links.relay_dest, links.empty.tolist(), {}
    if theta is not None:
        pmfs = bin_relay_sum([relay_sum_cdf(links.gates[s], rates, theta) for s in opened], gamma_th, n)
        relays = {s: step2_outage(pmf, bin_conditional_direct(links.direct[s], links.miss[s], gamma_th, n), empty[s])
                  for s, pmf in zip(opened, pmfs)}
    elif opened:
        gates = links.gates[opened]
        relays = dict(zip(opened, relay_step_outages(links.direct[opened], links.miss[opened], gates,
                                                      np.broadcast_to(rates, gates.shape), gamma_th)))
    return {s + 1: SourceOutages(float(links.miss[s]), relays.get(s, 1.0), empty[s]) for s in range(2)}
