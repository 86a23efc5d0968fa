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
SNR on n bins and sums the mass of their sum below the threshold, one O(n)
dot product.  Binning evaluates ``1 - exp(-rate * gamma)`` at the n + 1 bin
edges for every rate, an (n + 1)-by-m basis (``exp_cdf_basis``).  Both
sources share the relay-to-destination rates, so ``step_outages`` checks
them for ties once, builds the basis once and bins both sources from it;
``BinnedPmf`` validates and clamps each binned mass once.  On a 2-core host
a call takes about 0.25 ms at n = 1 000 and 8 ms at n = 1e5 on the paper
layout.

The relay sum is also a phase-type law, exact at any relay count and with
tied rates.  ``relay_sum_cdf_uniformized`` evaluates its CDF as a series of
nonnegative terms; ``experiments.validate`` checks the closed form against
it.  Where the closed form is undefined (tied rates) or cancels away (more
than ``MAX_RELAYS_CLOSED_FORM`` relays), ``relay_sum_bins`` gives the bin
masses by stepping that law's chain one bin width at a time, and no basis
is built: about 0.84 ms a call at n = 1 000 and 42 ms at n = 1e6 on a
tied 10-relay line.  So both paths bin the exact law on one grid and share the
O(1/n) binning bias.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .topology import ConfigError, LinkParam, NetworkTopology, SystemConfig, link_rates

# The coefficients alternate in sign and their absolute sum grows fast with m:
# on 24 relays of the paper's line (source 1, 0 dBm) it is 8.9e12, the binned
# closed form is off by 4.9e2 relative where the stepped bins are within
# 2.4e-3, and at 10 and 20 dBm its bins total more than 1.
MAX_RELAYS_CLOSED_FORM = 20
RATE_TIE_RTOL = 1e-9
_EPS = float(np.finfo(float).eps)


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
    # gammas * -rates has the bits of -(gammas * rates), one pass sooner.
    basis = np.multiply.outer(gammas, -rates)
    np.expm1(basis, out=basis)
    return np.negative(basis, out=basis)


def bin_edges(gamma_th: float, n: int) -> np.ndarray:
    """``np.linspace(0.0, gamma_th, n + 1)``, bit for bit: the same steps
    numpy takes for a nonzero step, without its argument handling."""
    edges = np.arange(n + 1.0)
    edges *= gamma_th / n
    edges[-1] = gamma_th
    return edges


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


def _phase_type_chain(paths: GatedPaths):
    """The relay sum as a phase-type law (Neuts 1981), uniformized at its
    largest rate Lam (Jensen 1953).

    Its phases are the relays in order: relay k is entered with probability
    ``1 - a_k`` times the product of the gates it skipped, and the law is
    absorbed once every later gate is closed.  Returns the entry
    probabilities, the jump matrix, the absorption probability per jump and
    Lam, or None where no gate can open.  A relay whose gate is closed is
    never entered, so dropping it is exact and keeps its rate from setting Lam.
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
    scale = lam / lam.max()
    jump = scale[:, None] * nxt[1:] + np.diag(1.0 - scale)
    return nxt[0], jump, scale * passed[1:, m], lam.max()


def _chain_over(chain, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``exp(Q t)``, with Q the chain's generator, and the mass each phase
    absorbs within t.

    The uniformized series ``sum_k Pois(k; Lam t) J^k`` is summed at t / 2^s,
    where Lam t / 2^s < 1, and then squared s times.  Every term is
    nonnegative, so the smallest entries keep their relative accuracy.  Past
    the first jump each weight is at most half the one before and no entry
    of a jump power or an absorbed mass exceeds 1, so the series stops once
    twice the weight is below 1e-17 of every entry that can be positive.
    """
    _, jump, exit_, lam_max = chain
    m = len(exit_)
    halvings = max(0, math.frexp(lam_max * t)[1])
    x = math.ldexp(lam_max * t, -halvings)
    reachable = np.triu(np.ones((m, m), dtype=bool))
    power, absorbed = np.eye(m), np.zeros(m)
    step, out, w = np.zeros((m, m)), np.zeros(m), math.exp(-x)
    for k in itertools.count():
        if k > 1 and 2.0 * w <= 1e-17 * min(step[reachable].min(), out.min()):
            break
        step += w * power
        out += w * absorbed
        absorbed = absorbed + power @ exit_
        power = power @ jump
        w *= x / (k + 1)
    for _ in range(halvings):
        out += step @ out
        step = step @ step
    return step, out


def relay_sum_cdf_uniformized(paths: GatedPaths, gammas) -> np.ndarray:
    """``P(relay sum <= g, some relay decoded)`` at each g of ``gammas``,
    exactly: nothing cancels, so the deep tail keeps its relative accuracy,
    and tied rates and any relay count need no special case."""
    chain = _phase_type_chain(paths)
    points = np.asarray(gammas, dtype=float)
    if chain is None:
        return np.zeros(points.shape)
    at = [chain[0] @ _chain_over(chain, g)[1] for g in points.ravel().tolist()]
    return np.array(at).reshape(points.shape)


def _orbit(row: np.ndarray, matrix: np.ndarray, count: int) -> np.ndarray:
    """``row @ matrix^r`` for r < count, as rows, doubling the rows per step."""
    rows = row[None, :]
    while len(rows) < count:
        rows = np.vstack([rows, rows @ matrix])
        matrix = matrix @ matrix
    return rows[:count]


def relay_sum_bins(paths: GatedPaths, gamma_th: float, n: int) -> np.ndarray:
    """``P(relay sum in bin j, some relay decoded)`` for the n equal bins of
    (0, gamma_th].

    Over one bin width the chain moves by P and phase i absorbs e_i
    (``_chain_over``), so bin j holds ``entry @ P^(j-1) @ e``: a sum of
    nonnegative products, exact to rounding at any Lam gamma_th.  The bins
    are blocks of B >= sqrt(n), ``entry @ P^(bB)`` for each block times
    ``P^r @ e`` for each offset r, both by doubling: O(m^3 log n + n m)
    after ``_chain_over``.
    """
    chain = _phase_type_chain(paths)
    if chain is None:
        return np.zeros(n)
    step, out = _chain_over(chain, gamma_th / n)
    block = math.isqrt(n - 1) + 1
    offsets = _orbit(out, step.T, block)
    starts = _orbit(chain[0], np.linalg.matrix_power(step, block), -(-n // block))
    return (starts @ offsets.T).ravel()[:n]


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


def bin_relay_sum(
    cdf: DefectiveCdf, gamma_th: float, granularity: int, basis: np.ndarray
) -> BinnedPmf:
    """CDF increments of the relay sum over the threshold interval.

    ``basis`` is ``exp_cdf_basis(bin_edges(gamma_th, granularity),
    cdf.rates)``, built by the caller so that sources sharing the rates
    share it; a basis whose shape, first or last row shows another grid or
    other rates is refused.  The partial-fraction coefficients alternate in
    sign, so evaluating the CDF carries absolute noise of order eps *
    sum(|coefficients|); ``BinnedPmf`` clamps increments above minus that
    floor to zero, and anything more negative is a bug.
    """
    if granularity < 1:
        raise ConfigError("granularity must be at least 1")
    last = -np.expm1(-gamma_th * cdf.rates)
    if (
        basis.shape != (granularity + 1, len(cdf.rates))
        or basis[0].any()
        or not (np.abs(basis[-1] - last) <= 1e-9 * last).all()
    ):
        raise ConfigError(
            f"the CDF basis must hold {len(cdf.rates)} rates on "
            f"{granularity + 1} edges from 0 to {gamma_th:g}"
        )
    noise = 64.0 * _EPS * max(1.0, float(np.abs(cdf.coeff_per_rate).sum()))
    at_edges = basis @ cdf.coeff_per_rate
    return BinnedPmf(at_edges[1:] - at_edges[:-1], gamma_th, granularity, noise)


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
    basis: np.ndarray | None,
) -> SourceOutages:
    """Broadcast outage, relay-step outage and empty-set probability of one
    source, at a positive threshold and finite SNR.

    ``basis`` is the relay-to-destination CDF basis on the threshold grid
    (see ``bin_relay_sum``), or None where ``paths.closed_form`` does not
    hold (tied rates, or more than ``MAX_RELAYS_CLOSED_FORM`` relays): the
    relay sum's bins then come from ``relay_sum_bins``.  Either way the
    binned relay sum goes to ``step2_outage``.
    """
    gamma_th, n = config.gamma_th, config.granularity
    bcast = direct_outage(direct, gamma_th)
    empty = paths.empty
    if empty >= 1.0:
        return SourceOutages(bcast, 1.0, empty)
    if basis is None:
        relay_pmf = BinnedPmf(relay_sum_bins(paths, gamma_th, n), gamma_th, n)
    else:
        relay_pmf = bin_relay_sum(relay_sum_cdf(paths), gamma_th, n, basis)
    relay = step2_outage(relay_pmf, bin_conditional_direct(direct, gamma_th, n), paths)
    return SourceOutages(bcast, relay, empty)


def step_outages(
    topology: NetworkTopology, config: SystemConfig
) -> dict[int, SourceOutages]:
    """The step outages of sources 1 and 2, keyed by source.

    Both sources' relay sums have the relay-to-destination rates, so their
    paths share one rates array and its tie check, and the closed form's CDF
    basis on the threshold grid is built here once for both.  The basis is
    built only when some relay can decode some source's broadcast.
    """
    if math.isinf(config.snr_linear()):
        return {source: SourceOutages(0.0, 0.0, 0.0) for source in (1, 2)}
    links = {source: link_rates(topology, config, source) for source in (1, 2)}
    gamma_th = config.gamma_th
    if gamma_th == 0.0:
        # Zero threshold: every reception succeeds and the relay step never runs.
        return {source: SourceOutages(0.0, 0.0, 0.0) for source in (1, 2)}
    # decode_fail_probs(topology, config, source), without a second link_rates.
    fails = {source: -np.expm1(-rates.source_relay * gamma_th) for source, rates in links.items()}
    first = GatedPaths(fails[1], links[1].relay_dest)
    paths = {1: first, 2: first.with_gates(fails[2])}
    basis = None
    if first.closed_form and min(p.empty for p in paths.values()) < 1.0:
        basis = exp_cdf_basis(bin_edges(gamma_th, config.granularity), first.rates)
    return {
        source: source_step_outages(LinkParam(rates.direct), paths[source], config, basis)
        for source, rates in links.items()
    }

