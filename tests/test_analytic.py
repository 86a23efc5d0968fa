import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mdma_relay import analytic
from mdma_relay.analytic import (
    MAX_RELAYS_CLOSED_FORM,
    RATE_TIE_RTOL,
    BinnedPmf,
    ConditioningError,
    GatedPaths,
    SourceOutages,
    bin_conditional_direct,
    bin_relay_sum,
    bins_closed_form,
    closed_form_applies,
    decode_fail_probs,
    direct_outage,
    relay_sum_cdf,
    relay_sum_cdf_uniformized,
    relay_step_outage,
    step2_outage,
    step_outages,
)
from mdma_relay.markov import labelled
from mdma_relay.topology import (
    ConfigError,
    LinkParam,
    NetworkTopology,
    SystemConfig,
    default_paper_setup,
    link_rates,
)
from dataclasses import replace

from layouts import line_topology, underflow_topology
from relay_reference import numeric_relay_sum_cdf, relay_sum_cdf_quadrature


BLOCK_ROWS = analytic._BASIS_ROWS


def binned_relay_sum(cdf, gamma_th, n):
    """``bin_relay_sum`` of this relay sum alone."""
    [pmf] = bin_relay_sum([cdf], gamma_th, n)
    return pmf


def series_bins(paths, gamma_th, n):
    """The relay sum binned on the threshold grid as increments of its
    uniformized series: a reference for the closed form's bins that shares
    none of its arithmetic."""
    return BinnedPmf(np.diff(relay_sum_cdf_uniformized(paths, np.linspace(0.0, gamma_th, n + 1))), gamma_th, n)


def random_gates(rng, m, rate_lo=0.3, rate_hi=4.0):
    """Random gated paths with pairwise well-separated rates."""
    while True:
        lam = rng.uniform(rate_lo, rate_hi, m)
        if m == 1:
            break
        gaps = np.abs(np.subtract.outer(lam, lam))[~np.eye(m, dtype=bool)]
        if gaps.min() > 0.02 * lam.max():
            break
    probs = rng.uniform(0.05, 0.9, m)
    return GatedPaths(probs, lam)


# ---------------------------------------------------------------------------
# GatedPaths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gate_probs, rates, message", [
    ([0.5, -0.1], [1.0, 2.0], "gate probabilities must lie in"),
    ([0.5, 1.1], [1.0, 2.0], "gate probabilities must lie in"),
    ([0.5, math.nan], [1.0, 2.0], "gate probabilities must lie in"),
    ([0.5, 0.5], [1.0, 0.0], "rates must be positive"),
    ([0.5, 0.5], [1.0, -2.0], "rates must be positive"),
    ([0.5, 0.5], [1.0, math.nan], "rates must be positive"),
    ([0.5, 0.5], [1.0], "of one length"),
    ([[0.5]], [[1.0]], "of one length"),
    ([], [], "at least one relay path"),
])
def test_gated_paths_refuse_bad_input(gate_probs, rates, message):
    with pytest.raises(ConfigError, match=message):
        GatedPaths(gate_probs, rates)


def test_gated_paths_hold_float_arrays_and_share_the_tie_check(monkeypatch):
    paths = GatedPaths([0, 1], [2, math.inf])  # both ends of the gate range, an infinite rate
    assert paths.gate_probs.dtype == paths.rates.dtype == np.float64
    assert len(paths) == 2 and paths.empty == 0.0
    calls = []

    def counted(rates):
        calls.append(len(rates))
        return True

    monkeypatch.setattr(analytic, "closed_form_applies", counted)
    other = paths.with_gates([0.25, 0.5])
    assert other.rates is paths.rates and other.empty == 0.125
    assert paths.closed_form and other.closed_form and calls == [2]
    with pytest.raises(ConfigError, match="gate probabilities"):
        paths.with_gates([0.5, 2.0])


# ---------------------------------------------------------------------------
# direct_outage
# ---------------------------------------------------------------------------

def test_direct_outage_zero_threshold():
    assert direct_outage(LinkParam(1.3), 0.0) == 0.0


def test_direct_outage_median():
    assert direct_outage(LinkParam(1.0), math.log(2)) == pytest.approx(0.5)


def test_direct_outage_monte_carlo(paper_setup):
    topo, cfg = paper_setup
    cfg = replace(cfg, power_dbm=20.0)
    rates = link_rates(topo, cfg, 1)
    analytic = direct_outage(LinkParam(rates.direct), cfg.gamma_th)
    rng = np.random.default_rng(2024)
    draws = rng.standard_exponential(1_000_000) / rates.direct
    freq = float(np.mean(draws < cfg.gamma_th))
    sigma = math.sqrt(analytic * (1 - analytic) / draws.size)
    assert abs(freq - analytic) <= 3 * sigma


def test_direct_outage_rejects_negative_threshold():
    with pytest.raises(ConfigError):
        direct_outage(LinkParam(1.0), -0.1)


# ---------------------------------------------------------------------------
# decode_fail_probs
# ---------------------------------------------------------------------------

def test_decode_fail_probs_vanish_at_huge_snr(paper_setup):
    topo, cfg = paper_setup
    strong = replace(cfg, power_dbm=200.0)
    assert np.all(decode_fail_probs(topo, strong, 1) < 1e-12)


def test_decode_fail_probs_zero_threshold(paper_setup):
    topo, cfg = paper_setup
    zero_rate = replace(cfg, rate_r0=1e-300)
    assert np.all(decode_fail_probs(topo, zero_rate, 1) < 1e-12)


def test_decode_fail_probs_increase_with_distance(paper_setup):
    topo, cfg = paper_setup
    fails = decode_fail_probs(topo, cfg, 1)
    order = np.argsort(topo.link_distances.s1_r)
    assert np.all(np.diff(fails[order]) > 0)


# ---------------------------------------------------------------------------
# pairwise pole-ratio coefficients
# ---------------------------------------------------------------------------

def pair_coeffs(rate_x: float, rate_y: float) -> np.ndarray:
    # With both gates open only the two-relay subset has weight, so the
    # aggregated coefficients are the pair's pole ratios r_y / (r_y - r_x).
    return relay_sum_cdf(GatedPaths([0.0, 0.0], [rate_x, rate_y])).coeff_per_rate


def test_coeff_pair_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        dx, dy = rng.uniform(1.0, 9.0, 2)
        if abs(dx - dy) < 1e-3:
            continue
        a = rng.uniform(1.0, 4.0)
        assert float(np.sum(pair_coeffs(dx**a, dy**a))) == pytest.approx(1.0)


def test_coeff_direct_substitution():
    assert pair_coeffs(1.0, 2.0)[0] == pytest.approx(2.0)


def test_coeff_tie_rejected():
    with pytest.raises(ConfigError):
        pair_coeffs(3.0**2, 3.0**2)


# ---------------------------------------------------------------------------
# relay_sum_cdf
# ---------------------------------------------------------------------------

def test_single_relay_closed_form():
    cdf = relay_sum_cdf(GatedPaths([0.4], [1.7]))
    for g in (0.1, 0.8, 2.5):
        assert cdf(g) == pytest.approx(0.6 * -math.expm1(-1.7 * g), abs=1e-14)


def test_cdf_limits():
    rng = np.random.default_rng(5)
    for _ in range(10):
        gates = random_gates(rng, int(rng.integers(1, 5)))
        cdf = relay_sum_cdf(gates)
        assert cdf(0.0) == pytest.approx(0.0, abs=1e-12)
        expect = 1.0 - np.prod(gates.gate_probs)
        assert cdf(1e6) == pytest.approx(expect, abs=1e-10)
        assert cdf.total_mass == pytest.approx(expect, abs=1e-14)


def test_two_relay_value_against_quadrature():
    cdf = relay_sum_cdf(GatedPaths([0.3, 0.6], [1.0, 2.0]))

    # Oracle: integrate each decode set's density directly.
    only_1 = 0.7 * 0.6 * quad(lambda x: math.exp(-x), 0, 1.0)[0]
    only_2 = 0.3 * 0.4 * quad(lambda x: 2 * math.exp(-2 * x), 0, 1.0)[0]
    both_density = lambda x: 2.0 * (math.exp(-x) - math.exp(-2 * x))
    both = 0.7 * 0.4 * quad(both_density, 0, 1.0)[0]
    oracle = only_1 + only_2 + both
    assert cdf(1.0) == pytest.approx(oracle, abs=1e-8)
    assert cdf(1.0) == pytest.approx(0.4811317929709875, abs=1e-10)


def test_subset_expansion_shape():
    cdf = relay_sum_cdf(GatedPaths([0.2, 0.5, 0.7], [1.0, 2.0, 3.5]))
    assert len(cdf.subset_terms) == 7
    weights = sum(t.weight for t in cdf.subset_terms)
    assert weights == pytest.approx(cdf.total_mass)
    # Every per-subset coefficient vector sums to 1 (valid defective CDF piece).
    for term in cdf.subset_terms:
        assert float(np.sum(term.coeffs)) == pytest.approx(1.0, abs=1e-9)


def _loop_relay_sum_cdf(gates):
    """The per-subset loop that the doubling build replaced, frozen as the
    reference for its bits: (coeff_per_rate, total_mass, [(members, weight,
    coeffs), ...])."""

    def kahan_sum(terms):
        order = np.argsort(-np.abs(terms), kind="stable")
        total = 0.0
        carry = 0.0
        for t in terms[order]:
            y = float(t) - carry
            s = total + y
            carry = (s - total) - y
            total = s
        return total

    m, a, lam = len(gates), gates.gate_probs, gates.rates
    theta = np.zeros((m, m))
    for x in range(m):
        for y in range(m):
            if x != y:
                theta[x, y] = lam[y] / (lam[y] - lam[x])
    subset_terms = []
    per_rate = [[] for _ in range(m)]
    for k in range(1, m + 1):
        for members in itertools.combinations(range(m), k):
            idx = np.array(members)
            outside = np.setdiff1d(np.arange(m), idx, assume_unique=True)
            weight = float(np.prod(1.0 - a[idx]) * np.prod(a[outside]))
            coeffs = np.array(
                [np.prod(theta[x, [y for y in members if y != x]]) for x in members]
            )
            subset_terms.append((members, weight, coeffs))
            for x, c in zip(members, coeffs):
                per_rate[x].append(weight * c)
    coeff_per_rate = np.array([kahan_sum(np.array(ts)) for ts in per_rate])
    return coeff_per_rate, float(1.0 - np.prod(a)), subset_terms


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_near_exact_residues(cdf):
    """Each coefficient c_x is within 2 * m * eps * S_x of its residue
    evaluated to 60 digits, where S_x is the same product with every pole
    ratio replaced by its absolute value (the size of the terms that cancel)."""
    mp = pytest.importorskip("mpmath").mp
    m = len(cdf.rates)
    with mp.workdps(60):
        a = [mp.mpf(float(v)) for v in cdf.gate_probs]
        lam = [mp.mpf(float(v)) for v in cdf.rates]
        for x in range(m):
            exact = scale = 1 - a[x]
            for y in range(m):
                if y != x:
                    theta = lam[y] / (lam[y] - lam[x])
                    exact *= a[y] + (1 - a[y]) * theta
                    scale *= a[y] + (1 - a[y]) * abs(theta)
            err = abs(mp.mpf(float(cdf.coeff_per_rate[x])) - exact)
            assert err <= 2 * m * np.finfo(float).eps * scale, (x, err, scale)


@pytest.mark.slow
def test_residue_coefficients_are_near_exact_and_subset_view_is_bit_identical_to_the_loop():
    cases = []
    for power in range(-16, 31, 2):
        topo, cfg = default_paper_setup(power_dbm=float(power))
        cases += [(topo, cfg, 1), (topo, cfg, 2)]
    cases.append((line_topology(16), default_paper_setup()[1], 1))
    gate_sets = []
    for topo, cfg, source in cases:
        fails = decode_fail_probs(topo, cfg, source)
        rates = link_rates(topo, cfg, source).relay_dest
        gate_sets.append(GatedPaths(fails, rates))
    rng = np.random.default_rng(2024)
    for _ in range(300):
        m = int(rng.integers(1, 13))
        probs, lam = rng.uniform(0.0, 1.0, m), rng.uniform(0.05, 5.0, m)
        gate_sets.append(GatedPaths(probs, lam))

    checked = 0
    for gates in gate_sets:
        if not gates.closed_form:
            continue
        cdf = relay_sum_cdf(gates)
        # The SubsetTerm view is built only when read.
        assert "subset_terms" not in vars(cdf)
        _, total_mass, terms = _loop_relay_sum_cdf(gates)
        _assert_near_exact_residues(cdf)
        assert _bits(cdf.total_mass) == _bits(total_mass)
        assert len(cdf.subset_terms) == len(terms) == 2 ** len(gates) - 1
        for got, (members, weight, coeffs) in zip(cdf.subset_terms, terms):
            assert got.members == members
            assert _bits(got.weight) == _bits(weight)
            assert got.coeffs.dtype == coeffs.dtype and _bits(got.coeffs) == _bits(coeffs)
        checked += 1
    assert checked >= 340


def test_relay_sum_cdf_needs_no_subset_expansion():
    # 20 relays: the 2^20 decode sets would take about 168 MB as doubles.
    gates = GatedPaths([0.05 + 0.04 * i for i in range(20)], [0.5 + 0.15 * i for i in range(20)])
    tracemalloc.start()
    try:
        cdf = relay_sum_cdf(gates)
        cdf(np.linspace(0.0, 5.0, 1001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert "subset_terms" not in vars(cdf)
    _assert_near_exact_residues(cdf)


def test_aggregated_coefficients_match_product_identity():
    # Residue form: b_x = (1-A_x) * prod_{y != x} (A_y + (1-A_y) theta_{x,y}).
    rng = np.random.default_rng(11)
    for _ in range(20):
        gates = random_gates(rng, int(rng.integers(2, 6)))
        cdf = relay_sum_cdf(gates)
        a, lam = gates.gate_probs, gates.rates
        for x in range(len(gates)):
            prod = 1.0 - a[x]
            for y in range(len(gates)):
                if y != x:
                    theta = lam[y] / (lam[y] - lam[x])
                    prod *= a[y] + (1 - a[y]) * theta
            assert cdf.coeff_per_rate[x] == pytest.approx(prod, rel=1e-9, abs=1e-12)


def test_tie_switches_to_the_exact_step_continuously():
    tied = GatedPaths([0.3, 0.5], [2.0, 2.0])
    assert not tied.closed_form
    with pytest.raises(ConfigError):
        relay_sum_cdf(tied)
    # Just outside the tie tolerance the closed form applies again and
    # agrees with the tied law, as a CDF and as a relay step within the
    # O(1/n) bias of its bins.
    apart = GatedPaths([0.3, 0.5], [2.0, 2.0 * (1 + 1e-6)])
    assert apart.closed_form
    grid = np.linspace(0.05, 5.0, 40)
    assert np.max(np.abs(relay_sum_cdf(apart)(grid) - numeric_relay_sum_cdf(tied, grid))) < 1e-5
    direct, n = LinkParam(0.8), 1000
    closed = step2_outage(binned_relay_sum(relay_sum_cdf(apart), 2.0, n),
                          bin_conditional_direct(direct, 2.0, n), apart)
    exact = relay_step_outage(direct, tied, 2.0)
    assert abs(closed - exact) < 5.0 / n * exact
    # The exact step on either side of the switch moves with the rates only.
    edge = GatedPaths([0.3, 0.5], [2.0, 2.0 * (1 + 1.5 * RATE_TIE_RTOL)])
    assert edge.closed_form
    assert relay_step_outage(direct, edge, 2.0) == pytest.approx(exact, rel=1e-8)
    # Where the gap keeps the closed form well conditioned, its bins are the series' ones.
    apart = GatedPaths([0.3, 0.5], [2.0, 2.0 * (1 + 1e-3)])
    closed = binned_relay_sum(relay_sum_cdf(apart), 2.0, n)
    assert np.max(np.abs(closed.probs - series_bins(apart, 2.0, n).probs)) < 1e-12


def test_relay_count_cap():
    rates = [1.0 + 0.01 * i for i in range(21)]
    gates = GatedPaths([0.5] * 21, rates)
    assert not gates.closed_form
    assert GatedPaths([0.5] * 20, rates[:20]).closed_form
    with pytest.raises(ConfigError):
        relay_sum_cdf(gates)


def _isclose_form(rates) -> bool:
    """``closed_form_applies`` as it was written with ``np.isclose``."""
    if len(rates) > MAX_RELAYS_CLOSED_FORM:
        return False
    s = np.sort(rates)
    return not np.isclose(s[1:], s[:-1], rtol=RATE_TIE_RTOL, atol=0.0).any()


def _tie_gap_rate_sets() -> list[list[float]]:
    """Pairs at, and one ulp either side of, the relative gap RATE_TIE_RTOL."""
    sets = []
    # At 1e9 and 5e9 the pair sits exactly on the gap: y - x == RATE_TIE_RTOL * x.
    for x in (5e-324, 1e-300, 1e-9, 0.37, 1.0, 2.0, 3.3e7, 1e9, 5e9, 1e300):
        gap = x + RATE_TIE_RTOL * x
        for y in (np.nextafter(gap, 0.0), gap, np.nextafter(gap, np.inf)):
            sets += [[x, y], [y, x], [0.5 * x, y, x], [x, y, 4.0 * y]]
    return sets


def _tie_edge_rate_sets() -> list[list[float]]:
    """Infinities, NaN, one relay, and the relay cap and one past it."""
    inf, nan = math.inf, math.nan
    sets = [[inf, inf], [1.0, inf], [inf, 1.0], [1.0, 2.0, inf], [inf, 1.0, inf],
            [nan, 1.0], [nan, nan], [1.0, nan, 1.0], [nan, 1.0, 2.0], [nan, inf, inf],
            [1.0], [inf], [nan]]
    distinct = [1.0 + 0.01 * i for i in range(MAX_RELAYS_CLOSED_FORM + 1)]
    sets += [distinct, distinct[:-1], distinct[:-1] + [distinct[3]], distinct[:-2] + [1.0]]
    return sets


def test_closed_form_applies_matches_the_isclose_form():
    rng = np.random.default_rng(14)
    gap_sets = _tie_gap_rate_sets()
    at_gap = [_isclose_form(r) for r in gap_sets]
    assert any(at_gap) and not all(at_gap)  # the ulp neighbours fall on both sides
    assert any(y - x == RATE_TIE_RTOL * x for x, y in (r[:2] for r in gap_sets))
    sets = gap_sets + _tie_edge_rate_sets()
    for _ in range(500):
        rates = rng.lognormal(0.0, 3.0, rng.integers(1, MAX_RELAYS_CLOSED_FORM + 2))
        if len(rates) > 1 and rng.random() < 0.5:
            i, j = rng.choice(len(rates), 2, replace=False)
            rates[j] = rates[i] * (1.0 + rng.uniform(0.0, 2.0) * RATE_TIE_RTOL)
        sets.append(list(rates))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf must not warn on stderr
        for rates in sets:
            # Called on the rates alone: NaN cannot reach a GatedPaths.
            assert closed_form_applies(rates) == _isclose_form(rates), rates


def test_cdf_nondecreasing_property():
    rng = np.random.default_rng(17)
    for _ in range(15):
        gates = random_gates(rng, int(rng.integers(1, 6)))
        cdf = relay_sum_cdf(gates)
        grid = np.linspace(0.0, 10.0 / gates.rates.min(), 1000)
        vals = cdf(grid)
        noise = 64 * np.finfo(float).eps * max(1.0, float(np.abs(cdf.coeff_per_rate).sum()))
        assert np.all(np.diff(vals) >= -noise)


def test_cdf_invariant_under_reordering():
    rng = np.random.default_rng(23)
    gates = random_gates(rng, 5)
    grid = np.linspace(0.1, 8.0, 30)
    base = relay_sum_cdf(gates)(grid)
    for _ in range(5):
        perm = rng.permutation(len(gates))
        shuffled = GatedPaths(gates.gate_probs[perm], gates.rates[perm])
        assert np.max(np.abs(relay_sum_cdf(shuffled)(grid) - base)) < 1e-11


# ---------------------------------------------------------------------------
# the uniformized phase-type series
# ---------------------------------------------------------------------------

def _partial_fractions_60(paths, gammas) -> list:
    """``sum_x c_x (1 - exp(-lam_x g))`` with the residues c_x at 60 digits."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(60):
        a = [mp.mpf(v) for v in paths.gate_probs.tolist()]
        lam = [mp.mpf(v) for v in paths.rates.tolist()]
        coeffs = []
        for x in range(len(a)):
            c = 1 - a[x]
            for y in range(len(a)):
                if y != x:
                    c *= a[y] + (1 - a[y]) * lam[y] / (lam[y] - lam[x])
            coeffs.append(c)
        return [mp.fsum(c * -mp.expm1(-r * mp.mpf(g)) for c, r in zip(coeffs, lam))
                for g in gammas.tolist()]


@pytest.mark.parametrize("m, power_dbm", [(8, 0.0), (8, 20.0), (8, 30.0), (16, 10.0), (24, 10.0)])
def test_uniformized_relay_sum_matches_60_digit_partial_fractions(m, power_dbm):
    # 20 and 30 dBm reach CDF values of 1e-25, where the closed form is off
    # by up to 3e9 relative; 24 relays are past the closed form's cap.
    topo = line_topology(m)
    _, cfg = default_paper_setup(power_dbm=power_dbm)
    grid = np.linspace(0.2, 3.0, 8) * cfg.gamma_th
    for source in (1, 2):
        paths = GatedPaths(decode_fail_probs(topo, cfg, source), link_rates(topo, cfg, source).relay_dest)
        assert paths.closed_form == (m <= MAX_RELAYS_CLOSED_FORM)
        got = relay_sum_cdf_uniformized(paths, grid)
        exact = _partial_fractions_60(paths, grid)
        rel = max(float(abs(g - e) / e) for g, e in zip(got.tolist(), exact))
        assert rel <= 1e-12, (source, rel)


def test_uniformized_relay_sum_matches_quadrature_on_tied_rates(paper_setup):
    # Criterion 7's layout: two relays mirrored about the source-destination
    # axis, so their relay-destination rates tie exactly.
    topo8, cfg = paper_setup
    topo = NetworkTopology(topo8.s1_pos, topo8.s2_pos, (100.0, 0.0),
                           ((50.0, 20.0), (50.0, -20.0)), 3.0)
    paths = GatedPaths(decode_fail_probs(topo, cfg, 1), link_rates(topo, cfg, 1).relay_dest)
    assert paths.rates[0] == paths.rates[1] and not paths.closed_form
    grid = np.linspace(0.05, 4.0, 25)
    err = np.abs(relay_sum_cdf_uniformized(paths, grid) - relay_sum_cdf_quadrature(paths, grid))
    assert err.max() < 1e-10


def test_uniformized_relay_sum_is_exactly_zero_at_zero_and_with_every_gate_closed():
    paths = GatedPaths([0.3, 0.6, 0.1], [1.0, 2.2, 3.1])
    assert relay_sum_cdf_uniformized(paths, np.array([0.0, 0.0])).tolist() == [0.0, 0.0]
    closed = paths.with_gates([1.0, 1.0, 1.0])
    assert relay_sum_cdf_uniformized(closed, np.array([0.0, 0.5, 50.0])).tolist() == [0.0] * 3


def test_uniformized_relay_sum_ignores_a_closed_relay():
    # Uniformized at its rate, the closed relay would take 2e9 jumps to reach g = 1.
    grid = np.array([0.1, 1.0])
    with_closed = GatedPaths([0.3, 1.0, 0.6], [1.0, 1e9, 2.2])
    without = GatedPaths([0.3, 0.6], [1.0, 2.2])
    assert _bits(relay_sum_cdf_uniformized(with_closed, grid)) == _bits(relay_sum_cdf_uniformized(without, grid))


def test_uniformized_relay_sum_saturates_where_exp_of_minus_lam_g_underflows():
    # Lam g = 900 and 3000: e^{-Lam g} is 0.0 in floats, the log weights are not.
    paths = GatedPaths([0.5, 0.2], [1.0, 3.0])
    got = relay_sum_cdf_uniformized(paths, np.array([300.0, 1000.0]))
    assert got.tolist() == pytest.approx([0.9, 0.9], rel=1e-14)


@pytest.mark.parametrize("layout", ["paper", "line10", "near-pair"])
@pytest.mark.parametrize("power_dbm", [-30.0, -10.0, 20.0])
def test_uniformized_relay_sum_gives_each_point_its_bits_alone(layout, power_dbm):
    # validate's grid spans 15 times its first point, so its points stop at
    # different series lengths: on the near pair at -30 dBm, where Lam
    # gamma_th is 7 290, from 2 048 to 32 768 rows.  No relay decodes the
    # paper layout or line10 at -30 dBm.
    _, cfg = default_paper_setup(power_dbm=power_dbm)
    topo, grid = _layout(layout), np.linspace(0.2, 3.0, 8) * cfg.gamma_th
    for source in (1, 2):
        paths = GatedPaths(decode_fail_probs(topo, cfg, source), link_rates(topo, cfg, source).relay_dest)
        together = relay_sum_cdf_uniformized(paths, grid)
        assert _bits(together) == _bits([relay_sum_cdf_uniformized(paths, [g])[0] for g in grid.tolist()])
        assert _bits(together[::-1]) == _bits(relay_sum_cdf_uniformized(paths, grid[::-1]))
        assert (together > 0.0).all() == (paths.empty < 1.0)


@pytest.mark.parametrize("power_dbm", [-20.0, -30.0])
def test_uniformized_relay_sum_is_finite_at_very_low_power(power_dbm):
    # At -20 dBm only two relays can decode source 1, and none at -30 dBm.
    topo, cfg = default_paper_setup(power_dbm=power_dbm)
    grid = np.linspace(0.2, 3.0, 8) * cfg.gamma_th
    for source in (1, 2):
        paths = GatedPaths(decode_fail_probs(topo, cfg, source), link_rates(topo, cfg, source).relay_dest)
        got = relay_sum_cdf_uniformized(paths, grid)
        assert np.isfinite(got).all() and (got >= 0.0).all() and (got <= 1.0).all()


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def test_bin_relay_sum_telescopes():
    rng = np.random.default_rng(29)
    gates = random_gates(rng, 3)
    cdf = relay_sum_cdf(gates)
    pmf = binned_relay_sum(cdf, 2.0, 250)
    assert pmf.total == pytest.approx(float(cdf(2.0)), abs=1e-12)
    single = binned_relay_sum(cdf, 2.0, 1)
    assert single.probs.shape == (1,)
    assert single.probs[0] == pytest.approx(float(cdf(2.0)), abs=1e-12)
    refined = binned_relay_sum(cdf, 2.0, 500)
    assert refined.total == pytest.approx(pmf.total, abs=1e-12)


@pytest.mark.parametrize("n", [1, 1000, BLOCK_ROWS - 1])
def test_relay_sums_binned_together_keep_the_bits_each_gets_alone(n):
    rng = np.random.default_rng(31)
    gates = random_gates(rng, 5)
    # One shares the rates array, as both sources' paths do; one has a copy.
    others = [gates.with_gates(rng.uniform(0.05, 0.9, 5)), GatedPaths(rng.uniform(0.05, 0.9, 5), gates.rates.copy())]
    cdfs = [relay_sum_cdf(g) for g in (gates, *others)]
    together = bin_relay_sum(cdfs, 2.0, n)
    assert len(together) == 3
    for cdf, pmf in zip(cdfs, together):
        alone = binned_relay_sum(cdf, 2.0, n)
        assert (pmf.granularity, pmf.noise) == (n, alone.noise)
        assert _bits(pmf.probs) == _bits(alone.probs)


def test_bin_relay_sum_refuses_relay_sums_of_other_rates():
    gates = random_gates(np.random.default_rng(31), 3)
    for rates in (gates.rates * 1.5, gates.rates[:2]):
        other = relay_sum_cdf(GatedPaths(gates.gate_probs[: len(rates)], rates))
        with pytest.raises(ConfigError, match="share their rates"):
            bin_relay_sum([relay_sum_cdf(gates), other], 2.0, 100)


@pytest.mark.parametrize("n", [0, BLOCK_ROWS, 100_000])
def test_bin_relay_sum_refuses_more_bins_than_one_basis_block(n):
    cdf = relay_sum_cdf(random_gates(np.random.default_rng(31), 3))
    with pytest.raises(ConfigError, match=f"binned on 1 to {BLOCK_ROWS - 1} bins, got {n}"):
        bin_relay_sum([cdf], 2.0, n)


def test_cdf_basis_in_one_buffer_keeps_the_bits_of_the_temporaries():
    rng = np.random.default_rng(33)
    for m in (1, 3, 8, 16):
        cdf = relay_sum_cdf(random_gates(rng, m))
        for gammas in (np.linspace(0.0, 3.0, 1001), rng.uniform(0.0, 5.0, 37)):
            reference = -np.expm1(-np.multiply.outer(gammas, cdf.rates)) @ cdf.coeff_per_rate
            assert np.array_equal(cdf(gammas), reference)
        assert cdf(0.7) == float(-np.expm1(-0.7 * cdf.rates) @ cdf.coeff_per_rate)


def test_binned_relay_sum_is_the_cdf_on_the_edge_grid_bit_for_bit():
    rng = np.random.default_rng(35)
    # The smallest threshold a config accepts (2**-52, from 2**rate_r0 - 1),
    # the paper's, and random ones over the whole float range; rates from
    # the paper's relay links down to ones whose exponents underflow.  The
    # coefficients are positive, so no increment is clamped.
    thresholds = [2.0 ** -52, 1.0, 3.0, math.pi, 1e300, *(10.0 ** rng.uniform(-15, 300, 40))]
    rates, coeffs = np.array([1e-300, 0.37, 2.0, 7.5]), np.array([0.1, 0.2, 0.3, 0.25])
    for gamma_th in thresholds:
        for n in (1, 2, 3, 7, 999, 1000, BLOCK_ROWS - 1):
            k = 1 + n % 4
            cdf = analytic.DefectiveCdf(rates[:k], np.zeros(k), coeffs[:k], float(coeffs[:k].sum()))
            # Edge i is i * (gamma_th / n), and the last is gamma_th.
            edges = np.arange(n + 1.0) * (gamma_th / n)
            edges[-1] = gamma_th
            [pmf] = bin_relay_sum([cdf], gamma_th, n)
            assert _bits(pmf.probs) == _bits(np.diff(cdf(edges))), (gamma_th, n)


def test_bin_conditional_direct_normalizes():
    link = LinkParam(0.8)
    pmf = bin_conditional_direct(link, 1.0, 400)
    assert pmf.total == pytest.approx(1.0, abs=1e-12)
    assert bin_conditional_direct(link, 1.0, 1).probs[0] == pytest.approx(1.0)
    with pytest.raises(ConditioningError):
        bin_conditional_direct(link, 0.0, 10)


def test_bin_conditional_direct_matches_conditional_histogram(paper_setup):
    topo, cfg = paper_setup
    rates = link_rates(topo, cfg, 1)
    n_bins = 20
    pmf = bin_conditional_direct(LinkParam(rates.direct), cfg.gamma_th, n_bins)
    rng = np.random.default_rng(31)
    draws = rng.standard_exponential(4_000_000) / rates.direct
    accepted = draws[draws < cfg.gamma_th]
    assert accepted.size > 1_000_000
    hist, _ = np.histogram(accepted, bins=np.linspace(0.0, cfg.gamma_th, n_bins + 1))
    emp = hist / accepted.size
    sigma = np.sqrt(pmf.probs * (1 - pmf.probs) / accepted.size)
    assert np.all(np.abs(emp - pmf.probs) <= 4 * sigma + 1e-12)


def test_binned_pmf_validation():
    with pytest.raises(ConfigError):
        BinnedPmf(np.array([-0.2, 0.1]), 1.0, 2)
    with pytest.raises(ConfigError):
        BinnedPmf(np.array([0.9, 0.9]), 1.0, 2)


# ---------------------------------------------------------------------------
# step2_outage
# ---------------------------------------------------------------------------

def test_step2_zero_when_relay_mass_above_threshold():
    gates = GatedPaths([0.2], [0.5])
    relay_pmf = BinnedPmf(np.zeros(100), 1.0, 100)
    direct_pmf = bin_conditional_direct(LinkParam(1.0), 1.0, 100)
    assert step2_outage(relay_pmf, direct_pmf, gates) == 0.0


def test_step2_requires_matching_grids():
    gates = GatedPaths([0.2], [0.5])
    cdf = relay_sum_cdf(gates)
    with pytest.raises(ConfigError):
        step2_outage(
            binned_relay_sum(cdf, 1.0, 100),
            bin_conditional_direct(LinkParam(1.0), 1.0, 200),
            gates,
        )


def test_step2_impossible_conditioning():
    gates = GatedPaths([1.0], [0.5])
    cdf = relay_sum_cdf(gates)
    with pytest.raises(ConditioningError):
        step2_outage(
            binned_relay_sum(cdf, 1.0, 50),
            bin_conditional_direct(LinkParam(1.0), 1.0, 50),
            gates,
        )


def test_step2_single_relay_against_quadrature():
    # Two-path brute force: direct SNR conditioned below the threshold plus
    # one decoded relay's exponential, integrated exactly.
    direct_rate, relay_rate, gamma_th, n = 1.1, 0.7, 1.0, 4000
    gates = GatedPaths([0.35], [relay_rate])
    est = step2_outage(
        binned_relay_sum(relay_sum_cdf(gates), gamma_th, n),
        bin_conditional_direct(LinkParam(direct_rate), gamma_th, n),
        gates,
    )
    denom = -math.expm1(-direct_rate * gamma_th)

    def integrand(x):
        inner = -math.expm1(-relay_rate * (gamma_th - x))
        return direct_rate * math.exp(-direct_rate * x) / denom * inner

    oracle = quad(integrand, 0.0, gamma_th, epsabs=1e-12)[0]
    # The literal summation convention undercounts by at most O(1/n).
    assert est <= oracle + 1e-12
    assert abs(est - oracle) < 1.0 / n


def test_step2_monotone_in_power(paper_setup):
    topo, cfg = paper_setup
    values = []
    for p in np.linspace(0.0, 30.0, 11):
        outs = step_outages(topo, replace(cfg, power_dbm=float(p)))
        values.append(outs[1].relay)
    assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# step_outages
# ---------------------------------------------------------------------------

def test_symmetric_geometry_gives_equal_sources():
    # Relays on the mirror axis so swapping sources leaves every rate equal
    # while relay-destination distances stay pairwise distinct.
    topo = NetworkTopology(
        s1_pos=(0, 10), s2_pos=(0, -10), d_pos=(60, 0),
        relay_pos=[(25, 0), (35, 0), (45, 0)], alpha=2.7,
    )
    cfg = SystemConfig(power_dbm=8.0, granularity=400)
    s1, s2 = step_outages(topo, cfg).values()
    assert s1.bcast == pytest.approx(s2.bcast, rel=1e-12)
    assert s1.relay == pytest.approx(s2.relay, rel=1e-9, abs=1e-12)
    assert s1.empty == pytest.approx(s2.empty, rel=1e-12)


def test_personalized_phase_copies_shared(paper_setup):
    # Source 1 carries shared and personal1, source 2 carries personal2.
    topo, cfg = paper_setup
    outs = step_outages(topo, cfg)
    steps = labelled(outs)
    assert steps["personal1:bcast"] == steps["shared:bcast"] == outs[1].bcast
    assert steps["personal1:relay"] == steps["shared:relay"] == outs[1].relay
    assert (steps["personal2:bcast"], steps["personal2:relay"]) == (outs[2].bcast, outs[2].relay)
    assert steps["personal2:bcast"] != steps["shared:bcast"]


@pytest.mark.parametrize("power", [-30.0, 4.0, 10.0, 30.0])
def test_without_relay_cooperation_every_relay_step_is_skipped(monkeypatch, paper_setup, power):
    # No relay hears a source, so every gate is 1: no relay step is taken,
    # and neither a basis nor the exact step is computed.  The broadcast
    # outages are the cooperative ones.
    topo, cfg = paper_setup
    cfg = replace(cfg, power_dbm=power)
    coop = step_outages(topo, cfg)
    built = []
    with monkeypatch.context() as m:
        m.setattr(analytic, "exp_cdf_basis", lambda *args: built.append(args))
        m.setattr(analytic, "relay_step_outage", lambda *args: built.append(args))
        alone = step_outages(topo, cfg, False)
    assert built == []
    for source, out in alone.items():
        assert (out.bcast, out.relay, out.empty) == (coop[source].bcast, 1.0, 1.0)
        assert (analytic.decode_fail_probs(topo, cfg, source, False) == 1.0).all()
    assert step_outages(topo, cfg, True) == coop  # the option is part of the memo's key
    # At a zero threshold an SNR of 0 decodes, and the gates read 0, not NaN.
    zero = replace(cfg, rate_r0=1e-300)
    assert zero.gamma_th == 0.0 and not analytic.decode_fail_probs(topo, zero, 1, False).any()


def test_all_outages_vanish_at_huge_snr(paper_setup):
    topo, cfg = paper_setup
    outs = step_outages(topo, replace(cfg, power_dbm=150.0))
    for src in outs.values():
        assert src.bcast < 1e-9 and src.relay < 1e-9


def _per_source_pipeline(topo, cfg, source):
    """One source's step outages through the public steps, with its own
    relay-sum basis where the closed form is binned and the exact step elsewhere."""
    rates = link_rates(topo, cfg, source)
    fails = decode_fail_probs(topo, cfg, source)
    gates = GatedPaths(fails, rates.relay_dest)
    direct, gamma_th, n = LinkParam(rates.direct), cfg.gamma_th, cfg.granularity
    empty = float(np.prod(fails))
    if empty >= 1.0:
        return SourceOutages(direct_outage(direct, gamma_th), 1.0, empty)
    if not bins_closed_form(gates, n):
        return SourceOutages(direct_outage(direct, gamma_th), relay_step_outage(direct, gates, gamma_th), empty)
    relay_pmf = binned_relay_sum(relay_sum_cdf(gates), gamma_th, n)
    relay = step2_outage(relay_pmf, bin_conditional_direct(direct, gamma_th, n), gates)
    return SourceOutages(direct_outage(direct, gamma_th), relay, empty)


@pytest.mark.parametrize("n", [1, 2, 1000, 100_000])
@pytest.mark.parametrize("relays", [8, 16])
def test_step_outages_equal_the_per_source_pipeline(paper_setup, relays, n):
    # Both sources bin their relay sums on one basis; every output keeps
    # the bits binning that source alone gives.  Past one basis block of
    # edges (n = 1e5), both take the exact step.
    topo = paper_setup[0] if relays == 8 else line_topology(relays)
    for p in range(-10, 31, 2):
        cfg = replace(paper_setup[1], power_dbm=float(p), granularity=n)
        outs = step_outages(topo, cfg)
        for source in (1, 2):
            assert outs[source] == _per_source_pipeline(topo, cfg, source), (p, source)


@pytest.mark.parametrize("relays", [10, MAX_RELAYS_CLOSED_FORM + 4])
def test_tied_and_over_cap_rates_take_the_exact_step_for_both_sources(monkeypatch, paper_setup, relays):
    topo = line_topology(relays)
    cfg = paper_setup[1]
    assert not closed_form_applies(link_rates(topo, cfg, 1).relay_dest)
    seen, bases = [], []

    def spy(direct, paths, gamma_th):
        seen.append((len(paths), gamma_th))
        return relay_step_outage(direct, paths, gamma_th)

    monkeypatch.setattr(analytic, "relay_step_outage", spy)
    monkeypatch.setattr(analytic, "relay_sum_cdf_uniformized", lambda *a: bases.append(a))
    monkeypatch.setattr(analytic, "exp_cdf_basis", lambda *a: bases.append(a))
    outs = step_outages(topo, cfg)
    # One exact step per source at the threshold; no basis, no series.
    assert seen == [(relays, cfg.gamma_th)] * 2 and bases == []
    for source in (1, 2):
        assert outs[source] == _per_source_pipeline(topo, cfg, source)


def _binning(monkeypatch, topo, cfg):
    """What one ``step_outages`` call computes: how many relay sums each
    ``bin_relay_sum`` call takes, the edge count of every basis, and how
    many exact relay steps it takes."""
    sums, rows, exact = [], [], []
    real_bin, real_basis, real_step = analytic.bin_relay_sum, analytic.exp_cdf_basis, analytic.relay_step_outage

    def bin_spy(cdfs, *args):
        sums.append(len(cdfs))
        return real_bin(cdfs, *args)

    def basis_spy(gammas, rates):
        rows.append(len(gammas))
        return real_basis(gammas, rates)

    def step_spy(*args):
        exact.append(args)
        return real_step(*args)

    with monkeypatch.context() as m:
        m.setattr(analytic, "bin_relay_sum", bin_spy)
        m.setattr(analytic, "exp_cdf_basis", basis_spy)
        m.setattr(analytic, "relay_step_outage", step_spy)
        step_outages(topo, cfg)
    return sums, rows, len(exact)


@pytest.mark.parametrize("n", [1, 1000, BLOCK_ROWS - 1, BLOCK_ROWS, 100_000])
def test_each_edge_is_built_once_per_step_outages_call_for_both_sources(monkeypatch, paper_setup, n):
    topo, cfg = paper_setup
    cfg = replace(cfg, granularity=n)
    # One basis for both sources holds the n + 1 edges once; past one basis
    # block of edges, each source takes the exact step and nothing is binned.
    binned = n + 1 <= BLOCK_ROWS
    assert _binning(monkeypatch, topo, cfg) == (([2], [n + 1], 0) if binned else ([], [], 2))
    # At -20 dBm no relay decodes source 2, but some decode source 1.
    low = replace(cfg, power_dbm=-20.0)
    assert (decode_fail_probs(topo, low, 2) == 1.0).all()
    assert _binning(monkeypatch, topo, low) == (([1], [n + 1], 0) if binned else ([], [], 1))


@pytest.mark.parametrize("case", ["noiseless", "zero-threshold", "tied", "21-relays", "all-fail"])
def test_no_basis_where_no_source_bins_the_closed_form(monkeypatch, paper_setup, case):
    topo, cfg = paper_setup
    topo, cfg = {
        "noiseless": (topo, replace(cfg, noise_dbm=-math.inf)),
        "zero-threshold": (topo, replace(cfg, rate_r0=1e-17)),
        "tied": (line_topology(10), cfg),
        "21-relays": (line_topology(MAX_RELAYS_CLOSED_FORM + 1), cfg),
        "all-fail": (topo, replace(cfg, power_dbm=-30.0)),
    }[case]
    assert _binning(monkeypatch, topo, cfg)[:2] == ([], [])


def test_one_tie_check_per_step_outages_and_each_link_measured_once_per_analyze(
        monkeypatch, capsys, paper_setup):
    from mdma_relay import topology
    from mdma_relay.cli import main

    ties, measured = [], []
    real_euclidean = topology.euclidean

    def tie_check(rates):
        ties.append(len(rates))
        return closed_form_applies(rates)

    def euclidean(a, b):
        measured.append((a, b))
        return real_euclidean(a, b)

    monkeypatch.setattr(analytic, "closed_form_applies", tie_check)
    monkeypatch.setattr(topology, "euclidean", euclidean)
    topo, cfg = default_paper_setup()
    assert len(measured) == 2 + 3 * 8  # each link once, as the topology is built
    step_outages(topo, cfg)
    step_outages(topo, replace(cfg, power_dbm=20.0))
    assert ties == [8, 8] and len(measured) == 26
    ties.clear(), measured.clear()
    assert main(["analyze", "--paper-defaults"]) == 0
    capsys.readouterr()
    assert ties == [8]  # two step_outages calls, the second a lookup
    assert len(measured) == 26
    # Called directly, the closed form still checks its rates.
    for paths in (GatedPaths([0.5, 0.5], [2.0, 2.0]), GatedPaths([0.5] * 21, 1.0 + 0.01 * np.arange(21))):
        with pytest.raises(ConfigError, match="subset expansion"):
            relay_sum_cdf(paths)


# ---------------------------------------------------------------------------
# step_outages keeps its last result, and nothing else
# ---------------------------------------------------------------------------

def _computed(monkeypatch):
    """The sources whose links ``step_outages`` reads: two per computation."""
    sources = []

    def spy(topology, config, source, *cooperate):
        sources.append(source)
        return link_rates(topology, config, source, *cooperate)

    monkeypatch.setattr(analytic, "link_rates", spy)
    return sources


def _outage_bits(outs):
    return {source: _bits((o.bcast, o.relay, o.empty)) for source, o in outs.items()}


def _fresh_bits(topo, cfg):
    analytic._step_outages.cache_clear()
    return _outage_bits(step_outages(topo, cfg))


def test_step_outages_keep_one_entry(monkeypatch, paper_setup):
    topo, a = paper_setup
    b = replace(a, power_dbm=20.0)
    computed = _computed(monkeypatch)
    for cfg in (a, a, b, a):
        step_outages(topo, cfg)
    assert computed == [1, 2] * 3  # a, b, a: the entry of a is gone by the second a


@pytest.mark.parametrize("case", ["paper", "20dBm", "n1e5", "tied", "noiseless", "all-fail"])
def test_a_stored_result_has_the_bits_of_a_fresh_one(paper_setup, case):
    topo, cfg = paper_setup
    topo, cfg = {
        "paper": (topo, cfg),
        "20dBm": (topo, replace(cfg, power_dbm=20.0)),
        "n1e5": (topo, replace(cfg, granularity=100_000)),
        "tied": (line_topology(10), cfg),
        "noiseless": (topo, replace(cfg, noise_dbm=-math.inf)),
        "all-fail": (topo, replace(cfg, power_dbm=-30.0)),
    }[case]
    first = step_outages(topo, cfg)
    again = step_outages(topo, cfg)
    assert again is not first and _outage_bits(again) == _outage_bits(first) == _fresh_bits(topo, cfg)


def test_an_equal_key_built_otherwise_reads_the_entry_with_fresh_bits(monkeypatch, paper_setup):
    topo, cfg = paper_setup
    # Whole numbers as ints, relays as a list, and a granularity written as a float.
    relays = [(50, 55 - 25 * (2 * i - 1) / 4) for i in range(1, 9)]
    topo_int = NetworkTopology((20, 20), (0, 20), (100, 0), relays, 3)
    cfg_int = SystemConfig(power_dbm=10, noise_dbm=-50, rate_r0=1, total_bits=10, granularity=1000.0)
    computed = _computed(monkeypatch)
    for t, c in ((topo, replace(cfg)), (topo_int, cfg_int), (topo_int, cfg)):
        assert (t, c) == (topo, cfg) and hash((t, c)) == hash((topo, cfg))
        expected = _fresh_bits(t, c)
        analytic._step_outages.cache_clear()
        step_outages(topo, cfg)
        computed.clear()
        assert _outage_bits(step_outages(t, c)) == expected and computed == []


def test_a_changed_result_leaves_the_entry_as_it_was(paper_setup):
    topo, cfg = paper_setup
    expected = _fresh_bits(topo, cfg)
    outs = step_outages(topo, cfg)
    outs[1] = SourceOutages(1.0, 1.0, 1.0)
    del outs[2]
    assert _outage_bits(step_outages(topo, cfg)) == expected


def test_a_refused_input_is_not_stored(monkeypatch, paper_setup):
    topo, cfg = paper_setup
    # Source 1 so close to the destination that its link rate underflows to 0.
    near = NetworkTopology((0.0, 0.0), topo.s2_pos, (1e-110, 0.0), topo.relay_pos, topo.alpha)
    step_outages(topo, cfg)
    computed = _computed(monkeypatch)
    for _ in range(2):
        with pytest.raises(ConfigError, match="link rate must be positive"):
            step_outages(near, cfg)
    assert computed == [1, 2] * 2
    step_outages(topo, cfg)  # the entry before the refusal is still there
    assert computed == [1, 2] * 2


def test_a_power_sweep_computes_every_point(monkeypatch, paper_setup):
    from mdma_relay.experiments import SweepSpec, run_sweep

    topo, cfg = paper_setup
    spec = SweepSpec("power_dbm", tuple(float(p) for p in range(0, 31, 2)), ("mdma",), 100)
    computed = _computed(monkeypatch)
    rows = run_sweep(spec, topo, cfg)
    assert len(rows) == 16 and computed == [1, 2] * 16


@pytest.mark.parametrize("layout, power_dbm, n", [
    ("paper", 20.0, 100_000), ("line16", 10.0, 100_000), ("line16", 10.0, 1_000_000),
])
def test_step_outages_past_one_basis_block_hold_nothing_of_the_bin_count(paper_setup, layout, power_dbm, n):
    topo = paper_setup[0] if layout == "paper" else line_topology(16)
    cfg = replace(paper_setup[1], power_dbm=power_dbm, granularity=n)
    step_outages(topo, replace(cfg, granularity=10))  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        step_outages(topo, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The exact step holds a few (m + 1)-square matrices, 15 to 23 kB here;
    # one vector of the n + 1 edges alone is 0.8 MB at n = 1e5.
    assert peak < 100_000


# ---------------------------------------------------------------------------
# the exact relay step: tied rates and more relays than the cap
# ---------------------------------------------------------------------------

def test_closed_form_bins_match_the_series_small_m():
    # Well-separated rates and m <= 4 keep the closed form well conditioned,
    # so the two evaluations of the same CDF bin alike to rounding.
    rng = np.random.default_rng(37)
    n = 500
    for _ in range(8):
        m = int(rng.integers(1, 5))
        gates = random_gates(rng, m)
        gamma_th = 1.5 / gates.rates.min()
        closed = binned_relay_sum(relay_sum_cdf(gates), gamma_th, n)
        assert np.max(np.abs(closed.probs - series_bins(gates, gamma_th, n).probs)) < 1e-12


def test_numeric_cdf_tracks_closed_form():
    gates = GatedPaths([0.3, 0.6, 0.1], [1.0, 2.2, 3.1])
    grid = np.linspace(0.2, 6.0, 25)
    closed = relay_sum_cdf(gates)(grid)
    numeric = numeric_relay_sum_cdf(gates, grid)
    assert np.max(np.abs(closed - numeric)) < 1e-5


def test_exact_step_handles_many_relays(paper_setup):
    # 24 relays exceed the closed form's cap; the exact step runs.
    topo8, cfg = paper_setup
    relays = tuple((50.0, 48.75 - 3.4 * i) for i in range(24))
    topo = NetworkTopology(topo8.s1_pos, topo8.s2_pos, topo8.d_pos, relays, 3.0)
    outs = step_outages(topo, cfg)
    assert 0.0 <= outs[1].relay <= 1.0 and 0.0 <= outs[1].empty < 1.0
    # More relays than the reference layout can only help the relay step.
    ref = step_outages(topo8, cfg)
    assert outs[1].relay <= ref[1].relay + 1e-9
    assert outs[2].relay <= ref[2].relay + 1e-9


@pytest.mark.parametrize("power_dbm", [0.0, 4.0, 10.0])
def test_exact_step_agrees_with_the_binned_closed_form(paper_setup, power_dbm):
    # On the paper layout the closed form's relay step sums bins, which
    # undercounts by O(1/n): about 2/n relative here.
    topo, cfg = paper_setup
    low = replace(cfg, power_dbm=power_dbm)
    outs = step_outages(topo, low)
    for source in (1, 2):
        rates = link_rates(topo, low, source)
        gates = GatedPaths(decode_fail_probs(topo, low, source), rates.relay_dest)
        assert gates.closed_form
        exact = relay_step_outage(LinkParam(rates.direct), gates, low.gamma_th)
        assert outs[source].relay <= exact
        assert abs(outs[source].relay - exact) < 5.0 / low.granularity * exact


@pytest.mark.parametrize("power_dbm", [0.0, 4.0, 10.0])
def test_closed_form_relay_step_agrees_with_the_series_bins(paper_setup, power_dbm):
    # On the paper layout the closed form carries cancellation noise of up to
    # 64 eps sum|c| per bin (bin_relay_sum's clamp floor); the series' bins
    # and the relay step they give agree with it within that floor.
    topo, cfg = paper_setup
    low = replace(cfg, power_dbm=power_dbm)
    n = low.granularity
    outs = step_outages(topo, low)
    for source in (1, 2):
        rates = link_rates(topo, low, source)
        gates = GatedPaths(decode_fail_probs(topo, low, source), rates.relay_dest)
        assert gates.closed_form
        cdf = relay_sum_cdf(gates)
        floor = 64.0 * np.finfo(float).eps * np.abs(cdf.coeff_per_rate).sum()
        series = series_bins(gates, low.gamma_th, n)
        closed = binned_relay_sum(cdf, low.gamma_th, n)
        assert np.max(np.abs(series.probs - closed.probs)) < floor
        relay = step2_outage(series, bin_conditional_direct(LinkParam(rates.direct), low.gamma_th, n), gates)
        assert abs(relay - outs[source].relay) < floor


def _relay_step_60(direct_rate, gamma_th, paths):
    """The relay-step outage at 60 digits, from the phase-type law of the
    direct SNR followed by the decoded relays' SNRs: [exp(Q g)]_{direct,
    absorb} / ((1 - e^{-lam_d g}) (1 - prod a)).  Tied rates need no care."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(60):
        a = [mp.mpf(v) for v in paths.gate_probs.tolist()]
        lam = [mp.mpf(v) for v in paths.rates.tolist()]
        lam_d, g, m = mp.mpf(direct_rate), mp.mpf(gamma_th), len(a)
        absorb, empty = m + 1, m + 2
        q = mp.zeros(m + 3, m + 3)

        def route(frm, out_rate, first):
            # To the next decoded relay from `first` on; returns the mass that skips them all.
            skipped = mp.mpf(1)
            for k in range(first, m):
                q[frm, 1 + k] += out_rate * skipped * (1 - a[k])
                skipped *= a[k]
            return skipped

        q[0, 0] = -lam_d
        q[0, empty] += lam_d * route(0, lam_d, 0)
        for j in range(m):
            q[1 + j, 1 + j] = -lam[j]
            q[1 + j, absorb] += lam[j] * route(1 + j, lam[j], j + 1)
        return mp.expm(q * g)[0, absorb] / (-mp.expm1(-lam_d * g) * (1 - mp.fprod(a)))


def _relay_step_rel_errs(topo, cfg):
    """``step_outages`` and the relative error of each source's relay step
    against 60 digits."""
    outs = step_outages(topo, cfg)
    errs = []
    for source in (1, 2):
        rates = link_rates(topo, cfg, source)
        paths = GatedPaths(decode_fail_probs(topo, cfg, source), rates.relay_dest)
        exact = _relay_step_60(rates.direct, cfg.gamma_th, paths)
        errs.append(float(abs(outs[source].relay - exact) / exact))
    return outs, errs


def _near_source_pair():
    """Two relays mirrored about the source-1-to-destination axis, 10 m from
    source 1 and 90 m from the destination, so their rates tie."""
    topo, _ = default_paper_setup()
    s1, d = np.array(topo.s1_pos), np.array(topo.d_pos)
    span = float(np.linalg.norm(d - s1))
    along = (d - s1) / span
    across = np.array([-along[1], along[0]])
    x = (10.0**2 - 90.0**2 + span**2) / (2.0 * span)
    mid, off = s1 + x * along, math.sqrt(10.0**2 - x**2) * across
    return NetworkTopology(topo.s1_pos, topo.s2_pos, topo.d_pos,
                           (tuple(mid + off), tuple(mid - off)), topo.alpha)


def _layout(name):
    """The topology of a layout name: "paper", "near-pair" or "line<m>"."""
    if name == "paper":
        return default_paper_setup()[0]
    return _near_source_pair() if name == "near-pair" else line_topology(int(name[4:]))


@pytest.mark.parametrize("layout, power_dbm, n", [
    *(pytest.param(f"line{m}", p, 1000, id=f"line{m}-{p}") for m in (10, 24) for p in (-10.0, 0.0, 10.0, 30.0)),
    *(pytest.param("near-pair", p, 1000, id=f"near-pair-{p}") for p in (-30.0, -20.0, -10.0, 0.0, 10.0)),
    *(pytest.param(layout, p, 100_000, id=f"{layout}-{p}-n1e5")
      for layout in ("paper", "line16") for p in (-12.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0)),
])
def test_exact_step_is_within_1e_13_of_60_digits(layout, power_dbm, n):
    # Tied (line10, the near-source pair) and over-cap (line24) layouts, and
    # the paper layout and line16 past one basis block of bins.  The relay
    # steps reach 1e-29 on line10 at 30 dBm, and the near pair's relays
    # decode often but reach the destination weakly: Lam gamma_th is 7 290 at
    # -30 dBm.  At -12 dBm the paper layout's series is its longest, 512
    # terms for source 2.  Binned on n = 1 000 bins the tied steps were off
    # by up to 3.6e-3, and binned on 1e5 bins the paper layout by 8.3e5 at
    # 20 dBm.
    _, cfg = default_paper_setup(power_dbm=power_dbm, granularity=n)
    outs, errs = _relay_step_rel_errs(_layout(layout), cfg)
    assert max(errs) <= 1e-13, errs
    assert all(0.0 < out.relay <= 1.0 for out in outs.values())


@pytest.mark.parametrize("layout, ns", [
    *((layout, (1, 2, 7, 1000, 1_000_000)) for layout in ("line10", "line24", "near-pair")),
    *((layout, (BLOCK_ROWS, 100_000, 1_000_000)) for layout in ("paper", "line16")),
], ids=["line10", "line24", "near-pair", "paper", "line16"])
def test_exact_step_does_not_depend_on_the_granularity(layout, ns):
    topo = _layout(layout)
    for power in (-10.0, 10.0, 30.0):
        _, cfg = default_paper_setup(power_dbm=power)
        bits = {tuple(_outage_bits(step_outages(topo, replace(cfg, granularity=n))).items()) for n in ns}
        assert len(bits) == 1, (power, bits)
        for source in (1, 2):
            rates = link_rates(topo, cfg, source)
            paths = GatedPaths(decode_fail_probs(topo, cfg, source), rates.relay_dest)
            exact = relay_step_outage(LinkParam(rates.direct), paths, cfg.gamma_th)
            assert _bits(step_outages(topo, replace(cfg, granularity=ns[0]))[source].relay) == _bits(exact)


# Relay steps of the paper layout at 20 dBm on 4 095 bins, the most the
# closed form is binned on: the bits it had when it was binned at any n.
BINNED_AT_4095 = {1: "0x1.4de14b651cf74p-35", 2: "0x1.3a1a9a0285afdp-35"}


def test_the_closed_form_is_binned_up_to_4095_bins_and_exact_from_4096(paper_setup):
    topo, cfg = paper_setup
    cfg = replace(cfg, power_dbm=20.0)
    below, at = (step_outages(topo, replace(cfg, granularity=n)) for n in (BLOCK_ROWS - 1, BLOCK_ROWS))
    for source in (1, 2):
        rates = link_rates(topo, cfg, source)
        paths = GatedPaths(decode_fail_probs(topo, cfg, source), rates.relay_dest)
        assert bins_closed_form(paths, BLOCK_ROWS - 1) and not bins_closed_form(paths, BLOCK_ROWS)
        assert below[source].relay.hex() == BINNED_AT_4095[source]
        assert _bits(at[source].relay) == _bits(relay_step_outage(LinkParam(rates.direct), paths, cfg.gamma_th))
        assert (below[source].bcast, below[source].empty) == (at[source].bcast, at[source].empty)


def test_exact_step_ignores_closed_gates():
    # Uniformized at its rate, the closed relay would set Lam gamma = 1e9.
    direct = LinkParam(1.3)
    with_closed = GatedPaths([0.3, 1.0, 0.6], [1.0, 1e9, 2.2])
    without = GatedPaths([0.3, 0.6], [1.0, 2.2])
    got = relay_step_outage(direct, with_closed, 1.0)
    assert _bits(got) == _bits(relay_step_outage(direct, without, 1.0)) and 0.0 < got < 1.0
    with pytest.raises(ConditioningError):
        relay_step_outage(direct, with_closed.with_gates([1.0] * 3), 1.0)


@pytest.mark.parametrize("layout", ["line10", "line24", "near-pair"])
@pytest.mark.parametrize("power_dbm", [-61.0, 201.0])
def test_exact_step_is_a_probability_at_extreme_powers(layout, power_dbm):
    # At -61 dBm no relay decodes; at 201 dBm every rate is about 1e-20 and
    # the relay steps fall to 1e-40 and below.
    topo = _near_source_pair() if layout == "near-pair" else line_topology(int(layout[4:]))
    _, cfg = default_paper_setup(power_dbm=power_dbm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = step_outages(topo, cfg)
    for out in outs.values():
        assert type(out.relay) is float and 0.0 <= out.relay <= 1.0


def test_exact_step_refuses_a_series_past_its_cap():
    # Relay 1 sits on source 1, so its gate is open at any power.  At -40 dBm
    # the largest rate times gamma_th is 5.6e4, which 65 536 jumps cover; at
    # -44 dBm it is 1.4e5, past the 131 072-jump cap.
    topo = underflow_topology((20.0, 20.0))
    _, cfg = default_paper_setup(power_dbm=-40.0, granularity=100_000)
    rates = link_rates(topo, cfg, 1)
    paths = GatedPaths(decode_fail_probs(topo, cfg, 1), rates.relay_dest)
    assert step_outages(topo, cfg)[1].relay == float(_relay_step_60(rates.direct, cfg.gamma_th, paths)) == 1.0
    with pytest.raises(ConfigError, match=r"more than 131072 jumps \(largest rate times threshold 1.409e\+05\)"):
        step_outages(topo, replace(cfg, power_dbm=-44.0))


def _step2_by_convolution(relay_pmf, direct_pmf, gates):
    """Frozen reference: the relay step by a full O(n^2) convolution."""
    empty_prob = float(np.prod(gates.gate_probs))
    n = relay_pmf.granularity
    combined = np.convolve(relay_pmf.probs, direct_pmf.probs)
    # Raw convolution index k (0-based) holds bin-index sum k+2.
    below = float(combined[: max(n - 1, 0)].sum())
    return min(max(below / (1.0 - empty_prob), 0.0), 1.0)


def _paper_pmfs(power_dbm, n):
    topo, cfg = default_paper_setup(power_dbm=power_dbm, granularity=n)
    for source in (1, 2):
        rates = link_rates(topo, cfg, source)
        gates = GatedPaths(decode_fail_probs(topo, cfg, source), rates.relay_dest)
        yield (
            binned_relay_sum(relay_sum_cdf(gates), cfg.gamma_th, n),
            bin_conditional_direct(LinkParam(rates.direct), cfg.gamma_th, n),
            gates,
        )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, BLOCK_ROWS - 1])
def test_step2_prefix_sum_matches_the_convolution(n):
    rng = np.random.default_rng(20_000 + n)
    cases = [c for p in (-10.0, 0.0, 10.0, 20.0, 30.0) for c in _paper_pmfs(p, n)]
    for _ in range(20):
        gates = GatedPaths(rng.uniform(0.0, 0.9, 3), np.ones(3))
        relay, direct = (rng.random(n) * rng.random(n) ** 4 for _ in range(2))
        cases.append((
            BinnedPmf(relay / relay.sum() * rng.uniform(0.1, 1.0), 1.0, n),
            BinnedPmf(direct / direct.sum(), 1.0, n),
            gates,
        ))
    for relay_pmf, direct_pmf, gates in cases:
        got = step2_outage(relay_pmf, direct_pmf, gates)
        ref = _step2_by_convolution(relay_pmf, direct_pmf, gates)
        if n == 1:
            assert got == ref == 0.0
        else:
            assert abs(got - ref) <= 1e-13 * ref
