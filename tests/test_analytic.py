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
    bin_edges,
    bin_relay_sum,
    closed_form_applies,
    decode_fail_probs,
    direct_outage,
    exp_cdf_basis,
    relay_sum_bins,
    relay_sum_cdf,
    relay_sum_cdf_uniformized,
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

from relay_reference import numeric_relay_sum_cdf, relay_sum_cdf_quadrature


def binned_relay_sum(cdf, gamma_th, n):
    """``bin_relay_sum`` on the basis built for its grid and the CDF's rates."""
    edges = np.linspace(0.0, gamma_th, n + 1)
    return bin_relay_sum(cdf, gamma_th, n, exp_cdf_basis(edges, cdf.rates))


def stepped_bins(paths, gamma_th, n):
    """The relay sum binned on the threshold grid by stepping its phase-type chain."""
    return BinnedPmf(relay_sum_bins(paths, gamma_th, n), gamma_th, n)


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
    topo, cfg = default_paper_setup()
    line = tuple((50.0, 55.0 - 100.0 * (i - 0.5) / 16) for i in range(1, 17))
    line16 = NetworkTopology(topo.s1_pos, topo.s2_pos, topo.d_pos, line, topo.alpha)
    cases.append((line16, cfg, 1))
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


def test_tie_switches_to_the_stepped_bins_continuously():
    tied = GatedPaths([0.3, 0.5], [2.0, 2.0])
    assert not tied.closed_form
    with pytest.raises(ConfigError):
        relay_sum_cdf(tied)
    # Just outside the tie tolerance the closed form applies again and
    # agrees with the tied law, as a CDF and binned.
    apart = GatedPaths([0.3, 0.5], [2.0, 2.0 * (1 + 1e-6)])
    assert apart.closed_form
    grid = np.linspace(0.05, 5.0, 40)
    assert np.max(np.abs(relay_sum_cdf(apart)(grid) - numeric_relay_sum_cdf(tied, grid))) < 1e-5
    n = 1000
    closed = binned_relay_sum(relay_sum_cdf(apart), 2.0, n)
    assert 0.5 * float(np.sum(np.abs(closed.probs - stepped_bins(tied, 2.0, n).probs))) < 4.0 * len(tied) / n
    # The stepped bins on either side of the switch agree.
    edge = GatedPaths([0.3, 0.5], [2.0, 2.0 * (1 + 1.5 * RATE_TIE_RTOL)])
    assert edge.closed_form
    assert np.max(np.abs(stepped_bins(edge, 2.0, n).probs - stepped_bins(tied, 2.0, n).probs)) < 1e-12
    # Where the gap keeps the closed form well conditioned, its bins are the stepped ones.
    apart = GatedPaths([0.3, 0.5], [2.0, 2.0 * (1 + 1e-3)])
    closed = binned_relay_sum(relay_sum_cdf(apart), 2.0, n)
    assert np.max(np.abs(closed.probs - stepped_bins(apart, 2.0, n).probs)) < 1e-12


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
    topo = _line_topology(m)
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


def test_bin_relay_sum_refuses_a_basis_for_another_grid_or_rates():
    gates = random_gates(np.random.default_rng(31), 3)
    cdf = relay_sum_cdf(gates)
    edges = np.linspace(0.0, 2.0, 101)
    assert binned_relay_sum(cdf, 2.0, 100).probs.shape == (100,)
    for basis in (
        exp_cdf_basis(edges, cdf.rates * 1.5),           # other rates
        exp_cdf_basis(edges, cdf.rates[:2]),             # fewer rates
        exp_cdf_basis(edges * 1.1, cdf.rates),           # another threshold
        exp_cdf_basis(edges + 0.01, cdf.rates),          # a grid not from 0
        exp_cdf_basis(np.linspace(0.0, 2.0, 51), cdf.rates),  # another bin count
    ):
        with pytest.raises(ConfigError, match="basis"):
            bin_relay_sum(cdf, 2.0, 100, basis)


def test_cdf_basis_in_one_buffer_keeps_the_bits_of_the_temporaries():
    rng = np.random.default_rng(33)
    for m in (1, 3, 8, 16):
        cdf = relay_sum_cdf(random_gates(rng, m))
        for gammas in (np.linspace(0.0, 3.0, 1001), rng.uniform(0.0, 5.0, 37)):
            reference = -np.expm1(-np.multiply.outer(gammas, cdf.rates)) @ cdf.coeff_per_rate
            assert np.array_equal(cdf(gammas), reference)
        assert cdf(0.7) == float(-np.expm1(-0.7 * cdf.rates) @ cdf.coeff_per_rate)


def test_bin_edges_are_the_linspace_grid_bit_for_bit():
    rng = np.random.default_rng(35)
    # The smallest threshold a config accepts (2**-52, from 2**rate_r0 - 1),
    # the paper's, and random ones over the whole float range.
    thresholds = [2.0 ** -52, 1.0, 3.0, math.pi, 1e300, *(10.0 ** rng.uniform(-15, 300, 40))]
    for gamma_th in thresholds:
        for n in (1, 2, 3, 7, 999, 1000, 4096, 100_003, 1_000_000):
            edges = analytic.bin_edges(gamma_th, n)
            assert _bits(edges) == _bits(np.linspace(0.0, gamma_th, n + 1)), (gamma_th, n)


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


def test_all_outages_vanish_at_huge_snr(paper_setup):
    topo, cfg = paper_setup
    outs = step_outages(topo, replace(cfg, power_dbm=150.0))
    for src in outs.values():
        assert src.bcast < 1e-9 and src.relay < 1e-9


def _line_topology(m):
    """The paper layout with its relay line generalised to m relays; m = 10
    ties two relay-destination distances (y = 40 and y = -40)."""
    topo, _ = default_paper_setup()
    relays = tuple((50.0, 55.0 - 100.0 * (i - 0.5) / m) for i in range(1, m + 1))
    return NetworkTopology(topo.s1_pos, topo.s2_pos, topo.d_pos, relays, topo.alpha)


def _per_source_pipeline(topo, cfg, source):
    """One source's step outages through the public steps, with its own
    relay-sum basis where the closed form applies and stepped bins elsewhere."""
    rates = link_rates(topo, cfg, source)
    fails = decode_fail_probs(topo, cfg, source)
    gates = GatedPaths(fails, rates.relay_dest)
    direct, gamma_th, n = LinkParam(rates.direct), cfg.gamma_th, cfg.granularity
    empty = float(np.prod(fails))
    if empty >= 1.0:
        return SourceOutages(direct_outage(direct, gamma_th), 1.0, empty)
    if gates.closed_form:
        relay_pmf = binned_relay_sum(relay_sum_cdf(gates), gamma_th, n)
    else:
        relay_pmf = stepped_bins(gates, gamma_th, n)
    relay = step2_outage(relay_pmf, bin_conditional_direct(direct, gamma_th, n), gates)
    return SourceOutages(direct_outage(direct, gamma_th), relay, empty)


@pytest.mark.parametrize("n", [1, 2, 1000, 100_000])
@pytest.mark.parametrize("relays", [8, 16])
def test_step_outages_equal_the_per_source_pipeline(paper_setup, relays, n):
    # Both sources bin their relay sums from one shared basis; every output
    # keeps the bits a basis of its own gives.
    topo = paper_setup[0] if relays == 8 else _line_topology(relays)
    for p in range(-10, 31, 2):
        cfg = replace(paper_setup[1], power_dbm=float(p), granularity=n)
        outs = step_outages(topo, cfg)
        for source in (1, 2):
            assert outs[source] == _per_source_pipeline(topo, cfg, source), (p, source)


@pytest.mark.parametrize("relays", [10, MAX_RELAYS_CLOSED_FORM + 4])
def test_tied_and_over_cap_rates_step_the_chain_for_both_sources(monkeypatch, paper_setup, relays):
    topo = _line_topology(relays)
    cfg = paper_setup[1]
    assert not closed_form_applies(link_rates(topo, cfg, 1).relay_dest)
    seen, bases = [], []

    def spy(paths, gamma_th, n):
        seen.append((len(paths), gamma_th, n))
        return relay_sum_bins(paths, gamma_th, n)

    monkeypatch.setattr(analytic, "relay_sum_bins", spy)
    monkeypatch.setattr(analytic, "relay_sum_cdf_uniformized", lambda *a: bases.append(a))
    monkeypatch.setattr(analytic, "exp_cdf_basis", lambda *a: bases.append(a))
    outs = step_outages(topo, cfg)
    # One stepped chain per source, on the threshold grid; no basis, no series.
    assert seen == [(relays, cfg.gamma_th, cfg.granularity)] * 2 and bases == []
    for source in (1, 2):
        assert outs[source] == _per_source_pipeline(topo, cfg, source)


def _basis_sizes(monkeypatch, topo, cfg):
    """Row counts of every ``exp_cdf_basis`` one ``step_outages`` call builds."""
    sizes = []

    def spy(gammas, rates):
        sizes.append(len(gammas))
        return exp_cdf_basis(gammas, rates)

    monkeypatch.setattr(analytic, "exp_cdf_basis", spy)
    step_outages(topo, cfg)
    return sizes


def test_one_basis_per_step_outages_call(monkeypatch, paper_setup):
    topo, cfg = paper_setup
    # One (n + 1)-row basis; the check of its last row builds no other.
    assert _basis_sizes(monkeypatch, topo, cfg) == [cfg.granularity + 1]
    # At -20 dBm no relay decodes source 2, but some decode source 1.
    low = replace(cfg, power_dbm=-20.0)
    assert (decode_fail_probs(topo, low, 2) == 1.0).all()
    assert _basis_sizes(monkeypatch, topo, low) == [cfg.granularity + 1]


@pytest.mark.parametrize("case", ["noiseless", "zero-threshold", "tied", "21-relays", "all-fail"])
def test_no_basis_where_no_source_bins_the_closed_form(monkeypatch, paper_setup, case):
    topo, cfg = paper_setup
    topo, cfg = {
        "noiseless": (topo, replace(cfg, noise_dbm=-math.inf)),
        "zero-threshold": (topo, replace(cfg, rate_r0=1e-17)),
        "tied": (_line_topology(10), cfg),
        "21-relays": (_line_topology(MAX_RELAYS_CLOSED_FORM + 1), cfg),
        "all-fail": (topo, replace(cfg, power_dbm=-30.0)),
    }[case]
    assert _basis_sizes(monkeypatch, topo, cfg) == []


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
    assert ties == [8, 8]  # two step_outages calls, one tie check each
    assert len(measured) == 26
    # Called directly, the closed form still checks its rates.
    for paths in (GatedPaths([0.5, 0.5], [2.0, 2.0]), GatedPaths([0.5] * 21, 1.0 + 0.01 * np.arange(21))):
        with pytest.raises(ConfigError, match="subset expansion"):
            relay_sum_cdf(paths)


def test_step_outages_peak_memory_is_one_basis(paper_setup):
    topo, cfg = paper_setup
    cfg = replace(cfg, power_dbm=20.0, granularity=100_000)
    step_outages(topo, replace(cfg, granularity=10))  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        step_outages(topo, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The basis is (n + 1) * m doubles; a second copy of it would break this.
    assert peak < 2 * (cfg.granularity + 1) * len(topo.relay_pos) * 8


# ---------------------------------------------------------------------------
# stepped-chain path consistency: tied rates and more relays than the cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [10, 24])
@pytest.mark.parametrize("power_dbm", [0.0, 10.0, 30.0])
def test_stepped_bins_are_the_increments_of_the_series(m, power_dbm):
    # Two evaluations of one law: each bin agrees to 5e-12 relative, down to
    # bins of 1e-77 at 30 dBm.
    topo = _line_topology(m)
    _, cfg = default_paper_setup(power_dbm=power_dbm)
    n = cfg.granularity
    for source in (1, 2):
        paths = GatedPaths(decode_fail_probs(topo, cfg, source), link_rates(topo, cfg, source).relay_dest)
        stepped = relay_sum_bins(paths, cfg.gamma_th, n)
        series = np.diff(relay_sum_cdf_uniformized(paths, bin_edges(cfg.gamma_th, n)))
        assert stepped.min() > 0.0
        assert np.max(np.abs(stepped - series) / stepped) < 5e-12

def test_stepped_bins_match_the_closed_form_small_m():
    # Well-separated rates and m <= 4 keep the closed form well conditioned,
    # so the two evaluations of the same CDF bin alike to rounding.
    rng = np.random.default_rng(37)
    n = 500
    for _ in range(8):
        m = int(rng.integers(1, 5))
        gates = random_gates(rng, m)
        gamma_th = 1.5 / gates.rates.min()
        closed = binned_relay_sum(relay_sum_cdf(gates), gamma_th, n)
        assert np.max(np.abs(closed.probs - stepped_bins(gates, gamma_th, n).probs)) < 1e-12


def test_numeric_cdf_tracks_closed_form():
    gates = GatedPaths([0.3, 0.6, 0.1], [1.0, 2.2, 3.1])
    grid = np.linspace(0.2, 6.0, 25)
    closed = relay_sum_cdf(gates)(grid)
    numeric = numeric_relay_sum_cdf(gates, grid)
    assert np.max(np.abs(closed - numeric)) < 1e-5


def test_stepped_path_handles_many_relays(paper_setup):
    # 24 relays exceed the closed form's cap; the stepped path runs.
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
def test_stepped_relay_step_agrees_with_closed_form(paper_setup, power_dbm):
    # On the paper layout the closed form carries cancellation noise of up to
    # 64 eps sum|c| per bin (bin_relay_sum's clamp floor); the stepped bins and
    # the relay step they give agree with it within that floor.
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
        stepped = stepped_bins(gates, low.gamma_th, n)
        closed = binned_relay_sum(cdf, low.gamma_th, n)
        assert np.max(np.abs(stepped.probs - closed.probs)) < floor
        relay = step2_outage(stepped, bin_conditional_direct(LinkParam(rates.direct), low.gamma_th, n), gates)
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


@pytest.mark.parametrize("m, power_dbm", [(10, 10.0), (10, 30.0), (24, 10.0)])
def test_stepped_relay_step_is_within_the_binning_bias_of_60_digits(m, power_dbm):
    # Tied (m = 10) and over-cap (m = 24) lines reach relay steps of 1e-29
    # and 6e-24; what is left is the O(1/n) bias of summing bins, about
    # 2.2/n and 3.6/n here.
    topo = _line_topology(m)
    _, cfg = default_paper_setup(power_dbm=power_dbm)
    assert not closed_form_applies(link_rates(topo, cfg, 1).relay_dest)
    _, errs = _relay_step_rel_errs(topo, cfg)
    assert max(errs) < 5.0 / cfg.granularity, errs


def test_tied_line_runs_at_a_million_bins(paper_setup):
    # At n = 1e6 the relay step is within 5/n of the 60-digit value and
    # within 5/n_c of the n_c = 1e5 result: the O(1/n) bias of summing bins,
    # about 2.2/n here, shrinks tenfold.
    topo = _line_topology(10)
    fine = replace(paper_setup[1], granularity=1_000_000)
    coarse = replace(fine, granularity=100_000)
    outs, errs = _relay_step_rel_errs(topo, fine)
    assert max(errs) < 5.0 / fine.granularity, errs
    near = step_outages(topo, coarse)
    for source in (1, 2):
        assert 0.0 < outs[source].relay < 1.0
        assert abs(outs[source].relay - near[source].relay) < 5.0 / coarse.granularity * outs[source].relay


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


@pytest.mark.parametrize("power_dbm", [-30.0, -20.0, -10.0, 0.0, 10.0])
def test_tied_pair_near_a_source_steps_at_any_lam_gamma(power_dbm):
    # The relays decode often but reach the destination weakly: Lam gamma_th
    # runs from 0.73 at 10 dBm to 7 290 at -30 dBm.  Differences of the
    # series' CDF at the edges fell below the bins' noise floor from -10 dBm
    # down; the stepped bins are nonnegative at any Lam gamma_th and n.
    topo = _near_source_pair()
    _, cfg = default_paper_setup(power_dbm=power_dbm)
    for n in (1, 1000, 1_000_000):
        for source in (1, 2):
            paths = GatedPaths(decode_fail_probs(topo, cfg, source), link_rates(topo, cfg, source).relay_dest)
            assert not paths.closed_form
            bins = relay_sum_bins(paths, cfg.gamma_th, n)
            assert bins.min() >= 0.0
            whole = relay_sum_cdf_uniformized(paths, np.array([cfg.gamma_th]))[0]
            assert bins.sum() == pytest.approx(whole, rel=1e-10)
    _, errs = _relay_step_rel_errs(topo, cfg)
    assert max(errs) < 5.0 / cfg.granularity, errs
    outs = step_outages(topo, replace(cfg, granularity=1_000_000))
    assert all(0.0 < out.relay <= 1.0 for out in outs.values())


def test_stepped_bins_ignore_closed_gates():
    # Stepped at its rate, the closed relay would set Lam h = 1e6.
    with_closed = GatedPaths([0.3, 1.0, 0.6], [1.0, 1e9, 2.2])
    without = GatedPaths([0.3, 0.6], [1.0, 2.2])
    assert _bits(relay_sum_bins(with_closed, 1.0, 1000)) == _bits(relay_sum_bins(without, 1.0, 1000))
    assert relay_sum_bins(with_closed.with_gates([1.0] * 3), 1.0, 7).tolist() == [0.0] * 7


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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 4096])
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
