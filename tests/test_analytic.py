import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from mdma_relay.analytic import (
    MAX_RELAYS_CLOSED_FORM,
    RATE_TIE_RTOL,
    BinnedPmf,
    ConditioningError,
    GatedExponential,
    bin_conditional_direct,
    bin_relay_sum,
    closed_form_applies,
    decode_fail_probs,
    direct_outage,
    numeric_relay_sum_cdf,
    numeric_relay_sum_pmf,
    relay_sum_cdf,
    source_step_outages,
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
    return [GatedExponential(float(a), float(r)) for a, r in zip(probs, lam)]


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
    from mdma_relay.topology import distances

    order = np.argsort(distances(topo).s1_r)
    assert np.all(np.diff(fails[order]) > 0)


# ---------------------------------------------------------------------------
# pairwise pole-ratio coefficients
# ---------------------------------------------------------------------------

def pair_coeffs(rate_x: float, rate_y: float) -> np.ndarray:
    # With both gates open only the two-relay subset has weight, so the
    # aggregated coefficients are the pair's pole ratios r_y / (r_y - r_x).
    gates = [GatedExponential(0.0, rate_x), GatedExponential(0.0, rate_y)]
    return relay_sum_cdf(gates).coeff_per_rate


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
    gate = GatedExponential(0.4, 1.7)
    cdf = relay_sum_cdf([gate])
    for g in (0.1, 0.8, 2.5):
        assert cdf(g) == pytest.approx(0.6 * -math.expm1(-1.7 * g), abs=1e-14)


def test_cdf_limits():
    rng = np.random.default_rng(5)
    for _ in range(10):
        gates = random_gates(rng, int(rng.integers(1, 5)))
        cdf = relay_sum_cdf(gates)
        assert cdf(0.0) == pytest.approx(0.0, abs=1e-12)
        expect = 1.0 - np.prod([g.gate_prob for g in gates])
        assert cdf(1e6) == pytest.approx(expect, abs=1e-10)
        assert cdf.total_mass == pytest.approx(expect, abs=1e-14)


def test_two_relay_value_against_quadrature():
    gates = [GatedExponential(0.3, 1.0), GatedExponential(0.6, 2.0)]
    cdf = relay_sum_cdf(gates)

    # Oracle: integrate each decode set's density directly.
    only_1 = 0.7 * 0.6 * quad(lambda x: math.exp(-x), 0, 1.0)[0]
    only_2 = 0.3 * 0.4 * quad(lambda x: 2 * math.exp(-2 * x), 0, 1.0)[0]
    both_density = lambda x: 2.0 * (math.exp(-x) - math.exp(-2 * x))
    both = 0.7 * 0.4 * quad(both_density, 0, 1.0)[0]
    oracle = only_1 + only_2 + both
    assert cdf(1.0) == pytest.approx(oracle, abs=1e-8)
    assert cdf(1.0) == pytest.approx(0.4811317929709875, abs=1e-10)


def test_subset_expansion_shape():
    gates = [GatedExponential(0.2, 1.0), GatedExponential(0.5, 2.0), GatedExponential(0.7, 3.5)]
    cdf = relay_sum_cdf(gates)
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

    m = len(gates)
    a = np.array([g.gate_prob for g in gates])
    lam = np.array([g.rate for g in gates], dtype=float)
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
        gate_sets.append([GatedExponential(a, r) for a, r in zip(fails, rates)])
    rng = np.random.default_rng(2024)
    for _ in range(300):
        m = int(rng.integers(1, 13))
        probs, lam = rng.uniform(0.0, 1.0, m), rng.uniform(0.05, 5.0, m)
        gate_sets.append([GatedExponential(float(a), float(r)) for a, r in zip(probs, lam)])

    checked = 0
    for gates in gate_sets:
        if not closed_form_applies(gates):
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
    gates = [GatedExponential(0.05 + 0.04 * i, 0.5 + 0.15 * i) for i in range(20)]
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
        a = np.array([g.gate_prob for g in gates])
        lam = np.array([g.rate for g in gates])
        for x in range(len(gates)):
            prod = 1.0 - a[x]
            for y in range(len(gates)):
                if y != x:
                    theta = lam[y] / (lam[y] - lam[x])
                    prod *= a[y] + (1 - a[y]) * theta
            assert cdf.coeff_per_rate[x] == pytest.approx(prod, rel=1e-9, abs=1e-12)


def test_tie_switches_to_the_convolution_continuously():
    tied = [GatedExponential(0.3, 2.0), GatedExponential(0.5, 2.0)]
    assert not closed_form_applies(tied)
    with pytest.raises(ConfigError):
        relay_sum_cdf(tied)
    # Just outside the tie tolerance the closed form applies again and
    # agrees with the convolution of the tied paths.
    apart = [GatedExponential(0.3, 2.0), GatedExponential(0.5, 2.0 * (1 + 1e-6))]
    assert closed_form_applies(apart)
    grid = np.linspace(0.05, 5.0, 40)
    assert np.max(np.abs(relay_sum_cdf(apart)(grid) - numeric_relay_sum_cdf(tied, grid))) < 1e-5
    n = 1000
    closed = bin_relay_sum(relay_sum_cdf(apart), 2.0, n)
    numeric = numeric_relay_sum_pmf(tied, 2.0, n)
    assert 0.5 * float(np.sum(np.abs(closed.probs - numeric.probs))) < 4.0 * len(tied) / n


def test_relay_count_cap():
    gates = [GatedExponential(0.5, 1.0 + 0.01 * i) for i in range(21)]
    assert not closed_form_applies(gates)
    assert closed_form_applies(gates[:20])
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
            # Only the rates are read; NaN cannot reach a GatedExponential.
            gates = [SimpleNamespace(rate=r) for r in rates]
            assert closed_form_applies(gates) == _isclose_form(rates), rates


def test_cdf_nondecreasing_property():
    rng = np.random.default_rng(17)
    for _ in range(15):
        gates = random_gates(rng, int(rng.integers(1, 6)))
        cdf = relay_sum_cdf(gates)
        grid = np.linspace(0.0, 10.0 / min(g.rate for g in gates), 1000)
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
        shuffled = [gates[i] for i in perm]
        assert np.max(np.abs(relay_sum_cdf(shuffled)(grid) - base)) < 1e-11


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def test_bin_relay_sum_telescopes():
    rng = np.random.default_rng(29)
    gates = random_gates(rng, 3)
    cdf = relay_sum_cdf(gates)
    pmf = bin_relay_sum(cdf, 2.0, 250)
    assert pmf.total == pytest.approx(float(cdf(2.0)), abs=1e-12)
    single = bin_relay_sum(cdf, 2.0, 1)
    assert single.probs.shape == (1,)
    assert single.probs[0] == pytest.approx(float(cdf(2.0)), abs=1e-12)
    refined = bin_relay_sum(cdf, 2.0, 500)
    assert refined.total == pytest.approx(pmf.total, abs=1e-12)


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
    gates = [GatedExponential(0.2, 0.5)]
    relay_pmf = BinnedPmf(np.zeros(100), 1.0, 100)
    direct_pmf = bin_conditional_direct(LinkParam(1.0), 1.0, 100)
    assert step2_outage(relay_pmf, direct_pmf, gates) == 0.0


def test_step2_requires_matching_grids():
    gates = [GatedExponential(0.2, 0.5)]
    cdf = relay_sum_cdf(gates)
    with pytest.raises(ConfigError):
        step2_outage(
            bin_relay_sum(cdf, 1.0, 100),
            bin_conditional_direct(LinkParam(1.0), 1.0, 200),
            gates,
        )


def test_step2_impossible_conditioning():
    gates = [GatedExponential(1.0, 0.5)]
    cdf = relay_sum_cdf(gates)
    with pytest.raises(ConditioningError):
        step2_outage(
            bin_relay_sum(cdf, 1.0, 50),
            bin_conditional_direct(LinkParam(1.0), 1.0, 50),
            gates,
        )


def test_step2_single_relay_against_quadrature():
    # Two-path brute force: direct SNR conditioned below the threshold plus
    # one decoded relay's exponential, integrated exactly.
    direct_rate, relay_rate, gamma_th, n = 1.1, 0.7, 1.0, 4000
    gates = [GatedExponential(0.35, relay_rate)]
    est = step2_outage(
        bin_relay_sum(relay_sum_cdf(gates), gamma_th, n),
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


# ---------------------------------------------------------------------------
# convolution path consistency
# ---------------------------------------------------------------------------

def test_transform_inversion_consistency_small_m():
    # Binned convolution of per-path masses reproduces the closed-form bins
    # within O(1/granularity) total variation.
    rng = np.random.default_rng(37)
    n = 500
    for _ in range(8):
        m = int(rng.integers(1, 5))
        gates = random_gates(rng, m)
        gamma_th = 1.5 / min(g.rate for g in gates)
        closed = bin_relay_sum(relay_sum_cdf(gates), gamma_th, n)
        numeric = numeric_relay_sum_pmf(gates, gamma_th, n)
        tv = 0.5 * float(np.sum(np.abs(closed.probs - numeric.probs)))
        assert tv < 4.0 * m / n


def test_numeric_cdf_tracks_closed_form():
    gates = [GatedExponential(0.3, 1.0), GatedExponential(0.6, 2.2), GatedExponential(0.1, 3.1)]
    grid = np.linspace(0.2, 6.0, 25)
    closed = relay_sum_cdf(gates)(grid)
    numeric = numeric_relay_sum_cdf(gates, grid)
    assert np.max(np.abs(closed - numeric)) < 1e-5


def test_numeric_fallback_handles_many_relays(paper_setup):
    # 24 relays exceed the subset-enumeration cap; the convolution path runs.
    topo8, cfg = paper_setup
    relays = tuple((50.0, 48.75 - 3.4 * i) for i in range(24))
    topo = NetworkTopology(topo8.s1_pos, topo8.s2_pos, topo8.d_pos, relays, 3.0)
    outs = step_outages(topo, cfg)
    assert 0.0 <= outs[1].relay <= 1.0 and 0.0 <= outs[1].empty < 1.0
    # More relays than the reference layout can only help the relay step.
    ref = step_outages(topo8, cfg)
    assert outs[1].relay <= ref[1].relay + 1e-9
    assert outs[2].relay <= ref[2].relay + 1e-9


def test_numeric_fallback_agrees_with_closed_form(paper_setup):
    topo, cfg = paper_setup
    low = replace(cfg, power_dbm=4.0)
    n = low.granularity
    closed = source_step_outages(topo, low, 1).relay
    rates = link_rates(topo, low, 1)
    fails = decode_fail_probs(topo, low, 1)
    gates = [GatedExponential(a, r) for a, r in zip(fails, rates.relay_dest)]
    assert closed_form_applies(gates)
    numeric = step2_outage(
        numeric_relay_sum_pmf(gates, low.gamma_th, n),
        bin_conditional_direct(LinkParam(rates.direct), low.gamma_th, n),
        gates,
    )
    assert abs(numeric - closed) < 5.0 / n


def _step2_by_convolution(relay_pmf, direct_pmf, gates):
    """Frozen reference: the relay step by a full O(n^2) convolution."""
    empty_prob = float(np.prod([g.gate_prob for g in gates]))
    n = relay_pmf.granularity
    combined = np.convolve(relay_pmf.probs, direct_pmf.probs)
    # Raw convolution index k (0-based) holds bin-index sum k+2.
    below = float(combined[: max(n - 1, 0)].sum())
    return min(max(below / (1.0 - empty_prob), 0.0), 1.0)


def _paper_pmfs(power_dbm, n):
    topo, cfg = default_paper_setup(power_dbm=power_dbm, granularity=n)
    for source in (1, 2):
        rates = link_rates(topo, cfg, source)
        gates = [GatedExponential(float(a), float(r))
                 for a, r in zip(decode_fail_probs(topo, cfg, source), rates.relay_dest)]
        yield (
            bin_relay_sum(relay_sum_cdf(gates), cfg.gamma_th, n),
            bin_conditional_direct(LinkParam(rates.direct), cfg.gamma_th, n),
            gates,
        )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 4096])
def test_step2_prefix_sum_matches_the_convolution(n):
    rng = np.random.default_rng(20_000 + n)
    cases = [c for p in (-10.0, 0.0, 10.0, 20.0, 30.0) for c in _paper_pmfs(p, n)]
    for _ in range(20):
        gates = [GatedExponential(float(a), 1.0) for a in rng.uniform(0.0, 0.9, 3)]
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
