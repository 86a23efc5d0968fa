"""Independent relay-sum laws for the tests.

``analytic.relay_sum_cdf`` gives the relay sum's CDF in closed form, where
its rates are pairwise distinct.  ``numeric_relay_sum_cdf`` convolves the
gated paths on a fine grid instead, so it also holds for tied rates.

The quadrature references enumerate the nonempty decode sets and integrate
each subset's exponential-sum distribution by iterated adaptive quadrature,
carrying inner convolution levels on Chebyshev interpolants.  They never
touch the partial-fraction expansion, so they can certify it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.interpolate import BarycentricInterpolator

from mdma_relay.analytic import GatedPaths


def numeric_relay_sum_cdf(paths: GatedPaths, gammas, bins: int = 1 << 15) -> np.ndarray:
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
    for gate, rate in zip(paths.gate_probs.tolist(), paths.rates.tolist()):
        surv = np.exp(-rate * cuts)
        part = (1.0 - gate) * (surv[:-1] - surv[1:])
        conv = np.convolve(total, part)[:bins]
        total = conv + atom * part + gate * total
        atom *= gate
    cum = np.cumsum(total)
    half = (np.arange(bins) + 0.5) * h
    return np.interp(gammas, half, cum, left=0.0, right=float(cum[-1]))


_CHEB_POINTS = 33
_QUAD_TOL = 1e-11


def _cheb_nodes(n: int, hi: float) -> np.ndarray:
    k = np.arange(n)
    return 0.5 * hi * (1.0 - np.cos(np.pi * k / (n - 1)))


def _convolve_level(rate: float, prev_cdf, targets: np.ndarray) -> np.ndarray:
    """CDF of (previous sum) + Exp(rate) at the target points.

    Integral of rate*exp(-rate*u) * prev_cdf(t - u) over u in [0, t],
    rescaled to the unit interval so one adaptive pass serves every target.
    """
    t = np.asarray(targets, dtype=float)

    def integrand(s: float) -> np.ndarray:
        u = t * s
        return t * rate * np.exp(-rate * u) * prev_cdf(t * (1.0 - s))

    val, _err = quad_vec(integrand, 0.0, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
    return val


def exp_sum_cdf_quadrature(rates: list[float], gammas: np.ndarray) -> np.ndarray:
    """CDF of a sum of independent exponentials by iterated quadrature."""
    gammas = np.asarray(gammas, dtype=float)
    gmax = float(gammas.max()) if gammas.size else 1.0
    first = rates[0]

    def level0(x):
        return -np.expm1(-first * np.asarray(x))

    prev = level0
    for rate in rates[1:-1] if len(rates) > 1 else []:
        nodes = _cheb_nodes(_CHEB_POINTS, gmax)
        vals = _convolve_level(rate, prev, nodes)
        interp = BarycentricInterpolator(nodes, vals)

        def clipped(x, _f=interp):
            x = np.asarray(x, dtype=float)
            return np.clip(_f(np.clip(x, 0.0, gmax)), 0.0, 1.0)

        prev = clipped
    if len(rates) == 1:
        return prev(gammas)
    return _convolve_level(rates[-1], prev, gammas)


def relay_sum_cdf_quadrature(paths: GatedPaths, gammas: np.ndarray) -> np.ndarray:
    """Defective relay-sum CDF as the subset mixture of quadrature CDFs."""
    gammas = np.asarray(gammas, dtype=float)
    m, a, lam = len(paths), paths.gate_probs, paths.rates
    total = np.zeros_like(gammas)
    for mask in range(1, 1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        weight = float(
            np.prod(1.0 - a[members]) * np.prod(a[[i for i in range(m) if i not in members]])
        )
        if weight == 0.0:
            continue
        total += weight * exp_sum_cdf_quadrature([float(lam[i]) for i in members], gammas)
    return total


def truncated_direct_plus_exp_sum_outage(
    direct_rate: float, gamma_th: float, relay_rates: list[float]
) -> float:
    """Exact-quadrature failure probability of one relay set's combined SNR.

    Probability that (direct SNR conditioned below the threshold) plus the
    sum of the given relay SNRs stays below the threshold.
    """
    denom = -math.expm1(-direct_rate * gamma_th)

    def integrand(x: float) -> float:
        tail = exp_sum_cdf_quadrature(relay_rates, np.array([gamma_th - x]))[0]
        return direct_rate * math.exp(-direct_rate * x) / denom * tail

    val, _err = quad(integrand, 0.0, gamma_th, epsabs=1e-11, epsrel=1e-11, limit=200)
    return val


def step2_outage_quadrature(direct_rate: float, gamma_th: float, paths: GatedPaths) -> float:
    """Relay-step outage by quadrature over every nonempty decode set."""
    m, a, lam = len(paths), paths.gate_probs, paths.rates
    empty = paths.empty
    total = 0.0
    for mask in range(1, 1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        weight = float(
            np.prod(1.0 - a[members]) * np.prod(a[[i for i in range(m) if i not in members]])
        )
        if weight == 0.0:
            continue
        total += weight * truncated_direct_plus_exp_sum_outage(
            direct_rate, gamma_th, [float(lam[i]) for i in members]
        )
    return total / (1.0 - empty)
