"""An independent relay-sum law for the tests.

``analytic.relay_sum_cdf`` gives the relay sum's CDF in closed form, where
its rates are pairwise distinct.  This helper convolves the gated paths on
a fine grid instead, so it also holds for tied rates.
"""

from __future__ import annotations

import numpy as np

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
