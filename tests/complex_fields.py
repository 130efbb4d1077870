"""Test fields from complex Fourier coefficients.

The package has one Fourier convention, real-mode amplitudes
(:func:`conedn.grid.mode_amplitudes`).  Several tests draw their data as
complex coefficients c_k on the orthonormal basis exp(i zeta_k sigma)/sqrt(2L),
in FFT ordering (as ``grid.zeta``) with the origin at sigma = -L; this module
turns those coefficients into fields.
"""

import math

import numpy as np

from conedn import GridFn


def to_gridfn(grid, coeffs) -> GridFn:
    """The real part of sum_k c_k exp(i zeta_k (sigma + L))/sqrt(2L) on the
    grid: (n/sqrt(2L)) ifft((-1)^k c), whose real part is the field of the
    Hermitian part (c(zeta) + conj c(-zeta))/2."""
    n = grid.n_sigma
    k = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    phase = 1.0 - 2.0 * (np.abs(k) % 2)
    vals = (n / math.sqrt(2.0 * grid.L)) * np.fft.ifft(phase * np.asarray(coeffs, dtype=complex))
    return GridFn(grid, vals.real)
