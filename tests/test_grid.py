from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedn import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    GridFn,
    SigmaGrid,
    build_symbol_table,
    dn_flat,
    dsigma_values,
    l2_norm,
    mode_amplitudes,
    multiplier_values,
    pullback_norm_check,
    sobolev_norm,
    taylor_angle,
)
from conedn.grid import MAX_ZETA_THETA


def _grid(L: float = 16.0, n: int = 256) -> SigmaGrid:
    return SigmaGrid(L=L, n_sigma=n)


def _gaussian(grid: SigmaGrid) -> GridFn:
    return GridFn(grid, np.exp(-(grid.sigma**2)))


def _apply(f: GridFn, symbol) -> GridFn:
    """The multiplier of ``symbol``, called on the real-transform
    frequencies, applied to f."""
    return GridFn(f.grid, multiplier_values(f.grid, f.values, symbol(f.grid.rfft_zeta)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_grid_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        SigmaGrid(L=16.0, n_sigma=7)
    with pytest.raises(ConfigurationError):
        SigmaGrid(L=16.0, n_sigma=48)  # not a power of two
    with pytest.raises(ConfigurationError):
        SigmaGrid(L=-1.0, n_sigma=64)
    for L in (math.inf, math.nan):   # inf gives NaN nodes
        with pytest.raises(ConfigurationError, match="positive and finite"):
            SigmaGrid(L=L, n_sigma=64)
    # a finite L whose spacing 2L/n_sigma overflows gives NaN nodes too
    with pytest.raises(ConfigurationError, match="2L/n_sigma"):
        SigmaGrid(L=1e308, n_sigma=64)
    assert np.all(np.isfinite(SigmaGrid(L=1e307, n_sigma=8).sigma))


def test_grid_rejects_frequencies_beyond_the_quadrature():
    # pi times the top frequency pi n_sigma/(2L) may reach MAX_ZETA_THETA
    edge = math.pi**2 * 128 / (2.0 * MAX_ZETA_THETA)
    assert SigmaGrid(L=edge * (1 + 1e-12), n_sigma=128).n_sigma == 128
    for L in (edge * (1 - 1e-12), 1e-30, 5e-324):
        with pytest.raises(ConfigurationError, match="top frequency"):
            SigmaGrid(L=L, n_sigma=128)


def test_grid_nodes():
    g = _grid(L=2.0, n=8)
    assert g.delta == pytest.approx(0.5)
    assert g.sigma[0] == -2.0
    assert g.sigma[-1] == pytest.approx(2.0 - 0.5)
    assert np.allclose(g.r, np.exp(-g.sigma))


def test_gridfn_length_mismatch():
    g = _grid(n=64)
    with pytest.raises(ConfigurationError):
        GridFn(g, np.zeros(65))
    with pytest.raises(ConfigurationError):   # a length-1 array would broadcast
        GridFn(g, np.zeros(1))


# ---------------------------------------------------------------------------
# mode amplitudes
# ---------------------------------------------------------------------------

def _complex_amplitudes(f: GridFn) -> np.ndarray:
    """The complex-FFT route: |c_k| of the orthonormal basis
    exp(i zeta_k sigma)/sqrt(2L), the modes +-zeta_k folded into one
    amplitude (|c_k|^2 + |c_-k|^2)^{1/2} on k = 0..n/2."""
    n = f.grid.n_sigma
    c = (math.sqrt(2.0 * f.grid.L) / n) * np.abs(np.fft.fft(f.values))
    folded = c[: n // 2 + 1].copy()
    folded[1:-1] = np.hypot(c[1:n // 2], c[-1:-n // 2:-1])
    return folded


def test_zero_transforms_to_zero():
    g = _grid()
    a = mode_amplitudes(GridFn.zeros(g))
    assert a.shape == g.rfft_zeta.shape
    assert np.all(a == 0)


def test_cosine_mode_amplitude():
    # a cos(zeta_1 sigma) has the one amplitude a sqrt(L): sum a_k^2 = a^2 L
    g = _grid()
    a = 0.7
    amps = mode_amplitudes(GridFn(g, a * np.cos(np.pi * g.sigma / g.L)))
    assert np.flatnonzero(amps > 1e-12).tolist() == [1]
    assert amps[1] == pytest.approx(a * math.sqrt(g.L), rel=1e-12)


def test_parseval_exact():
    rng = np.random.default_rng(11)
    g = _grid(n=128)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    lhs = g.delta * np.sum(np.abs(f.values) ** 2)
    rhs = np.sum(mode_amplitudes(f) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_amplitudes_match_complex_fft_oracle(seed):
    # the Nyquist mode is its own negative: one coefficient, no sqrt(2)
    g = SigmaGrid(L=8.0, n_sigma=64)
    f = _random_with_nyquist(g, seed)
    assert mode_amplitudes(f)[-1] > 1.0
    assert _close(mode_amplitudes(f), _complex_amplitudes(f))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_amplitude_parseval_property(seed):
    rng = np.random.default_rng(seed)
    g = SigmaGrid(L=8.0, n_sigma=64)
    f = GridFn(g, rng.standard_normal(64))
    amps = mode_amplitudes(f)
    assert np.all(amps >= 0.0)
    assert np.sum(amps**2) == pytest.approx(g.delta * np.sum(f.values**2), rel=1e-12)


# ---------------------------------------------------------------------------
# sobolev_norm
# ---------------------------------------------------------------------------

def test_sobolev_zero():
    g = _grid()
    assert sobolev_norm(GridFn.zeros(g), 2.0) == 0.0


def test_sobolev_single_mode_normalization():
    # documented constant: a unit mode has norm sqrt(2L) at s = 0, so the
    # real mode a cos = a (e^{i} + e^{-i})/2 has norm a sqrt(L)
    g = _grid()
    a = 0.7
    f = GridFn(g, a * np.cos(np.pi * g.sigma / g.L))
    assert sobolev_norm(f, 0.0) == pytest.approx(a * math.sqrt(g.L), rel=1e-12)


def test_sobolev_gaussian_s1_quadrature_oracle():
    g = SigmaGrid(L=16.0, n_sigma=1024)
    f = _gaussian(g)
    # direct quadrature of integral (f^2 + f'^2) on a fine grid
    s = g.sigma
    fp = -2 * s * np.exp(-(s**2))
    quad = g.delta * np.sum(np.exp(-2 * s**2) + fp**2)
    assert sobolev_norm(f, 1.0) ** 2 == pytest.approx(quad, rel=1e-6)


def test_sobolev_monotone_in_s():
    g = _grid()
    f = _gaussian(g)
    norms = [sobolev_norm(f, s) for s in (-2.0, 0.0, 1.0, 3.0, 8.0)]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))


def test_sobolev_rejects_out_of_range_order():
    g = _grid()
    with pytest.raises(DomainError):
        sobolev_norm(_gaussian(g), 9.0)


# ---------------------------------------------------------------------------
# multiplier_values
# ---------------------------------------------------------------------------

def test_multiplier_identity():
    rng = np.random.default_rng(5)
    g = _grid(n=64)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    out = _apply(f, lambda z: np.ones_like(z))
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_multiplier_differentiates_sine():
    g = _grid()
    f = GridFn(g, np.sin(np.pi * g.sigma / g.L))
    out = _apply(f, lambda z: 1j * z)
    expect = (np.pi / g.L) * np.cos(np.pi * g.sigma / g.L)
    assert np.max(np.abs(out.values - expect)) < 1e-10


def test_multiplier_bracket_norm_matches_sobolev():
    g = _grid()
    f = _gaussian(g)
    out = _apply(f, lambda z: np.sqrt(1 + z**2))
    assert l2_norm(out) == pytest.approx(sobolev_norm(f, 1.0), rel=1e-12)


def test_multiplier_nonfinite_symbol_names_frequency():
    g = _grid()
    f = _gaussian(g)
    first = int(np.argmax(g.rfft_zeta > 1.0))
    bad = np.where(g.rfft_zeta > 1.0, np.inf, 1.0)
    named = rf"zeta_k={g.rfft_zeta[first]:.6g} \(index {first}\)"
    with pytest.raises(EvaluationError, match=named):
        multiplier_values(g, f.values, bad)
    # a symbol with one column per field names its frequency, not its flat index
    cols = np.ones((g.rfft_zeta.size, 3))
    cols[5, 2] = cols[7, 0] = np.nan
    with pytest.raises(EvaluationError, match=r"\(index 5\)"):
        multiplier_values(g, np.ones((g.n_sigma, 3)), cols)
    with pytest.raises(EvaluationError, match=r"\(index 0\)"):
        multiplier_values(g, f.values, np.nan)


def test_multiplier_composition():
    rng = np.random.default_rng(13)
    g = _grid(n=128)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    a = lambda z: 1.0 / (1 + z**2)
    b = lambda z: 1j * z
    once = _apply(f, lambda z: a(z) * b(z))
    twice = _apply(_apply(f, a), b)
    assert np.max(np.abs(once.values - twice.values)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_multiplier_composition_property(seed):
    rng = np.random.default_rng(seed)
    g = SigmaGrid(L=8.0, n_sigma=64)
    f = GridFn(g, rng.standard_normal(64))
    a = lambda z: np.exp(-np.abs(z))
    b = lambda z: z**2 - 1.0
    once = _apply(f, lambda z: a(z) * b(z))
    twice = _apply(_apply(f, a), b)
    scale = max(1.0, float(np.max(np.abs(once.values))))
    assert np.max(np.abs(once.values - twice.values)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# pullback norm comparison
# ---------------------------------------------------------------------------

def test_pullback_zero():
    g = _grid()
    assert pullback_norm_check(GridFn.zeros(g), 1) == (0.0, 0.0)


def test_pullback_m1_exact_equality():
    # F(r) = exp(-(ln r)^2) sampled on r_j = exp(-sigma_j) is the Gaussian in sigma
    g = _grid()
    F = GridFn(g, np.exp(-(g.sigma**2)))
    lhs, rhs = pullback_norm_check(F, 1)
    assert lhs == pytest.approx(rhs, rel=1e-6)
    assert lhs > 0


def test_pullback_m1_machine_precision():
    # the two m = 1 weights are the same floats, so the norms are equal
    g = _grid()
    F = GridFn(g, np.exp(-(g.sigma**2)) * np.cos(g.sigma))
    lhs, rhs = pullback_norm_check(F, 1)
    assert lhs == rhs


@pytest.mark.parametrize("m,C", [(2, 2.0), (3, 4.0)])
def test_pullback_higher_m_two_sided(m, C):
    g = _grid()
    F = GridFn(g, np.exp(-(g.sigma**2)))
    lhs, rhs = pullback_norm_check(F, m)
    assert rhs <= C * lhs
    assert lhs <= C * rhs


# Stirling numbers of the second kind S(m, k): the chain rule for
# sigma = -ln r gives (d/dsigma)^m = (-1)^m sum_k S(m, k) r^k (d/dr)^k
_STIRLING2 = {1: {1: 1}, 2: {1: 1, 2: 1}, 3: {1: 1, 2: 3, 3: 1}}


def _stirling_pullback(F: GridFn, m: int) -> tuple[float, float]:
    """Reference pullback norms summed on the grid: the sigma-derivatives
    of F, and r^k F^(k) from them by inverting the triangular Stirling
    relation order by order."""
    g = F.grid
    dsig = [F.values] + [multiplier_values(g, F.values, (1j * g.rfft_zeta) ** k)
                         for k in range(1, m + 1)]
    rkFk = [dsig[0]]
    for order in range(1, m + 1):
        acc = (-1.0) ** order * dsig[order]
        for k in range(1, order):
            acc = acc - _STIRLING2[order][k] * rkFk[k]
        rkFk.append(acc)
    return tuple(math.sqrt(g.delta * sum(float(np.sum(d**2)) for d in terms))
                 for terms in (dsig, rkFk))


@pytest.mark.parametrize("m", [2, 3])
def test_pullback_matches_stirling_reference(m):
    g = _grid()
    for values in (np.exp(-(g.sigma**2)), np.exp(-(g.sigma / 3.0) ** 2) * np.sin(2.0 * g.sigma)):
        F = GridFn(g, values)
        got, ref = pullback_norm_check(F, m), _stirling_pullback(F, m)
        assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("power", [600, -600])
def test_norms_scale_exactly_by_powers_of_two(power):
    g = _grid()
    f = GridFn(g, np.exp(-(g.sigma**2)) * np.cos(g.sigma))
    scaled = GridFn(g, np.ldexp(f.values, power))
    for s in (-2.0, 0.0, 1.0, 3.0):
        assert sobolev_norm(scaled, s) == math.ldexp(sobolev_norm(f, s), power)
    for m in (1, 2, 3):
        assert pullback_norm_check(scaled, m) == tuple(
            math.ldexp(v, power) for v in pullback_norm_check(f, m))


@pytest.mark.parametrize("power", [600, -600, 1020])
def test_multipliers_scale_exactly_by_powers_of_two(power):
    # at 2^1020 the unscaled transform's sums leave the float range
    g = _grid()
    f = GridFn(g, np.exp(-(g.sigma**2)) * np.cos(g.sigma))
    scaled = GridFn(g, np.ldexp(f.values, power))
    assert np.array_equal(dsigma_values(g, scaled.values),
                          np.ldexp(dsigma_values(g, f.values), power))
    table = build_symbol_table(g, taylor_angle())
    assert np.array_equal(dn_flat(scaled, table).values,
                          np.ldexp(dn_flat(f, table).values, power))


@pytest.mark.parametrize("amplitude", [1e-300, 1e-170, 1e200, 1e300])
def test_norms_neither_overflow_nor_underflow(amplitude):
    # squared amplitudes leave the float range from about 1e-162 and 1e154
    g = _grid()
    f = _gaussian(g)
    scaled = GridFn(g, amplitude * f.values)
    assert l2_norm(scaled) / amplitude == pytest.approx(l2_norm(f), rel=1e-13)
    assert sobolev_norm(scaled, 3.0) / amplitude == pytest.approx(sobolev_norm(f, 3.0), rel=1e-13)
    lhs, rhs = pullback_norm_check(scaled, 3)
    assert (lhs / amplitude, rhs / amplitude) == pytest.approx(pullback_norm_check(f, 3), rel=1e-13)


def test_only_the_zero_field_has_zero_norm():
    g = _grid(n=64)
    tiny = np.zeros(g.n_sigma)
    tiny[3] = 5e-324   # the smallest subnormal
    assert l2_norm(GridFn(g, tiny)) > 0.0
    assert l2_norm(GridFn.zeros(g)) == 0.0


def test_pullback_rejects_bad_order():
    g = _grid()
    with pytest.raises(DomainError):
        pullback_norm_check(_gaussian(g), 4)


# ---------------------------------------------------------------------------
# real storage and the real-transform multiplier
# ---------------------------------------------------------------------------

def test_every_constructor_stores_float64():
    g = _grid(n=64)
    rng = np.random.default_rng(17)
    vals = rng.standard_normal(g.n_sigma)
    f = GridFn(g, vals)
    made = [
        f,
        GridFn(g, np.arange(g.n_sigma)),
        GridFn.zeros(g),
        GridFn(g, np.cos(g.sigma)),
    ]
    for h in made:
        assert h.values.dtype == np.float64
        assert not h.values.flags.writeable
    assert multiplier_values(g, vals, 1j * g.rfft_zeta).dtype == np.float64


def test_complex_input_refused():
    # any complex array, however small its imaginary part
    g = _grid(n=64)
    for imag in (1e-9, 1e-12, 1e-300, 0.0):
        vals = np.ones(g.n_sigma, dtype=complex)
        vals[3] += imag * 1j
        with pytest.raises(ConfigurationError, match="real"):
            GridFn(g, vals)
    with pytest.raises(ConfigurationError):
        GridFn(g, np.exp(1j * g.sigma))


def _oracle(f: GridFn, symbol) -> np.ndarray:
    """The complex-FFT route: real part of the multiplier over all grid
    frequencies in FFT ordering."""
    return np.real(np.fft.ifft(np.fft.fft(f.values) * symbol(f.grid.zeta)))


def _random_with_nyquist(g: SigmaGrid, seed: int) -> GridFn:
    rng = np.random.default_rng(seed)
    return GridFn(g, rng.standard_normal(g.n_sigma)
                  + rng.uniform(0.5, 1.5) * (-1.0) ** np.arange(g.n_sigma))


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return np.max(np.abs(a - b)) <= 1e-13 * max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("seed", range(4))
def test_real_multipliers_match_complex_fft_oracle(seed):
    g = SigmaGrid(L=8.0, n_sigma=64)
    f = _random_with_nyquist(g, seed)
    assert mode_amplitudes(f)[-1] > 1.0
    assert _close(dsigma_values(g, f.values), _oracle(f, lambda z: 1j * z))
    for order in (1, 2, 3):
        assert _close(_apply(f, lambda z: (1j * z) ** order).values,
                      _oracle(f, lambda z: (1j * z) ** order))
    # a symbol with symbol(-zeta) = conj symbol(zeta) and a complex Nyquist value
    symbol = lambda z: np.exp(-0.1 * np.abs(z)) * (1.0 + 0.5j * z)
    assert _close(_apply(f, symbol).values, _oracle(f, symbol))


@pytest.mark.parametrize("symbol", [np.abs, lambda z: 1j * z], ids=["even |zeta|", "odd i zeta"])
def test_multiplier_matches_complex_fft_oracle(symbol):
    # s(-zeta) = conj s(zeta) for both; the Nyquist mode is its own
    # negative, so only the real part of s counts there, as in the oracle
    rng = np.random.default_rng(2)
    g = _grid(n=64)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    out = _apply(f, symbol)
    assert np.max(np.abs(out.values - _oracle(f, symbol))) < 1e-12
