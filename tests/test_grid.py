from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedn import (
    ConfigurationError,
    DomainError,
    GridFn,
    SigmaGrid,
    apply_multiplier,
    derivative,
    dsigma_values,
    l2_norm,
    pullback_norm_check,
    sobolev_norm,
    to_gridfn,
    to_spectrum,
)


def _grid(L: float = 16.0, n: int = 256) -> SigmaGrid:
    return SigmaGrid(L=L, n_sigma=n)


def _gaussian(grid: SigmaGrid) -> GridFn:
    return GridFn.from_callable(grid, lambda s: np.exp(-(s**2)))


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
    for n in (1, 65):   # a length-1 array would broadcast
        with pytest.raises(ConfigurationError):
            to_gridfn(g, np.zeros(n, dtype=complex))


# ---------------------------------------------------------------------------
# transform pair
# ---------------------------------------------------------------------------

def test_zero_transforms_to_zero():
    g = _grid()
    assert np.all(to_spectrum(GridFn.zeros(g)) == 0)


def test_cosine_mode_two_coefficients():
    g = _grid()
    f = GridFn.from_callable(g, lambda s: np.cos(np.pi * s / g.L))
    c = to_spectrum(f)
    nz = np.flatnonzero(np.abs(c) > 1e-12)
    assert set(nz) == {1, g.n_sigma - 1}  # zeta = +pi/L and -pi/L
    # cos = (e^{i} + e^{-i})/2, each basis fn carries 1/sqrt(2L)
    expected = 0.5 * math.sqrt(2 * g.L)
    assert np.abs(c[1]) == pytest.approx(expected, rel=1e-12)
    assert np.abs(c[-1]) == pytest.approx(expected, rel=1e-12)


def test_round_trip_random():
    rng = np.random.default_rng(7)
    g = _grid()
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    back = to_gridfn(g, to_spectrum(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_parseval_exact():
    rng = np.random.default_rng(11)
    g = _grid(n=128)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    lhs = g.delta * np.sum(np.abs(f.values) ** 2)
    rhs = np.sum(np.abs(to_spectrum(f)) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conjugate_symmetry_iff_real():
    rng = np.random.default_rng(3)
    g = _grid(n=64)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    c = to_spectrum(f)
    # c(-zeta) = conj(c(zeta)) in FFT index terms: c[n-k] = conj(c[k])
    k = np.arange(1, g.n_sigma)
    assert np.max(np.abs(c[g.n_sigma - k] - np.conj(c[k]))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    g = SigmaGrid(L=8.0, n_sigma=64)
    vals = rng.standard_normal(64)
    f = GridFn(g, vals)
    back = to_gridfn(g, to_spectrum(f))
    assert np.max(np.abs(back.values - vals)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


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
    f = GridFn.from_callable(g, lambda s: a * np.cos(np.pi * s / g.L))
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
# apply_multiplier
# ---------------------------------------------------------------------------

def test_multiplier_identity():
    rng = np.random.default_rng(5)
    g = _grid(n=64)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    out = apply_multiplier(f, lambda z: np.ones_like(z))
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_multiplier_differentiates_sine():
    g = _grid()
    f = GridFn.from_callable(g, lambda s: np.sin(np.pi * s / g.L))
    out = apply_multiplier(f, lambda z: 1j * z)
    expect = (np.pi / g.L) * np.cos(np.pi * g.sigma / g.L)
    assert np.max(np.abs(out.values - expect)) < 1e-10


def test_multiplier_bracket_norm_matches_sobolev():
    g = _grid()
    f = _gaussian(g)
    out = apply_multiplier(f, lambda z: np.sqrt(1 + z**2))
    assert l2_norm(out) == pytest.approx(sobolev_norm(f, 1.0), rel=1e-12)


def test_multiplier_nonfinite_symbol_names_frequency():
    g = _grid()
    f = _gaussian(g)

    def bad(z):
        out = np.ones_like(z)
        out[np.abs(z) > 1.0] = np.inf
        return out

    with pytest.raises(Exception) as exc:
        apply_multiplier(f, bad)
    assert "zeta" in str(exc.value)


def test_multiplier_composition():
    rng = np.random.default_rng(13)
    g = _grid(n=128)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    a = lambda z: 1.0 / (1 + z**2)
    b = lambda z: 1j * z
    once = apply_multiplier(f, lambda z: a(z) * b(z))
    twice = apply_multiplier(apply_multiplier(f, a), b)
    assert np.max(np.abs(once.values - twice.values)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_multiplier_composition_property(seed):
    rng = np.random.default_rng(seed)
    g = SigmaGrid(L=8.0, n_sigma=64)
    f = GridFn(g, rng.standard_normal(64))
    a = lambda z: np.exp(-np.abs(z))
    b = lambda z: z**2 - 1.0
    once = apply_multiplier(f, lambda z: a(z) * b(z))
    twice = apply_multiplier(apply_multiplier(f, a), b)
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
    F = GridFn.from_callable(g, lambda s: np.exp(-(s**2)))
    lhs, rhs = pullback_norm_check(F, 1)
    assert lhs == pytest.approx(rhs, rel=1e-6)
    assert lhs > 0


def test_pullback_m1_machine_precision():
    g = _grid()
    F = GridFn.from_callable(g, lambda s: np.exp(-(s**2)) * np.cos(s))
    lhs, rhs = pullback_norm_check(F, 1)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("m,C", [(2, 2.0), (3, 4.0)])
def test_pullback_higher_m_two_sided(m, C):
    g = _grid()
    F = GridFn.from_callable(g, lambda s: np.exp(-(s**2)))
    lhs, rhs = pullback_norm_check(F, m)
    assert rhs <= C * lhs
    assert lhs <= C * rhs


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
        GridFn(g, vals + 1e-12j),
        GridFn.zeros(g),
        GridFn.from_callable(g, np.cos),
        f + f, f - 1.0, 2.0 - f, f * f, -f,
        to_gridfn(g, to_spectrum(f)),
        apply_multiplier(f, lambda z: 1j * z),
        derivative(f, 2),
    ]
    for h in made:
        assert h.values.dtype == np.float64
        assert not h.values.flags.writeable
    assert np.array_equal(GridFn(g, vals + 1e-12j).values, vals)


def test_complex_input_above_tolerance_refused():
    g = _grid(n=64)
    vals = np.ones(g.n_sigma, dtype=complex)
    vals[3] += 1e-9j
    with pytest.raises(ConfigurationError, match="real"):
        GridFn(g, vals)
    with pytest.raises(ConfigurationError):
        GridFn.from_callable(g, lambda s: np.exp(1j * s))
    with pytest.raises(ConfigurationError):
        GridFn(g, np.zeros(g.n_sigma)) + 1j


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
    assert abs(to_spectrum(f)[g.n_sigma // 2]) > 1.0
    assert _close(dsigma_values(g, f.values), _oracle(f, lambda z: 1j * z))
    for order in (1, 2, 3):
        assert _close(derivative(f, order).values, _oracle(f, lambda z: (1j * z) ** order))
    # a symbol with symbol(-zeta) = conj symbol(zeta) and a complex Nyquist value
    symbol = lambda z: np.exp(-0.1 * np.abs(z)) * (1.0 + 0.5j * z)
    assert _close(apply_multiplier(f, symbol).values, _oracle(f, symbol))


@pytest.mark.parametrize("symbol", [np.abs, lambda z: 1j * z], ids=["even |zeta|", "odd i zeta"])
def test_multiplier_matches_complex_fft_oracle(symbol):
    # s(-zeta) = conj s(zeta) for both; the Nyquist mode is its own
    # negative, so only the real part of s counts there, as in the oracle
    rng = np.random.default_rng(2)
    g = _grid(n=64)
    f = GridFn(g, rng.standard_normal(g.n_sigma))
    out = apply_multiplier(f, symbol)
    assert np.max(np.abs(out.values - _oracle(f, symbol))) < 1e-12
