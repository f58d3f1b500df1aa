"""Linear-algebra primitive tests.

Frozen values below were computed by hand (diagonal square roots, small
Frobenius norms) before the implementation existed. Operators are plain
float64 arrays throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvm.hilbert import MAX_DIM, op_norm, psd_sqrt
from cmvm.integrate import constant_integrand, lambda2_norm
from cmvm.noise import CellNoise, NoiseSpec, SpatialPartition, TimeGrid
from cmvm.presets import make_preset


def _one_cell(cov, intensity):
    cell = CellNoise(diffusion_cov=np.array(cov), diffusion_intensity=intensity)
    return NoiseSpec(2, SpatialPartition.uniform(1), [cell])


def test_hs_weight_frozen():
    # the control-measure norm of a constant integrand is
    # ||phi Q^{1/2}||_HS^2 * intensity * horizon
    grid = TimeGrid(1.0, 4)
    # Q = I: ||diag(3, 4)||_HS^2 = 25, intensity 2
    spec = _one_cell(np.eye(2), 2.0)
    got = lambda2_norm(constant_integrand([[3.0, 0.0], [0.0, 4.0]]), spec, grid).value
    assert got == pytest.approx(50.0)
    # Q = diag(1, 1/4): ||I Q^{1/2}||_HS^2 = trace Q = 1.25
    spec = _one_cell([[1.0, 0.0], [0.0, 0.25]], 1.0)
    assert lambda2_norm(constant_integrand(np.eye(2)), spec, grid).value == pytest.approx(1.25)


def test_op_norm_frozen():
    assert op_norm([[3.0, 0.0], [0.0, -4.0]]) == pytest.approx(4.0)
    # nonsymmetric: largest singular value of [[0, 2], [0, 0]] is 2
    assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


def test_psd_sqrt_frozen_diagonal():
    root = psd_sqrt([[2.0, 0.0], [0.0, 8.0]])
    assert np.allclose(root, [[np.sqrt(2.0), 0.0], [0.0, 2.0 * np.sqrt(2.0)]])


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        psd_sqrt([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="semidefinite"):
        psd_sqrt([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(ValueError, match="square"):
        psd_sqrt(np.ones((2, 3)))
    with pytest.raises(ValueError, match="matrix"):
        psd_sqrt([1.0, 2.0])


def test_dimension_cap_and_finiteness():
    with pytest.raises(ValueError, match="dimension"):
        NoiseSpec(MAX_DIM + 1, SpatialPartition.uniform(1), [CellNoise()])
    with pytest.raises(ValueError, match="dimension"):
        constant_integrand(np.zeros((MAX_DIM + 1, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        psd_sqrt([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        op_norm([[np.nan]])


def test_entries_are_immutable():
    root = psd_sqrt(np.eye(2))
    with pytest.raises(ValueError):
        root[0, 0] = 7.0
    tab = make_preset("mixed-default").tables
    shared = [tab.jump_rate] + [q for q in tab.gauss_factor if q is not None]
    for table in tab.flavors.values():
        shared.append(table.rate)
        shared += [q for q in table.field + table.root if q is not None]
    for arr in shared:
        assert not arr.flags.writeable


def _random_matrix(draw, n, m, scale=3.0):
    elems = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(st.lists(elems, min_size=m, max_size=m), min_size=n, max_size=n)))


@st.composite
def _op_pair(draw):
    n = draw(st.integers(1, 5))
    return _random_matrix(draw, n, n), _random_matrix(draw, n, n)


@given(_op_pair())
def test_compose_hs_bound(pair):
    a, b = pair
    # ||A B||_HS <= ||A||_op ||B||_HS, the workhorse inequality behind
    # every second-moment bound in the integrator
    lhs = np.linalg.norm(a @ b)
    rhs = op_norm(a) * np.linalg.norm(b)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@st.composite
def _psd_op(draw):
    n = draw(st.integers(1, 5))
    a = _random_matrix(draw, n, n)
    return a @ a.T + 1e-6 * np.eye(n)


@given(_psd_op())
def test_psd_sqrt_roundtrip(op):
    root = psd_sqrt(op)
    recon = root @ root.T
    assert np.linalg.norm(recon - op) <= 1e-8 * max(1.0, np.linalg.norm(op))


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_trace_bilinear_basis_invariance(seed, n):
    # The Ito trace term sum_i zeta(phi_l Q^{1/2} h_i, phi_r Q^{1/2} h_i) is
    # taken in the coordinate basis; it must not depend on the orthonormal
    # basis (h_i) and must equal trace(zeta_k phi_r Q phi_l^T) per component.
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal((2, n, n))
    a = rng.standard_normal((n, n))
    cov = a @ a.T
    phi_l, phi_r = rng.standard_normal((2, n, n))
    root = psd_sqrt(cov)
    left, right = phi_l @ root, phi_r @ root
    base = np.einsum("kab,ai,bi->k", zeta, left, right)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rotated = np.einsum("kab,ai,bi->k", zeta, left @ q, right @ q)
    scale = max(1.0, float(np.abs(base).max()))
    assert np.allclose(base, rotated, atol=1e-10 * scale)
    closed = np.array([np.trace(z @ phi_r @ cov @ phi_l.T) for z in zeta])
    assert np.allclose(base, closed, atol=1e-8 * scale)
