"""Structural identities over random parameter sets (hypothesis).

Every coefficient is drawn log-uniformly from [0.1, 10] (L from [0.3, 3]),
the damping interval anywhere inside (0, L), and the mesh size from
[8, 24].  Draws whose interval the mesh cannot resolve (TooCoarse) are
skipped.  The mesh property alone draws its interval from [-0.5, 1.5] and
NaN on (0, 1), valid or not, and the mesh size from [4, 64].  Runs are
derandomized, so the examples are the same every time.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from bresse.discretization import (
    apply_generator,
    assemble,
    build_mesh,
    g_norm_sq,
    inner_product_H,
)
from bresse.errors import BadInterval, TooCoarse
from bresse.model import ModelParams
from bresse.resolvent import _Resolvent, _trailing_block, lambda_cap
from bresse.timedomain import step_midpoint

from conftest import lower_band_dense, random_state

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda t: float(10.0**t))


@st.composite
def systems(draw):
    coef = {k: draw(log_uniform(0.1, 10.0))
            for k in ("rho1", "rho2", "k1", "k2", "k3", "l", "d0")}
    L = draw(log_uniform(0.3, 3.0))
    a = draw(st.floats(0.01, 0.98))
    b = draw(st.floats(a + 0.01, 0.99))
    p = ModelParams(**coef, L=L, alpha=a * L, beta=b * L)
    try:
        mesh = build_mesh(p, draw(st.integers(8, 24)))
    except TooCoarse:
        assume(False)
    return assemble(p, mesh)


POINT = st.floats(-0.5, 1.5) | st.just(math.nan)
INSIDE = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# about half the draws are two points of [-0.5, 1.5] or NaN, the others an
# ordered pair inside (0, 1), so that meshes are built too
INTERVALS = st.tuples(POINT, POINT) | st.tuples(INSIDE, INSIDE).map(sorted)


@settings(PROPERTY, max_examples=200)
@given(INTERVALS, st.integers(4, 64))
def test_mesh_holds_the_interval_or_refuses_it(interval, n):
    """ModelParams raises BadInterval exactly when 0 < alpha < beta < L
    fails, and otherwise build_mesh returns a mesh or raises TooCoarse;
    never anything else.  A mesh holds alpha and beta bit for bit at
    alpha_index and beta_index, and its widths lie in [h/2, 2h], to
    build_mesh's relative slack of 1e-12."""
    alpha, beta = interval
    valid = 0.0 < alpha < beta < 1.0
    try:
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, L=1.0, alpha=alpha, beta=beta, d0=1.0)
        mesh = build_mesh(p, n)
    except BadInterval:
        assert not valid
        return
    except TooCoarse:
        assert valid
        return
    assert valid
    assert mesh.nodes[mesh.alpha_index] == alpha and mesh.nodes[mesh.beta_index] == beta
    h = 1.0 / n
    assert 0.5 * h * (1.0 - 1e-12) <= mesh.widths.min()
    assert mesh.widths.max() <= 2.0 * h * (1.0 + 1e-12)


@PROPERTY
@given(systems())
def test_mass_and_stiffness_factor_and_damping_is_semidefinite(sys):
    """The banded factor of M and a Cholesky factor of K reproduce M and K;
    C is semidefinite.

    C has no eigenvalue below -1e-12 ||C||.
    """
    for factor, mat in (
        (lower_band_dense(sys._m_factor), sys.M),
        (np.linalg.cholesky(sys.K), sys.K),
    ):
        err = np.max(np.abs(factor @ factor.T - mat)) / np.max(np.abs(mat))
        assert err <= 1e-12
    c_norm = np.linalg.norm(sys.C, 2)
    assert c_norm > 0.0
    assert np.linalg.eigvalsh(sys.C).min() >= -1e-12 * c_norm


@PROPERTY
@given(systems(), st.integers(0, 2**32 - 1))
def test_generator_is_dissipative(sys, seed):
    """Re(A U, U)_G = -v^H C v to 1e-12, measured as in criterion 1."""
    U = random_state(sys, np.random.default_rng(seed), complex_valued=True)
    ip = inner_product_H(sys, apply_generator(sys, U), U)
    v = U[sys.n_dofs :]
    diss = np.vdot(v, sys.C @ v).real
    assert abs(ip.real + diss) / max(1.0, abs(ip), diss) <= 1e-12


@PROPERTY
@given(systems(), log_uniform(1e-3, 1.0), st.integers(0, 2**32 - 1))
def test_one_step_energy_balance(sys, dt, seed):
    """E1 - E0 = -dt v_mid^T C v_mid to 1e-10 of E0."""
    U0 = random_state(sys, np.random.default_rng(seed))
    U1 = step_midpoint(sys, U0, dt)
    v_mid = 0.5 * (U0 + U1)[sys.n_dofs :]
    e0 = 0.5 * g_norm_sq(sys, U0)
    balance = 0.5 * g_norm_sq(sys, U1) - e0 + dt * (v_mid @ sys.C @ v_mid)
    assert abs(balance) <= 1e-10 * e0


@PROPERTY
@given(systems(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_resolvent_adjoint_is_consistent(sys, frac, seed):
    """(R x, y)_G = (x, R* y)_G to 1e-10 of ||R x||_G ||y||_G.

    R is the resolvent at lam = frac * lambda_max and R* its adjoint in the
    energy metric G, the pair on which profile runs Lanczos.
    """
    op = _Resolvent(sys, frac * lambda_cap(sys), _trailing_block(sys.KMC_csr, sys.n_dofs))
    rng = np.random.default_rng(seed)
    x, y = (random_state(sys, rng, complex_valued=True) for _ in range(2))
    rx, ry = np.empty_like(x), np.empty_like(y)
    op.apply(x, rx)
    op.apply_adjoint(y.copy(), ry)  # it overwrites its input
    lhs = inner_product_H(sys, rx, y)
    rhs = inner_product_H(sys, x, ry)
    assert abs(lhs - rhs) <= 1e-10 * np.sqrt(g_norm_sq(sys, rx) * g_norm_sq(sys, y))
