"""Companion eigensolve of the quadratic pencil, certified per shift."""

import types

import numpy as np
import pytest
from scipy.linalg import block_diag, eig
from scipy.linalg.lapack import zgbtrf

from bresse import discretization, spectral
from bresse.discretization import AssembledSystem
from bresse.errors import (
    EmptyGrid,
    NoConvergence,
    NonPositiveParameter,
    OutOfDomain,
    SchemaError,
)
from bresse.spectral import axis_scan, quadratic_eigs

from conftest import make_system, matrix_system


def companion_eigenvalues(sys):
    """Dense reference spectrum from the first-order block matrix."""
    n = sys.n_dofs
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, n:] = np.eye(n)
    Z[n:, :n] = -np.linalg.solve(sys.M, sys.K)
    Z[n:, n:] = -np.linalg.solve(sys.M, sys.C)
    return eig(Z, right=False)


def wave_chain(n, rho1=1.0, k3=1.0, d0=0.1, L=1.0):
    """Fixed-end damped wave equation as a bare matrix system.

    rho1 w_tt = k3 w_xx + d0 w_txx on (0, L), P1 elements on a uniform
    mesh, interior dofs only.  The damping matrix is proportional to the
    stiffness matrix, so every mode decays by a closed-form quadratic.
    """
    h = L / n
    m = n - 1
    tri = np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1) - np.diag(np.ones(m - 1), -1)
    mass = np.diag(np.full(m, 4.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    M = rho1 * (h / 6.0) * mass
    K = (k3 / h) * tri
    C = (d0 / h) * tri
    sys = matrix_system(M, C, K, types.SimpleNamespace(n_elements=n))
    mu = np.sort(np.linalg.eigvals(np.linalg.solve(M, K)).real)
    roots = []
    for m_k in mu:
        c = d0 * m_k / k3
        disc = np.sqrt(complex(c * c - 4.0 * m_k))
        roots.append((-c + disc) / 2.0)
        roots.append((-c - disc) / 2.0)
    return sys, np.array(roots)


# ---------------------------------------------------------------------------
# correctness against dense references
# ---------------------------------------------------------------------------


class TestQuadraticEigs:
    def test_matches_dense_spectrum(self):
        """Reported eigenvalues sit on the dense companion spectrum."""
        sys = make_system(24)
        dense = companion_eigenvalues(sys)
        report = quadratic_eigs(sys, [1j, 3j, 6j, 9j])
        assert report.eigenvalues.size >= 8
        for s in report.eigenvalues:
            dist = np.min(np.abs(dense - s))
            assert dist <= 1e-8 * (1.0 + abs(s))

    def test_damped_wave_closed_form(self):
        """A chain with stiffness-proportional damping has known roots."""
        sys, roots = wave_chain(16, d0=0.1)
        report = quadratic_eigs(
            sys, [3.2j, 6.5j, 9.9j, -30.0 + 0.0j], per_shift=4
        )
        assert report.eigenvalues.size >= 6
        for s in report.eigenvalues:
            dist = np.min(np.abs(roots - s))
            assert dist <= 1e-8 * (1.0 + abs(s))

    def test_residual_contract(self):
        """Every reported pair satisfies the advertised residual bound."""
        sys = make_system(24)
        report = quadratic_eigs(sys, [2j, 5j], tol=1e-10)
        assert np.all(report.residuals <= 1e-10 * report.k_norm)

    def test_conjugate_pairing(self):
        sys = make_system(24)
        report = quadratic_eigs(sys, [1j, 4j, 8j])
        for s in report.eigenvalues:
            if abs(s.imag) < 1e-12:
                continue
            dist = np.min(np.abs(report.eigenvalues - np.conj(s)))
            assert dist <= 1e-10 * (1.0 + abs(s))

    def test_report_summaries_consistent(self):
        sys = make_system(24)
        report = quadratic_eigs(sys, [1j, 4j, 8j])
        assert report.spectral_abscissa == report.eigenvalues.real.max()
        assert report.min_abs_real == np.abs(report.eigenvalues.real).min()
        gap = abs(report.closest_to_axis.real)
        assert gap == report.min_abs_real
        assert report.mesh_size == 24

    def test_empty_shift_list(self):
        with pytest.raises(EmptyGrid):
            quadratic_eigs(make_system(16), [])

    def test_nearest_eigenvalues_reported(self):
        """Each shift's per_shift nearest dense eigenvalues are all reported."""
        sys = make_system(24)
        dense = companion_eigenvalues(sys)
        shifts = [1j, 4.5j, 9j, -2.0 + 3.0j]
        report = quadratic_eigs(sys, shifts, per_shift=4)
        for sigma in shifts:
            for s in dense[np.argsort(np.abs(dense - sigma), kind="stable")[:4]]:
                dist = np.min(np.abs(report.eigenvalues - s))
                assert dist <= 1e-8 * abs(s), (sigma, s, dist)

    def test_near_double_eigenvalues_are_all_reported(self):
        """Two decoupled chains whose stiffnesses differ by a factor 1 + 1e-9
        have eigenvalues about 1.6e-9 apart; both members of each are kept."""
        a, roots_a = wave_chain(16)
        b, roots_b = wave_chain(16, k3=1.0 + 1e-9)
        twin = matrix_system(
            block_diag(a.M, b.M), block_diag(a.C, b.C), block_diag(a.K, b.K), a.mesh
        )
        report = quadratic_eigs(twin, [3.2j, 6.5j], per_shift=4)
        expected = np.concatenate([roots_a[:4], roots_b[:4]])  # two lowest modes each
        nearest = [int(np.argmin(np.abs(expected - s))) for s in report.eigenvalues]
        assert sorted(nearest) == list(range(8))
        assert np.max(np.abs(expected[nearest] - report.eigenvalues)) <= 1e-8

    @pytest.mark.parametrize("shift", [complex(np.nan, 2.0), complex(0.0, np.inf)])
    def test_non_finite_shift_is_refused_before_the_eigensolve(self, monkeypatch, shift):
        monkeypatch.setattr(spectral, "_companion_eig", None)  # never reached
        with pytest.raises(OutOfDomain, match="must be finite") as exc:
            quadratic_eigs(make_system(16), [2j, shift])
        assert exc.value.exit_code == 15
        with pytest.raises(OutOfDomain):
            axis_scan(make_system(16), [2.0, np.nan])

    @pytest.mark.parametrize("per_shift", [0, -1])
    def test_per_shift_below_one_is_refused_before_the_eigensolve(self, monkeypatch, per_shift):
        monkeypatch.setattr(spectral, "_companion_eig", None)  # never reached
        with pytest.raises(NonPositiveParameter) as exc:
            quadratic_eigs(make_system(16), [2j], per_shift=per_shift)
        assert exc.value.name == "per_shift"
        with pytest.raises(NonPositiveParameter):
            axis_scan(make_system(16), [2.0], per_shift=per_shift)

    @pytest.mark.parametrize("per_shift", [2.5, 1.0000001, np.float64(3.5), np.nan, np.inf])
    def test_non_integral_per_shift_is_refused_before_the_eigensolve(self, monkeypatch, per_shift):
        """A per_shift that is no integer is the CLI's SchemaError (exit 11)."""
        monkeypatch.setattr(spectral, "_companion_eig", None)  # never reached
        with pytest.raises(SchemaError) as exc:
            quadratic_eigs(make_system(8), [2j], per_shift=per_shift)
        assert exc.value.exit_code == 11 and exc.value.path == "per_shift"

    def test_integral_float_per_shift(self):
        """An integral float per_shift selects as the integer does."""
        sys = make_system(8)
        got = quadratic_eigs(sys, [2j], per_shift=4.0)
        ref = quadratic_eigs(sys, [2j], per_shift=4)
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.residuals, ref.residuals)

    def test_uncertified_shift_raises(self):
        """A shift with no pair under the residual bound is an error."""
        with pytest.raises(NoConvergence, match=r"shift 2j.*best residual .* bound 0\.000e\+00"):
            quadratic_eigs(make_system(16), [2j], tol=0.0)

    def test_zero_pivot_leaves_the_picks_uncertified(self, monkeypatch):
        """An exact zero pivot in the pencil's LU is no certificate."""
        def zero_pivot(ab, kl, ku, **kwargs):
            lu, piv, _ = zgbtrf(ab, kl, ku, **kwargs)
            return lu, piv, 1

        monkeypatch.setattr(discretization, "zgbtrf", zero_pivot)
        with pytest.raises(NoConvergence, match=r"best residual inf"):
            quadratic_eigs(make_system(16), [2j])

    def test_needs_no_dense_mass_matrix(self, monkeypatch):
        """The spectrum reads M only through its bands and its factor."""

        def dense(self):
            raise AssertionError("dense matrix expanded")

        monkeypatch.setattr(AssembledSystem, "M", property(dense))
        report = quadratic_eigs(make_system(16), [2j, 5j])
        assert np.all(report.residuals <= 1e-10 * report.k_norm)

    def test_deterministic(self):
        sys = make_system(16)
        r1 = quadratic_eigs(sys, [2j, 5j])
        r2 = quadratic_eigs(sys, [2j, 5j])
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.residuals, r2.residuals)


# ---------------------------------------------------------------------------
# spectral structure of the damped system
# ---------------------------------------------------------------------------


class TestSpectrumStructure:
    def test_damped_spectrum_in_left_half_plane(self):
        report = quadratic_eigs(make_system(24), [1j, 4j, 8j])
        assert np.all(report.eigenvalues.real < 0.0)
        assert report.spectral_abscissa < 0.0

    def test_undamped_spectrum_on_the_axis(self):
        report = axis_scan(make_system(16, d0=0.0), np.arange(1.0, 9.0))
        assert report.eigenvalues.size >= 10
        for s in report.eigenvalues:
            assert abs(s.real) <= 1e-8 * (1.0 + abs(s))

    def test_origin_is_not_an_eigenvalue(self):
        """K is invertible, so s = 0 never appears even when probed."""
        report = quadratic_eigs(make_system(16), [0.0 + 0.0j])
        assert np.min(np.abs(report.eigenvalues)) > 0.1

    def test_axis_scan_order_invariance(self):
        sys = make_system(16)
        r1 = axis_scan(sys, [1.0, 3.0, 5.0])
        r2 = axis_scan(sys, [5.0, 1.0, 3.0])
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)

    def test_axis_scan_empty_grid(self):
        with pytest.raises(EmptyGrid):
            axis_scan(make_system(16), [])

    def test_small_damping_increment_moves_modes_slightly(self):
        """Slightly stronger damping keeps modes stable and decaying."""
        base = axis_scan(make_system(32), [2.0, 4.0, 6.0])
        bumped = axis_scan(make_system(32, d0=1.01), [2.0, 4.0, 6.0])
        assert np.all(bumped.eigenvalues.real < 0.0)
        for s in base.eigenvalues:
            moved = np.min(np.abs(bumped.eigenvalues - s))
            assert moved <= 0.1

    def test_abscissa_approaches_axis_under_refinement(self):
        """The spectral gap shrinks as the mesh resolves more modes.

        Polynomial (non-exponential) decay shows up at the discrete level
        as a spectral abscissa that creeps toward zero with refinement.
        """
        mu = [2.0, 4.0, 6.0, 8.0, 10.0]
        gaps = []
        for n in (32, 64, 128):
            report = axis_scan(make_system(n), mu, per_shift=8)
            assert report.spectral_abscissa < 0.0
            gaps.append(report.spectral_abscissa)
        assert gaps[0] < gaps[1] < gaps[2] < 0.0
