"""Companion eigensolve of the quadratic pencil, certified per shift."""

import numpy as np
import pytest
from scipy.linalg import block_diag, eig

from bresse import discretization, resolvent, spectral
from bresse.discretization import AssembledSystem
from bresse.errors import (
    DimensionMismatch,
    EmptyGrid,
    NoConvergence,
    NonPositiveParameter,
    OutOfDomain,
    SchemaError,
)
from bresse.resolvent import lambda_cap
from bresse.spectral import quadratic_eigs

from conftest import make_system, matrix_system


def companion_eigenvalues(sys):
    """Dense reference spectrum from the first-order block matrix."""
    n = sys.n_dofs
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, n:] = np.eye(n)
    Z[n:, :n] = -np.linalg.solve(sys.M, sys.K)
    Z[n:, n:] = -np.linalg.solve(sys.M, sys.C)
    return eig(Z, right=False)


def full_companion_eigvals(sys):
    """Eigenvalues of the one 2N x 2N companion matrix, built from the dense
    K and C and the system's solve_m, with no parity split, from eig with
    right vectors, as _companion_eig computes them."""
    n = sys.n_dofs
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, n:] = np.eye(n)
    Z[n:, :n] = -sys.solve_m(sys.K)
    Z[n:, n:] = -sys.solve_m(sys.C)
    return eig(Z)[0]


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
    sys = matrix_system(M, C, K)
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
        report = quadratic_eigs(sys, [2j, 5j])
        assert np.all(report.residuals <= 1e-10 * report.k_norm)

    def test_conjugate_pairing(self):
        sys = make_system(24)
        report = quadratic_eigs(sys, [1j, 4j, 8j])
        for s in report.eigenvalues:
            if abs(s.imag) < 1e-12:
                continue
            dist = np.min(np.abs(report.eigenvalues - np.conj(s)))
            assert dist <= 1e-10 * (1.0 + abs(s))

    def test_partners_are_certified_on_their_own_vectors(self, monkeypatch):
        """At shift 2j each selected eigenvalue's conjugate partner, which
        eig stores next to it, is lifted and certified on its own vector;
        a partner that is not selected is reported with its selected
        eigenvalue's residual, bit for bit."""
        sys = make_system(16)
        lifted = []
        lift = spectral._lift

        def recording(blocks, picks, n):
            lifted.append(picks)
            return lift(blocks, picks, n)

        monkeypatch.setattr(spectral, "_lift", recording)
        report = quadratic_eigs(sys, [2j])
        w, _ = spectral._companion_eig(sys)
        near = np.argsort(np.abs(w - 2j), kind="stable")[:5]
        partners = near + np.sign(w[near].imag).astype(int)
        extra = [(i, j) for i, j in zip(near, partners) if j not in near]
        assert extra and np.all(w[partners] == np.conj(w[near]))
        assert np.isin(partners, lifted[0]).all()
        for i, j in extra:
            (pick,) = np.flatnonzero(report.eigenvalues == w[i])
            (partner,) = np.flatnonzero(report.eigenvalues == w[j])
            assert report.residuals[partner] == report.residuals[pick]

    def test_report_summaries_consistent(self):
        sys = make_system(24)
        report = quadratic_eigs(sys, [1j, 4j, 8j])
        assert report.spectral_abscissa == report.eigenvalues.real.max()
        assert report.min_abs_real == np.abs(report.eigenvalues.real).min()

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
            block_diag(a.M, b.M), block_diag(a.C, b.C), block_diag(a.K, b.K)
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

    @pytest.mark.parametrize("shifts", [[[1j]], [[2j, 5j], [3j, 4j]], 2j, np.ones((1, 0))])
    def test_shifts_not_one_dimensional_are_refused_before_the_eigensolve(self, monkeypatch, shifts):
        """A scalar shift or a nested shift list is DimensionMismatch (exit 24)."""
        monkeypatch.setattr(spectral, "_companion_eig", None)  # never reached
        with pytest.raises(DimensionMismatch, match="not one-dimensional") as exc:
            quadratic_eigs(make_system(8), shifts)
        assert exc.value.exit_code == 24

    @pytest.mark.parametrize("per_shift", [0, -1])
    def test_per_shift_below_one_is_refused_before_the_eigensolve(self, monkeypatch, per_shift):
        monkeypatch.setattr(spectral, "_companion_eig", None)  # never reached
        with pytest.raises(NonPositiveParameter) as exc:
            quadratic_eigs(make_system(16), [2j], per_shift=per_shift)
        assert exc.value.name == "per_shift"

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

    def test_uncertified_shift_raises(self, monkeypatch):
        """A shift with no pair under the residual bound is an error."""
        monkeypatch.setattr(spectral, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(NoConvergence, match=r"shift 2j.*best residual .* bound 0\.000e\+00"):
            quadratic_eigs(make_system(16), [2j])

    def test_needs_no_dense_mass_matrix(self, monkeypatch):
        """The spectrum reads M only through its bands and its factor."""

        def dense(self):
            raise AssertionError("dense matrix expanded")

        monkeypatch.setattr(AssembledSystem, "M", property(dense))
        report = quadratic_eigs(make_system(16), [2j, 5j])
        assert np.all(report.residuals <= 1e-10 * report.k_norm)

    def test_stiff_real_tail_is_certified(self):
        """Near s = -2e4 at n = 64 each vector is read from the half s x of
        its companion eigenvector, and the picks certify as two steps of
        inverse iteration did; the half x alone misses the bound by 5 to
        17 times there."""
        report = quadratic_eigs(make_system(64), [-2e4])
        assert report.eigenvalues.size >= 3 and np.all(report.eigenvalues.real < -1e4)
        assert np.all(report.residuals <= 1e-10 * report.k_norm)

    def test_factors_no_pencil(self, monkeypatch):
        """Each pick is certified on its own eigenvector by products with
        KMC_csr: no pencil is built and no banded LU taken."""

        def refuse(*args, **kwargs):
            raise AssertionError("a pencil was factored")

        monkeypatch.setattr(resolvent, "_Resolvent", refuse)
        monkeypatch.setattr(resolvent, "zgbtrf", refuse)
        report = quadratic_eigs(make_system(16), [2j, 5j])
        assert report.eigenvalues.size >= 4
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
        report = quadratic_eigs(make_system(16, d0=0.0), 1j * np.arange(1.0, 9.0))
        assert report.eigenvalues.size >= 10
        for s in report.eigenvalues:
            assert abs(s.real) <= 1e-8 * (1.0 + abs(s))

    def test_origin_is_not_an_eigenvalue(self):
        """K is invertible, so s = 0 never appears even when probed."""
        report = quadratic_eigs(make_system(16), [0.0 + 0.0j])
        assert np.min(np.abs(report.eigenvalues)) > 0.1

    def test_axis_scan_order_invariance(self):
        """The report does not depend on the order of the shifts i*mu."""
        sys = make_system(16)
        r1 = quadratic_eigs(sys, [1j, 3j, 5j])
        r2 = quadratic_eigs(sys, [5j, 1j, 3j])
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.residuals, r2.residuals)

    def test_small_damping_increment_moves_modes_slightly(self):
        """Slightly stronger damping keeps modes stable and decaying."""
        base = quadratic_eigs(make_system(32), [2j, 4j, 6j])
        bumped = quadratic_eigs(make_system(32, d0=1.01), [2j, 4j, 6j])
        assert np.all(bumped.eigenvalues.real < 0.0)
        for s in base.eigenvalues:
            moved = np.min(np.abs(bumped.eigenvalues - s))
            assert moved <= 0.1

    def test_abscissa_approaches_axis_under_refinement(self):
        """The spectral gap shrinks as the mesh resolves more modes.

        Polynomial (non-exponential) decay shows up at the discrete level
        as a spectral abscissa that creeps toward zero with refinement.
        """
        shifts = [2j, 4j, 6j, 8j, 10j]
        gaps = []
        for n in (32, 64, 128):
            report = quadratic_eigs(make_system(n), shifts, per_shift=8)
            assert report.spectral_abscissa < 0.0
            gaps.append(report.spectral_abscissa)
        assert gaps[0] < gaps[1] < gaps[2] < 0.0


# ---------------------------------------------------------------------------
# mirror-parity blocks of the companion eigensolve
# ---------------------------------------------------------------------------


class TestParityBlocks:
    @pytest.mark.parametrize(
        "n, overrides, sizes",
        [(16, {}, [22, 23]), (64, {}, [94, 95]), (64, {"k2": 2.0}, [94, 95])],
    )
    def test_symmetric_system_splits_into_two_blocks(self, n, overrides, sizes):
        """The example config (and its unequal-speed twin) splits into an
        even and an odd block whose sizes sum to N, and their eigenvalues
        match the dense companion's one to one within 1e-10 relative."""
        sys = make_system(n, **overrides)
        blocks = spectral._parity_blocks(sys)
        assert [cols.size for cols, _, _ in blocks] == sizes
        assert sum(sizes) == sys.n_dofs
        w, _ = spectral._companion_eig(sys)
        dense = companion_eigenvalues(sys)
        nearest = np.argmin(np.abs(w[:, None] - dense[None, :]), axis=1)
        assert np.unique(nearest).size == dense.size == w.size
        assert np.max(np.abs(w - dense[nearest]) / np.abs(dense[nearest])) <= 1e-10

    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    def test_non_unit_coefficients_split_into_two_blocks(self, n):
        """Constant non-unit coefficients keep the split: the element
        arithmetic maps M, C and K onto their mirror images bit for bit.
        Block sizes only, no eigensolve."""
        sys = make_system(n, rho1=1.3, rho2=0.7, k1=2.1, k2=0.6, k3=1.7, l=0.45, d0=0.8)
        sizes = [cols.size for cols, _, _ in spectral._parity_blocks(sys)]
        assert len(sizes) == 2 and sum(sizes) == sys.n_dofs

    def test_blocks_pair_each_dof_with_its_mirror(self):
        """Each block pairs the left-half dofs with their mirrors, with the
        field's sign (phi +1, psi and w -1) in the even block and its
        negative in the odd one, and keeps the middle node's dofs of its
        own parity; together the blocks cover every dof."""
        sys = make_system(16)
        m = sys.n_dofs // 3
        field_sign = np.array([1.0, -1.0, -1.0])
        covered = []
        for parity, (cols, partner, sign) in zip((1.0, -1.0), spectral._parity_blocks(sys)):
            mirrored = partner != cols
            assert np.array_equal(partner[mirrored], 3 * (m - 1 - cols[mirrored] // 3) + cols[mirrored] % 3)
            assert np.array_equal(sign[mirrored], parity * field_sign[cols[mirrored] % 3])
            own = cols[~mirrored]
            assert np.all(own // 3 == m // 2) and np.all(field_sign[own % 3] == parity)
            assert np.all(sign[~mirrored] == 1.0)
            covered.append(np.concatenate((cols, partner)))
        assert np.array_equal(np.unique(np.concatenate(covered)), np.arange(sys.n_dofs))

    @pytest.mark.parametrize("im", [41.5, 44.8, 55.0])
    def test_close_pair_across_blocks_is_reported_whole(self, sys64, im):
        """The closest pairs below Im s = 60 at n = 64 lie 0.024 to 0.027
        apart, one member in each parity block; a shift between them
        reports both."""
        w, _ = spectral._companion_eig(sys64)
        sizes = [2 * cols.size for cols, _, _ in spectral._parity_blocks(sys64)]
        block = np.repeat(np.arange(len(sizes)), sizes)  # block of each eigenvalue
        pair = np.argsort(np.abs(w - 1j * im), kind="stable")[:2]
        assert np.abs(w[pair[0]] - w[pair[1]]) < 0.03
        assert sorted(block[pair].tolist()) == [0, 1]
        report = quadratic_eigs(sys64, [w[pair].mean()], per_shift=2)
        for s in w[pair]:
            assert np.min(np.abs(report.eigenvalues - s)) <= 1e-12 * abs(s)

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    @pytest.mark.parametrize("n", [16, 64])
    def test_lifting_is_right_in_both_blocks(self, n, k2):
        """Every lifted eigenvector keeps its block's mirror parity exactly,
        and on the resolved band 0 < |Im s| <= 1/h, which both blocks
        reach, each meets the spectrum's bound on the dense quadratic
        residual from M, C and K."""
        sys = make_system(n, k2=k2)
        w, blocks = spectral._companion_eig(sys)
        assert len(blocks) == 2
        X = spectral._lift(blocks, np.arange(w.size), sys.n_dofs)
        band = (w.imag != 0.0) & (np.abs(w.imag) <= lambda_cap(sys))
        ends = np.cumsum([0] + [z.shape[1] for *_, z in blocks])
        for (cols, partner, sign, _), lo, hi in zip(blocks, ends, ends[1:]):
            assert np.array_equal(X[partner, lo:hi], sign[:, None] * X[cols, lo:hi])
            assert band[lo:hi].sum() >= 4
        R = sys.K @ X + (sys.C @ X) * w + (sys.M @ X) * w**2
        residual = np.linalg.norm(R, axis=0) / np.linalg.norm(X, axis=0)
        assert np.max(residual[band]) <= 1e-10 * np.linalg.norm(sys.K, 2)

    def test_asymmetric_interval_takes_one_block(self):
        sys = make_system(64, alpha=0.2, beta=0.7)
        assert len(spectral._parity_blocks(sys)) == 1
        assert spectral._companion_eig(sys)[0].tobytes() == full_companion_eigvals(sys).tobytes()

    def test_one_ulp_in_the_mass_band_takes_one_block(self, monkeypatch):
        """One diagonal entry of M one ulp up, at node 3, breaks the mirror;
        the factor of M is taken from the nudged band."""
        bands = discretization._assemble_bands

        def nudged(p, mesh):
            M, C, K = bands(p, mesh)
            M = M.copy(order="F")
            M[0, 10] = np.nextafter(M[0, 10], np.inf)
            return M, C, K

        monkeypatch.setattr(discretization, "_assemble_bands", nudged)
        sys = make_system(64)
        assert len(spectral._parity_blocks(sys)) == 1
        assert spectral._companion_eig(sys)[0].tobytes() == full_companion_eigvals(sys).tobytes()

    @pytest.mark.parametrize("n", [16, 17])
    def test_matrix_system_takes_one_block(self, n):
        """A bare chain is no beam: at N = 15 the beam's mirror does not map
        its matrices onto themselves, and N = 16 is no multiple of 3."""
        sys, _ = wave_chain(n)
        blocks = spectral._parity_blocks(sys)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0][0], np.arange(n - 1))
        assert spectral._companion_eig(sys)[0].tobytes() == full_companion_eigvals(sys).tobytes()

    def test_wide_bands_take_one_block(self):
        """A chain whose two end dofs are coupled: N = 15, bands 15 rows deep."""
        chain, _ = wave_chain(16)
        K = chain.K.copy()
        K[0, -1] = K[-1, 0] = 0.5 * K[0, 1]  # K stays diagonally dominant
        wide = matrix_system(chain.M, chain.C, K)
        assert wide.K_band.shape == (15, 15)
        assert len(spectral._parity_blocks(wide)) == 1
        assert spectral._companion_eig(wide)[0].tobytes() == full_companion_eigvals(wide).tobytes()
