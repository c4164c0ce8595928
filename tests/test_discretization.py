"""Mesh construction, assembled matrices, energy metric, and projection."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, cholesky_banded, eig, eigh

from bresse import discretization
from bresse.discretization import (
    apply_generator,
    assemble,
    build_mesh,
    domain_norm,
    g_norm_sq,
    inner_product_H,
    project_initial_data,
)
from bresse.errors import (
    BadInterval,
    DimensionMismatch,
    FactorizationFailed,
    IncompatibleBoundary,
    OutOfDomain,
    SchemaError,
    TooCoarse,
)
from bresse.resolvent import profile, resolvent_solve
from bresse.spectral import quadratic_eigs
from bresse.timedomain import SimConfig, simulate, step_midpoint

from conftest import (
    dense_lower_band,
    element_loop,
    energy_strains,
    full_band_dense,
    lower_band_dense,
    make_params,
    make_system,
    node_major,
    random_state,
    reference_matrices,
)


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


class TestBuildMesh:
    def test_default_interval_snaps_onto_existing_nodes(self):
        """alpha=1/4, beta=3/4 on 8 elements land on nodes 2 and 6."""
        p = make_params()
        mesh = build_mesh(p, 8)
        assert mesh.alpha_index == 2
        assert mesh.beta_index == 6
        assert_allclose(mesh.nodes, np.linspace(0.0, 1.0, 9), rtol=0, atol=0)

    def test_interface_nodes_are_exact(self):
        """Snapped nodes carry alpha and beta bit for bit."""
        p = make_params(alpha=0.3, beta=0.7)
        mesh = build_mesh(p, 10)
        assert mesh.nodes[mesh.alpha_index] == 0.3
        assert mesh.nodes[mesh.beta_index] == 0.7

    def test_widths_stay_within_factor_two(self):
        p = make_params(alpha=0.22, beta=0.61)
        mesh = build_mesh(p, 8)
        h = p.L / 8
        assert mesh.widths.min() >= 0.5 * h * (1.0 - 1e-12)
        assert mesh.widths.max() <= 2.0 * h * (1.0 + 1e-12)
        assert_allclose(mesh.widths.sum(), p.L, rtol=1e-15)

    def test_too_few_elements(self):
        with pytest.raises(TooCoarse):
            build_mesh(make_params(), 2)

    def test_interval_without_complete_element(self):
        """A damping interval shorter than the mesh can resolve is refused."""
        with pytest.raises(TooCoarse):
            build_mesh(make_params(alpha=0.25, beta=0.27), 8)

    def test_adjacent_snap_squeezing_an_element(self):
        with pytest.raises(TooCoarse):
            build_mesh(make_params(alpha=0.3, beta=0.33), 8)

    @pytest.mark.parametrize("interval", [
        {"alpha": 0.0}, {"beta": 1.0}, {"alpha": math.nan},
    ], ids=["alpha=0", "beta=L", "alpha=NaN"])
    def test_interval_outside_the_open_beam_is_refused(self, interval):
        """ModelParams checks its interval when it is built, so build_mesh
        never sees one that breaks 0 < alpha < beta < L: it is BadInterval
        (exit 13), not a mesh with an interface on a clamped end or a bare
        ValueError."""
        with pytest.raises(BadInterval) as exc:
            build_mesh(make_params(**interval), 8)
        assert exc.value.exit_code == 13

    def test_infinite_length_is_refused(self):
        """L = inf is out of domain (exit 15), naming L, when the params are
        built, before any node is allocated: not a numpy warning or
        TooCoarse."""
        with pytest.raises(OutOfDomain, match="parameter 'L' must be finite") as exc:
            build_mesh(make_params(L=math.inf), 8)
        assert exc.value.exit_code == 15

    @pytest.mark.parametrize("n", [16.5, 4.0000001, np.float64(8.5), np.nan, np.inf, -np.inf])
    def test_non_integral_element_count_is_refused(self, n):
        """An element count that is no integer is the CLI's SchemaError
        (exit 11), not a truncated mesh or a bare ValueError."""
        with pytest.raises(SchemaError) as exc:
            build_mesh(make_params(), n)
        assert exc.value.exit_code == 11 and exc.value.path == "n_elements"

    def test_integral_float_element_count(self):
        mesh = build_mesh(make_params(), 16.0)
        assert mesh.n_elements == 16 and type(mesh.n_elements) is int
        assert np.array_equal(mesh.nodes, build_mesh(make_params(), 16).nodes)


# ---------------------------------------------------------------------------
# assembled matrices
# ---------------------------------------------------------------------------


SYSTEMS = [  # (n, parameter overrides) of the systems checked entry by entry
    (16, {}),
    (16, {"d0": 0.0}),
    (37, {"rho1": 1.3, "rho2": 0.7, "k1": 2.1, "k3": 1.7, "l": 0.45,
          "alpha": 0.3, "beta": 0.61}),
]


class TestAssembledMatrices:
    def test_shapes(self, sys16):
        n = sys16.n_dofs
        assert n == 3 * 15
        for mat in (sys16.M, sys16.C, sys16.K):
            assert mat.shape == (n, n)

    def test_symmetry(self, sys16):
        for mat in (sys16.M, sys16.C, sys16.K):
            assert np.max(np.abs(mat - mat.T)) <= 1e-14

    def test_mass_and_stiffness_definite(self, sys16):
        """The banded factor of M is read-only and reproduces M; K has a
        Cholesky factor."""
        factor = sys16._m_factor
        assert factor.shape == (6, sys16.n_dofs)
        assert not factor.flags.writeable
        lm = lower_band_dense(factor)
        lk = np.linalg.cholesky(sys16.K)
        assert_allclose(lm @ lm.T, sys16.M, rtol=0, atol=1e-13)
        assert_allclose(lk @ lk.T, sys16.K, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, overrides", SYSTEMS)
    def test_dense_matrices_equal_the_block_reference(self, n, overrides):
        """M, C and K expanded from the bands equal a plain loop over the
        elements and the seven strains (conftest.element_loop), entry for
        entry."""
        sys = make_system(n, **overrides)
        for got, ref in zip((sys.M, sys.C, sys.K), reference_matrices(sys)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [16, 256])
    def test_node_major_bandwidth(self, n):
        """In node-major order the reference M has bandwidth 3 and C, K at
        most 5, so the (6, N) bands hold every entry."""
        M, C, K = reference_matrices(make_system(n))

        def bandwidth(A):
            rows, cols = np.nonzero(A)
            return int(np.max(np.abs(rows - cols)))

        assert bandwidth(M) == 3
        assert bandwidth(C) <= 5 and bandwidth(K) <= 5

    def test_band_products_of_complex_vectors(self, sys16):
        """Each block of a KMC_csr product of a complex vector equals the
        dense product of its matrix."""
        n = sys16.n_dofs
        rng = np.random.default_rng(5)
        z = rng.standard_normal(3 * n) + 1j * rng.standard_normal(3 * n)
        got = sys16.KMC_csr @ z
        for k, dense in enumerate((sys16.K, sys16.M, sys16.C)):
            block = slice(k * n, (k + 1) * n)
            ref = dense @ z[block]
            err = np.linalg.norm(got[block] - ref) / np.linalg.norm(ref)
            assert err <= 1e-14

    @pytest.mark.parametrize("n, overrides", SYSTEMS)
    def test_csr_equals_the_band(self, n, overrides):
        """KMC_csr is block_diag(K, M, C) of the symmetric matrices of the
        bands bit for bit, and stores no zero (the band padding between
        the blocks included) and each row's columns in increasing order."""
        sys = make_system(n, **overrides)
        blocks = []
        for band in (sys.K_band, sys.M_band, sys.C_band):
            lower = lower_band_dense(band)
            blocks.append(lower + np.tril(lower, -1).T)
        full = block_diag(*blocks)
        csr = sys.KMC_csr
        assert np.array_equal(csr.toarray(), full)
        assert csr.nnz == np.count_nonzero(full)
        assert csr.has_sorted_indices
        for start, stop in zip(csr.indptr[:-1], csr.indptr[1:]):
            assert np.all(np.diff(csr.indices[start:stop]) > 0)

    @pytest.mark.parametrize("n, overrides", SYSTEMS)
    def test_full_band_is_the_mirrored_band(self, n, overrides):
        """_full_band puts A[i, j] of the mirrored lower band at row
        kd + i - j of column j, bit for bit and in the band's dtype, for
        the real bands of M, C, K and the complex lower band of P(lambda);
        its entries outside the matrix are zero."""
        sys = make_system(n, **overrides)
        lam = 7.5
        pencil = (-lam * lam) * sys.M_band + (1j * lam) * sys.C_band + sys.K_band
        for band in (sys.M_band, sys.C_band, sys.K_band, pencil):
            kd, N = band.shape[0] - 1, band.shape[1]
            got = discretization._full_band(band)
            assert got.shape == (2 * kd + 1, N) and got.dtype == band.dtype
            lower = lower_band_dense(band)
            A = np.where(np.tri(N, dtype=bool), lower, lower.T)  # keeps the sign of zeros
            rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(N), np.arange(N))) <= kd)
            inside = np.zeros(got.shape, dtype=bool)
            inside[kd + rows - cols, cols] = True
            assert got[kd + rows - cols, cols].tobytes() == A[rows, cols].tobytes()
            assert np.all(got[~inside] == 0)

    @pytest.mark.parametrize("n, overrides", SYSTEMS)
    def test_metric_csr_is_the_block_diagonal(self, n, overrides):
        """G_csr is diag(K, M) bit for bit, stores no zero (the band
        padding between the blocks included) and each row's columns in
        increasing order; it is the leading 2N rows of KMC_csr and shares
        its data, indices and indptr."""
        sys = make_system(n, **overrides)
        G = block_diag(sys.K, sys.M)
        assert np.array_equal(sys.G_csr.toarray(), G)
        assert sys.G_csr.nnz == np.count_nonzero(G)
        assert sys.G_csr.has_sorted_indices
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(sys.G_csr, name), getattr(sys.KMC_csr, name))

    def test_csr_is_read_only(self, sys16):
        for csr in (sys16.KMC_csr, sys16.G_csr):
            for array in (csr.data, csr.indices, csr.indptr):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_complex_csr_product_is_split_bit_for_bit(self, sys16):
        """A real CSR times a complex vector equals its products with the
        real and imaginary parts, bit for bit."""
        rng = np.random.default_rng(6)
        z = rng.standard_normal(3 * sys16.n_dofs) + 1j * rng.standard_normal(3 * sys16.n_dofs)
        got = sys16.KMC_csr @ z
        assert np.array_equal(got.real, sys16.KMC_csr @ z.real)
        assert np.array_equal(got.imag, sys16.KMC_csr @ z.imag)

    def test_csrs_are_derived_on_first_use(self):
        """assemble builds neither operator; the first access builds each
        once, and G_csr only on its own first access."""
        sys = make_system(16)
        assert not {"KMC_csr", "G_csr"} & vars(sys).keys()
        first = sys.KMC_csr
        assert sys.KMC_csr is first
        assert "KMC_csr" in vars(sys) and "G_csr" not in vars(sys)
        assert sys.G_csr is sys.G_csr

    def test_indefinite_mass_raises(self, monkeypatch):
        """assemble refuses a mass matrix without a Cholesky factor."""
        original = discretization._assemble_bands

        def negated_mass(p, mesh):
            M, C, K = original(p, mesh)
            return -M, C, K

        monkeypatch.setattr(discretization, "_assemble_bands", negated_mass)
        p = make_params()
        with pytest.raises(FactorizationFailed, match="mass matrix"):
            assemble(p, build_mesh(p, 8))

    @pytest.mark.parametrize("overrides, matrix", [
        ({"rho1": 1e300, "L": 1e300, "alpha": 0.25e300, "beta": 0.75e300}, "M"),
        ({"d0": 1e300, "L": 1e300, "alpha": 0.25e300, "beta": 0.75e300}, "C"),
        ({"k1": 1e308}, "K"),
    ])
    def test_non_finite_band_is_out_of_domain(self, overrides, matrix):
        """A finite coefficient whose band overflows (rho1 h or d0 l^2 h
        at h = 1.25e299, k1 / h) is refused at assembly, naming the matrix
        with the non-finite entry."""
        p = make_params(**overrides)
        with pytest.raises(OutOfDomain, match=f"^{matrix} has a non-finite entry") as exc:
            assemble(p, build_mesh(p, 8))
        assert exc.value.exit_code == 15

    def test_band_cholesky_equals_cholesky_banded(self, sys16):
        """The raw dpbtrf factor is scipy's cholesky_banded factor bit for
        bit, on M and on a midpoint band, and it is read-only."""
        half = 0.5 * 0.05
        W = sys16.M_band + half * sys16.C_band + (half * half) * sys16.K_band
        for band in (sys16.M_band, W):
            factor = discretization._band_cholesky(band, "a test band")
            assert not factor.flags.writeable
            assert factor.tobytes() == cholesky_banded(band, lower=True).tobytes()

    def test_damping_semidefinite(self, sys16):
        w = np.linalg.eigvalsh(sys16.C)
        assert w.min() >= -1e-13

    def test_damping_is_local(self, sys32):
        """C vanishes identically outside the damped node range.

        Rotation dofs never couple to the damping, and translation dofs
        outside [alpha_index, beta_index] have exactly zero rows/columns.
        """
        mesh = sys32.mesh
        m = mesh.nodes.size - 2
        damped = set(range(mesh.alpha_index, mesh.beta_index + 1))
        active = []
        for field in (0, 2):  # phi, w
            for pos in range(m):
                if (pos + 1) in damped:
                    active.append(field + 3 * pos)
        inactive = sorted(set(range(sys32.n_dofs)) - set(active))
        assert np.max(np.abs(sys32.C[inactive, :])) == 0.0
        assert np.max(np.abs(sys32.C[:, inactive])) == 0.0
        assert np.max(np.abs(sys32.C[1::3, :])) == 0.0  # psi

    def test_damping_scales_linearly(self):
        c1 = make_system(16, d0=1.0).C
        c3 = make_system(16, d0=3.0).C
        assert_allclose(c3, 3.0 * c1, rtol=0, atol=0)

    def test_zero_damping_gives_zero_matrix(self, sys16_undamped):
        assert np.max(np.abs(sys16_undamped.C)) == 0.0

    def test_small_curvature_decouples_longitudinal_motion(self):
        """As l -> 0 the coupling blocks scale away with l."""
        sys = make_system(16, l=1e-12)
        phi, psi, w = (slice(k, None, 3) for k in range(3))
        assert np.max(np.abs(sys.K[phi, w])) <= 1e-11
        assert np.max(np.abs(sys.K[psi, w])) <= 1e-11
        assert np.max(np.abs(sys.C[phi, :])) <= 1e-11
        assert np.max(np.abs(sys.K[phi, psi])) > 0.1

    def test_matrices_equal_exact_integrals(self):
        """M, C and K equal sympy integrals of their bilinear forms to 1e-12.

        Every coefficient is non-unit, and snapping alpha = 0.3, beta = 0.7
        onto the n = 8 mesh leaves element widths 0.125, 0.175 and 0.075.
        The integrals are exact, over the binary values of coefficients and
        nodes; the bound is relative to each matrix's largest entry.
        """
        import sympy as sp

        p = make_params(rho1=1.3, rho2=0.7, k1=2.1, k2=0.6, k3=1.7, l=0.45,
                        L=1.0, d0=2.5, alpha=0.3, beta=0.7)
        mesh = build_mesh(p, 8)
        sys = assemble(p, mesh)
        assert np.ptp(mesh.widths) > 0.09
        c = {k: sp.Rational(v) for k, v in dataclasses.asdict(p).items()}
        nodes = [sp.Rational(v) for v in mesh.nodes]
        x = sp.Symbol("x")
        m = mesh.n_elements - 1
        exact = {name: np.zeros((3 * m, 3 * m), dtype=object) for name in "MCK"}
        for e in range(mesh.n_elements):
            a, b = nodes[e], nodes[e + 1]
            d = c["d0"] if mesh.alpha_index <= e < mesh.beta_index else 0
            # (dof, (phi, psi, w)) of every interior hat living on element e
            shapes = []
            for node, hat in ((e, (b - x) / (b - a)), (e + 1, (x - a) / (b - a))):
                for f in range(3 if 0 < node < mesh.n_elements else 0):
                    u = [sp.Integer(0)] * 3
                    u[f] = hat
                    shapes.append((f * m + node - 1, u))
            for i, (phi1, psi1, w1) in shapes:
                shear1 = sp.diff(phi1, x) + psi1 + c["l"] * w1
                axial1 = sp.diff(w1, x) - c["l"] * phi1
                for j, (phi2, psi2, w2) in shapes:
                    shear2 = sp.diff(phi2, x) + psi2 + c["l"] * w2
                    axial2 = sp.diff(w2, x) - c["l"] * phi2
                    forms = {
                        "M": c["rho1"] * (phi1 * phi2 + w1 * w2) + c["rho2"] * psi1 * psi2,
                        "C": d * axial1 * axial2,
                        "K": c["k1"] * shear1 * shear2
                        + c["k2"] * sp.diff(psi1, x) * sp.diff(psi2, x)
                        + c["k3"] * axial1 * axial2,
                    }
                    for name, integrand in forms.items():
                        if integrand == 0:
                            continue
                        primitive = sp.Poly(integrand, x).integrate()
                        exact[name][i, j] += primitive.eval(b) - primitive.eval(a)
        for name in "MCK":
            ref = node_major(exact[name].astype(float))
            err = np.max(np.abs(getattr(sys, name) - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, (name, err)

    def test_bands_equal_the_element_loop(self):
        """Each band equals conftest.element_loop bit for bit, on random
        non-uniform meshes with random coefficients and per-element
        weights, zero weights included, for the beam's three energies and
        an energy of two random strains.  Signed zeros count: the bytes
        must agree."""
        rng = np.random.default_rng(61)
        for n in (4, 9, 16, 37):
            nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, n))])
            damped = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 10.0, n))
            names = ("rho1", "rho2", "k1", "k2", "k3", "l")
            strains = energy_strains(make_params(**dict(zip(names, rng.uniform(0.1, 10.0, 6)))))
            strains["random"] = [
                (rng.uniform(0.1, 10.0), tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
                for _ in range(2)
            ]
            for weights in (np.ones(n), damped, np.zeros(n)):
                energies = [(weights, group) for group in strains.values()]
                bands = discretization._energy_bands(np.diff(nodes), energies)
                for band, group in zip(bands, strains.values()):
                    ref = dense_lower_band(element_loop(nodes, weights, group), 5)
                    assert band.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_mass_solve_of_a_matrix_is_column_by_column(self, sys16, complex_valued):
        """solve_m of an N x k matrix equals its solves column by column,
        bit for bit."""
        rng = np.random.default_rng(4)
        B = rng.standard_normal((sys16.n_dofs, 7))
        if complex_valued:
            B = B + 1j * rng.standard_normal(B.shape)
        X = sys16.solve_m(B)
        assert X.shape == B.shape and X.dtype == B.dtype
        for k in range(B.shape[1]):
            assert X[:, k].tobytes() == sys16.solve_m(B[:, k]).tobytes()

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_in_place_band_solve(self, sys16, complex_valued):
        """The in-place band solve overwrites a vector inside a larger
        buffer with the solution bit for bit, and leaves the rest alone."""
        rng = np.random.default_rng(5)
        n = sys16.n_dofs
        buffer = rng.standard_normal(3 * n)
        if complex_valued:
            buffer = buffer + 1j * rng.standard_normal(3 * n)
        before = buffer.copy()
        rhs = buffer[2 * n :]
        expected = sys16.solve_m(rhs.copy())
        got = discretization._band_solve(sys16._m_factor, rhs, in_place=True)
        assert got is rhs
        assert buffer[2 * n :].tobytes() == expected.tobytes()
        assert buffer[: 2 * n].tobytes() == before[: 2 * n].tobytes()

    def test_mass_solve_roundtrip(self, sys16):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(sys16.n_dofs)
        assert_allclose(sys16.solve_m(sys16.M @ x), x, rtol=1e-12)
        z = x + 1j * rng.standard_normal(sys16.n_dofs)
        assert_allclose(sys16.solve_m(sys16.M @ z), z, rtol=1e-12)


# ---------------------------------------------------------------------------
# the quadratic pencil P(s)
# ---------------------------------------------------------------------------


class TestPencil:
    """The banded P(s) = s^2 M + s C + K and its LU at complex s off the axis."""

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    @pytest.mark.parametrize("s", [-0.5 + 3j, 2 + 7j])
    def test_band_is_the_pencil(self, k2, s):
        """Equal (k2 = 1) and unequal (k2 = 2) speeds."""
        sys = make_system(16, k2=k2)
        band = discretization._Pencil(sys, s).band
        assert np.array_equal(full_band_dense(band), (s * s) * sys.M + s * sys.C + sys.K)

    @pytest.mark.parametrize("k2", [1.0, 2.0])
    @pytest.mark.parametrize("s", [-0.5 + 3j, 2 + 7j])
    def test_solve_matches_dense_solve(self, k2, s):
        sys = make_system(16, k2=k2)
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal(sys.n_dofs) + 1j * rng.standard_normal(sys.n_dofs)
        P = (s * s) * sys.M + s * sys.C + sys.K
        pencil = discretization._Pencil(sys, s)
        assert pencil.info == 0
        x = pencil.solve(rhs)
        ref = np.linalg.solve(P, rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert_allclose(pencil.residual(x, rhs), rhs - P @ x, rtol=0, atol=1e-12 * np.abs(rhs).max())
        assert abs(pencil.norm1 - np.linalg.norm(P, 1)) <= 1e-14 * np.linalg.norm(P, 1)

    def test_residual_with_fewer_dofs_than_band_rows(self):
        """4 elements give N = 9, fewer than the band's 2 kl + 1 = 11 rows."""
        sys = make_system(4)
        s = -0.5 + 3j
        rng = np.random.default_rng(9)
        x, rhs = (rng.standard_normal(9) + 1j * rng.standard_normal(9) for _ in range(2))
        P = (s * s) * sys.M + s * sys.C + sys.K
        residual = discretization._Pencil(sys, s).residual(x, rhs)
        assert_allclose(residual, rhs - P @ x, rtol=0, atol=1e-12 * np.abs(rhs).max())


# ---------------------------------------------------------------------------
# generator and dissipativity
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_zero_state_maps_to_zero(self, sys16):
        AU = apply_generator(sys16, np.zeros(2 * sys16.n_dofs))
        assert AU.shape == (2 * sys16.n_dofs,) and np.all(AU == 0.0)

    def test_first_block_is_velocity(self, sys16):
        rng = np.random.default_rng(11)
        U = random_state(sys16, rng)
        AU = apply_generator(sys16, U)
        n = sys16.n_dofs
        assert np.array_equal(AU[:n], U[n:])

    def test_velocity_equation(self, sys16):
        """M * accel + K q + C v = 0 up to roundoff."""
        rng = np.random.default_rng(12)
        U = random_state(sys16, rng)
        AU = apply_generator(sys16, U)
        n = sys16.n_dofs
        res = sys16.M @ AU[n:] + sys16.K @ U[:n] + sys16.C @ U[n:]
        scale = np.linalg.norm(sys16.K @ U[:n])
        assert np.linalg.norm(res) <= 1e-12 * scale

    def test_rest_state_accelerates_against_stiffness(self, sys16):
        rng = np.random.default_rng(13)
        q = rng.standard_normal(sys16.n_dofs)
        AU = apply_generator(sys16, np.concatenate((q, np.zeros_like(q))))
        expected = -sys16.solve_m(sys16.K @ q)
        assert_allclose(AU[sys16.n_dofs :], expected, rtol=1e-12)

    def test_dissipativity_identity(self):
        """Re(A U, U)_G = -v* C v for random complex states, three meshes."""
        rng = np.random.default_rng(2024)
        for n in (16, 32, 64):
            sys = make_system(n)
            for _ in range(25):
                U = random_state(sys, rng, complex_valued=True)
                AU = apply_generator(sys, U)
                ip = inner_product_H(sys, AU, U)
                v = U[sys.n_dofs :]
                diss = np.vdot(v, sys.C @ v).real
                rel = abs(ip.real + diss) / max(1.0, abs(ip), diss)
                assert rel <= 1e-12

    def test_undamped_generator_is_skew(self, sys16_undamped):
        rng = np.random.default_rng(21)
        U = random_state(sys16_undamped, rng, complex_valued=True)
        AU = apply_generator(sys16_undamped, U)
        ip = inner_product_H(sys16_undamped, AU, U)
        assert abs(ip.real) <= 1e-12 * abs(ip)


# ---------------------------------------------------------------------------
# energy metric
# ---------------------------------------------------------------------------


class TestEnergyMetric:
    def test_energy_matches_quadratic_forms(self, sys16):
        """simulate's initial kinetic and potential energies are the dense
        quadratic forms of M and K."""
        rng = np.random.default_rng(31)
        U = random_state(sys16, rng)
        series = simulate(sys16, U, SimConfig(dt=0.01, t_final=1.0))
        q, v = np.split(U, 2)
        kin = 0.5 * v @ sys16.M @ v
        pot = 0.5 * q @ sys16.K @ q
        assert_allclose(series.kinetics[0], kin, rtol=1e-13)
        assert_allclose(series.potentials[0], pot, rtol=1e-13)
        assert_allclose(series.energies[0], kin + pot, rtol=1e-13)

    def test_g_norm_is_twice_the_energy(self, sys16):
        rng = np.random.default_rng(32)
        U = random_state(sys16, rng)
        q, v = np.split(U, 2)
        energy = 0.5 * (v @ sys16.M @ v + q @ sys16.K @ q)
        assert_allclose(g_norm_sq(sys16, U), 2.0 * energy, rtol=1e-13)

    def test_inner_product_hermitian(self, sys16):
        rng = np.random.default_rng(33)
        U = random_state(sys16, rng, complex_valued=True)
        V = random_state(sys16, rng, complex_valued=True)
        a = inner_product_H(sys16, U, V)
        b = inner_product_H(sys16, V, U)
        assert abs(a - np.conj(b)) <= 1e-12 * abs(a)

    def test_norm_positive_definite(self, sys16):
        rng = np.random.default_rng(34)
        U = random_state(sys16, rng, complex_valued=True)
        assert g_norm_sq(sys16, U) > 0.0
        assert g_norm_sq(sys16, np.zeros(2 * sys16.n_dofs, complex)) == 0.0

    def test_norm_equivalence_constants_stable_under_refinement(self):
        """Equivalence constants against the flat Sobolev metric drift <20%.

        The flat metric uses unweighted stiffness blocks for displacements
        and unweighted mass blocks for velocities; with unit coefficients
        the velocity part coincides with M, so only the K-side constants
        move with the mesh.
        """
        lo, hi = [], []
        for n in (16, 32, 64):
            sys = make_system(n)
            gradients = [(1.0, row, (0, 0, 0)) for row in np.eye(3)]  # |phi'|^2 + |psi'|^2 + |w'|^2
            flat = element_loop(sys.mesh.nodes, np.ones(n), gradients)
            vals = eigh(sys.K, flat, eigvals_only=True)
            lo.append(min(vals.min(), 1.0))
            hi.append(max(vals.max(), 1.0))
        for seq in (lo, hi):
            spread = (max(seq) - min(seq)) / max(seq)
            assert spread < 0.20

    def test_domain_norm_zero_and_lower_bound(self, sys16):
        rng = np.random.default_rng(35)
        U = random_state(sys16, rng)
        assert domain_norm(sys16, U) >= g_norm_sq(sys16, U)
        assert domain_norm(sys16, np.zeros(2 * sys16.n_dofs)) == 0.0

    def test_domain_norm_on_eigenvectors(self):
        """On an eigenvector, graph norm = (1 + |s|^2) * energy norm."""
        sys = make_system(8)
        n = sys.n_dofs
        Z = np.zeros((2 * n, 2 * n))
        Z[:n, n:] = np.eye(n)
        Z[n:, :n] = -np.linalg.solve(sys.M, sys.K)
        Z[n:, n:] = -np.linalg.solve(sys.M, sys.C)
        vals, vecs = eig(Z)
        order = np.argsort(np.abs(vals))
        for k in order[:6]:
            s = vals[k]
            U = vecs[:, k]
            lhs = domain_norm(sys, U)
            rhs = (1.0 + abs(s) ** 2) * g_norm_sq(sys, U)
            assert abs(lhs - rhs) <= 1e-10 * rhs


# ---------------------------------------------------------------------------
# projection of initial data
# ---------------------------------------------------------------------------


class TestProjectInitialData:
    def test_nodal_interpolation(self, sys16):
        mesh = sys16.mesh
        fields = (
            lambda x: math.sin(math.pi * x),
            lambda x: 0.0,
            lambda x: x * (1.0 - x),
            lambda x: 0.0,
            lambda x: math.sin(2.0 * math.pi * x),
            lambda x: 0.0,
        )
        U = project_initial_data(sys16, fields)
        xi = mesh.nodes[1:-1]
        n = sys16.n_dofs
        assert_allclose(U[0:n:3], np.sin(np.pi * xi), rtol=1e-14)
        assert_allclose(U[2:n:3], xi * (1.0 - xi), rtol=1e-14)
        assert np.all(U[1:n:3] == 0.0)
        assert_allclose(U[n + 1 :: 3], np.sin(2.0 * np.pi * xi), rtol=1e-13)

    def test_dofs_are_node_major(self, sys16):
        """Field k of interior node i is dof 3*i + k in both blocks: entry
        3*i + k of the state, and entry N + 3*i + k."""
        fields = tuple((lambda x, c=c: c * x * (1.0 - x)) for c in range(1, 7))
        U = project_initial_data(sys16, fields)
        n = sys16.n_dofs
        xi = sys16.mesh.nodes[1:-1]
        assert U.shape == (2 * n,) and n == 3 * xi.size
        for i, x in enumerate(xi):
            for k in range(3):
                assert U[3 * i + k] == fields[k](x)
                assert U[n + 3 * i + k] == fields[3 + k](x)

    def test_zero_data(self, sys16):
        zero = lambda x: 0.0
        U = project_initial_data(sys16, (zero,) * 6)
        assert U.shape == (2 * sys16.n_dofs,) and np.all(U == 0.0)

    @pytest.mark.parametrize("field", [
        lambda x: math.cos(math.pi * x),
        lambda x: float("nan") if x == 0.0 else 0.0,
        lambda x: float("nan") if x == 1.0 else 0.0,
    ], ids=["nonzero", "NaN at 0", "NaN at L"])
    def test_boundary_violation(self, sys16, field):
        """A field that is not zero at a clamped end, NaN there included,
        is IncompatibleBoundary (exit 14)."""
        fields = [lambda x: 0.0] * 6
        fields[2] = field
        with pytest.raises(IncompatibleBoundary) as exc:
            project_initial_data(sys16, tuple(fields))
        assert exc.value.exit_code == 14

    def test_wrong_field_count(self, sys16):
        with pytest.raises(DimensionMismatch):
            project_initial_data(sys16, (lambda x: 0.0,) * 3)

    def test_non_finite_field(self, sys16):
        fields = [lambda x: 0.0] * 6
        fields[4] = lambda x: math.nan if 0.4 < x < 0.6 else 0.0
        with pytest.raises(OutOfDomain, match="#4"):
            project_initial_data(sys16, tuple(fields))

    @pytest.mark.parametrize("field", [
        lambda x: 0.0 if x in (0.0, 1.0) else 1j,
        lambda x: "0.0",
        lambda x: np.array([0.0, 0.0]),
        lambda x: np.zeros(2) if x == 0.5 else 0.0,
        lambda x: None,
    ], ids=["complex inside", "string", "array", "one array inside", "None"])
    def test_field_value_not_a_real_number(self, sys16, field):
        """A field value that is no real number, at an end or inside, is
        OutOfDomain (exit 15) naming the field, not a bare TypeError or
        ValueError."""
        fields = [lambda x: 0.0] * 6
        fields[3] = field
        with pytest.raises(OutOfDomain, match="#3") as exc:
            project_initial_data(sys16, tuple(fields))
        assert exc.value.exit_code == 15

    def test_integer_field_values_interpolate_as_floats(self, sys16):
        fields = [lambda x: 0] * 6
        fields[1] = lambda x: 0 if x in (0.0, 1.0) else 2
        U = project_initial_data(sys16, tuple(fields))
        expected = np.zeros(2 * sys16.n_dofs)
        expected[1 : sys16.n_dofs : 3] = 2.0
        assert U.dtype == float and np.array_equal(U, expected)


# ---------------------------------------------------------------------------
# projection convergence
# ---------------------------------------------------------------------------


class TestEnergyConvergence:
    def test_projected_energy_second_order(self):
        """Energy of interpolated parabolic data converges at order 2.

        For phi0 = x(1-x) on unit coefficients the continuous energy is
        (1/2)(1/3 + 1/30) = 11/60; the interpolant underestimates it by
        O(h^2).
        """
        exact = 11.0 / 60.0
        zero = lambda x: 0.0
        fields = (lambda x: x * (1.0 - x), zero, zero, zero, zero, zero)
        errs = []
        for n in (8, 16, 32, 64):
            sys = make_system(n)
            U = project_initial_data(sys, fields)
            errs.append(abs(0.5 * g_norm_sq(sys, U) - exact))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.9


# ---------------------------------------------------------------------------
# input checks shared by the layers
# ---------------------------------------------------------------------------


STATE_TAKERS = {
    "apply_generator": apply_generator,
    "inner_product_H-U": lambda sys, U: inner_product_H(sys, U, np.zeros(2 * sys.n_dofs)),
    "inner_product_H-V": lambda sys, V: inner_product_H(sys, np.zeros(2 * sys.n_dofs), V),
    "g_norm_sq": g_norm_sq,
    "domain_norm": domain_norm,
    "step_midpoint": lambda sys, U: step_midpoint(sys, U, 0.01),
    "simulate": lambda sys, U: simulate(sys, U, SimConfig(dt=0.01, t_final=1.0)),
    "resolvent_solve": lambda sys, U: resolvent_solve(sys, 3.0, U),
}


@pytest.mark.parametrize("shape", ["2N-1", "2N+1", "(2,N)"])
@pytest.mark.parametrize("function", STATE_TAKERS)
def test_mis_sized_state_is_refused(sys16, function, shape):
    """Every public function that takes a state refuses any shape but
    (2N,) with DimensionMismatch (exit 24): one entry short, one over, and
    the right entries stacked as two rows."""
    n = sys16.n_dofs
    U = np.ones({"2N-1": (2 * n - 1,), "2N+1": (2 * n + 1,), "(2,N)": (2, n)}[shape])
    with pytest.raises(DimensionMismatch) as exc:
        STATE_TAKERS[function](sys16, U)
    assert exc.value.exit_code == 24


INTEGER_SETTINGS = {
    "n_elements": lambda sys, x: build_mesh(make_params(), x),
    "per_shift": lambda sys, x: quadratic_eigs(sys, [2j], per_shift=x),
    "sample_stride": lambda sys, x: simulate(
        sys, np.zeros(2 * sys.n_dofs), SimConfig(dt=0.01, t_final=1.0, sample_stride=x)
    ),
    "seed": lambda sys, x: profile(sys, 3.0, seed=x),
}


@pytest.mark.parametrize("value", [10**400, -(10**400)])
@pytest.mark.parametrize("key", INTEGER_SETTINGS)
def test_integer_beyond_float_range_is_schema_error(sys16, key, value):
    """An integer setting too large for a float is the CLI's SchemaError
    (exit 11) at every caller of the one integer check, not a bare
    OverflowError; each caller's own tests cover fractions, NaN and Inf."""
    with pytest.raises(SchemaError) as exc:
        INTEGER_SETTINGS[key](sys16, value)
    assert exc.value.exit_code == 11 and exc.value.path == key


@pytest.mark.parametrize("value", ["8", True, np.True_, None], ids=["str", "True", "np.True_", "None"])
@pytest.mark.parametrize("key", INTEGER_SETTINGS)
def test_integer_setting_that_is_no_number_is_schema_error(sys16, key, value):
    """The one integer check takes only an int, a float or a numpy number:
    a numeric string and a bool are SchemaError (exit 11), not 8 and 1,
    and None is too, not a bare TypeError."""
    with pytest.raises(SchemaError) as exc:
        INTEGER_SETTINGS[key](sys16, value)
    assert exc.value.exit_code == 11 and exc.value.path == key
