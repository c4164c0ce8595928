"""End-to-end acceptance checks for the whole package.

Each test covers one advertised guarantee and prints a single
"criterion N (...): PASS/FAIL" line with the measured numbers, so a full
run doubles as a report.  Tolerances here are contractual; do not loosen
them to make a failing check pass.
"""

import dataclasses
import json
import time
import types

import numpy as np
import pytest
from scipy.linalg import block_diag, cho_factor, eig

from bresse import cli
from bresse.model import classify_speeds
from bresse.discretization import (
    apply_generator,
    g_norm_sq,
    inner_product_H,
    project_initial_data,
)
from bresse.resolvent import fit_growth_exponent, resolvent_solve
from bresse.spectral import quadratic_eigs
from bresse.timedomain import SimConfig, fit_decay, initial_data, simulate

from conftest import (
    MidpointModalOracle,
    c7_initial_data,
    dense_resolvent_norm,
    energy_generator,
    make_params,
    make_system,
    matrix_system,
    node_major,
    random_state,
)


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} {detail}")


class TestAcceptance:
    def test_c1_generator_is_dissipative(self):
        """Re(A U, U)_G equals -v*Cv for random states on three meshes."""
        rng = np.random.default_rng(101)
        worst = 0.0
        for n in (16, 32, 64):
            sys = make_system(n)
            for _ in range(100):
                U = random_state(sys, rng, complex_valued=True)
                AU = apply_generator(sys, U)
                ip = inner_product_H(sys, AU, U)
                v = U[sys.n_dofs :]
                diss = np.vdot(v, sys.C @ v).real
                rel = abs(ip.real + diss) / max(1.0, abs(ip), diss)
                worst = max(worst, rel)
                assert ip.real <= 1e-12 * max(1.0, abs(ip))
        ok = worst <= 1e-12
        report(1, "discrete dissipativity", ok,
               f"max relative discrepancy {worst:.2e} (bound 1e-12), "
               f"300 random states")
        assert ok

    def test_c2_energy_metric_positive_definite(self):
        """K admits a Cholesky factor across curvatures; G = diag(K, M) is PD."""
        worst = np.inf
        for l in (0.1, 1.0, 10.0):
            sys = make_system(32, l=l)
            lk = np.linalg.cholesky(sys.K)
            recon = np.max(np.abs(lk @ lk.T - sys.K)) / np.max(np.abs(sys.K))
            assert recon <= 1e-12
            G = block_diag(sys.K, sys.M)
            cho_factor(G, lower=True)
            worst = min(worst, np.linalg.eigvalsh(G).min())
        ok = worst > 0.0
        report(2, "energy metric coercive", ok,
               f"Cholesky of K succeeded for l in {{0.1, 1, 10}}; "
               f"min eig(G) {worst:.3e} > 0")
        assert ok

    def test_c3_invertible_at_origin(self):
        """The static solve meets a 1e-10 energy-norm residual."""
        sys = make_system(64)
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(20):
            F = random_state(sys, rng, complex_valued=True)
            U = resolvent_solve(sys, 0.0, F)
            AU = apply_generator(sys, U)
            r = -AU - F
            rel = np.sqrt(g_norm_sq(sys, r) / g_norm_sq(sys, F))
            worst = max(worst, rel)
        ok = worst <= 1e-10
        report(3, "isomorphism at the origin", ok,
               f"max relative residual {worst:.2e} (bound 1e-10), 20 solves")
        assert ok

    def test_c4_spectrum_strictly_left_of_axis(self):
        """Damped modes decay; undamped modes sit on the axis.  Under 2 min.

        The damped spectrum is the spectrum command's own, on a config with
        the default spectrum block (shifts 1i, ..., 50i, 5 pairs each).
        The CLI refuses d0 = 0, so the undamped half calls quadratic_eigs
        on the same shifts.
        """
        t0 = time.perf_counter()
        cfg = cli.parse_config(json.dumps({"params": dataclasses.asdict(make_params()),
                                           "mesh_n": 64}))
        _, tables = cli._run_spectrum(cfg, {})
        real, _, residuals, _ = (np.array(col) for col in zip(*tables["spectrum.csv"][1]))
        max_re, max_res = real.max(), residuals.max()
        shifts = [1j * mu for mu in cfg.spectrum.mu_grid]
        undamped = quadratic_eigs(make_system(64, d0=0.0), shifts, cfg.spectrum.per_shift)
        drift = np.max(
            np.abs(undamped.eigenvalues.real)
            / (1.0 + np.abs(undamped.eigenvalues))
        )
        elapsed = time.perf_counter() - t0
        ok = (
            max_re < 0.0
            and max_res <= 1e-8
            and drift <= 1e-8
            and elapsed <= 120.0
        )
        report(4, "strong stability", ok,
               f"{real.size} damped modes, max Re {max_re:.3e}, "
               f"max residual {max_res:.2e}; {undamped.eigenvalues.size} "
               f"undamped modes, max |Re|/(1+|s|) {drift:.2e}; {elapsed:.1f}s")
        assert ok

    def test_c5_energy_balance_exact(self):
        """Per-step balance at 1e-10; undamped conservation on [0, 10]."""
        sys = make_system(64)
        dt = 1.0 / 128.0
        U0 = project_initial_data(sys, initial_data(1.0))
        cfg = SimConfig(dt=dt, t_final=20.0, sample_stride=16)
        series = simulate(sys, U0, cfg)
        max_balance = series.dissipation_residuals.max()

        free = make_system(64, d0=0.0)
        U0f = project_initial_data(free, initial_data(1.0))
        cfgf = SimConfig(dt=dt, t_final=10.0, sample_stride=16)
        cons = simulate(free, U0f, cfgf)
        drift = np.max(np.abs(cons.energies - cons.energies[0])) / cons.energies[0]

        ok = max_balance <= 1e-10 and drift <= 1e-10
        report(5, "energy balance", ok,
               f"max per-step residual {max_balance:.2e} over "
               f"{series.dissipation_residuals.size} steps; undamped drift "
               f"{drift:.2e} on [0, 10] (bounds 1e-10)")
        assert ok

    def test_c6_resolvent_growth_ordering(self):
        """Profiled norms match a dense oracle; fitted slopes respect the bounds.

        The theorem's O(lambda^2) and O(lambda^4) are upper bounds as lambda
        -> infinity, so they imply no ordering of two slopes fitted on a
        finite window; the ordering is reported, not asserted.  What the
        method does promise is every norm of the profile: Lanczos accepts a
        squared norm within about 1e-12 of the true one, so 1e-9 relative
        leaves the dense oracle's own rounding room.  The grid and the fit
        are the resolvent command's own, on a config with the default
        resolvent block.
        """
        rel_bound = 1e-9
        slopes, worst = {}, {}
        for tag, k2 in (("equal", 1.0), ("unequal", 2.0)):
            params = dataclasses.asdict(make_params(k2=k2))
            cfg = cli.parse_config(json.dumps({"params": params, "mesh_n": 64}))
            sys = cli._build(cfg)
            prof = cli._profile(cfg, sys)
            At = energy_generator(sys)
            exact = np.array([dense_resolvent_norm(At, lam) for lam in prof.lambdas])
            rel = np.abs(prof.norms - exact) / exact
            j = int(np.argmax(rel))
            worst[tag] = (float(rel[j]), float(prof.lambdas[j]), exact[j], prof.norms[j])
            slopes[tag] = fit_growth_exponent(prof, cfg.resolvent.window).slope
        max_rel, w_tag = max((v[0], tag) for tag, v in worst.items())
        ok = max_rel <= rel_bound and slopes["equal"] <= 2.5 and slopes["unequal"] <= 4.5
        report(6, "resolvent growth dichotomy", ok,
               f"max relative norm error vs dense oracle {max_rel:.2e} "
               f"(bound {rel_bound:.0e}) over 2 x {prof.lambdas.size} frequencies; "
               f"slope(equal) {slopes['equal']:.4f} <= 2.5, "
               f"slope(unequal) {slopes['unequal']:.4f} <= 4.5, "
               f"ordering unequal > equal "
               f"{slopes['unequal'] > slopes['equal']} (reported only)")
        _, lam, expected, measured = worst[w_tag]
        assert max_rel <= rel_bound, (
            f"{w_tag}-speed profile at lambda={lam!r}: dense norm {expected:.17g}, "
            f"Lanczos norm {measured:.17g}, relative error {max_rel:.3e} exceeds "
            f"the bound {rel_bound:.0e}"
        )
        assert slopes["equal"] <= 2.5 and slopes["unequal"] <= 4.5, slopes

    def test_c7_decay_rate_dichotomy(self):
        """Sampled energies and fitted decay exponents match a modal oracle.

        The theorem bounds E(t) <= C t^(-gamma) ||U0||^2_D(A) uniformly with
        an unspecified C and is sharp only as t -> infinity, so it implies
        no slope for one trajectory on [10, 100].  What the method does
        promise is the midpoint trajectory itself: every sampled energy of
        three initial data, and gamma_hat of the default datum, must equal
        the exact modal propagation of the midpoint map.  The predicted
        exponents, the fitted ones, their ordering and the dominant mode
        pair are reported, not asserted.  The default datum's energies and
        gamma_hat come from the decay-fit command's own runner, on a config
        with the default sim block; the other two data run through simulate
        on the same time grid.
        """
        # Both sides carry only roundoff: the oracle about cond(V) * eps
        # (cond(V) ~ 2.6e2 / 3.6e2, so ~1e-13), the stepper a few eps per
        # step through the Cholesky solve (cond(W) ~ 1.1e2), which the
        # contractive midpoint map does not amplify, over 25600 steps.
        # 1e-9 stays two orders above that and far below the percent-level
        # change that any error in the midpoint matrix produces.
        rel_bound = 1e-9
        mismatches = []
        stats = {}
        for tag, k2 in (("equal", 1.0), ("unequal", 2.0)):
            params = dataclasses.asdict(make_params(k2=k2))
            cfg = cli.parse_config(json.dumps({"params": params, "mesh_n": 64}))
            sys = cli._build(cfg)
            sim_cfg = cli._sim_config(cfg, sys)
            dt, stride, window = sim_cfg.dt, sim_cfg.sample_stride, cfg.sim.fit_window
            assert (dt, sim_cfg.t_final, stride, window) == (1 / 128, 200.0, 16, (10.0, 100.0))
            n_samples = int(round(sim_cfg.t_final / dt)) // stride + 1
            times = dt * stride * np.arange(n_samples)
            mask = (times >= window[0]) & (times <= window[1])
            # |d log E| <= rel_bound moves the least-squares slope by at most
            # rel_bound * sum|x - mean(x)| / sum (x - mean(x))^2, x = log t
            dx = np.log(times[mask]) - np.log(times[mask]).mean()
            gamma_bound = rel_bound * np.abs(dx).sum() / (dx @ dx)
            gamma_theory = classify_speeds(sys.params).predicted_decay_exponent
            oracle = MidpointModalOracle(sys, dt)
            for i, fields in enumerate(c7_initial_data(1.0)):
                U0 = project_initial_data(sys, fields)
                if i == 0:  # what the CLI's decay-fit and dichotomy write and fit
                    summary, tables = cli._run_decay_fit(cfg, {})
                    rows = tables["energy.csv"][1]
                    sampled, energies = (np.array(col) for col in list(zip(*rows))[:2])
                else:
                    series = simulate(sys, U0, sim_cfg)
                    sampled, energies = series.times, series.energies
                assert np.array_equal(sampled, times)
                expected = oracle.energies(U0, np.rint(times / dt).astype(int))
                rel = np.abs(energies - expected) / expected
                rel[~np.isfinite(rel)] = np.inf
                j = int(np.argmax(rel))
                mismatches.append((float(rel[j]), tag, i, times[j],
                                   expected[j], energies[j]))
                if i == 0:
                    oracle_series = types.SimpleNamespace(times=times, energies=expected)
                    fit_oracle = fit_decay(oracle_series, window)
                    pair, share = oracle.dominant_pair(U0)
            stats[tag] = dict(gamma=summary["gamma_hat"], oracle=-fit_oracle.slope,
                              theory=gamma_theory, pair=pair,
                              share=share, cond=oracle.cond)

        max_rel, w_tag, w_i, w_t, w_expected, w_measured = max(mismatches)
        gamma_errs = {t: abs(v["gamma"] - v["oracle"]) for t, v in stats.items()}
        ok = (
            max_rel <= rel_bound
            and all(err <= gamma_bound for err in gamma_errs.values())
        )
        detail = (
            f"max relative energy error vs midpoint modal oracle {max_rel:.2e} "
            f"(bound {rel_bound:.0e}) over {len(mismatches)} trajectories x "
            f"{n_samples} samples; "
        )
        for tag, v in stats.items():
            detail += (
                f"{tag}: gamma_hat {v['gamma']:.4f} (oracle {v['oracle']:.4f}, "
                f"|diff| {gamma_errs[tag]:.1e}, bound {gamma_bound:.1e}), "
                f"predicted {v['theory']} reported only, dominant pair "
                f"{v['pair'].real:.3e} +/- {abs(v['pair'].imag):.3f}i holds "
                f"{100.0 * v['share']:.0f}% of E(0), 1/|Re s| "
                f"{1.0 / abs(v['pair'].real):.3g}, cond(V) {v['cond']:.2g}; "
            )
        detail += (
            f"ordering gamma(equal) > gamma(unequal) "
            f"{stats['equal']['gamma'] > stats['unequal']['gamma']} "
            f"(reported only)"
        )
        report(7, "polynomial decay dichotomy", ok, detail)
        assert max_rel <= rel_bound, (
            f"{w_tag}-speed trajectory of initial datum {w_i} at t={w_t:g}: "
            f"oracle energy {w_expected:.17g}, measured energy {w_measured:.17g}, "
            f"relative error {max_rel:.3e} exceeds the bound {rel_bound:.0e}"
        )
        for tag, v in stats.items():
            assert gamma_errs[tag] <= gamma_bound, (
                f"{tag}-speed gamma_hat {v['gamma']:.17g} differs from the oracle "
                f"fit {v['oracle']:.17g} by {gamma_errs[tag]:.3e}, exceeding the "
                f"bound {gamma_bound:.3e} implied by the energy bound "
                f"{rel_bound:.0e}"
            )

    def test_c8_small_instance_oracles(self):
        """n=4 stiffness vs symbolic integrals; damped-wave closed form."""
        import sympy as sp

        sys = make_system(4)
        x = sp.Symbol("x")
        nodes = [sp.Rational(i, 4) for i in range(5)]

        def hat_on(i, e):
            # interior hat N_i restricted to element e, None when absent
            if e == i - 1:
                return (x - nodes[i - 1]) / (nodes[i] - nodes[i - 1])
            if e == i:
                return (nodes[i + 1] - x) / (nodes[i + 1] - nodes[i])
            return None

        def strain_triple(field, shape):
            # (phi, psi, w) contributions of one scalar shape function
            parts = [sp.Integer(0)] * 3
            parts[field] = shape
            return parts

        K_hand = np.zeros((9, 9))
        for e in range(4):
            active = []
            for i in (1, 2, 3):
                shape = hat_on(i, e)
                if shape is not None:
                    active.append((i, shape))
            for fi in range(3):
                for (i, si) in active:
                    for fj in range(3):
                        for (j, sj) in active:
                            p1, ps1, w1 = strain_triple(fi, si)
                            p2, ps2, w2 = strain_triple(fj, sj)
                            integrand = (
                                (sp.diff(p1, x) + ps1 + w1)
                                * (sp.diff(p2, x) + ps2 + w2)
                                + sp.diff(ps1, x) * sp.diff(ps2, x)
                                + (sp.diff(w1, x) - p1)
                                * (sp.diff(w2, x) - p2)
                            )
                            val = sp.integrate(integrand, (x, nodes[e], nodes[e + 1]))
                            K_hand[3 * fi + i - 1, 3 * fj + j - 1] += float(val)
        k_err = np.max(np.abs(node_major(K_hand) - sys.K))

        n = 16
        h = 1.0 / n
        m = n - 1
        tri = (np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1)
               - np.diag(np.ones(m - 1), -1))
        mass = (np.diag(np.full(m, 4.0)) + np.diag(np.ones(m - 1), 1)
                + np.diag(np.ones(m - 1), -1))
        d0 = 0.1
        wave = matrix_system(
            (h / 6.0) * mass,
            (d0 / h) * tri,
            (1.0 / h) * tri,
        )
        mu = np.sort(np.linalg.eigvals(np.linalg.solve(wave.M, wave.K)).real)
        roots = []
        for m_k in mu:
            c = d0 * m_k
            disc = np.sqrt(complex(c * c - 4.0 * m_k))
            roots.append((-c + disc) / 2.0)
            roots.append((-c - disc) / 2.0)
        roots = np.array(roots)
        found = quadratic_eigs(wave, [3.2j, 6.5j, 9.9j, -30.0 + 0.0j], per_shift=4)
        wave_err = max(np.min(np.abs(roots - s)) for s in found.eigenvalues)

        ok = k_err <= 1e-12 and wave_err <= 1e-8
        report(8, "small-instance oracles", ok,
               f"n=4 stiffness vs symbolic assembly max err {k_err:.2e} "
               f"(bound 1e-12); damped-wave roots max err {wave_err:.2e} "
               f"(bound 1e-8) over {found.eigenvalues.size} modes")
        assert ok

    def test_c9_repeated_runs_byte_identical(self, tmp_path):
        """Two dichotomy runs with one config produce identical files."""
        cfg = {
            "params": {
                "rho1": 1.0, "rho2": 1.0, "k1": 1.0, "k2": 1.0, "k3": 1.0,
                "l": 1.0, "L": 1.0, "alpha": 0.25, "beta": 0.75, "d0": 1.0,
            },
            "mesh_n": 16,
            "seed": 7,
            "output_dir": str(tmp_path / "a"),
            "resolvent": {"count": 10},
            "sim": {"t_final": 25.0, "fit_window": [5.0, 20.0],
                    "sample_stride": 8},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["dichotomy", "--config", str(path)]) == 0
        assert cli.main(["dichotomy", "--config", str(path),
                         "--out", str(tmp_path / "b")]) == 0
        names = (
            "resolvent_equal.csv",
            "resolvent_unequal.csv",
            "energy_equal.csv",
            "energy_unequal.csv",
            "dichotomy.csv",
            "dichotomy_summary.json",
        )
        identical = all(
            (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
            for n in names
        )
        report(9, "determinism", identical,
               f"{len(names)} output files byte-identical across two runs")
        assert identical
