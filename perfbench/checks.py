"""Output checks against independent dense oracles.

Each check reads the CSVs a command wrote and returns a list of problems
(empty when the output is correct).  The oracles use dense numpy/scipy
linear algebra on freshly assembled matrices, never the solvers under test.
"""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from bresse.discretization import assemble, build_mesh
from bresse.model import ModelParams

SPECTRUM_RESIDUAL_REL = 1e-10  # quadratic residual / ||K||_2
EIGENVALUE_MATCH_REL = 1e-8  # |s - nearest dense eigenvalue| / |s|
SOLVE_RESIDUAL = 1e-10  # resolvent solve residual, as the CLI reports it
NORM_MATCH_REL = 1e-5  # power-iteration norm against dense sigma_max
BALANCE_RESIDUAL = 1e-10  # discrete energy balance per step, relative to E0
ENERGY_RISE_REL = 1e-12  # allowed roundoff rise between samples, relative to E0


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def system(params: dict, mesh_n: int):
    p = ModelParams(**params)
    return assemble(p, build_mesh(p, mesh_n))


def dichotomy_params(params: dict, unequal_factor=2.0):
    """The equal-speed projection of params and its unequal twin."""
    p = ModelParams(**params)
    k2 = p.rho2 * p.k1 / p.rho1
    equal = dataclasses.asdict(dataclasses.replace(p, k2=k2))
    unequal = dataclasses.asdict(dataclasses.replace(p, k2=k2 * unequal_factor))
    return equal, unequal


def check_spectrum(path, sys_):
    data = read_csv(path)
    s = data["re"] + 1j * data["im"]
    problems = []
    if s.size == 0:
        return [f"{path.name}: no eigenvalues"]
    k_norm = np.linalg.norm(sys_.K, 2)
    worst = float(data["residual"].max())
    if not worst <= SPECTRUM_RESIDUAL_REL * k_norm:
        problems.append(f"{path.name}: residual {worst:.3e} > {SPECTRUM_RESIDUAL_REL}*||K||")
    if not s.real.max() < 0.0:
        problems.append(f"{path.name}: max Re s = {s.real.max():.3e} is not < 0")
    n = sys_.n_dofs
    eye, zero = np.eye(n), np.zeros((n, n))
    A = np.block([[-sys_.C, -sys_.K], [eye, zero]])
    B = np.block([[sys_.M, zero], [zero, eye]])
    dense = sla.eig(A, B, right=False)
    dense = dense[np.isfinite(dense)]
    gap = np.abs(s[:, None] - dense[None, :]).min(axis=1) / np.abs(s)
    if not gap.max() <= EIGENVALUE_MATCH_REL:
        i = int(gap.argmax())
        problems.append(f"{path.name}: eigenvalue {s[i]!r} is {gap[i]:.3e} from the dense spectrum")
    return problems


def dense_resolvent_norm(sys_, lam):
    """sigma_max(L^T R(lam) L^-T) with R = (i lam - A_h)^-1 and G = L L^T."""
    n = sys_.n_dofs
    m_inv = np.linalg.inv(sys_.M)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-m_inv @ sys_.K, -m_inv @ sys_.C]])
    L = sla.block_diag(np.linalg.cholesky(sys_.K), np.linalg.cholesky(sys_.M))
    L_inv_t = sla.solve_triangular(L, np.eye(2 * n), lower=True).T
    X = np.linalg.solve(1j * lam * np.eye(2 * n) - A, L_inv_t)
    return float(np.linalg.norm(L.T @ X, 2))


def check_resolvent(path, sys_):
    data = read_csv(path)
    problems = []
    worst = float(data["residual"].max())
    if not worst <= SOLVE_RESIDUAL:
        problems.append(f"{path.name}: solve residual {worst:.3e} > {SOLVE_RESIDUAL}")
    lams, norms = data["lambda"], data["norm"]
    for i in sorted({0, lams.size // 2, lams.size - 1}):
        exact = dense_resolvent_norm(sys_, lams[i])
        rel = abs(norms[i] - exact) / exact
        if not rel <= NORM_MATCH_REL:
            problems.append(
                f"{path.name}: norm {norms[i]:.10g} at lambda {lams[i]:.6g} is {rel:.3e} "
                f"from dense {exact:.10g}"
            )
    return problems


def check_energy(path):
    data = read_csv(path)
    E = data["E"]
    problems = []
    worst = float(data["balance_residual"].max())
    if not worst <= BALANCE_RESIDUAL:
        problems.append(f"{path.name}: balance residual {worst:.3e} > {BALANCE_RESIDUAL}")
    rise = float(np.diff(E).max()) if E.size > 1 else 0.0
    if not rise <= ENERGY_RISE_REL * E[0]:
        problems.append(f"{path.name}: energy rises by {rise:.3e} between samples")
    return problems


def check_outputs(workload, out_dir):
    """Every problem found in one command's outputs."""
    out_dir = Path(out_dir)
    params = workload.config(0, out_dir)["params"]
    n = workload.mesh_n
    if workload.command == "spectrum":
        return check_spectrum(out_dir / "spectrum.csv", system(params, n))
    if workload.command == "resolvent":
        return check_resolvent(out_dir / "resolvent.csv", system(params, n))
    if workload.command == "simulate":
        return check_energy(out_dir / "energy.csv")
    if workload.command == "dichotomy":
        problems = []
        for tag, p in zip(("equal", "unequal"), dichotomy_params(params)):
            problems += check_resolvent(out_dir / f"resolvent_{tag}.csv", system(p, n))
            problems += check_energy(out_dir / f"energy_{tag}.csv")
        return problems
    return [f"no output check for command {workload.command!r}"]


def data_files(out_dir):
    """Name -> bytes of every output except the run report, which holds timings."""
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file() and p.name != "run_report.json"
    }
