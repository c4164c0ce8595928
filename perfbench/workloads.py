"""The benchmark workloads, as bresse CLI configs.

BENCHMARK.json lists the first three.  dichotomy-n64 runs by name only:
its wall time is too unsteady on a shared host for a regression bound.

Every workload uses the CLI's default equal-speed parameters.  The time
step is written into the config (half the element width, the CLI default)
so that the number of midpoint steps follows from the config alone.

Both workloads that compute resolvent norms use 8 frequencies on
[3, 38.3].  There the two largest singular values of the resolvent stay
apart (sigma_2/sigma_1 <= 0.87, both regimes, n = 64 and 128), so the
power iteration converges for every start vector.  On the CLI's default
grid it does not always: see perfbench/README.md.
"""

import json
from dataclasses import dataclass, field

PARAMS = {
    "rho1": 1.0, "rho2": 1.0, "k1": 1.0, "k2": 1.0, "k3": 1.0,
    "l": 1.0, "L": 1.0, "alpha": 0.25, "beta": 0.75, "d0": 1.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    mesh_n: int
    blocks: dict = field(default_factory=dict)
    why: str = ""

    def config(self, seed, output_dir) -> dict:
        cfg = {"params": dict(PARAMS), "mesh_n": self.mesh_n, "seed": int(seed),
               "output_dir": str(output_dir)}
        cfg.update(json.loads(json.dumps(self.blocks)))
        return cfg

    def text(self, seed, output_dir) -> str:
        return json.dumps(self.config(seed, output_dir))

    @property
    def shifts(self) -> int:
        return len(self.blocks["spectrum"]["mu_grid"]) if self.command == "spectrum" else 0

    @property
    def lambdas(self) -> int:
        """Resolvent norms computed: one profile, or one per regime."""
        per = {"resolvent": 1, "dichotomy": 2}.get(self.command, 0)
        return per * self.blocks.get("resolvent", {}).get("count", 25)

    @property
    def steps(self) -> int:
        """Midpoint steps: round(t_final/dt) per trajectory."""
        if self.command not in ("simulate", "dichotomy"):
            return 0
        sim = self.blocks["sim"]
        per = round(sim["t_final"] / sim["dt"])
        # dichotomy: two regimes, three initial conditions each
        return per * (6 if self.command == "dichotomy" else 1)

    @property
    def items(self) -> tuple:
        """(count, label) of the work unit behind items_per_s."""
        if self.command == "spectrum":
            return self.shifts, "shifts"
        if self.command == "resolvent":
            return self.lambdas, "lambdas"
        return self.steps, "steps"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectrum-n64", "spectrum", 64,
            {"spectrum": {"mu_grid": [float(m) for m in range(1, 51)], "per_shift": 5}},
            "50 shift-invert Arnoldi shifts, 189 dofs: spectral layer only",
        ),
        Workload(
            "resolvent-n128", "resolvent", 128,
            {"resolvent": {"lambda_min": 3.0, "lambda_max": 38.3, "count": 8, "window": [3.0, 38.3]}},
            "8 power-iteration resolvent norms on [3, 38.3]: resolvent layer only",
        ),
        Workload(
            "simulate-n256", "simulate", 256,
            {"sim": {"dt": 1.0 / 512, "t_final": 10.0, "fit_window": [2.0, 10.0]}},
            "5120 dense midpoint steps at 765 dofs: flop-bound stepping, largest assembly",
        ),
        Workload(
            "dichotomy-n64", "dichotomy", 64,
            {
                "resolvent": {"lambda_min": 3.0, "lambda_max": 38.3, "count": 8},
                "sim": {"dt": 1.0 / 128, "t_final": 100.0, "fit_window": [10.0, 100.0]},
            },
            "headline experiment: 6 x 12800 small steps plus 2 profiles, overhead-bound",
        ),
    )
}

# Small configs with the same commands, for the benchmark's self-tests
TINY = {
    "spectrum": {"mesh_n": 8, "spectrum": {"mu_grid": [1.0, 2.0, 3.0], "per_shift": 2}},
    "resolvent": {"mesh_n": 8, "resolvent": {"lambda_min": 3.0, "count": 6}},
    "simulate": {"mesh_n": 8, "sim": {"dt": 1.0 / 16, "t_final": 2.0, "fit_window": [1.0, 2.0]}},
    "dichotomy": {
        "mesh_n": 8,
        "resolvent": {"lambda_min": 3.0, "count": 6},
        "sim": {"dt": 1.0 / 16, "t_final": 20.0, "fit_window": [1.0, 20.0]},
    },
}


def tiny(command) -> Workload:
    blocks = dict(TINY[command])
    mesh_n = blocks.pop("mesh_n")
    return Workload(f"tiny-{command}", command, mesh_n, blocks, "self-test")
