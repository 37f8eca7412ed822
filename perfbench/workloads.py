"""The benchmark's workloads: the scenario config each one runs, why it was
chosen (with the layers it loads and bypasses), and its amount of work.

Every workload is a closed loop driven by one client in one process: the next
pass starts only after the previous one has written its verdict. Only
``locking_sweep`` starts worker processes (``framesync sweep --jobs 2``, which
equals the two cores of the machine the sizes were chosen on).

The sizes were chosen so that one pass takes a few seconds on a 2-vCPU VM:
the benchmark keeps the fastest of several passes per run, and it
needs several passes inside ``run_seconds`` for that minimum to repeat.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    why: str  # one line, also the workload's ``why`` in BENCHMARK.json
    # 0 runs ``framesync run``; a positive value runs ``framesync sweep``
    # with that many worker processes over the list-valued ``seed`` key
    jobs: int = 0

    def raw_config(self, seed_offset: int, output_dir: str) -> dict:
        """The scenario config for one run, with every seed shifted."""
        raw = dict(self.config, output_dir=output_dir)
        seed = raw["seed"]
        raw["seed"] = ([s + seed_offset for s in seed] if isinstance(seed, list)
                       else seed + seed_offset)
        return raw

    def argv(self, config_path: str) -> list[str]:
        """Arguments for ``framesync.cli.main``."""
        if self.jobs:
            return ["sweep", config_path, "--jobs", str(self.jobs)]
        return ["run", config_path]

    @property
    def shape(self) -> tuple[int, int, int]:
        """(N, n, p) of every ensemble the workload integrates."""
        c = self.config
        return c.get("N", _DEFAULT_N[c["scenario"]]), c.get("n", 4), c.get("p", 2)

    def agent_steps(self) -> int:
        """Nominal N x RK4 steps of one pass.

        Computed from the config with the step-size policy in force when
        this benchmark was written (``min(1e-3, 2.5e-3/kappa)``), so it is a
        fixed amount of work per pass and agent_steps_per_s is work done per
        second.
        """
        c = self.config
        scenario = c["scenario"]
        dt = c.get("dt") or min(1e-3, 2.5e-3 / max(c.get("kappa", 1.0), 1.0))
        steps = round(c.get("horizon", _DEFAULT_HORIZON[scenario]) / dt)
        runs = 2 if scenario == "first_order_locking" else 1
        members = len(c["seed"]) if isinstance(c["seed"], list) else 1
        return self.shape[0] * steps * runs * members


_DEFAULT_N = {
    "first_order_homogeneous": 8,
    "first_order_locking": 3,
}
_DEFAULT_HORIZON = {"first_order_homogeneous": 50.0, "first_order_locking": 8.0}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fo_dispatch",
            # the default run with kappa and horizon rescaled together
            # (kappa * horizon = 50 as at the defaults): 20,000 steps, 201
            # records
            config={"scenario": "first_order_homogeneous", "kappa": 2.5,
                    "horizon": 20.0, "seed": 11},
            why="N=8, 20k RK4 steps: per-call Python overhead is almost all "
                "the time. Loads dynamics, integrator; bypasses repair, cli "
                "pool, lock detector",
        ),
        Workload(
            name="fo_large_n",
            config={"scenario": "first_order_homogeneous", "N": 400,
                    "kappa": 2.0, "dt": 0.02, "horizon": 20.0,
                    "record_every": 20, "seed": 11},
            why="N=400, 1000 steps, 51 records: make_record's (N,N,n,p) "
                "tensors, the N^2 matmul and ~12 repairs/step. Loads "
                "diagnostics, dynamics, stiefel; bypasses dispatch, cli pool",
        ),
        Workload(
            name="locking_sweep",
            config={"scenario": "first_order_locking", "seed": [7, 8]},
            why="framesync sweep --jobs 2, 2 seeds of N=3 locking runs; "
                "start-up is a large share. Loads cli pool, scenarios, lock "
                "detector; bypasses large-N kernels, stiff steps",
            jobs=2,
        ),
    )
}
