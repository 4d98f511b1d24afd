"""The benchmark's workloads: seeded lists of CLI jobs.

A job is one (model, command, seed, flags) call of `catmeas.cli.main`.
The workload seed draws the generated models; every job runs with the
same CLI seed, because that seed also draws the dimensions of the random
cosheaf `verify-all` probes, and a cost that moves with the seed would
hide a change of the program.  So the reports on committed models
(`models/*.json`) do not depend on the workload seed.

Why each workload:

- ``cosheaf-verify``: time goes to the `shcosh` condition checks and
  spectral data (`LinMap.compose` under `partition_map` and extension
  chains).  The exhaustive check keeps the oracle path measured and the
  broken model the first-counterexample path.
- ``isbell-hom``: time goes to `exactla.rref`/`nullspace` on the sparse
  naturality systems of `sheaf_hom`/`cosheaf_hom`; condition checks are
  nearly absent, so a change to them should show no effect here.
- ``measure-calculus``: short jobs whose cost is parsing (building the
  `l1-of` cosheaf and the characteristic sheaf), the 4^n pair loop of
  `stone`, dual-ball vertices of wide targets and `simple.bochner`.  Work
  moved into construction or set-up shows here.

Every generated model carries `semivariation` or `variation`, whose
report holds exact values of the model's measures, checked against
`check.py`'s oracles; so a wrong number fails a job even where the other
reports hold only verdicts, dimensions or 0/1 projections (`spectral` of
the ``l1-of`` cosheaf of a generated model is the same for every seed).
The reports on committed models do not depend on the workload seed, so
their digests are always recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import models

CLI_SEED = 7
# its cosheaf `bad` fails the partition condition, so its jobs exit with 1
FAILING_MODELS = ("models/broken_cosheaf.json",)


@dataclass(frozen=True)
class Job:
    model: str          # path relative to the repository root
    command: str
    seed: int
    flags: tuple[str, ...] = ()
    exit_code: int = 0

    @property
    def key(self) -> str:
        """Names the job in the recorded digests; the path of a generated
        model holds its workload seed."""
        return " ".join((self.model, self.command, "--seed", str(self.seed)) + self.flags)

    def argv(self, root: Path) -> list[str]:
        return [self.command, "--model", str(root / self.model), "--seed", str(self.seed),
                "--format", "structured", *self.flags]


def model_dir(workload: str, seed: int) -> str:
    return f"bench/out/models/{workload}/seed{seed}"


# per model, a committed path or the (atoms, dim, index) of a generated
# one, and the commands run on it
SPECS = {
    "cosheaf-verify": (
        ("models/reference.json", ("check-cosheaf", "spectral")),
        ((5, 2, 0), ("verify-all", "check-cosheaf", "spectral", "cosheafify", "bva",
                     "semivariation")),
        ((5, 2, 1), ("verify-all", "spectral", "semivariation")),
        ((5, 2, 2), ("check-cosheaf --exhaustive", "spectral", "semivariation")),
        ("models/broken_cosheaf.json", ("verify-all",)),
    ),
    "isbell-hom": tuple(
        ((5, 2, k), ("isbell", "semivariation")) for k in range(4)),
    "measure-calculus": (
        ("models/reference.json", ("stone", "partitions", "variation", "semivariation",
                                   "lipschitz", "integrate", "bochner", "kan", "fubini")),
        ((4, 8, 0), ("stone", "partitions", "variation", "semivariation",
                     "lipschitz", "integrate", "bochner", "kan")),
        ((5, 10, 0), ("stone", "partitions", "variation", "semivariation",
                      "lipschitz", "integrate", "bochner", "kan")),
        ((7, 4, 0), ("stone", "variation", "semivariation")),
    ),
}

WORKLOADS = tuple(SPECS)


def write_models(root: Path, workload: str, seed: int) -> None:
    out = root / model_dir(workload, seed)
    for spec, _ in SPECS[workload]:
        if not isinstance(spec, str):
            models.write_model(out, seed, *spec)


def jobs(workload: str, seed: int) -> list[Job]:
    out = []
    for spec, commands in SPECS[workload]:
        if isinstance(spec, str):
            model = spec
        else:
            model = f"{model_dir(workload, seed)}/{models.model_name(*spec)}"
        exit_code = 1 if model in FAILING_MODELS else 0
        for text in commands:
            command, *flags = text.split()
            out.append(Job(model, command, CLI_SEED, tuple(flags), exit_code))
    return out
