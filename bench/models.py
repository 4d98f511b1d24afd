"""Seeded model generator for the benchmark (stdlib only).

Every n-atom model holds:

- ``mu``: a positive scalar measure,
- ``rho``: a vector measure into the SUM space ``V`` of a chosen dimension,
- ``sigma``: a measure into the SUP space ``W``,
- ``xi``: a bundle with fibers ``V`` and a one-dimensional SUM space,
- ``lam``: the ``l1-of:mu`` cosheaf, and ``chi``: a ``characteristic`` sheaf
  on about 3/5 of the atoms.

The seed draws the values, weights and the sheaf's support; the shapes,
and so the work a command does, are fixed by (atoms, dim).  The same
(seed, atoms, dim, index) always gives a byte-identical file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SUP_DIM = 2


def _rational(rng: random.Random, lo: int, hi: int, denom: int = 3) -> str:
    p, q = rng.randint(lo, hi), rng.randint(1, denom)
    return str(p) if q == 1 else f"{p}/{q}"


def _positive(rng: random.Random) -> str:
    return _rational(rng, 1, 4)


def _space(rng: random.Random, flavor: str, prefix: str, dim: int) -> dict:
    return {"flavor": flavor,
            "basis": [f"{prefix}{i}" for i in range(dim)],
            "weights": [_positive(rng) for _ in range(dim)]}


def _nonzero_vector(rng: random.Random, dim: int) -> list[str]:
    while True:
        v = [_rational(rng, -3, 3) for _ in range(dim)]
        if any(x != "0" for x in v):
            return v


def make_model(seed: int, atoms: int, dim: int, index: int = 0) -> dict:
    """The model for one (seed, atoms, dim, index); `index` tells apart
    several models of the same shape drawn for one seed."""
    rng = random.Random(f"catmeas-bench:{seed}:{atoms}:{dim}:{index}")
    names = [f"a{i}" for i in range(atoms)]
    # a fixed support size keeps the cost of a model the same for every seed
    support = sorted(rng.sample(names, (3 * atoms + 4) // 5))
    return {
        "algebra": {"atoms": names},
        "spaces": {
            "V": _space(rng, "sum", "v", dim),
            "W": _space(rng, "sup", "w", SUP_DIM),
        },
        "measures": {
            "mu": {"target": "scalar",
                   "values": {a: _positive(rng) for a in names}},
            "rho": {"target": "V",
                    "values": {a: _nonzero_vector(rng, dim) for a in names}},
            "sigma": {"target": "W",
                      "values": {a: _nonzero_vector(rng, SUP_DIM) for a in names}},
        },
        "bundles": {
            "xi": {"base": ["x", "y"],
                   "fibers": {"x": "V",
                              "y": {"flavor": "sum", "basis": ["u"],
                                    "weights": [_positive(rng)]}}},
        },
        "cosheaves": {"lam": "l1-of:mu"},
        "sheaves": {"chi": "characteristic:" + "|".join(support)},
    }


def model_name(atoms: int, dim: int, index: int = 0) -> str:
    return f"n{atoms}d{dim}-{index}.json"


def write_model(out_dir: Path, seed: int, atoms: int, dim: int, index: int = 0) -> Path:
    path = Path(out_dir) / model_name(atoms, dim, index)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(make_model(seed, atoms, dim, index), indent=1, sort_keys=True) + "\n"
    path.write_text(text)
    return path

