"""The pinned CLI runs: each row runs ``python -m catmeas.cli <command>
--model M --seed 1 --format <format>`` in a fresh process on the bench
model M (``bench/models.write_model``, seed 1) and checks its exit code,
its stdout sha256 and, where a row gives one, its peak RSS.

    python tests/pinned_runs.py

prints one line per row and exits 1 if any run exits nonzero, gives
another digest, or peaks at or above its bound.  There is no time bound,
as machine speed varies.

The runner imports nothing from catmeas and hashes stdout in chunks
(``spectral`` at 16 atoms writes 239 MB): on Linux a child inherits its
parent's high-water mark at exec, so a large runner would raise every
peak it reads.  Each child is reaped with ``os.wait4``, whose
``ru_maxrss`` is that child's own peak, in KB on Linux.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from models import write_model  # noqa: E402


class Pin(NamedTuple):
    command: str
    atoms: int
    dim: int
    sha256: str
    bound_mb: Optional[int]
    fmt: str = "structured"


class Result(NamedTuple):
    code: int
    peak_mb: float
    size: int
    seconds: float
    sha256: str


PINS = (
    # the Isbell conjugates, bounded in memory up to 16 atoms
    Pin("isbell", 12, 2,
        "b2c67479101c5ca4255829dc3a2296b56c33b630b6c5968e9490cafa6f0a3618", 300),
    Pin("isbell", 14, 2,
        "023e9f04a2c13e353d9356d117c265b3302369e5911094bc198bd0e872a5f4b0", 300),
    Pin("isbell", 16, 2,
        "b5cce9b0699638fd14ec3992ac206bfef8501876b2212598b227315957161567", 250),
    # the condition checks, exhaustive at 9 atoms; cosheafify and bva reach
    # the isometry checks on constructions other than the l1 cosheaf;
    # spectral and integrate-morphism read atom projections; the bench
    # models' block sums are decided on their layout, bounded at 16 atoms
    Pin("check-cosheaf", 14, 2,
        "a5e8eec321705503c0d4755f5982de04718d3212e39a41b639a179b102817a18", None),
    Pin("check-cosheaf", 16, 2,
        "a5e8eec321705503c0d4755f5982de04718d3212e39a41b639a179b102817a18", 128),
    Pin("check-sheaf", 14, 2,
        "daca12a870d2d656c62aa339ca981b6c6e27cd4c585e5982797f3485aab8b839", None),
    Pin("check-sheaf", 16, 2,
        "daca12a870d2d656c62aa339ca981b6c6e27cd4c585e5982797f3485aab8b839", 128),
    Pin("verify-all", 12, 2,
        "7dc64dd206920ff08caf63272e0fdd398edaab5627ad9f2fbd70c5d82bd6639d", None),
    Pin("cosheafify", 12, 2,
        "fd20e4e8668dfbfd854f2abbc86b0969a8575ed34132fb75627961a389752108", None),
    Pin("bva", 12, 2,
        "99ecc222e4891981d30b7e0a005a3656b97274bd8ba7c98a498702331bcac1d7", None),
    Pin("bva", 16, 2,
        "3dab8ab039671102834d47857b8fd778240e53570f6afe41fff615c3e9f2368d", 150),
    Pin("check-cosheaf --exhaustive", 9, 2,
        "0b10f767cbfd70ea522bf92b137e8886b50c8aa9c3b871d1e59a7ea1f53399b3", None),
    Pin("check-sheaf --exhaustive", 9, 2,
        "4d327dbd6e8444d5dc5a1a68e766f8ac7b0182a714364e77938732c8c91e9305", None),
    Pin("spectral", 12, 2,
        "2ad843ac2a324345212a2da57762038490938282985bbb8048e660e1d233876a", None),
    # spectral writes 2^n projections from their sparse rows, streamed
    Pin("spectral", 14, 2,
        "801cb44eddb6ee97d380e15fe2d34446aca0e68e8d42f6a1943c961bb1f25d6d", 100),
    Pin("spectral", 16, 2,
        "02b5cd60e79d6eb2fac950df30f6bfbc9bbfc84339aa06763ae5336f8502d167", 400),
    # the text format goes through the same streamed writer
    Pin("spectral", 14, 2,
        "d6430f3ee46196e1e485ce45cb7804a1e183c54610ec123c296221473c548f01", 100, "text"),
    Pin("integrate-morphism", 12, 2,
        "ddcd411926f597bd4a6bd938859adcbde31b4a8ea094b023683f7c894aea7390", None),
    Pin("integrate-morphism", 14, 2,
        "2660f0a4a4a9d347923de5bccac0b3077d758cde277fc140eb00b87b78cca4a5", None),
    Pin("integrate-morphism", 16, 2,
        "31082cf47f14b950f9e6e3086659ae3c72b2c9e451364ed4eed8fbbb19842d48", 128),
    # every partition of the top, in enumeration order, as block labels
    Pin("partitions", 9, 2,
        "1f9eb90e3604217d5bd7bd830cd0c8059b0e5f1f644565499c58ca554ff8fb06", None),
    # the atom-level measure calculus runs in ints and reports Fractions
    Pin("integrate", 12, 8,
        "cd76caa5ced9e5921c388e54d2b7a5b89b0f5aad36cbe8489c7917900dceae66", None),
    Pin("variation", 12, 8,
        "f17eb483120bbd24d3307e1d36f62f3ee54c7f1678f9b02b049eef05a166024f", None),
    Pin("lipschitz", 12, 8,
        "b97b9f10e48b3bdff16e0546ea6513d276605ce3c76c18ad617d6b8320c27c49", None),
    Pin("bochner", 12, 8,
        "44fbdcdb5a3813cafadde2326bb1d5430a43add6c323f3783e851b559df663ea", None),
)


def run(command: str, fmt: str, model: Path) -> Result:
    """One CLI run in a fresh process, its stdout hashed as it arrives."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    digest, size = hashlib.sha256(), 0
    with subprocess.Popen([sys.executable, "-m", "catmeas.cli", *command.split(),
                           "--model", str(model), "--seed", "1", "--format", fmt],
                          stdout=subprocess.PIPE, env=env) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
        _, status, usage = os.wait4(child.pid, 0)
        # reaped here, so the Popen must not wait for the pid again
        child.returncode = os.waitstatus_to_exitcode(status)
    return Result(child.returncode, usage.ru_maxrss / 1024, size,
                  time.perf_counter() - start, digest.hexdigest())


def failed(pin: Pin, result: Result) -> bool:
    return (result.code != 0 or result.sha256 != pin.sha256
            or (pin.bound_mb is not None and result.peak_mb >= pin.bound_mb))


def main() -> int:
    bad = False
    with tempfile.TemporaryDirectory() as tmp:
        for pin in PINS:
            result = run(pin.command, pin.fmt,
                         write_model(tmp, seed=1, atoms=pin.atoms, dim=pin.dim))
            fail = failed(pin, result)
            bad |= fail
            print(f"{pin.command} --format {pin.fmt} n={pin.atoms} dim={pin.dim}"
                  f" exit {result.code} peak {result.peak_mb:.1f} MB"
                  f" (bound {pin.bound_mb or 'none'}) {result.size} bytes"
                  f" {result.seconds:.2f} s sha256 {result.sha256}"
                  f"{' FAIL' if fail else ''}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
