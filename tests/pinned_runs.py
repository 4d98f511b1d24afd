"""The pinned CLI runs: each row runs ``python -m catmeas.cli <command>
--model M --seed 1 --format <format>`` in a fresh process on the bench
model M (``bench/models.write_model``, seed 1) and checks its exit code,
its stdout sha256 and, where a row gives one, its peak RSS.  A row that
gives ``cosheaves`` runs on M with its cosheaves section replaced by it.

    python tests/pinned_runs.py

prints one line per row and exits 1 if any run exits nonzero, gives
another digest, or peaks at or above its bound.  There is no time bound,
as machine speed varies.

    python tests/pinned_runs.py --record BENCH_scaling.json

does the same and also writes every row's run to the named JSON file:
its command, format, atoms, dim and cosheaves, and its exit code,
seconds, peak MB, stdout bytes and sha256, under a header with the
commit, whether the tree differed from it, the Python version and the
CPU count.

The runner imports nothing from catmeas and hashes stdout in chunks
(``spectral`` at 16 atoms writes 239 MB).  On Linux a child inherits its
parent's high-water mark at exec, so a large parent would raise every
peak it reads: a test that calls `run` from a pytest process of 68 MB
read 68 MB for a run whose own peak is 19 MB.  So each run is the child
of `LAUNCHER`, a small Python process that the runner starts: it reaps
the run with ``os.wait4``, whose ``ru_maxrss`` is then the run's own
peak (in KB on Linux), and hands it back on a pipe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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
    cosheaves: Optional[dict] = None


class Result(NamedTuple):
    code: int
    peak_mb: float
    size: int
    seconds: float
    sha256: str


PINS = (
    # the Isbell conjugates, bounded in memory up to 16 atoms, about 1.5
    # times the peaks of BENCH_scaling.json (as is spectral at 16 atoms)
    Pin("isbell", 12, 2,
        "b2c67479101c5ca4255829dc3a2296b56c33b630b6c5968e9490cafa6f0a3618", 34),
    Pin("isbell", 14, 2,
        "023e9f04a2c13e353d9356d117c265b3302369e5911094bc198bd0e872a5f4b0", 60),
    Pin("isbell", 16, 2,
        "b5cce9b0699638fd14ec3992ac206bfef8501876b2212598b227315957161567", 162),
    # the condition checks, exhaustive at 9 atoms; cosheafify and bva reach
    # the isometry checks on constructions other than the l1 cosheaf;
    # spectral and integrate-morphism read atom projections; the bench
    # models' block sums are decided on their layout, bounded at 16 atoms
    # by 64 MB
    Pin("check-cosheaf", 14, 2,
        "a5e8eec321705503c0d4755f5982de04718d3212e39a41b639a179b102817a18", None),
    Pin("check-cosheaf", 16, 2,
        "a5e8eec321705503c0d4755f5982de04718d3212e39a41b639a179b102817a18", 64),
    Pin("check-sheaf", 14, 2,
        "daca12a870d2d656c62aa339ca981b6c6e27cd4c585e5982797f3485aab8b839", None),
    Pin("check-sheaf", 16, 2,
        "daca12a870d2d656c62aa339ca981b6c6e27cd4c585e5982797f3485aab8b839", 64),
    Pin("verify-all", 12, 2,
        "7dc64dd206920ff08caf63272e0fdd398edaab5627ad9f2fbd70c5d82bd6639d", None),
    Pin("cosheafify", 12, 2,
        "fd20e4e8668dfbfd854f2abbc86b0969a8575ed34132fb75627961a389752108", None),
    # the counit's naturality check reads the canonical cosheaf's maps
    # through `_walk`, which keeps none of them, and the covering pairs are
    # generated from the masks, so no table of them is kept either
    Pin("cosheafify", 14, 2,
        "99bd6e15f75736d0883f1d6032a141ebd806199a0ecda4c8eb5bef1852a0d851", 64),
    Pin("cosheafify", 16, 2,
        "d869f05ac772e4e021c9ebcc35367252f649c835158a2708851d763536c964d3", 200),
    # the constant precosheaf, an indicator: its maps are written in closed
    # form, so the counit check and the conjugate keep none of them
    Pin("cosheafify", 12, 2,
        "65ae0877edf229ede94209b77b75d5edfb3258eb4ad58d69f57579412e9f210f", None,
        cosheaves={"lam": "constant-of:V"}),
    Pin("isbell", 12, 2,
        "8d7ffa929f3711147e0be757fc338b31fcb06c764d3779e228d483c8056a68e8", None,
        cosheaves={"lam": "constant-of:V"}),
    Pin("cosheafify", 14, 2,
        "1327f046bd7d06253b37b76d2b93b0090968605fa42b8c8377be350d4e213752", 64,
        cosheaves={"lam": "constant-of:V"}),
    Pin("isbell", 14, 2,
        "d9e97b107bf628436b0ab08902082726d5aab57011b5f90758289021ba0637a6", 90,
        cosheaves={"lam": "constant-of:V"}),
    Pin("bva", 12, 2,
        "99ecc222e4891981d30b7e0a005a3656b97274bd8ba7c98a498702331bcac1d7", None),
    Pin("bva", 16, 2,
        "3dab8ab039671102834d47857b8fd778240e53570f6afe41fff615c3e9f2368d", 64),
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
        "02b5cd60e79d6eb2fac950df30f6bfbc9bbfc84339aa06763ae5336f8502d167", 153),
    # the text format goes through the same streamed writer
    Pin("spectral", 14, 2,
        "d6430f3ee46196e1e485ce45cb7804a1e183c54610ec123c296221473c548f01", 100, "text"),
    Pin("integrate-morphism", 12, 2,
        "ddcd411926f597bd4a6bd938859adcbde31b4a8ea094b023683f7c894aea7390", None),
    Pin("integrate-morphism", 14, 2,
        "2660f0a4a4a9d347923de5bccac0b3077d758cde277fc140eb00b87b78cca4a5", None),
    Pin("integrate-morphism", 16, 2,
        "31082cf47f14b950f9e6e3086659ae3c72b2c9e451364ed4eed8fbbb19842d48", 64),
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


# `python -c LAUNCHER FD ARGS...` runs `python ARGS...` as its child,
# writes the child's peak RSS (KB) to the pipe FD and exits with its code
LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ)
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d" % usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run(command: str, fmt: str, model: Path) -> Result:
    """One CLI run in a fresh process, started by `LAUNCHER`, its stdout
    hashed as it arrives."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    digest, size = hashlib.sha256(), 0
    peak_r, peak_w = os.pipe()
    with subprocess.Popen([sys.executable, "-c", LAUNCHER, str(peak_w),
                           "-m", "catmeas.cli", *command.split(),
                           "--model", str(model), "--seed", "1", "--format", fmt],
                          stdout=subprocess.PIPE, env=env, pass_fds=(peak_w,)) as child:
        os.close(peak_w)
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
        code = child.wait()
    with os.fdopen(peak_r, "rb") as peak:
        peak_kb = int(peak.read())
    return Result(code, peak_kb / 1024, size, time.perf_counter() - start, digest.hexdigest())


def write_pin_model(out_dir: str, pin: Pin) -> Path:
    """The bench model of the row, its cosheaves replaced when the row says."""
    path = write_model(out_dir, seed=1, atoms=pin.atoms, dim=pin.dim)
    if pin.cosheaves is not None:
        model = json.loads(path.read_text())
        model["cosheaves"] = pin.cosheaves
        path.write_text(json.dumps(model, indent=1, sort_keys=True) + "\n")
    return path


def failed(pin: Pin, result: Result) -> bool:
    return (result.code != 0 or result.sha256 != pin.sha256
            or (pin.bound_mb is not None and result.peak_mb >= pin.bound_mb))


def header() -> dict:
    """The commit the runs were made on, whether the tree differed from it,
    the Python version and the CPU count."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain")),
            "python": platform.python_version(), "cpu_count": os.cpu_count()}


def record_row(pin: Pin, result: Result) -> dict:
    return {"command": pin.command, "format": pin.fmt, "atoms": pin.atoms, "dim": pin.dim,
            "cosheaves": pin.cosheaves, "exit_code": result.code,
            "seconds": round(result.seconds, 2), "peak_mb": round(result.peak_mb, 1),
            "stdout_bytes": result.size, "sha256": result.sha256}


def write_record(path: Path, head: dict, rows: list) -> None:
    path.write_text(json.dumps({**head, "rows": rows}, indent=1) + "\n")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the pinned CLI rows.")
    parser.add_argument("--record", type=Path, metavar="PATH",
                        help="also write every row's run to this JSON file")
    args = parser.parse_args(argv)
    head = header() if args.record else None
    bad, rows = False, []
    with tempfile.TemporaryDirectory() as tmp:
        for pin in PINS:
            result = run(pin.command, pin.fmt, write_pin_model(tmp, pin))
            rows.append(record_row(pin, result))
            fail = failed(pin, result)
            bad |= fail
            print(f"{pin.command} --format {pin.fmt} n={pin.atoms} dim={pin.dim}"
                  f"{f' cosheaves={pin.cosheaves}' if pin.cosheaves else ''}"
                  f" exit {result.code} peak {result.peak_mb:.1f} MB"
                  f" (bound {pin.bound_mb or 'none'}) {result.size} bytes"
                  f" {result.seconds:.2f} s sha256 {result.sha256}"
                  f"{' FAIL' if fail else ''}", flush=True)
    if args.record:
        write_record(args.record, head, rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
