"""The pinned-run runner on one small row (the full table runs in CI)."""

import json
import os

from pinned_runs import PINS, failed, header, record_row, run, write_model, write_record


def test_runner_hashes_the_report_and_reads_the_childs_own_peak(tmp_path):
    # a check-sheaf report is verdicts only, the same bytes at 4-16 atoms
    pin = next(p for p in PINS if p.command == "check-sheaf" and p.bound_mb is not None)
    result = run(pin.command, pin.fmt, write_model(tmp_path, seed=1, atoms=6, dim=pin.dim))
    assert (result.code, result.sha256) == (0, pin.sha256)
    assert 0 < result.peak_mb < pin.bound_mb
    assert not failed(pin, result)
    assert failed(pin._replace(sha256="0" * 64), result)
    # the row as the record writes it, read back
    path = tmp_path / "record.json"
    write_record(path, header(), [record_row(pin._replace(atoms=6), result)])
    record = json.loads(path.read_text())
    assert set(record) == {"commit", "dirty", "python", "cpu_count", "rows"}
    assert record["cpu_count"] == os.cpu_count() and isinstance(record["dirty"], bool)
    row, = record["rows"]
    assert row == {"command": "check-sheaf", "format": "structured", "atoms": 6, "dim": pin.dim,
                   "cosheaves": None, "exit_code": 0, "seconds": round(result.seconds, 2),
                   "peak_mb": round(result.peak_mb, 1), "stdout_bytes": result.size,
                   "sha256": pin.sha256}
