"""The pinned-run runner on one small row (the full table runs in CI)."""

from pinned_runs import PINS, failed, run, write_model


def test_runner_hashes_the_report_and_reads_the_childs_own_peak(tmp_path):
    # a check-sheaf report is verdicts only, the same bytes at 4-16 atoms
    pin = next(p for p in PINS if p.command == "check-sheaf" and p.bound_mb is not None)
    result = run(pin.command, pin.fmt, write_model(tmp_path, seed=1, atoms=6, dim=pin.dim))
    assert (result.code, result.sha256) == (0, pin.sha256)
    assert 0 < result.peak_mb < pin.bound_mb
    assert not failed(pin, result)
    assert failed(pin._replace(sha256="0" * 64), result)
