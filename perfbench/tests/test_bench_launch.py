"""Peak memory is the command's own, however large the benchmark process is."""

import sys

import run


def test_spawn_reports_the_commands_own_peak_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    ballast = bytearray(64 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # make every page resident
    result = run.spawn([sys.executable, "-c", "print('hi')"], env={})
    assert result["status"] == 0
    assert result["stdout"] == b"hi\n"
    assert 0 < result["maxrss_kib"] < 48 * 1024
    assert result["end"] - result["start"] == result["wall_s"] > 0
    del ballast


def test_calibrated_counts_only_reference_tasks_inside_the_command(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    busy = "import time\nend = time.monotonic() + 0.3\nwhile time.monotonic() < end: pass"
    result, units = run.calibrated([sys.executable, "-c", busy], env={})
    assert result["status"] == 0
    assert result["wall_s"] >= 0.3
    # the reference task takes a few ms, so 0.3 s holds dozens of them
    assert 10 < units < 1000
