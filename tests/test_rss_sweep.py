"""tools/rss_sweep.py on a trivial command: two directories, one run each."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_reports_each_directory_and_the_spread():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rss_sweep.py"), "--code",
         "pass", "--dirs", "2", "--runs", "1"], capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["side", "name_len", "median_mb", "min_mb",
                                "max_mb"]
    rows = [line.split() for line in lines[1:3]]
    # one run per directory: its median is its only peak
    assert [row[:2] for row in rows] == [["change", "1"], ["change", "2"]]
    assert all(float(row[2]) == float(row[3]) == float(row[4]) > 0
               for row in rows)
    low, high = sorted(float(row[2]) for row in rows)
    assert lines[3] == (f"change: medians span {high - low:.3f} MB across "
                        f"2 directories ({low:.3f}-{high:.3f})")
    assert len(lines) == 4


def test_a_failing_run_stops_the_sweep():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rss_sweep.py"), "--code",
         "raise SystemExit(3)", "--dirs", "1", "--runs", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "exited 3" in proc.stderr
    assert proc.stdout == ""
