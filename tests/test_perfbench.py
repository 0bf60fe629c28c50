"""The benchmark's own self-test runs against the current sources.

``perfbench/layertrace.py`` reads kernel arguments and results by
position, so a change to a kernel's interface can zero its counters
without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "smoke PASS" in proc.stdout
