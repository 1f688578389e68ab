import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_SPEC = importlib.util.spec_from_file_location("fresh_rss", _TOOLS / "fresh_rss.py")
fresh_rss = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fresh_rss)


# Linux carries the peak of the process a child was started from into the
# child's ru_maxrss, so the children are started from a small interpreter,
# not from the test process
_PROBE = f"""
import json, os, sys
sys.path.insert(0, {str(_TOOLS)!r})
from fresh_rss import child_usage
print(json.dumps([child_usage([sys.executable, "-c", code], dict(os.environ))
                  for code in ("b = bytearray(64 << 20)", "pass")]))
"""


def test_maxrss_reads_the_childs_own_peak():
    """A child that touches 64 MiB peaks above it; a bare interpreter peaks
    far below it."""
    out = subprocess.run([sys.executable, "-c", _PROBE], check=True,
                         capture_output=True, text=True).stdout
    (big, _, _, code, _), (small, _, _, _, _) = json.loads(out)
    assert code == 0
    assert big >= 64.0 > small


def test_maxrss_reports_a_failing_childs_exit_code_and_stderr():
    *_, code, tail = fresh_rss.child_usage(
        [sys.executable, "-c", "import sys; sys.exit('no config given')"], dict(os.environ))
    assert (code, tail) == (1, "no config given")


def test_a_busy_child_reports_its_cpu_seconds():
    """A child that spins until it has used 0.3 s of CPU reports at least
    0.2 CPU seconds.  Its minor faults are counted but not bounded: huge
    pages make their number depend on the host."""
    spin = "import time\nwhile time.process_time() < 0.3: pass"
    _, faults, cpu_s, code, _ = fresh_rss.child_usage([sys.executable, "-c", spin],
                                                      dict(os.environ))
    assert code == 0 and isinstance(faults, int)
    assert cpu_s >= 0.2


def test_a_command_is_required():
    with pytest.raises(SystemExit):
        fresh_rss.main(["--runs", "1"])
