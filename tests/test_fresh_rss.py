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
from fresh_rss import maxrss_mb
print(json.dumps([maxrss_mb([sys.executable, "-c", code], dict(os.environ))
                  for code in ("b = bytearray(64 << 20)", "pass")]))
"""


def test_maxrss_reads_the_childs_own_peak():
    """A child that touches 64 MiB peaks above it; a bare interpreter peaks
    far below it."""
    out = subprocess.run([sys.executable, "-c", _PROBE], check=True,
                         capture_output=True, text=True).stdout
    (big, code, _), (small, _, _) = json.loads(out)
    assert code == 0
    assert big >= 64.0 > small


def test_maxrss_reports_a_failing_childs_exit_code_and_stderr():
    _, code, tail = fresh_rss.maxrss_mb(
        [sys.executable, "-c", "import sys; sys.exit('no config given')"], dict(os.environ))
    assert (code, tail) == (1, "no config given")


def test_a_command_is_required():
    with pytest.raises(SystemExit):
        fresh_rss.main(["--runs", "1"])
