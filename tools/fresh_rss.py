"""Fresh-process peak memory, minor page faults and CPU time of one
``stepgate`` command, a parent revision against the working tree.

Run from anywhere inside the repository, with the command's arguments after
``--``:

    python3 tools/fresh_rss.py --parent HEAD --runs 5 -- train --config cfg.json --out run

The parent revision is copied with ``git archive`` as ``tools/bench_pairs.py``
does.  Then ``python -m stepgate <arguments>`` runs ``--runs`` times on each
side, each time in a new process whose ``PYTHONPATH`` is that side's
``src``, from the directory the tool was started in.  So relative paths in
the arguments name the same files on both sides, and each run overwrites
what the one before it wrote.  The sides alternate: the parent runs first in
even runs.  The tool prints each child's ``ru_maxrss``, minor page faults
(``ru_minflt``) and CPU seconds (``ru_utime + ru_stime``), as ``os.wait4``
reports them, as one JSON line, then each side's median and range of each.
It exits 1 when a child exits non-zero, naming the run and the end of its
stderr.  Linux carries the peak of the process a child was started from
over into the child's ``ru_maxrss``, so this tool's own small peak is a
floor under every reading, the same on both sides.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, parent_copy  # noqa: E402


def child_usage(argv: list[str], env: dict[str, str]) -> tuple[float, int, float, int, str]:
    """Peak resident set of one child process in MB, its minor page faults,
    its CPU seconds (user plus system), its exit code and the last line of
    its stderr."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode(errors="replace").strip().splitlines()[-1:]
    # Linux reports ru_maxrss in KiB
    return (usage.ru_maxrss / 1024.0, usage.ru_minflt, usage.ru_utime + usage.ru_stime,
            proc.returncode, (tail or [""])[0])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="git revision to compare against")
    p.add_argument("--runs", type=int, default=5, help="runs on each side")
    p.add_argument("command", nargs=argparse.REMAINDER,
                   help="stepgate arguments, after --")
    args = p.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.runs < 1 or not command:
        p.error("--runs must be positive and a stepgate command must follow --")

    sides = {"parent": parent_copy(args.parent), "change": ROOT}
    got: dict[str, list[tuple[float, int, float]]] = {"parent": [], "change": []}
    failed = []
    for i in range(args.runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            env = {**os.environ, "PYTHONPATH": str(sides[side] / "src")}
            mb, faults, cpu_s, code, tail = child_usage(
                [sys.executable, "-m", "stepgate", *command], env)
            print(json.dumps({"run": i, "side": side, "exit": code,
                              "ru_maxrss_mb": round(mb, 1), "minor_faults": faults,
                              "cpu_s": round(cpu_s, 3)}), flush=True)
            if code:
                failed.append(f"run {i}, {side}: exit code {code}, stderr ends in {tail!r}")
            else:
                got[side].append((mb, faults, cpu_s))
    for side, runs in got.items():
        if runs:
            mb, faults, cpu_s = zip(*runs)
            print(f"{side:<7} median {statistics.median(mb):.1f} MB "
                  f"(range {min(mb):.1f}-{max(mb):.1f}), "
                  f"{statistics.median(faults):.0f} minor faults "
                  f"(range {min(faults)}-{max(faults)}), "
                  f"{statistics.median(cpu_s):.2f} CPU s "
                  f"(range {min(cpu_s):.2f}-{max(cpu_s):.2f}) over {len(runs)} runs")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
