"""Paired benchmark runs of a parent revision against the working tree.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent HEAD --workload gated-eval --pairs 10 --seeds 1 2 3

The parent revision is copied with ``git archive`` under
``.bench_build/parent-<commit>/``.  Then ``perfbench/run.py`` runs N times on
each side, each run as long as ``BENCHMARK.json``'s ``run_seconds``, in pairs.
Pair i uses seed ``seeds[i % len(seeds)]``, and the order alternates within
each seed's own pairs: the parent runs first when ``i // len(seeds) + i %
len(seeds)`` is even.  So every seed with two or more pairs runs in both
orders, for an odd or an even number of seeds.  For every end-to-end metric that ``BENCHMARK.json`` declares, the summary gives
each side's median and quartiles, the change's wins (ties count for
neither), the parent's interquartile range, and whether the change wins at
least nine tenths of the pairs by a median gap wider than that range.  A
pair with a run that reports ``correct: false`` or failed operations, or
that prints no JSON result line, stays out of the summary, and the tool then
names that run and exits 1.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def parent_copy(rev: str, root: Path = ROOT) -> Path:
    """A ``git archive`` copy of ``rev`` under ``root``/.bench_build/, made once."""
    commit = subprocess.run(["git", "rev-parse", "--short", rev], cwd=root, check=True,
                            capture_output=True, text=True).stdout.strip()
    dest = root / ".bench_build" / f"parent-{commit}"
    if not (dest / "perfbench" / "run.py").is_file():
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=root,
                                 check=True, capture_output=True).stdout
        dest.mkdir(parents=True, exist_ok=True)
        # the extraction filters of PEP 706 are missing before Python 3.12
        # and its 3.10.12/3.11.4 backports
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, **safe)
    return dest


class BrokenRun(Exception):
    """A run whose standard output ends in no JSON result object."""


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run; returns its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or not {"correct", "failed", "metrics"} <= set(result):
        tail = proc.stderr.strip().splitlines()[-1:] or ["nothing"]
        raise BrokenRun(f"exit code {proc.returncode}, no result line; "
                        f"stderr ends in {tail[0]!r}")
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict[str, dict]:
    """Per metric named in ``better`` ("lower" or "higher"): each side's
    quartiles, the change's wins and ties over the (parent, change) pairs
    of metric dicts, and whether the change's gain is claimable."""
    out = {}
    for name, direction in better.items():
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(1 for p, c in both if sign * (c - p) > 0)
        ties = sum(1 for p, c in both if c == p)
        parent = _quartiles([p for p, _ in both])
        change = _quartiles([c for _, c in both])
        iqr = parent[2] - parent[0]
        gap = sign * (change[1] - parent[1])
        out[name] = {
            "pairs": len(both), "wins": wins, "ties": ties,
            "parent": parent, "change": change, "parent_iqr": iqr,
            "median_change_pct": 100.0 * (change[1] / parent[1] - 1.0) if parent[1] else 0.0,
            "claimable": wins >= WIN_SHARE * len(both) and gap > iqr,
        }
    return out


def _format(summary: dict[str, dict]) -> str:
    rows = [f"{'metric':<28} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
            f"{'wins':>7} {'change':>8}  claimable"]
    for name, s in summary.items():
        p = "/".join(f"{v:.4g}" for v in s["parent"])
        c = "/".join(f"{v:.4g}" for v in s["change"])
        rows.append(f"{name:<28} {p:>32} {c:>32} {s['wins']:>3}/{s['pairs']:<3} "
                    f"{s['median_change_pct']:>+7.1f}%  {s['claimable']}")
    return "\n".join(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = p.parse_args(argv)
    if args.pairs < 1 or min(args.seeds) < 0:
        p.error("--pairs must be positive and seeds non-negative")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    sides = {"parent": parent_copy(args.parent), "change": ROOT}
    pairs, broken = [], []
    for i in range(args.pairs):
        rnd, j = divmod(i, len(args.seeds))
        seed = args.seeds[j]
        order = ("parent", "change") if (rnd + j) % 2 == 0 else ("change", "parent")
        got, whole = {}, True
        for side in order:
            try:
                result = run_once(sides[side], args.workload, seed, benchmark["run_seconds"])
            except BrokenRun as exc:
                whole = False
                broken.append(f"pair {i}, {side}, seed {seed}: {exc}")
                print(json.dumps({"pair": i, "side": side, "seed": seed,
                                  "broken": str(exc)}), flush=True)
                continue
            got[side] = {k: m["value"] for k, m in result["metrics"].items()}
            print(json.dumps({"pair": i, "side": side, "seed": seed,
                              "correct": result["correct"], "failed": result["failed"],
                              "metrics": got[side]}), flush=True)
            if not result["correct"] or result["failed"]:
                whole = False
                broken.append(f"pair {i}, {side}, seed {seed}: correct {result['correct']}, "
                              f"{result['failed']} failed operations")
        if whole:
            pairs.append((got["parent"], got["change"]))
    summary = summarize(pairs, better)
    print(_format(summary))
    print(json.dumps({"workload": args.workload, "summary": summary}))
    for line in broken:
        print(f"left out of the summary: {line}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
