"""Alternating parent/change pairs of the benchmark, written to a BENCH file.

Usage::

    python tools/bench_pairs.py --parent REV [--change REV] [--pairs N]
        [--seed S] [--seconds T] [--workloads W,...] [--work DIR] --out FILE

Run it from the root of a git checkout.  It exports both revisions with
``git archive`` into clean copies under ``--work`` (no ``__pycache__``),
and then, pair by pair, runs each copy's own, unchanged
``python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0``
for every workload, the parent first in the first pair, the change first
in the second, and so on, every process under
``PYTHONDONTWRITEBYTECODE=1``.  Each run's
metrics are read from the last line of its output.  Beside each pair it
times, on each side, the interpreter floor (``python -c pass``) and the
trivial request (``check`` on a one-vertex file), five times each, and
keeps their medians.

The output file holds the facts of the run, every value, and for each
workload and end-to-end metric of ``BENCHMARK.json`` each side's median
and quartiles (``statistics.quantiles``, exclusive method), the pairs the
change won (by the metric's direction; ties count for neither side) and
whether the gain would count: at least nine tenths of the pairs won and
the medians further apart than the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

SAMPLES = 5
TRIVIAL_INPUT = "n 1\n"


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` to ``dest``; return the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def bench(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the copy's own perfbench/run.py: its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=copy, env=environment(),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench/run.py failed in {copy}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def start_up(copy: Path, trivial: Path) -> dict[str, float]:
    """Median wall times of ``python -c pass`` and of the trivial request."""
    env = environment()
    times: dict[str, list[float]] = {"floor_s": [], "trivial_s": []}
    commands = {
        "floor_s": [sys.executable, "-c", "pass"],
        "trivial_s": [sys.executable, "-m", "cosp.cli", "check", str(trivial)],
    }
    for _ in range(SAMPLES):
        for name, command in commands.items():
            start = time.perf_counter()
            subprocess.run(command, capture_output=True, cwd=copy / "src", env=env, check=True)
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(values) for name, values in times.items()}


def summary(parent: list[float], change: list[float], better: str) -> dict:
    def side(values):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": median, "q1": q1, "q3": q3, "values": values}

    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out = {"better": better, "parent": side(parent), "change": side(change), "change_wins": wins}
    spread = out["parent"]["q3"] - out["parent"]["q1"]
    gain = sign * (out["change"]["median"] - out["parent"]["median"])
    out["gain_counts"] = wins >= 0.9 * len(parent) and gain > spread
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent")
    parser.add_argument("--change", default="HEAD", help="revision of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workloads", default="trees-shallow,trees-deep,verdicts")
    parser.add_argument("--work", type=Path, required=True, help="new directory for the copies")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = ("parent", "change")
    copies = {side: args.work / side for side in sides}
    commits = {side: export(getattr(args, side), copies[side]) for side in sides}
    trivial = args.work / "trivial.txt"
    trivial.write_text(TRIVIAL_INPUT, encoding="utf-8")
    declared = json.loads((copies["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = args.workloads.split(",")
    runs: dict = {w: {side: [] for side in sides} for w in workloads}
    starts: dict = {side: [] for side in sides}
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            starts[side].append(start_up(copies[side], trivial))
        for workload in workloads:
            for side in order:
                result = bench(copies[side], workload, args.seed + i, args.seconds)
                runs[workload][side].append(result)
                goodput = result["metrics"]["goodput_units_per_s"]["value"]
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                      f"correct {result['correct']}, goodput {goodput:.6g}", flush=True)
    report = {
        "facts": {
            "parent": commits["parent"],
            "change": commits["change"],
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.platform()}",
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "pairs": args.pairs,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "seconds": args.seconds,
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "bytecode": "clean git-archive copies, no __pycache__, PYTHONDONTWRITEBYTECODE=1",
            "order": "parent first in odd-numbered pairs (1, 3, ...), change first in the others",
        },
        "start_up": {
            name: summary(
                [s[name] for s in starts["parent"]], [s[name] for s in starts["change"]], "lower"
            )
            for name in ("floor_s", "trivial_s")
        },
        "workloads": {},
    }
    for workload, by_side in runs.items():
        metrics = {}
        for name, direction in better.items():
            values = {
                side: [run["metrics"][name]["value"] for run in by_side[side]] for side in sides
            }
            metrics[name] = summary(values["parent"], values["change"], direction)
        metrics["correct"] = {side: [run["correct"] for run in by_side[side]] for side in sides}
        report["workloads"][workload] = metrics
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
