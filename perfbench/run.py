"""Closed-loop benchmark of the ``cosp`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the package under
``src/`` and nothing installed.  It generates the workload's inputs from
the seed, then acts as one client: it starts ``python -m cosp.cli`` for a
request, reads its standard output to the end, waits for it to exit and
only then sends the next request.  Every answer is checked against the
generator's ground truth.  A round sends every generated input once; a
run serves a number of whole rounds fixed by ``--seconds``
(``workloads.ROUND_S``), so every run of a workload has the same mix.

The host's speed drifts by more than the metrics' bounds, between runs
and within one, so the client also times a fixed pure-Python loop, which
does not touch the package, right before and after every request.  Each
timed request's wall time is rescaled to the speed at which that loop
takes ``REF_LOOP_S``: a change of the program moves it, the host's drift
cancels.  The end-to-end times are computed from these scaled times; the
unscaled values are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` serves the
same requests through ``traced_cli.py`` and reports per-layer metrics
from its spans; it also runs the first round plainly, checks that both
ways print the same bytes and exit with the same codes, and reports the
tracing overhead from those pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import METRICS, LayerTotals
from verify import check_answer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15
WARMUP_SAMPLES = 2
REQUEST_TIMEOUT_S = 60.0
TRIVIAL_INPUT = "n 1\n"
TRIVIAL_ANSWER = b'{"cograph": true, "order": 1, "series": 0, "parallel": 0, "depth": 1}\n'
TAIL_BEYOND = 10
# The speed probe: the median of LOOP_SAMPLES timings of a fixed loop,
# taken between requests.  REF_LOOP_S is about the loop's median on the
# machine the benchmark was defined on, so scaled times read close to
# its seconds.
LOOP_N = 120_000
LOOP_SAMPLES = 3
REF_LOOP_S = 0.011

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "goodput_units_per_s": "units/s",
    "answered_frac": "frac",
    "peak_rss_mb": "MB",
}


@dataclass
class Reply:
    wall: float
    code: int
    stdout: bytes
    stderr_tail: str
    rss_mb: float


class Client:
    """Sends one request at a time, each to a fresh interpreter."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.stderr_path = work_dir / "stderr.txt"

    def plain(self, args: list[str]) -> Reply:
        return self._send([sys.executable, "-m", "cosp.cli", *args])

    def traced(self, args: list[str], rid: int) -> tuple[Reply, dict | None]:
        spans_path = self.work_dir / f"spans-{rid}.json"
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(rid), "--", *args]
        reply = self._send(cmd)
        try:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            spans = None
        return reply, spans

    @staticmethod
    def _read(proc, deadline: float) -> tuple[list[bytes], bool]:
        """Standard output to its end; kills the process at the deadline."""
        fd = proc.stdout.fileno()
        poller = select.poll()
        poller.register(fd, select.POLLIN | select.POLLHUP)
        chunks, killed = [], False
        while True:
            wait_ms = None if killed else max(0, int((deadline - time.perf_counter()) * 1000))
            if not poller.poll(wait_ms):
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return chunks, killed
            chunks.append(chunk)

    def _send(self, cmd: list[str]) -> Reply:
        """Time from spawn to exit, with standard output read to the end;
        the peak RSS comes from the child's own rusage."""
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT
            )
            try:
                chunks, killed = self._read(proc, start + REQUEST_TIMEOUT_S)
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        lines = self.stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        tail = "timeout" if killed else (lines[-1] if lines else "")
        return Reply(wall, proc.returncode, b"".join(chunks), tail, usage.ru_maxrss / 1024.0)


class Tally:
    """Outcome of the requests of one run."""

    def __init__(self):
        self.walls: list[float] = []
        self.units_ok = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.peak_rss_mb = 0.0
        self.failures: dict[str, int] = {}
        self.lines: list[str] = []

    def record(self, req, reply: Reply) -> None:
        self.attempted += 1
        self.walls.append(reply.wall)
        self.lines.append(f"request round {req.round} slot {req.inst.family}-{req.inst.stratum} "
                          f"{req.label} wall {reply.wall:.4f} s exit {reply.code}")
        self.peak_rss_mb = max(self.peak_rss_mb, reply.rss_mb)
        if reply.stdout:
            why = check_answer(req, reply.code, reply.stdout)
            if why is not None:
                self.wrong += 1
                why = f"wrong answer: {why}"
        else:
            why = f"exit {reply.code}, empty stdout: {reply.stderr_tail}"
        if why is None:
            self.units_ok += req.inst.units
        else:
            self.failed += 1
            key = f"{req.label} | {why}"
            self.failures[key] = self.failures.get(key, 0) + 1


def tail_latency(walls: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples above)."""
    ordered = sorted(walls)
    idx = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def serve(workload, rounds: int, seconds: float, send) -> None:
    """Serve ``rounds`` whole rounds; requests starting after twice
    ``seconds`` plus 30 s are skipped.  ``send(req)`` returns the wall."""
    busy = 0.0
    for r in range(rounds):
        for req in workload.round(r):
            if busy >= 2 * seconds + 30:
                return
            busy += send(req)


def loop_time() -> float:
    """Wall time of a fixed loop that does not touch the package."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Measures the host's speed between requests."""

    def __init__(self):
        self.last = self.measure()
        self.loops = [self.last]

    @staticmethod
    def measure() -> float:
        return statistics.median(loop_time() for _ in range(LOOP_SAMPLES))

    def scaled(self, wall: float) -> float:
        """``wall``, just measured, at the reference speed: the loop is
        timed again and the speeds before and after are averaged."""
        before, self.last = self.last, self.measure()
        self.loops.append(self.last)
        return wall * 2 * REF_LOOP_S / (before + self.last)


def end_to_end(tally, walls: list[float], setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_latency(walls)[0],
        "goodput_units_per_s": tally.units_ok / sum(walls),
        "answered_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": tally.peak_rss_mb,
    }


def machine_facts() -> str:
    return (
        f"python {platform.python_version()} on {platform.machine()}, "
        f"nproc {os.cpu_count()}, {platform.system()} {platform.release()}"
    )


def check_digest(workload: str, seed: int, digest: str) -> bool:
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    want = recorded.get(workload, {}).get(str(seed))
    if want is None:
        print(f"inputs sha256 {digest} (no digest recorded for seed {seed})")
        return True
    if want != digest:
        print(
            f"input digest mismatch for {workload} seed {seed}: generated {digest}, "
            f"recorded {want}; the generators or text writers changed the workload",
            file=sys.stderr,
        )
        return False
    print(f"inputs sha256 {digest} matches the record")
    return True


class SetupProbe:
    """Times the trivial request: a one-vertex ``check``, whose cost is
    interpreter start, imports, argument parsing and exit."""

    def __init__(self, client: Client):
        self.client = client
        self.path = client.work_dir / "trivial.txt"
        self.path.write_text(TRIVIAL_INPUT, encoding="utf-8")
        self.samples: list[float] = []
        self.ok = True

    def sample(self) -> float:
        reply = self.client.plain(["check", str(self.path)])
        self.ok = self.ok and reply.code == 0 and reply.stdout == TRIVIAL_ANSWER
        return reply.wall

    def warm_up(self) -> None:
        """Lets the interpreter write its bytecode caches before timing."""
        for _ in range(WARMUP_SAMPLES):
            self.sample()


def run_plain(args, client, workload) -> dict:
    """Serve the rounds; SETUP_SAMPLES trivial requests are spread evenly
    between them, so set-up time is sampled across the whole run.  Every
    timed request is scaled by the speed probe around it."""
    probe = SetupProbe(client)
    probe.warm_up()
    speed = SpeedProbe()
    tally = Tally()
    walls, setup = [], []
    rounds = workload.rounds(args.seconds)
    every = max(1, rounds * len(workload.slots) // SETUP_SAMPLES)

    def send(req):
        reply = client.plain(req.argv())
        walls.append(speed.scaled(reply.wall))
        tally.record(req, reply)
        tally.lines[-1] += f", scaled {walls[-1]:.4f} s"
        if tally.attempted % every == 0:
            probe.samples.append(probe.sample())
            setup.append(speed.scaled(probe.samples[-1]))
        return reply.wall

    serve(workload, rounds, args.seconds, send)
    values = end_to_end(tally, walls, setup)
    raw = end_to_end(tally, tally.walls, probe.samples)
    _, pct, beyond = tail_latency(walls)
    print(f"requests {tally.attempted}, busy {sum(tally.walls):.3f} s")
    print(f"speed probe: loop median {statistics.median(speed.loops):.5f} s "
          f"(min {min(speed.loops):.5f}, max {max(speed.loops):.5f}), reference {REF_LOOP_S} s")
    for name in ("setup_s", "latency_p50_s", "latency_tail_s", "goodput_units_per_s"):
        print(f"unscaled {name} {raw[name]:.6g} {END_TO_END[name]}")
    print(f"setup samples {len(setup)}: median {values['setup_s']:.4f} s, "
          f"min {min(setup):.4f} s, max {max(setup):.4f} s")
    print(f"latency_tail_s is p{pct:.1f} of {len(walls)} requests, {beyond} above it")
    print(f"failed_frac {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted})")
    return {"tally": tally, "values": values, "units": END_TO_END, "ok": probe.ok}


def run_traced(args, client, workload) -> dict:
    """Trace every request; pair the first round with plain runs."""
    SetupProbe(client).warm_up()
    tally = Tally()
    totals = LayerTotals()
    pair_walls = [0.0, 0.0]
    pairs = 0
    mismatches = []

    def send(req):
        nonlocal pairs
        argv = req.argv()
        paired = req.round == 0
        # Alternate which side of a pair runs first.
        if paired and req.rid % 2 == 0:
            plain = client.plain(argv)
        reply, spans = client.traced(argv, req.rid)
        if paired and req.rid % 2 == 1:
            plain = client.plain(argv)
        if paired:
            pairs += 1
            pair_walls[0] += plain.wall
            pair_walls[1] += reply.wall
            if (plain.code, plain.stdout) != (reply.code, reply.stdout):
                mismatches.append(req.label)
        tally.record(req, reply)
        if spans is not None:
            totals.add(req.inst.family, req.inst.lines, spans["spans"])
        return reply.wall

    serve(workload, workload.rounds(args.seconds), args.seconds, send)
    overhead = pair_walls[1] / pair_walls[0] - 1.0
    print(f"traced requests {tally.attempted}, busy {sum(tally.walls):.3f} s")
    print("share of cli.main time by request family:")
    for line in totals.share_table():
        print("  " + line)
    print(f"tracer transparency: {pairs - len(mismatches)} of {pairs} paired requests print "
          f"the same bytes and exit with the same code; overhead {overhead:+.3f}")
    for label in mismatches:
        print(f"tracer changed the output of: {label}", file=sys.stderr)
    values = totals.metrics(tally.failed, overhead)
    return {"tally": tally, "values": values, "units": METRICS, "ok": not mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "small"), default="full",
        help="small: sizes divided by ten and one round, for the self-tests",
    )
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the request in flight
    # is killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cosp" / "cli.py").is_file():
        print(f"no package source at {SRC / 'cosp'}: run from a cosp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cosp
    import workloads

    if not Path(cosp.__file__).resolve().is_relative_to(SRC):
        print(f"imported cosp from {cosp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    small = args.scale == "small"
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        start = time.perf_counter()
        workload = workloads.Workload(args.workload, args.seed, work_dir, small)
        print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, trace {args.trace}")
        print(f"machine: {machine_facts()}")
        print(f"generated {len(workload.slots)} inputs in {time.perf_counter() - start:.2f} s; "
              f"serving {workload.rounds(args.seconds)} rounds")
        if not small and not check_digest(args.workload, args.seed, workload.digest):
            return 3
        client = Client(work_dir)
        runner = run_traced if args.trace else run_plain
        result = runner(args, client, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    tally = result["tally"]
    for line in tally.lines:
        print(line)
    for key, count in sorted(tally.failures.items()):
        print(f"failed x{count}: {key}")
    for name, value in result["values"].items():
        print(f"{name} {value:.6g} {result['units'][name]}")
    print(json.dumps({
        "correct": tally.wrong == 0 and result["ok"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["values"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
