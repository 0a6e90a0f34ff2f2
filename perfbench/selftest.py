"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute.  Scaled-down runs
of every workload must print every metric named in BENCHMARK.json with
its unit; one seed must give identical inputs; the verifier must reject
planted wrong answers; the tracer must behave as the plain CLI at
the depth where JSON output starts to fail; and without the package
source the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from workloads import Request, Workload  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class ScaledDownRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: str, kind: str) -> None:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--scale", "small")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, declared(kind))
        for name, unit in units.items():
            self.assertTrue(
                any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines),
                f"{name} is not printed with its unit",
            )

    def test_every_workload_prints_every_metric(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, "0", "end_to_end")
                self.check_run(workload, "1", "per_layer")

    def test_workload_names_match_the_declaration(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.WORKLOADS)


class Inputs(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_one_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            a = Workload(name, 11, WORK / "a", small=True)
            b = Workload(name, 11, WORK / "b", small=True)
            c = Workload(name, 12, WORK / "c", small=True)
            self.assertEqual(a.digest, b.digest)
            self.assertNotEqual(a.digest, c.digest)
            for (_, x), (_, y) in zip(a.slots, b.slots):
                self.assertEqual(x.path.read_bytes(), y.path.read_bytes())
            self.assertEqual(
                [r.argv()[0:1] + r.argv()[2:] for r in a.round(1)],
                [r.argv()[0:1] + r.argv()[2:] for r in b.round(1)],
            )

    def test_comparable_pairs_counted_from_the_tree(self):
        from cosp import cotree_to_graph, oracles, sp_tree_to_poset

        for seed in range(3):
            t = oracles.rand_cotree(60, seed)
            self.assertEqual(workloads.comparable_pairs(t), cotree_to_graph(t).edge_count())
            u = oracles.rand_sptree(60, seed)
            self.assertEqual(workloads.comparable_pairs(u),
                             sum(m.bit_count() for m in sp_tree_to_poset(u).below))

    def test_parity_chain_is_the_window_cotree(self):
        from cosp import cotree_to_graph, parity_split_graph

        for n, offset in ((1, 0), (7, 0), (8, 3)):
            self.assertEqual(cotree_to_graph(workloads.parity_chain(n, offset)),
                             parity_split_graph(n, offset))


class Verifier(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.client = run.Client(WORK)
        WORK.mkdir(parents=True, exist_ok=True)
        cls.trees = Workload("trees-shallow", 5, WORK / "trees", small=True)
        cls.verdicts = Workload("verdicts", 5, WORK / "verdicts", small=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def instance(self, wl: Workload, family: str):
        return next(inst for _, inst in wl.slots if inst.family == family)

    def answer(self, req: Request) -> run.Reply:
        reply = self.client.plain(req.argv())
        self.assertIsNone(verify.check_answer(req, reply.code, reply.stdout), req.label)
        return reply

    def test_corrupted_witnesses_fail(self):
        for family in ("clique-p4", "late-n"):
            inst = self.instance(self.verdicts, family)
            command = ("check",) if inst.is_graph else ("nfree",)
            req = Request(0, 0, inst, command)
            obj = json.loads(self.answer(req).stdout)
            key = "path" if inst.is_graph else "quad"
            ids = obj[key]
            obj[key] = [ids[0], ids[2], ids[1], ids[3]]
            bad = json.dumps(obj).encode() + b"\n"
            self.assertIsNotNone(verify.check_answer(req, 1, bad), family)

    def test_trees_with_two_leaves_swapped_fail(self):
        for family, commands in (("cotree", (("cotree",), ("cotree", "--dot"))),
                                 ("sptree", (("sptree",), ("sptree", "--dot")))):
            inst = self.instance(self.trees, family)
            for command in commands:
                req = Request(0, 0, inst, command)
                text = self.answer(req).stdout.decode()
                key = "vertex" if inst.is_graph else "element"
                if "--dot" in command:
                    swapped = text.replace('label="0"', "@").replace('label="1"', 'label="0"')
                    swapped = swapped.replace("@", 'label="1"')
                else:
                    swapped = text.replace(f'"{key}": 0}}', "@").replace(f'"{key}": 1}}', f'"{key}": 0}}')
                    swapped = swapped.replace("@", f'"{key}": 1}}')
                self.assertNotEqual(swapped, text)
                self.assertIsNotNone(verify.check_answer(req, 0, swapped.encode()), command)

    def test_wrong_exit_codes_fail(self):
        tree = Request(0, 0, self.instance(self.trees, "cotree"), ("cotree",))
        self.assertIsNotNone(verify.check_answer(tree, 1, self.answer(tree).stdout))
        witness = Request(0, 0, self.instance(self.verdicts, "clique-p4"), ("check",))
        self.assertIsNotNone(verify.check_answer(witness, 0, self.answer(witness).stdout))

    def test_positive_answer_on_a_negative_input_fails(self):
        req = Request(0, 0, self.instance(self.verdicts, "late-n"), ("nfree",))
        self.assertIsNotNone(verify.check_answer(req, 0, b'{"nfree": true}\n'))

    def test_tracer_fails_where_the_plain_cli_fails(self):
        # JSON output of a depth-495 tree fails today and of depth 494 not;
        # the tracer must agree on both sides of that depth.
        from cosp import format_graph, format_poset, orient_cotree, parity_split_graph

        for n in (494, 495):
            graph = WORK / f"window-{n}.txt"
            graph.write_text(format_graph(parity_split_graph(n, 0)), encoding="utf-8")
            order = WORK / f"order-{n}.txt"
            order.write_text(format_poset(orient_cotree(workloads.parity_chain(n, 0))),
                             encoding="utf-8")
            for argv in (["cotree", str(graph)], ["poset", str(order), "sptree"]):
                plain = self.client.plain(argv)
                traced, spans = self.client.traced(argv, n)
                self.assertEqual((plain.code, plain.stdout), (traced.code, traced.stdout), argv)
                self.assertIsNotNone(spans)


class Reader(unittest.TestCase):
    def test_reads_deep_json_and_rejects_malformed(self):
        deep = "[" * 5000 + "]" * 5000
        self.assertIsInstance(verify.read_json(deep), list)
        sample = '{"a": [1, -2.5e3, true, null, "x\\"y"], "b": {}}'
        self.assertEqual(verify.read_json(sample), json.loads(sample))
        for bad in ("[1 2]", '{"a" 1}', "[1,]", '{"a": 1,}', "[", "1 2", "{}}"):
            with self.assertRaises(ValueError, msg=bad):
                verify.read_json(bad)

    def test_tail_has_ten_samples_beyond(self):
        value, pct, beyond = run.tail_latency([float(i) for i in range(40)])
        self.assertEqual((value, pct, beyond), (29.0, 75.0, 10))

    def test_times_scale_with_the_speed_probe(self):
        probe = run.SpeedProbe()
        probe.last = run.REF_LOOP_S / 2  # a host twice as fast before ...
        probe.measure = lambda: run.REF_LOOP_S * 1.5  # ... and slower after
        self.assertAlmostEqual(probe.scaled(3.0), 3.0)
        tally = run.Tally()
        tally.attempted, tally.failed, tally.units_ok = 3, 1, 70
        got = run.end_to_end(tally, [1.0, 2.0, 4.0], [0.5, 0.25, 1.0])
        self.assertEqual((got["setup_s"], got["latency_p50_s"]), (0.5, 2.0))
        self.assertEqual((got["goodput_units_per_s"], got["answered_frac"]), (10.0, 2 / 3))


class WithoutSource(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "verdicts", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
