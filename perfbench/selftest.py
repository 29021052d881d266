"""Self-tests of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json is printed with its
unit, that every workload passes all its gates at this commit, that a
perturbed reference value is caught, that one seed gives identical gated
outputs on two runs, and that the benchmark fails without the program.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def bench(workload, trace=0, seed=SEED, reference=None, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                          timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, trace=0, seed=SEED):
    path = HERE / "results" / f"{workload}-tiny-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


class BenchmarkSelfTest(unittest.TestCase):

    def test_metrics_named_with_units(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("memory1d", trace=trace)
            metrics = result(proc)["metrics"]
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            self.assertEqual(set(metrics), set(want))
            for name, unit in want.items():
                self.assertEqual(metrics[name]["unit"], unit, name)
                self.assertIn(name, proc.stdout.split("{", 1)[0])
            if trace == 0:
                for name in ("raw.wall_s", "raw.setup_s", "bench.probe_ms",
                             "fail_ratio"):
                    self.assertIn(name, proc.stdout.split("{", 1)[0])
                self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_every_workload_passes_its_gates(self):
        for w in (m["name"] for m in SPEC["workloads"]):
            res = result(bench(w))
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0, w)
            self.assertGreater(res["attempted"], 0, w)
            self.assertTrue(record(w)["manifest"]["reference_used"], w)

    def test_perturbed_reference_is_caught(self):
        ref = json.loads((HERE / "reference.json").read_text())
        entry = ref["tiny"]["memory1d"][str(SEED)]
        entry["grid0.ratio_p1.0"] *= 1.0 + 1e-6
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "reference.json"
            path.write_text(json.dumps(ref))
            res = result(bench("memory1d", reference=path))
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_same_seed_same_outputs(self):
        heads = []
        for _ in range(2):
            result(bench("ensemble", seed=7))
            heads += [r["headline"] for r in record("ensemble", seed=7)["repetitions"]]
        self.assertTrue(heads[0])
        self.assertTrue(all(h == heads[0] for h in heads))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(HERE, root / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = bench("memory1d", root=root)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
