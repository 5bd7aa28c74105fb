"""Tests of the benchmark itself.

Run from the root of a checkout (about a minute):

    python3 ctmbench/selftest.py

* Each output check rejects a corrupted artifact: a perturbed
  ``mu_hat``, a flipped membership bit, a wrong ``e_hat`` and a step
  record that breaks conservation.
* A traced round writes the same artifacts as an untraced round; the
  tracing overhead (traced over untraced round wall time) is printed.

The file name keeps it out of the package's pytest collection.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402

SEED = 11
WORK = ROOT / run.OUT_ROOT / "selftest"


def _rewrite(path, edit):
    """Apply edit(rows) to a CSV file's data rows (header kept)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[1:], rows[0])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        cls.rounds = {}
        for workload in ("urban-simulate", "highway-levelset"):
            for trace in (False, True):
                ops, wall = run.run_round(workload, SEED,
                                          WORK / f"{workload}-{int(trace)}", trace)
                assert all(op.code == 0 for op in ops), workload
                cls.rounds[workload, trace] = (ops, wall)
        cls.highway = json.loads((ROOT / run.HIGHWAY_SMALL).read_text())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def levelset_problems(self, edit_dir):
        """Checks of a corrupted copy of the untraced highway artifacts."""
        src = self.rounds["highway-levelset", False][0][0].out_dir
        copy = WORK / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(src, copy)
        edit_dir(copy)
        return checks.check_levelset(copy, self.highway, SEED)

    def test_untouched_artifacts_pass(self):
        for workload in ("urban-simulate", "highway-levelset"):
            ops, _ = self.rounds[workload, False]
            self.assertEqual(checks.check_workload(workload, ops, SEED, ROOT), [])

    def test_perturbed_mu_hat_rejected(self):
        def edit(d):
            def bump(rows, header):
                col = header.index("mu_hat")
                kept = [r for r in rows if r[header.index("discarded")] == "0"]
                kept[-1][col] = repr(float(kept[-1][col]) + 1e-6)
            _rewrite(d / "dataset.csv", bump)
        self.assertTrue(self.levelset_problems(edit))

    def test_flipped_membership_bit_rejected(self):
        def edit(d):
            last = max(int(p.stem.split("_")[1]) for p in d.glob("grid_*.csv"))

            def flip(rows, header):
                col = header.index("member")
                rows[0][col] = str(1 - int(rows[0][col]))
            _rewrite(d / f"grid_{last}.csv", flip)
        self.assertTrue(self.levelset_problems(edit))

    def test_wrong_e_hat_rejected(self):
        def edit(d):
            def shift(rows, header):
                col = header.index("e_hat")
                rows[-1][col] = repr(float(rows[-1][col]) * 1.01 + 1.0)
            _rewrite(d / "errors.csv", shift)
        self.assertTrue(self.levelset_problems(edit))

    def test_conservation_break_rejected(self):
        from ctmdesign.config import load_scenario

        scenario = load_scenario(ROOT / run.URBAN)
        model = checks.NetworkModel(scenario)
        k = np.array([float(x) for x in run.URBAN_DESIGN.split(",")])
        programs = checks.integerized_programs(scenario, k, checks.seed_stream(SEED, 0, 0))
        rec = checks.StepRecorder()
        scenario.run_replicate(k, checks.seed_stream(SEED, 0, 0), extra_observers=(rec,))
        self.assertEqual(checks.validate_trajectory(model, rec, "dpf", programs), [])
        rec.records[100].q_net[0] += 1e-3
        problems = checks.validate_trajectory(model, rec, "dpf", programs)
        self.assertTrue(any("mass" in p for p in problems), problems)

    def test_traced_round_writes_identical_artifacts(self):
        for workload in ("urban-simulate", "highway-levelset"):
            plain, wall = self.rounds[workload, False]
            traced, traced_wall = self.rounds[workload, True]
            for a, b in zip(plain, traced):
                self.assertEqual(run._artifacts(a.out_dir), run._artifacts(b.out_dir))
                self.assertIn("trace", b.stats)
            print(f"\n{workload}: untraced round {wall:.2f} s, traced {traced_wall:.2f} s, "
                  f"tracing overhead {100 * (traced_wall / wall - 1):+.1f}%")


if __name__ == "__main__":
    unittest.main(verbosity=2)
