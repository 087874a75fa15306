"""Self-tests of the benchmark: the oracle, the failure detection and the output contract.

    python3 perfbench/selftest.py            # from the root of a checkout, about 90 seconds

Kept out of pytest's default collection (the file name does not start with
test_), so the library's own suite does not pay for tiny benchmark runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import mpmath as mp  # noqa: E402

import oracle as O  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402
from qbinomial import distributions as D  # noqa: E402

# Every metric the benchmark promises, with its unit, as printed above the result line.
PRINTED = dict(R.END_TO_END, fail_frac="ratio")


class OracleTest(unittest.TestCase):
    def test_lattice_sum_matches_direct_sum(self):
        for kind, a in (("sigmoid", 7.3), ("dsigmoid", -2.1), ("softplus", 12.0), ("log1mexp", -0.05)):
            for h in (0.05, 0.7, 2.5):
                n = 300
                direct = mp.fsum(O._direct(kind, mp.mpf(a) - i * mp.mpf(h)) for i in range(n))
                self.assertLess(abs(O.lattice_sum(kind, a, h, n) - direct), mp.mpf(10) ** -30, (kind, h))

    def test_bilateral_and_fourier_forms_of_c_agree(self):
        for q in (0.2, 0.9, 0.99):
            for beta in (0.1, 0.5, 0.83):
                self.assertLess(abs(O.c_ref(beta, q) - O.c_fourier_ref(beta, q)), mp.mpf(10) ** -30)

    def test_oracle_flags_a_mean_shifted_by_1e_9(self):
        ops = [op for op in W.eval_grid(3) if op.kind == "kb_moments"]
        clean = [op.check(op.call()) for op in ops]
        self.assertEqual([r for r in clean if r], [], "unperturbed kb_moments must pass")
        original = D.kb_moments

        def shifted(d):
            m = original(d)
            return D.MomentPair(m.mean + 1e-9, m.variance)

        D.kb_moments = shifted
        try:
            flagged = [op.check(op.call()) for op in ops]
        finally:
            D.kb_moments = original
        self.assertTrue(any(any(r.startswith("mean") for r in reasons) for reasons in flagged))

    def test_oracle_flags_a_wrong_solve(self):
        op = W._cli_op("solve-theta --n 200 --q 0.5 --mu 1.0", "csv")
        code, out, err = op.call()
        self.assertEqual(op.check((code, out, err)), [])
        lines = out.splitlines()
        theta, residual, iterations = lines[1].split(",")
        bad = f"{lines[0]}\n{float(theta) * (1 + 1e-9)!r},{residual},{iterations}\n"
        self.assertTrue(op.check((code, bad, err)))


class ContractTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in W.WORKLOADS:
            with self.subTest(workload=workload):
                text, result = self.run_bench(workload, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, R.END_TO_END)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                printed = {line.split()[0]: line.split()[2] for line in text if len(line.split()) > 2}
                for name, unit in PRINTED.items():
                    self.assertEqual(printed.get(name), unit, name)
                if workload == "sample-stream":
                    self.assertEqual(printed.get("draws_per_s"), "1/s")

                text, result = self.run_bench(workload, 1)
                self.assertEqual(list(result["metrics"]), list(R.PER_LAYER_REPORTED))
                printed = {line.split()[0] for line in text if line.startswith("  ")}
                for name in R.PER_LAYER_REPORTED:
                    self.assertIn(name, printed)
                for name in ("solvers.theta_for_mean.self_s", "cli.self_s", "qcalc.self_s",
                             "asymptotics.limit_law.self_s", "distributions.kb_sample.self_s"):
                    self.assertIn(name, printed)

    def test_refuses_to_run_without_the_library(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "eval-grid",
                               "--seed", "1", "--seconds", "1"], cwd=HERE, capture_output=True,
                              text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
