"""Self-tests of the benchmark's output checks.

Usage (from the repository root): python3 perfbench/checker_selftest.py

Every checker must pass on real program output, produced through the same
child processes the benchmark runs, and reject a corrupted copy of it.
"""

import copy
import json
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402


def cli(argv: list) -> dict:
    outcome = run.spawn(argv, 60.0)
    if outcome.returncode != 0:
        raise RuntimeError(outcome.stderr.decode(errors="replace"))
    return json.loads(outcome.stdout)


def jet(N, n, a, degrees) -> dict:
    return cli(["jet", "--N", str(N), "--n", str(n), "--a", str(a), "--degrees", ",".join(map(str, degrees)), "--format", "json"])


def flip_first(terms: list) -> None:
    terms[0]["coeff"] = str(-int(terms[0]["coeff"]))


def revalue(out: dict) -> None:
    """Make value and positive agree with the (corrupted) difference again."""
    value = checks.poly_eval(checks.poly_from_json(out["difference"]), out["evaluated_at"])
    out["value"], out["positive"] = str(value), value > 0


class TowerChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = run.load_reference()
        cls.cases = [(4, 2, 4, (34, 34)), (6, 3, 0, (5, 7, 9)), (4, 3, 0, (12,))]
        cls.outputs = [jet(*case) for case in cls.cases]

    def check(self, out, case):
        N, n, a, degrees = case
        return checks.check_morse(out, N, n, a, degrees, self.reference.get((N, n, a)))

    def test_real_output_passes(self):
        for case, out in zip(self.cases, self.outputs):
            self.assertEqual(self.check(out, case), [], case)
        self.assertEqual(self.outputs[0]["value"], "15")

    def test_flipped_coefficient_rejected(self):
        # value and sign are recomputed, so only the polynomial routes can object
        for case, out in zip(self.cases, self.outputs):
            bad = copy.deepcopy(out)
            flip_first(bad["difference"])
            revalue(bad)
            self.assertNotEqual(self.check(bad, case), [], case)

    def test_changed_value_rejected(self):
        for case, out in zip(self.cases, self.outputs):
            bad = copy.deepcopy(out)
            bad["value"] = str(int(bad["value"]) + 1)
            self.assertNotEqual(self.check(bad, case), [], case)
            bad = copy.deepcopy(out)
            bad["positive"] = not bad["positive"]
            self.assertNotEqual(self.check(bad, case), [], case)


class PositivityChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cases = [(4, 2, 0), (8, 4, 2)]
        cls.outputs = [cli(["positivity", "--N", str(N), "--n", str(n), "--a", str(a), "--format", "json"]) for N, n, a in cls.cases]

    def test_real_output_passes(self):
        for (N, n, a), out in zip(self.cases, self.outputs):
            self.assertEqual(checks.check_positivity(out, N, n, a, random.Random(1)), [])

    def test_flipped_dominant_coefficient_rejected(self):
        for (N, n, a), out in zip(self.cases, self.outputs):
            for index in range(len(out["records"])):
                bad = copy.deepcopy(out)
                flip_first(bad["records"][index]["dominant"])
                self.assertNotEqual(checks.check_positivity(bad, N, n, a, random.Random(1)), [], index)

    def test_lowered_threshold_rejected(self):
        lowered = 0
        for (N, n, a), out in zip(self.cases, self.outputs):
            c = N - n
            for index, record in enumerate(out["records"]):
                conj = tuple(record["conjugate"])
                bad_r = next(
                    (r for r in range(1, 200) if checks.jacobi_trudi(conj, checks.segre_values(N, n, -a, [r] * c)) <= 0),
                    None,
                )
                if bad_r is None:
                    continue
                bad = copy.deepcopy(out)
                bad["records"][index]["threshold"] = str(bad_r)
                bad["D"] = str(max(checks.Fraction(r["threshold"]) for r in bad["records"]))
                self.assertNotEqual(checks.check_positivity(bad, N, n, a, random.Random(1)), [], index)
                lowered += 1
        self.assertGreater(lowered, 0)

    def test_wrong_D_rejected(self):
        (N, n, a), out = self.cases[0], copy.deepcopy(self.outputs[0])
        out["D"] = str(checks.Fraction(out["D"]) + 1)
        self.assertNotEqual(checks.check_positivity(out, N, n, a, random.Random(1)), [])


class TangencyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cases = [("solved", 3, "2,2", 100, 7), ("tj", 3, "3", 20, 1), ("tlambda", 4, "3,2", 20, 5)]
        cls.outputs = [
            cli(["vecfields", "verify", "--N", str(N), "--degrees", d, "--family", fam, "--samples", str(s), "--seed", str(seed), "--format", "json"])
            for fam, N, d, s, seed in cls.cases
        ]

    def test_real_output_passes(self):
        for (fam, N, _, s, seed), out in zip(self.cases, self.outputs):
            self.assertEqual(checks.check_tangency(out, fam, N, s, seed), [], fam)

    def test_zeroed_tlambda_count_rejected(self):
        fam, N, _, s, seed = self.cases[2]
        bad = copy.deepcopy(self.outputs[2])
        bad["residual_count"] = 0
        self.assertNotEqual(checks.check_tangency(bad, fam, N, s, seed), [])
        bad["residuals"] = []
        self.assertNotEqual(checks.check_tangency(bad, fam, N, s, seed), [])

    def test_residual_on_tangent_field_rejected(self):
        for (fam, N, _, s, seed), out in zip(self.cases[:2], self.outputs[:2]):
            bad = copy.deepcopy(out)
            bad["residuals"], bad["residual_count"] = ["field 0: sample 0: T(f1) = 1"], 1
            self.assertNotEqual(checks.check_tangency(bad, fam, N, s, seed), [], fam)
            bad = copy.deepcopy(out)
            bad["pole_orders"]["a"] += 1
            self.assertNotEqual(checks.check_tangency(bad, fam, N, s, seed), [], fam)


if __name__ == "__main__":
    unittest.main()
