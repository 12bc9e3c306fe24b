import functools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cipos import bounds, cli, jets, polyring, schur, vecfields
from cipos.bounds import morse_coeff, rough_degree_bound, surface_degree_bound
from cipos.chow import ModelParams
from cipos.jets import morse_certificate
from cipos.polyring import MultidegreePoly

from oracle import m_in_d, report_json, shift_at, terms_json
from tower_reference import morse_in_d, segre_in_d


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_rejected(capsys, argv):
    """Exit code, stdout and stderr lines of a command, whether it returns or exits."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


def whole_text(report) -> str:
    """The positivity text report joined into one string: the reference for
    the pieces the CLI writes, each dominant part written in d by the oracle."""
    p = report.params
    lines = [f"Numerical positivity, N={p.N} n={p.n} c={p.c} a={report.a}"]
    lines.append(f"{'partition':<12} {'threshold':>10}  dominant part")
    for record in report.records:
        dominant = MultidegreePoly(p.c, m_in_d(record.dominant, p.c)).text()
        lines.append(f"{str(tuple(record.partition)):<12} {str(record.threshold):>10}  {dominant}")
    lines.append(f"sufficient uniform degree D = {report.threshold}")
    return "\n".join(lines) + "\n"


def shift_holds(p, r):
    """Whether p(d_1 + r, ..., d_c + r), read from the oracle's Taylor shift,
    has no negative coefficient and a positive constant term."""
    shifted = shift_at(p.terms, r)
    return min(shifted.values()) >= 0 and shifted.get((0,) * p.num_vars, 0) > 0


class TestSegre:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, ["segre", "--N", "4", "--n", "2", "--twist", "0"])
        assert code == 0
        assert "s_2 = (d1*d2 - 5*d1 - 5*d2 + 15) * h^2" in out

    def test_invalid_frame_exits_2(self, capsys):
        code, out, err = run(capsys, ["segre", "--N", "4", "--n", "5"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_json_schema_roundtrip(self, capsys):
        code, out, _ = run(capsys, ["segre", "--N", "4", "--n", "2", "--format", "json"])
        blob = json.loads(out)
        assert {"N", "n", "c", "m", "classes"} == set(blob)
        j, poly = blob["classes"][2]
        assert j == 2
        expected = segre_in_d(ModelParams(4, 2), 0)[2]
        assert poly == terms_json(expected)

    @pytest.mark.parametrize("N, n, twist", [(7, 3, -2), (10, 4, -3)])
    def test_json_is_the_whole_document(self, capsys, N, n, twist):
        params = ModelParams(N, n)
        classes = [[j, terms_json(s)] for j, s in enumerate(segre_in_d(params, twist))]
        reference = {"N": N, "n": n, "c": params.c, "m": twist, "classes": classes}
        argv = ["segre", "--N", str(N), "--n", str(n), "--twist", str(twist), "--format", "json"]
        assert run(capsys, argv) == (0, json.dumps(reference, indent=2) + "\n", "")


class TestPositivity:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, ["positivity", "--N", "4", "--n", "2", "--a", "0"])
        assert code == 0
        assert "sufficient uniform degree D" in out

    def test_hypothesis_violation_exits_2(self, capsys):
        code, _, err = run(capsys, ["positivity", "--N", "4", "--n", "3", "--a", "0"])
        assert code == 2
        assert "c >= n" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["positivity", "--N", "5", "--n", "2", "--a", "1", "--format", "json"])
        blob = json.loads(out)
        assert blob["c"] == 3 and len(blob["records"]) == 3

    def test_json_renders_no_text(self, capsys, monkeypatch):
        # only the rendering --format selects is built
        def refuse(terms):
            raise RuntimeError("text rendered under --format json")

        monkeypatch.setattr(polyring, "terms_text", refuse)
        code, out, _ = run(capsys, ["positivity", "--N", "8", "--n", "4", "--a", "2", "--format", "json"])
        assert code == 0 and json.loads(out)["D"] == "73"

    def test_streamed_report_is_the_whole_document(self, capsys, tmp_path):
        # every frame with n <= c and N <= 12, at twists 0, 1 and 3, then (14,7,0)
        # and the twisted c > n frame (12,5,4), on stdout and through --out
        frames = [(N, n, a) for N in range(2, 13) for n in range(1, N // 2 + 1) for a in (0, 1, 3)]
        for N, n, a in frames + [(14, 7, 0), (12, 5, 4)]:
            report = schur.positivity_report(ModelParams(N, n), a)
            expected = {"json": json.dumps(report_json(report), indent=2) + "\n", "text": whole_text(report)}
            for fmt, whole in expected.items():
                argv = ["positivity", "--N", str(N), "--n", str(n), "--a", str(a), "--format", fmt]
                assert run(capsys, argv) == (0, whole, ""), (N, n, a, fmt)
                target = tmp_path / f"report.{fmt}"
                assert run(capsys, [*argv, "--out", str(target)]) == (0, "", ""), (N, n, a, fmt)
                assert target.read_text(encoding="utf-8") == whole, (N, n, a, fmt)

    def test_twist_beyond_ssize_t(self, capsys):
        # D = a/2 + 3, as at a = 10^3, 10^6 and 10^18
        code, out, err = run(capsys, ["positivity", "--N", "3", "--n", "1", "--a", str(10**20)])
        assert (code, err) == (0, "")
        assert out.endswith("sufficient uniform degree D = 50000000000000000003\n")

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, ["positivity", "--N", "4", "--n", "2", "--a", "0", "--format", "json"])
        blob = json.loads(out)
        assert code == 0
        assert set(blob) == {"N", "n", "c", "a", "records", "D"}
        assert blob["records"][0]["partition"] == [1]
        assert all(r["dominant_positive"] is True for r in blob["records"])
        assert isinstance(blob["D"], str)

    def test_json_output_holds_no_more_than_the_report(self, monkeypatch):
        # the document is written a batch at a time, never held whole: writing
        # it adds to the traced peak of computing the report less than half the
        # document's length (at (14, 7) the document is 4.4 MB and writing adds
        # under 1 MB; one string of it alone is the whole length).  Each phase
        # starts from empty 0-1 count, m-row and shift-row caches, so what ran
        # before moves neither peak
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        argv = ["positivity", "--N", "14", "--n", "7", "--a", "0", "--format", "json"]
        tracemalloc.start()
        try:
            polyring._zero_one.cache_clear()
            polyring._m_row.cache_clear()
            polyring._shift_row.cache_clear()
            schur.positivity_report(ModelParams(14, 7), 0)
            report_peak = tracemalloc.get_traced_memory()[1]
            polyring._zero_one.cache_clear()
            polyring._m_row.cache_clear()
            polyring._shift_row.cache_clear()
            tracemalloc.reset_peak()
            assert cli.main(argv) == 0
            cli_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 4_000_000
        assert cli_peak - report_peak < sink.size / 2, (cli_peak, report_peak, sink.size)


class TestBound:
    @pytest.mark.parametrize(
        "method,expected", [("dim2", "34"), ("scan", "34")]
    )
    def test_flagship_threshold(self, capsys, method, expected):
        code, out, _ = run(
            capsys,
            ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", method, "--format", "json"],
        )
        blob = json.loads(out)
        assert code == 0 and blob["gamma"] == expected

    def test_rough_dominates(self, capsys):
        code, out, _ = run(
            capsys, ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "rough", "--format", "json"]
        )
        blob = json.loads(out)
        from fractions import Fraction

        assert Fraction(blob["gamma"]) >= 34

    def test_scan_exhaustion_reports_none(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "scan", "--d-max", "20"],
        )
        assert code == 0 and "threshold = none" in out

    def test_scan_at_a_huge_twist_finishes(self):
        # the first positive degree lies above 6 * 10^11: no scan that visits
        # every degree finishes
        argv = ["bound", "--N", "4", "--n", "2", "--a", str(10**11), "--method", "scan", "--format", "json"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-m", "cipos", *argv], env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["gamma"] == "600000000010"

    @pytest.mark.parametrize(
        "method,expected",
        [("scan", 600000000000000000010), ("dim2", 600000000000000000010), ("rough", 28800000000000000000318)],
    )
    def test_twist_beyond_ssize_t(self, capsys, method, expected):
        # scan = 6a + 10 and rough = 288a + 318, as at a = 10^3, 10^6 and 10^18;
        # the searches run on plain ints, so their intervals may be of any width
        code, out, err = run(capsys, ["bound", "--N", "4", "--n", "2", "--a", str(10**20), "--method", method])
        assert (code, err) == (0, "")
        assert f"threshold = {expected} (integer degrees >= {expected})\n" in out

    def test_uncertified_scan_tail_is_not_claimed(self, capsys, monkeypatch):
        # a scan that stops at 1 proves nothing about larger degrees: the
        # difference e2 - 17 e1 + 15 is negative at (2, 2), so the shift test fails
        monkeypatch.setattr(bounds, "first_positive_uniform_degree", lambda diagonal, d_max: 1)
        argv = ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "scan"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "threshold = 1 (first positive uniform degree; larger degrees not certified)" in out
        assert "integer degrees >=" not in out
        code, out, _ = run(capsys, argv + ["--format", "json"])
        blob = json.loads(out)
        assert (blob["gamma"], blob["gamma_ceil"], blob["certified_from"], blob["method"]) == ("1", 1, 34, "scan")

    def test_claimed_tail_holds_at_sampled_degrees(self, capsys):
        # every "integer degrees >= r" the text prints is checked by exact
        # evaluation of the closed-form difference at (r, ..., r) and at
        # seeded degree vectors above it, for every method
        rng = random.Random(4417)
        claims = 0
        for n in range(1, 5):
            for N in range(2 * n, 2 * n + 7):
                c = N - n
                for a in range(6):
                    difference = morse_in_d(N, n, a)
                    methods = ["rough"]
                    methods += ["dim2"] if n == 2 and N >= 4 else []
                    methods += ["scan"] if N <= 2 * n + 2 else []
                    for method in methods:
                        argv = ["bound", "--N", str(N), "--n", str(n), "--a", str(a), "--method", method]
                        code, out, _ = run(capsys, argv)
                        assert code == 0
                        claim = re.search(r"\(integer degrees >= (\d+)\)", out)
                        if claim is None:
                            continue
                        r = int(claim.group(1))
                        points = [(r,) * c] + [tuple(rng.randint(r, r + 40) for _ in range(c)) for _ in range(8)]
                        for point in points:
                            assert difference.eval(point) > 0, (N, n, a, method, point)
                        claims += 1
        assert claims > 150

    def test_uncertified_rough_bound_is_not_claimed(self, capsys):
        # the rough bound 3 for plane curves at a = 0: the difference d1 - 3
        # vanishes at 3, so no tail is claimed and 3 is not called positive
        code, out, _ = run(capsys, ["bound", "--N", "2", "--n", "1", "--a", "0", "--method", "rough"])
        assert code == 0
        assert "threshold = 3 (not certified: positivity from degree 3 on is unproven)" in out
        assert "integer degrees >=" not in out and "first positive" not in out
        code, out, _ = run(capsys, ["bound", "--N", "2", "--n", "1", "--a", "0", "--format", "json"])
        blob = json.loads(out)
        assert (blob["gamma_ceil"], blob["certified_from"]) == (3, 4)

    def test_certified_from_is_the_shift_frontier(self, capsys):
        # certified_from is the least r >= 1 at which the difference shifted to
        # r + t (by the oracle's Taylor shift) has no negative coefficient and a
        # positive constant term; the text claims the tail exactly from there
        for n in range(1, 4):
            for N in range(2 * n, 2 * n + 4):
                # at a = 10^13 the frontier lies above 10^13, reached only by doubling
                for a in (*range(4), 10**13):
                    argv = ["bound", "--N", str(N), "--n", str(n), "--a", str(a)]
                    code, out, _ = run(capsys, argv + ["--format", "json"])
                    blob = json.loads(out)
                    r, difference = blob["certified_from"], morse_in_d(N, n, a)
                    assert shift_holds(difference, r) and (r == 1 or not shift_holds(difference, r - 1))
                    code, out, _ = run(capsys, argv)
                    claimed = f"(integer degrees >= {blob['gamma_ceil']})" in out
                    assert claimed == (blob["gamma_ceil"] >= r), (N, n, a)

    def test_scan_agrees_with_engine(self, capsys):
        # second route: the scan of the closed-form difference, stopped at
        # certified_from, equals the scan of the jet-tower engine's difference
        # up to the analytic bound's ceiling plus one
        for n in range(1, 5):
            for c in range(n, 7):
                N = n + c
                for a in sorted({0, 2, N}):
                    argv = ["bound", "--N", str(N), "--n", str(n), "--a", str(a), "--method", "scan"]
                    code, out, _ = run(capsys, argv + ["--format", "json"])
                    gamma = json.loads(out)["gamma"]
                    analytic = surface_degree_bound(N, a) if n == 2 and N >= 4 else rough_degree_bound(N, n, a)
                    engine = morse_certificate(ModelParams(N, n), a).difference
                    ceiling = math.ceil(analytic) + 1
                    expected = next((r for r in range(1, ceiling + 1) if engine.eval((r,) * c) > 0), None)
                    assert code == 0 and gamma == str(expected), (N, n, a)

    def test_builds_no_polynomial_in_the_degrees(self, capsys, monkeypatch):
        # bound reads the n + 1 rows of the shifted difference straight from
        # the Morse coefficients: it counts no 0-1 matrix and writes no class
        # from the elementary symmetric basis.  The m-row cache starts empty, so
        # no row cached by an earlier test hides a count
        def refuse(*args):
            raise AssertionError("bound built a polynomial in the degrees")

        monkeypatch.setattr(polyring, "_m_row", functools.cache(polyring._m_row.__wrapped__))
        monkeypatch.setattr(polyring, "_zero_one", refuse)
        monkeypatch.setattr(polyring, "terms_in_d", refuse)
        monkeypatch.setattr(polyring, "recombine_elementary", refuse)
        for method in ("dim2", "scan", "rough"):
            argv = ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", method, "--format", "json"]
            code, out, _ = run(capsys, argv)
            assert code == 0 and out == (GOLDEN / f"bound_{method}.json").read_text(encoding="utf-8")
        argv = ["bound", "--N", "200", "--n", "20", "--a", "0", "--method", "scan", "--format", "json"]
        code, out, _ = run(capsys, argv)
        # the first r at which the difference on the diagonal, sum_j a_j C(c, j) r^j, is positive
        coefficients = [morse_coeff(200, 20, 0, j) for j in range(21)]
        diagonal = (sum(a * math.comb(180, j) * r**j for j, a in enumerate(coefficients)) for r in range(1, 100))
        assert code == 0 and json.loads(out)["gamma"] == str(next(r for r, v in enumerate(diagonal, 1) if v > 0))

    def test_dim2_needs_surfaces(self, capsys):
        code, _, err = run(capsys, ["bound", "--N", "8", "--n", "3", "--a", "0", "--method", "dim2"])
        assert code == 2 and "n = 2" in err

    def test_needs_small_dimension(self, capsys):
        code, _, err = run(capsys, ["bound", "--N", "4", "--n", "3", "--a", "0"])
        assert code == 2 and "n <= c" in err


class TestJet:
    def test_positive_certificate(self, capsys):
        code, out, _ = run(capsys, ["jet", "--N", "4", "--n", "2", "--a", "4", "--degrees", "34,34"])
        assert code == 0
        assert "value at (34, 34) = 15" in out
        assert "positive" in out

    def test_negative_certificate(self, capsys):
        code, out, _ = run(
            capsys, ["jet", "--N", "4", "--n", "2", "--a", "4", "--degrees", "33,33", "--format", "json"]
        )
        blob = json.loads(out)
        assert (blob["evaluated_at"], blob["value"], blob["positive"]) == ([33, 33], "-18", False)

    def test_symbolic_mode(self, capsys):
        code, out, _ = run(capsys, ["jet", "--N", "4", "--n", "2", "--a", "4"])
        assert code == 0
        assert "d1*d2 - 17*d1 - 17*d2 + 15" in out

    def test_json_difference_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, ["jet", "--N", "5", "--n", "2", "--a", "0", "--format", "json"])
        blob = json.loads(out)
        assert blob["difference"] == terms_json(morse_in_d(5, 2, 0))

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, ["jet", "--N", "4", "--n", "2", "--a", "4", "--degrees", "34,34", "--format", "json"])
        blob = json.loads(out)
        assert set(blob) == {
            "N", "n", "c", "kappa", "a", "m", "difference", "evaluated_at", "value", "positive",
        }
        assert blob["m"] == 2 and blob["value"] == "15" and blob["positive"] is True
        assert blob["difference"] == terms_json(morse_in_d(4, 2, 4))

    @pytest.mark.parametrize("N, n, a, degrees", [(5, 2, 0, None), (4, 2, 4, (34, 34)), (9, 6, 2, None)])
    def test_json_is_the_whole_document(self, capsys, N, n, a, degrees):
        params = ModelParams(N, n)
        difference = morse_certificate(params, a).difference
        value = None if degrees is None else difference.eval(degrees)
        reference = {
            "N": N,
            "n": n,
            "c": params.c,
            "kappa": params.kappa,
            "a": a,
            "m": 3**params.kappa - 1,
            "difference": terms_json(difference),
            "evaluated_at": None if degrees is None else list(degrees),
            "value": None if value is None else str(value),
            "positive": None if value is None else value > 0,
        }
        argv = ["jet", "--N", str(N), "--n", str(n), "--a", str(a), "--format", "json"]
        if degrees is not None:
            argv += ["--degrees", ",".join(map(str, degrees))]
        assert run(capsys, argv) == (0, json.dumps(reference, indent=2) + "\n", "")

    def test_wrong_degree_count(self, capsys):
        code, out, err = run(capsys, ["jet", "--N", "4", "--n", "2", "--a", "4", "--degrees", "34"])
        assert (code, out, err) == (2, "", "error: need 2 degrees, got 1\n")

    def test_degrees_checked_before_the_tower_runs(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the tower ran before --degrees was checked")

        monkeypatch.setattr(jets, "morse_certificate", refuse)
        code, out, err = run_rejected(capsys, ["jet", "--N", "4", "--n", "2", "--a", "0", "--degrees", "3,3,3"])
        assert (code, out, err) == (2, "", ["error: need 2 degrees, got 3"])


class TestVecfields:
    def test_solved_family_verifies(self, capsys):
        code, out, _ = run(
            capsys,
            ["vecfields", "verify", "--N", "3", "--degrees", "2,2", "--family", "solved",
             "--samples", "10", "--seed", "5", "--format", "json"],
        )
        blob = json.loads(out)
        assert code == 0
        assert blob["identical_vanishing"] is True
        assert blob["residual_count"] == 0
        assert blob["pole_orders"]["z"] <= 3

    def test_tj_family_verifies(self, capsys):
        code, out, _ = run(
            capsys,
            ["vecfields", "verify", "--N", "2", "--degrees", "3", "--family", "tj",
             "--samples", "10", "--format", "json"],
        )
        blob = json.loads(out)
        assert code == 0 and blob["identical_vanishing"] is True
        assert blob["pole_orders"]["a"] == 1

    def test_talpha_reports_without_asserting(self, capsys):
        code, out, _ = run(
            capsys,
            ["vecfields", "verify", "--N", "2", "--degrees", "2", "--family", "talpha",
             "--samples", "5", "--format", "json"],
        )
        blob = json.loads(out)
        assert code == 0 and blob["identical_vanishing"] is None

    def test_deterministic_given_seed(self, capsys):
        argv = ["vecfields", "verify", "--N", "2", "--degrees", "2", "--family", "tlambda",
                "--samples", "5", "--seed", "11", "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("N,degrees,seed", [("3", "2", "12115"), ("4", "3,2", "6757")])
    def test_singular_tlambda_seeds_succeed(self, capsys, N, degrees, seed):
        # these seeds first draw a singular matrix, which is drawn again; a seed
        # whose first draw is invertible keeps its output (golden vecfields_tlambda_N4_seed5)
        argv = ["vecfields", "verify", "--N", N, "--degrees", degrees, "--family", "tlambda",
                "--samples", "1", "--seed", seed]
        assert run_rejected(capsys, argv)[0::2] == (0, [])

    def test_format_before_verify_is_rejected(self, capsys):
        # --format belongs to `verify`; in front of it the flag must be rejected, not ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["vecfields", "--format", "json", "verify", "--N", "2", "--degrees", "2",
                      "--family", "tj", "--samples", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["vecfields", "verify", "--N", "2", "--degrees", "2", "--family", "tj", "--samples", "0"],
            ["positivity", "--N", "4", "--n", "2", "--a", "-3"],
            ["bound", "--N", "4", "--n", "2", "--a", "-1"],
            ["jet", "--N", "5", "--n", "2", "--a", "0", "--degrees", "0,0,0"],
            ["jet", "--N", "4", "--n", "2", "--a", "0", "--degrees", "3,-1"],
            ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "rough", "--d-max", "5"],
            ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "dim2", "--d-max", "40"],
            ["jet", "--N", "4", "--n", "2", "--a", "0", "--degrees", ""],
            ["selftest", "--criteria", ""],
            # argparse's own errors: no usage block in front of the error line
            ["segre", "--N", "4"],
            ["segre", "--N", "x", "--n", "2"],
            ["vecfields", "--format", "json", "verify", "--N", "2", "--degrees", "2", "--family", "tj"],
            [],
        ],
        ids=[
            "samples-0",
            "positivity-negative-twist",
            "bound-negative-twist",
            "jet-degree-0",
            "jet-negative-degree",
            "bound-rough-d-max",
            "bound-dim2-d-max",
            "jet-empty-degrees",
            "selftest-empty-criteria",
            "parser-missing-n",
            "parser-non-integer-N",
            "parser-format-before-verify",
            "parser-no-subcommand",
        ],
    )
    def test_one_error_line_and_exit_2(self, capsys, argv):
        code, out, err = run_rejected(capsys, argv)
        assert (code, out) == (2, "")
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["selftest", "--criteria", "42"], "error: no criterion numbered 42"),
            (["selftest", "--criteria", "4,42"], "error: no criterion numbered 42"),
            (
                ["vecfields", "verify", "--N", "2", "--degrees", "2,x", "--family", "tj"],
                "error: --degrees must be a comma-separated integer list",
            ),
            (
                ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "scan", "--d-max", "0"],
                "error: --d-max must be >= 1",
            ),
            (["jet", "--N", "4", "--n", "2", "--a", "0", "--degrees", "3,3,3"], "error: need 2 degrees, got 3"),
            (["jet", "--N", "4", "--n", "2", "--a", "0", "--degrees", "0,3"], "error: degrees must be >= 1, got [0, 3]"),
            # one missing option per shared group of options: --N and --n, then --a
            (["segre", "--N", "4"], "error: the following arguments are required: --n"),
            (["positivity", "--N", "4", "--n", "2"], "error: the following arguments are required: --a"),
            (["jet", "--N", "4", "--n", "2"], "error: the following arguments are required: --a"),
        ],
        ids=[
            "selftest-unknown",
            "selftest-partly-unknown",
            "vecfields-bad-degrees",
            "bound-scan-d-max-0",
            "jet-degree-count",
            "jet-degree-0",
            "segre-missing-n",
            "positivity-missing-a",
            "jet-missing-a",
        ],
    )
    def test_unknown_input_named(self, capsys, argv, message):
        code, out, err = run_rejected(capsys, argv)
        assert (code, out, err) == (2, "", [message])

    def test_samples_checked_before_the_chart(self, capsys, monkeypatch):
        # the chart of N=30, degree 6 enumerates 1.9 million coefficient slots
        def refuse(*args, **kwargs):
            raise AssertionError("the chart is built before --samples is checked")

        monkeypatch.setattr(vecfields, "UniversalChart", refuse)
        argv = ["vecfields", "verify", "--N", "30", "--degrees", "6", "--family", "tj", "--samples", "0"]
        code, out, err = run_rejected(capsys, argv)
        assert (code, out, err) == (2, "", ["error: --samples must be >= 1"])

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run_rejected(capsys, ["segre", "--N", "4", "--n", "2", "--out", str(target)])
        assert (code, out) == (2, "")
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (["segre", "--N", "10", "--n", "4"], polyring, "m_coefficients"),
            (["jet", "--N", "5", "--n", "2", "--a", "0"], jets, "reduce_to_base"),
            (["positivity", "--N", "8", "--n", "4", "--a", "0"], bounds, "shifted_positivity_threshold"),
        ],
        ids=["segre", "jet", "positivity"],
    )
    def test_internal_arithmetic_error_exits_1(self, capsys, monkeypatch, argv, module, name):
        # the failure comes from the last call of a routine that each report
        # calls late (positivity: once per record, after every dominant part
        # is checked); the report is computed in full before a byte is
        # written, so stdout stays empty
        method = getattr(module, name)
        calls_left = [{"segre": 5, "jet": 1, "positivity": 11}[argv[0]]]

        def broken(*args):
            calls_left[0] -= 1
            if not calls_left[0]:
                raise ArithmeticError("leading coefficient vanished")
            return method(*args)
        monkeypatch.setattr(module, name, broken)
        code, out, err = run_rejected(capsys, [*argv, "--format", "json"])
        assert (code, out, calls_left) == (1, "", [0])
        assert len(err) == 1 and err[0].startswith("error: ") and "leading coefficient vanished" in err[0]

    # unbuffered, each write of the report is a system call, and one cut short
    # by the closed pipe returns without an error; buffered, the writes go
    # through the BufferedWriter, which raises at once
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_leaves_stderr_clean(self, unbuffered):
        # the JSON report (about 128 kB) outgrows the pipe buffer, so the
        # write hits the closed read end
        argv = ["positivity", "--N", "10", "--n", "5", "--a", "0", "--format", "json"]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "cipos", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    @pytest.mark.parametrize("command", ["segre", "positivity", "bound", "jet", "selftest"])
    def test_seed_only_on_vecfields_verify(self, capsys, command):
        argv = {
            "segre": ["segre", "--N", "4", "--n", "2"],
            "positivity": ["positivity", "--N", "4", "--n", "2", "--a", "0"],
            "bound": ["bound", "--N", "4", "--n", "2", "--a", "0"],
            "jet": ["jet", "--N", "4", "--n", "2", "--a", "0"],
            "selftest": ["selftest", "--criteria", "4"],
        }[command]
        code, out, err = run_rejected(capsys, argv + ["--seed", "3"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --seed 3" in err[-1]

    def test_bound_report_invariant_survives_python_O(self):
        # python -O strips assert statements; the invariant must still stop the report
        script = (
            "from cipos import bounds, cli\n"
            "bounds.morse_coeff = lambda N, n, a, j: [15, -17, 2][j]\n"
            "raise SystemExit(cli.main(['bound', '--N', '4', '--n', '2', '--a', '4']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == ["error: internal invariant failed: leading elementary coefficient must be 1"]


class TestSelftest:
    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--criteria", "3,4,10"])
        assert code == 0
        assert out.count("PASS") == 3

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--criteria", "4", "--format", "json"])
        blob = json.loads(out)
        assert blob["all_passed"] is True
        assert blob["results"][0]["criterion"] == 4

    def test_full_run_red_state(self, capsys):
        # pins the documented state: criterion 6 is the only red, exit code 1
        code, out, _ = run(capsys, ["selftest", "--format", "json"])
        blob = json.loads(out)
        assert code == 1 and blob["all_passed"] is False
        failing = [r["criterion"] for r in blob["results"] if not r["passed"]]
        assert failing == [6]
        for r in blob["results"]:
            if r["limit"] is not None:
                assert r["seconds"] < r["limit"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code = cli.main(["segre", "--N", "4", "--n", "2", "--format", "json", "--out", str(target)])
    assert code == 0
    blob = json.loads(target.read_text())
    assert blob["N"] == 4


def json_reference(argv):
    """The document ``json.dumps(..., indent=2)`` must give for a segre, jet or
    positivity report, its classes written by the oracle."""
    N, n = int(argv[argv.index("--N") + 1]), int(argv[argv.index("--n") + 1])
    params = ModelParams(N, n)
    if argv[0] == "segre":
        classes = [[j, terms_json(s)] for j, s in enumerate(segre_in_d(params, 0))]
        return {"N": N, "n": n, "c": params.c, "m": 0, "classes": classes}
    a = int(argv[argv.index("--a") + 1])
    if argv[0] == "positivity":
        return report_json(schur.positivity_report(params, a))
    difference = morse_certificate(params, a).difference
    return {"N": N, "n": n, "c": params.c, "kappa": params.kappa, "a": a, "m": 3**params.kappa - 1,
            "difference": terms_json(difference), "evaluated_at": None, "value": None, "positive": None}


@pytest.mark.parametrize(
    "argv",
    [
        ["segre", "--N", "10", "--n", "4"],
        ["jet", "--N", "9", "--n", "6", "--a", "0"],
        ["positivity", "--N", "8", "--n", "4", "--a", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_pieces_hold_one_term_each(monkeypatch, argv):
    # the one streaming renderer yields the document in pieces, no piece
    # holding more than one term of a class, and the pieces joined are the
    # bytes json.dumps gives
    pieces = []
    monkeypatch.setattr(cli, "_write", lambda each, file: pieces.extend(each))
    assert cli.main([*argv, "--format", "json"]) == 0
    assert max(piece.count('"coeff"') for piece in pieces) == 1
    assert "".join(pieces) == json.dumps(json_reference(argv), indent=2)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, golden",
    [
        (["segre", "--N", "12", "--n", "4"], None),
        (["positivity", "--N", "10", "--n", "5", "--a", "3"], "positivity_N10_n5_a3"),
        (["jet", "--N", "10", "--n", "7", "--a", "0", "--degrees", "3,4,5"], "jet_N10_n7_a0_at_345"),
    ],
    ids=["segre", "positivity", "jet"],
)
def test_reports_build_no_class_in_d(capsys, monkeypatch, argv, golden, fmt):
    # every class reaches the report as its m_lam coefficients, which the
    # writer arranges term by term: no MultidegreePoly is built, and the bytes
    # are the golden's, or for segre the classes written in d by the tests
    if golden is not None:
        expected = (GOLDEN / f"{golden}.{'txt' if fmt == 'text' else 'json'}").read_text(encoding="utf-8")
    elif fmt == "json":
        expected = json.dumps(json_reference(argv), indent=2) + "\n"
    else:
        seg = segre_in_d(ModelParams(12, 4), 0)
        lines = [f"  s_{j} = ({s.text()}) * h^{j}" for j, s in enumerate(seg)]
        expected = "\n".join(["Segre classes, N=12 n=4 c=8 twist=0", *lines]) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("a class was built in d")

    monkeypatch.setattr(MultidegreePoly, "__init__", refuse)
    monkeypatch.setattr(MultidegreePoly, "_of", refuse)
    assert run(capsys, [*argv, "--format", fmt]) == (0, expected, "")


class Writes:
    """A text file that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_writes_are_batched(monkeypatch):
    # pieces are joined into writes of at most _WRITE_SIZE characters, each
    # sent when the next piece does not fit; a longer piece is cut, and the
    # closing newline is a write of its own
    size = cli._WRITE_SIZE
    pieces = ["a" * 100] * 2000 + ["b" * (2 * size + 7), "c" * (size - 3), "d" * 3, "e"]
    sink = Writes()
    cli._write(iter(pieces), sink)
    assert "".join(sink.writes) == "".join(pieces) + "\n"
    assert [len(w) for w in sink.writes] == [size - size % 100] * 3 + [200_000 - 3 * (size - size % 100)] + [
        size, size, 7, size, 1, 1
    ]
    # a report of about 1 MB goes out in writes that each fill all but less
    # than one term of a batch
    sink = Writes()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["segre", "--N", "20", "--n", "4", "--format", "json"]) == 0
    *full, last, newline = sink.writes
    assert len(full) > 10 and all(size - 400 < len(w) <= size for w in full)
    assert 0 < len(last) <= size and newline == "\n"
    assert json.loads("".join(sink.writes)) == json_reference(["segre", "--N", "20", "--n", "4"])


@pytest.mark.parametrize(
    "argv",
    [
        ["jet", "--N", "9", "--n", "6", "--a", "0", "--degrees", "7,8,9"],
        ["segre", "--N", "10", "--n", "4", "--twist", "-3"],
        ["bound", "--N", "200", "--n", "20", "--a", "0", "--method", "scan"],
        ["vecfields", "verify", "--N", "3", "--degrees", "2,2", "--family", "talpha", "--seed", "4"],
        ["selftest", "--criteria", "3,4"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_is_the_bytes_json_dumps_gives(capsys, argv):
    # every subcommand joins its JSON from strings through cli._json; on
    # frames no golden covers, parsing it and dumping it again gives the same
    # bytes (the selftest payload holds floats)
    code, out, err = run(capsys, [*argv, "--format", "json"])
    assert (code, err) == (0, "")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
