import ast
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloring import cli, cyclotomic, make_modulus, reduction_matrix
from cycloring import errors
from cycloring import expansion as expansion_mod
from cycloring.errors import UnsupportedModulus
from cycloring.poly import IntPoly, divrem
from cycloring import scaled_inverse as sinv
from cycloring import verify as verify_mod


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    """main answers by the type of what a handler raised alone: exit 2 for
    any Refused, 3 for UnsupportedModulus, 1 for any other CycloringError
    and for a failed self-check, each on stderr in its own format."""

    REFUSALS = ("BadRange", "OutOfRange", "NotApplicable", "ZeroElement",
                "ZeroPolynomial", "InexactDivision", "ModulusTooLarge",
                "SweepTooLarge", "MatrixTooLarge", "GenericTooLarge")

    def test_the_refusals_are_refused(self):
        assert {e.__name__ for e in errors.Refused.__subclasses__()} >= set(
            self.REFUSALS)
        assert issubclass(errors.InexactDivision, ArithmeticError)

    @pytest.mark.parametrize("error, code, prefix", [
        pytest.param(error, code, prefix, id=error.__name__)
        for error, code, prefix in [
            *((e, 2, f"{e.__name__}: ")
              for e in errors.Refused.__subclasses__()),
            (errors.NotCoprime, 1, ""), (errors.ModulusMismatch, 1, ""),
            (UnsupportedModulus, 3, ""),
            (AssertionError, 1, "self-check failed: ")]])
    def test_exit_code_by_type(self, capsys, monkeypatch, error, code, prefix):
        def handler(args, m):
            raise error("raised by the handler")

        monkeypatch.setattr(cli, "_cmd_cyclo", handler)
        assert run(capsys, "cyclo", "7") == (
            code, "", f"error: {prefix}raised by the handler\n")


class TestCyclo:
    def test_coeffs(self, capsys):
        code, out, _ = run(capsys, "cyclo", "15", "--format", "coeffs")
        assert code == 0
        assert out.strip() == "1,-1,0,1,-1,1,0,-1,1"

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "cyclo", "15", "--format", "pretty")
        assert code == 0
        assert out.strip() == "x^8 - x^7 + x^5 - x^4 + x^3 - x + 1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "cyclo", "7", "--format", "json")
        obj = json.loads(out)
        assert obj == {"M": 7, "phi": 6, "coeffs": [1, 1, 1, 1, 1, 1, 1]}

    def test_unsupported_exit_3(self, capsys):
        code, _, err = run(capsys, "cyclo", "30")
        assert code == 3
        assert "prime factors" in err

    @pytest.mark.parametrize("cmd", ["cyclo", "sweep", "verify"])
    def test_huge_modulus_exit_2(self, capsys, monkeypatch, cmd):
        def factorize(n):
            raise AssertionError(f"factorized {n}")
        monkeypatch.setattr(cyclotomic, "_factorize", factorize)
        code, out, err = run(capsys, cmd, str(2 ** 61 - 1))
        assert code == 2 and out == ""
        assert err.startswith("error: ModulusTooLarge: ")
        assert "ceiling M <= 1048576" in err


    @pytest.mark.parametrize("argv", [("sweep", "1147"),
                                      ("verify", "1147", "--suite", "theorems"),
                                      ("verify", "1147")])
    def test_oversized_sweep_exit_2(self, capsys, monkeypatch, argv):
        make_modulus(1147)

        def construct(*args):
            raise AssertionError("constructed")
        monkeypatch.setattr(sinv, "_construct", construct)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: SweepTooLarge: ")
        assert "ceiling 1073741824" in err


    @pytest.mark.parametrize("argv", [("matrix", "1048573"),
                                      ("expansion", "1048573", "--k", "3"),
                                      ("verify", "1048573", "--suite", "matrix"),
                                      ("verify", "4096", "--suite", "lemmas")])
    def test_oversized_matrix_exit_2(self, capsys, monkeypatch, argv):
        def allocate(*args):
            raise AssertionError("allocated")
        monkeypatch.setattr(cyclotomic, "_monomial_rows", allocate)
        monkeypatch.setattr(cyclotomic, "long_division_rows", allocate)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: MatrixTooLarge: ")
        assert "M*phi = " in err and "ceiling 4194304" in err


class TestReduce:
    def test_monomial(self, capsys):
        poly = ",".join(["0"] * 8 + ["1"])  # x^8
        code, out, _ = run(capsys, "reduce", "15", "--poly", poly)
        assert code == 0
        assert out.strip() == "-1,1,0,-1,1,-1,0,1"

    @pytest.mark.parametrize("poly", [["--poly", "-1,0,2"], ["--poly=-1,0,2"]])
    def test_leading_minus(self, capsys, poly):
        # the space form too: a value starting with '-' is not an option
        code, out, _ = run(capsys, "reduce", "7", *poly)
        assert code == 0
        assert out.strip() == "-1,0,2,0,0,0"

    def test_bad_poly_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "reduce", "15", "--poly", "1,a,2")
        assert exc.value.code == 2

    def test_trailing_bare_poly_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "reduce", "15", "--poly")
        assert exc.value.code == 2


class TestMatrix:
    def test_pretty_r7(self, capsys):
        code, out, _ = run(capsys, "matrix", "7")
        rows = out.strip().splitlines()
        assert code == 0
        assert len(rows) == 6
        assert rows[0].split() == ["1", "0", "0", "0", "0", "0", "-1"]

    def test_blocks_annotation(self, capsys):
        code, out, _ = run(capsys, "matrix", "21", "--blocks")
        assert code == 0
        assert out.splitlines()[0].count("|") == 3

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "matrix", "21", "--format", "csv")
        rows = [[int(v) for v in line.split(",")]
                for line in out.strip().splitlines()]
        R = reduction_matrix(make_modulus(21))
        assert np.array_equal(np.array(rows),
                              np.asarray(R.entries, dtype=np.int64))

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "matrix", "15", "--format", "json")
        obj = json.loads(out)
        R = reduction_matrix(make_modulus(15))
        assert np.array_equal(np.array(obj["entries"]),
                              np.asarray(R.entries, dtype=np.int64))
        assert obj["blocks"] == {"identity": [0, 8], "b1": [8, 10],
                                 "b2": [10, 13], "b3": [13, 15]}
        assert json.loads(run(capsys, "matrix", "9", "--format", "json")[1])[
            "blocks"] is None

    @pytest.mark.parametrize("M", [2, 3, 9, 15, 21, 49, 221])
    def test_csv_streamed_as_one_document(self, capsys, M):
        code, out, _ = run(capsys, "matrix", str(M), "--format", "csv")
        R = reduction_matrix(make_modulus(M))
        assert code == 0
        assert out == R.to_csv() + "\n"

    @pytest.mark.parametrize("M", [2, 3, 9, 15, 21, 49, 221])
    def test_json_streamed_as_one_document(self, capsys, M):
        # the rows are printed one at a time; the bytes are those of the
        # whole document printed at once
        code, out, _ = run(capsys, "matrix", str(M), "--format", "json")
        R = reduction_matrix(make_modulus(M))
        assert code == 0
        assert out == json.dumps(R.to_json_obj(), indent=2) + "\n"


class TestScaledInv:
    def test_construct_text(self, capsys):
        code, out, _ = run(capsys, "scaled-inv", "15", "3", "0")
        assert code == 0
        assert "scale: 5" in out and "case: p_divides_shift" in out

    def test_both_agree(self, capsys):
        code, out, _ = run(capsys, "scaled-inv", "15", "3", "0",
                           "--method", "both")
        assert code == 0
        assert "agree: true" in out

    def test_both_json(self, capsys):
        code, out, _ = run(capsys, "scaled-inv", "21", "9", "2",
                           "--method", "both", "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["agree"] is True
        assert obj["construct"]["scale"] == 3
        assert obj["construct"]["case"] == "q_divides_shift"
        assert set(obj["bezout"]) >= {"M", "phi", "coeffs", "scale", "norm",
                                      "case"}

    def test_bezout_json(self, capsys):
        code, out, _ = run(capsys, "scaled-inv", "16", "9", "1",
                           "--method", "bezout", "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["scale"] == 2 and obj["case"] == "generic"

    def test_bad_range_usage(self, capsys):
        code, _, err = run(capsys, "scaled-inv", "15", "0", "0")
        assert code == 2
        assert "0 <= j < i < M" in err


class TestExpansion:
    def test_single_k(self, capsys):
        code, out, _ = run(capsys, "expansion", "9", "--k", "6",
                           "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["factor"] == 2

    def test_full_report(self, capsys):
        code, out, _ = run(capsys, "expansion", "21", "--format", "json")
        obj = json.loads(out)
        assert obj["max_factor"] == 6 and obj["witness_k"] == 11
        assert len(obj["per_k"]) == 21

    def test_above_the_r_m_ceiling(self, capsys):
        # read at the radical 3: R_59049 itself is never built
        code, out, _ = run(capsys, "expansion", "59049", "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["max_factor"] == 2
        assert obj["witness_k"] == 39366 and len(obj["per_k"]) == 59049

    @pytest.mark.parametrize("M", [2, 15, 4096, 16384])
    def test_streamed_as_one_document(self, capsys, M):
        # per_k and witness_g are written in blocks of cli._PRINT_BLOCK
        # entries (16384 entries and a witness of 8192 make several); the
        # bytes are those of each document printed at once
        m = make_modulus(M)
        report = expansion_mod.max_expansion_factor(m)
        g = list(report.witness_g.coeffs)
        want = {
            "json": json.dumps({"M": M, "per_k": list(report.per_k),
                                "max_factor": report.max_factor,
                                "witness_k": report.witness_k,
                                "witness_g": g}, indent=2) + "\n",
            "text": f"max factor: {report.max_factor} at k = "
                    f"{report.witness_k}\nwitness g = {report.witness_g}\n"
                    f"per-k: {','.join(map(str, report.per_k))}\n",
        }
        for fmt, text in want.items():
            code, out, _ = run(capsys, "expansion", str(M), "--format", fmt)
            assert code == 0 and out == text, fmt
        k = 3 % M
        factor, witness = expansion_mod.monomial_expansion_factor(k, m)
        code, out, _ = run(capsys, "expansion", str(M), "--k", "3",
                           "--format", "json")
        assert code == 0 and out == json.dumps(
            {"M": M, "k": k, "factor": factor,
             "witness_g": list(witness.coeffs)}, indent=2) + "\n"
        code, out, _ = run(capsys, "expansion", str(M), "--k", "3")
        assert code == 0
        assert out == f"k = {k}: factor {factor}, witness g = {witness}\n"


class TestSweep:
    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "sweep", "15")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "i,j,scale,norm,case"
        assert len(lines) == 1 + 15 * 14 // 2

    def test_json_case_max(self, capsys):
        code, out, _ = run(capsys, "sweep", "33", "--format", "json")
        obj = json.loads(out)
        assert obj["case_max"]["coprime"]["norm"] == 2
        assert obj["flagged"] == []

    @pytest.mark.parametrize("M", [2, 3, 15, 35, 100, 143])
    def test_formats_from_gaps_without_profile_rows(self, capsys,
                                                    monkeypatch, M):
        # the text the rows of the profile give, pinned byte for byte,
        # though it is printed a row of i at a time: one pair at M = 2,
        # the self-mirrored gap M/2 at 100, three cases at 143
        prof = sinv.norm_profile(make_modulus(M))
        rows = [[r.i, r.j, r.scale, r.norm, r.case.value] for r in prof.rows]
        case_max = {case.value: {"norm": norm, "i": i, "j": j}
                    for case, (norm, i, j) in prof.case_max.items()}
        want = {
            "csv": "i,j,scale,norm,case\n"
                   + "".join(",".join(map(str, r)) + "\n" for r in rows),
            "json": json.dumps({"M": M, "rows": rows, "case_max": case_max,
                                "flagged": []}, indent=2) + "\n",
        }

        def no_rows(*args):
            raise AssertionError("a ProfileRow was built")

        monkeypatch.setattr(sinv, "ProfileRow", no_rows)
        for fmt, text in want.items():
            code, out, _ = run(capsys, "sweep", str(M), "--format", fmt)
            assert code == 0
            assert out == text, fmt


class TestSelfCheckFailure:
    def test_sweep_reports_without_traceback(self, capsys, monkeypatch):
        def broken(m):
            raise AssertionError(f"batched check failed for M={m.M}, "
                                 f"(i, j)=(1, 0)")

        monkeypatch.setattr(sinv, "norm_profile", broken)
        code, out, err = run(capsys, "sweep", "15")
        assert code == 1
        assert out == ""
        assert err.startswith("error: self-check failed: ")
        assert "M=15, (i, j)=(1, 0)" in err
        assert "Traceback" not in err

    def test_expansion_witness_reported(self, capsys, monkeypatch):
        # the witness's factor, read again, is not the maximum
        real = expansion_mod._factor

        def off_by_one(k, m, base_m, base):
            factor, g = real(k, m, base_m, base)
            return factor + 1, g

        monkeypatch.setattr(expansion_mod, "_factor", off_by_one)
        code, out, err = run(capsys, "expansion", "21")
        assert (code, out) == (1, "")
        assert err == ("error: self-check failed: witness exponent 11 for "
                       "M=21 has factor 7, not the maximum 6\n")

    def test_no_assert_statements(self):
        # python -O strips assert statements: every self-check raises
        # AssertionError itself
        src = Path(cli.__file__).parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []


class TestVerify:
    def test_verify_21_all(self, capsys):
        code, out, _ = run(capsys, "verify", "21", "--suite", "all")
        assert code == 0
        assert "failed" in out and " 0 failed" in out

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "15", "--format", "json",
                           "--trials", "50", "--seed", "1")
        obj = json.loads(out)
        assert code == 0
        assert obj["ok"] is True
        assert obj["totals"]["failed"] == 0
        names = {c["name"] for s in obj["suites"] for c in s["checks"]}
        assert "rev_rotation_columns" in names
        assert all("seconds" in s for s in obj["suites"])

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "9", "--suite", "matrix")
        assert code == 0
        assert "[matrix]" in out and "[lemmas]" not in out

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "verify", "15", "--seed", "7",
                         "--trials", "64", "--format", "json")
        _, out2, _ = run(capsys, "verify", "15", "--seed", "7",
                         "--trials", "64", "--format", "json")
        o1, o2 = json.loads(out1), json.loads(out2)
        for o in (o1, o2):
            for s in o["suites"]:
                s["seconds"] = None
        assert o1 == o2

    def test_unsupported_modulus(self, capsys):
        code, _, err = run(capsys, "verify", "105")
        assert code == 3

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["nonsense", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_usage_error(self, capsys, trials):
        # zero trials would report stride_subset_norm as passed unchecked
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "15", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, message", [
        ("-1", "--seed must be >= 0, got -1"),
        ("x", "--seed wants an integer, got 'x'")], ids=["negative", "text"])
    def test_bad_seed_usage_error(self, capsys, seed, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "35", "--seed", seed])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_run_verify_rejects_negative_seed(self, monkeypatch):
        def no_work(M):
            raise AssertionError("modulus built for a negative seed")

        monkeypatch.setattr(verify_mod, "make_modulus", no_work)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            verify_mod.run_verify(35, seed=-1)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_run_verify_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_mod.run_verify(15, trials=trials)

    def test_run_verify_rejects_unknown_suite(self, monkeypatch):
        def no_work(M):
            raise AssertionError("modulus built for an unknown suite")

        monkeypatch.setattr(verify_mod, "make_modulus", no_work)
        with pytest.raises(ValueError) as exc:
            verify_mod.run_verify(63, "bogus")
        assert "'bogus'" in str(exc.value)
        assert all(name in str(exc.value) for name in verify_mod.SUITE_NAMES)

    # numpy's booleans, which reductions such as (a == b).all() return,
    # count as the Python ones; any other value is a failure's witness
    @pytest.mark.parametrize("value, passed, witness", [
        (np.True_, True, None), (True, True, None), (None, True, None),
        (np.False_, False, "predicate returned false"),
        (False, False, "predicate returned false"),
        (np.int64(1), False, "1"), ("(i,j)=(1,0)", False, "(i,j)=(1,0)")],
        ids=["np.True_", "True", "None", "np.False_", "False", "np.int64",
             "str"])
    def test_check_results(self, value, passed, witness):
        col = verify_mod._Collector()
        col.run("x", lambda: value)
        assert col.results == [verify_mod.CheckResult("x", passed, witness)]


def run_quiet(*argv):
    """cli.main on argv with stdout and stderr captured (no pytest fixture,
    so it can run inside a Hypothesis test)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def supported(M):
    try:
        return make_modulus(M)
    except UnsupportedModulus:
        return None


class TestFuzzedArguments:
    @given(st.integers(-3, 200), st.integers(-10 ** 6, 10 ** 6),
           st.integers(-10 ** 6, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_scaled_inv_exit_codes(self, M, i, j):
        # 3 for an unsupported M, else 2 outside 0 <= j < i < M, else 0
        code, out, err = run_quiet("scaled-inv", M, i, j, "--format", "json")
        m = supported(M)
        if m is None:
            assert (code, out) == (3, ""), err
        elif not 0 <= j < i < M:
            assert (code, out) == (2, ""), err
            assert err.startswith("error: BadRange:")
        else:
            assert code == 0, err
            got = json.loads(out)
            want = sinv.construct_scaled_inverse(i, j, m)
            assert (tuple(got["coeffs"]), got["scale"]) == \
                (want.u.coeffs, want.scale)

    @given(st.sampled_from([2, 4, 6, 9, 12, 15, 21, 35, 45, 63, 75, 125,
                            143, 169, 200]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_in_range_pairs_succeed(self, M, data):
        # the pairs above rarely land in range; draw some that do
        i = data.draw(st.integers(1, M - 1))
        j = data.draw(st.integers(0, i - 1))
        code, out, err = run_quiet("scaled-inv", M, i, j, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["coeffs"] == \
            list(sinv.construct_scaled_inverse(i, j, make_modulus(M)).u.coeffs)

    @given(st.sampled_from([2, 7, 9, 12, 15, 32, 45, 63, 100, 143, 200]),
           st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1,
                    max_size=250))
    @settings(max_examples=40, deadline=None)
    def test_reduce_poly_matches_divrem(self, M, coeffs):
        # the space form, where a leading minus sign must not read as an option
        m = make_modulus(M)
        code, out, err = run_quiet("reduce", M,
                                   "--poly", ",".join(map(str, coeffs)),
                                   "--format", "coeffs")
        assert code == 0, err
        rem = divrem(IntPoly(coeffs), m.poly)[1].coeffs
        assert out.strip() == ",".join(
            map(str, rem + (0,) * (m.phi - len(rem))))
