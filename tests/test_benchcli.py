"""Benchmark CLI: subcommands, CSV format, exit codes, and determinism."""

import io
import json
import math
import re

import numpy as np
import pytest

import oscquad.baselines
import oscquad.benchcli
from oscquad.baselines import reference_oracle
from oscquad.benchcli import (
    CSV_HEADER,
    RunRecord,
    parse_csv,
    run_command,
    write_csv,
)
from oscquad.problem import builtin_problem
from oscquad.quadrature import Method, compute


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def sample_record(**over):
    base = dict(
        problem="ex51",
        method="levin",
        kind="algebraic",
        alpha=0.5,
        s=0,
        n=8,
        w=100.0,
        value_re=0.125,
        value_im=-0.5,
        abs_err=1e-9,
        rel_err=2e-9,
        scaled_err=3e-5,
        time_ns=123456,
    )
    base.update(over)
    return RunRecord(**base)


class TestCsv:
    def test_header_and_two_lines(self):
        sink = io.StringIO()
        write_csv([sample_record()], sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_round_trip(self):
        recs = [
            sample_record(),
            sample_record(method="filon", w=1e4, value_re=-0.25, time_ns=1),
        ]
        sink = io.StringIO()
        write_csv(recs, sink)
        back = parse_csv(sink.getvalue())
        assert back == recs

    def test_streaming_many_records(self):
        recs = [sample_record(n=k) for k in range(10000)]
        sink = io.StringIO()
        write_csv(recs, sink)
        text = sink.getvalue()
        assert text.count("\n") == 10001
        assert parse_csv(text)[-1].n == 9999

    def test_rows_are_the_fields_in_order(self):
        # Each row is the record's fields in column order, as the deep
        # dataclasses.astuple copy wrote them, including non-finite floats.
        from dataclasses import astuple

        recs = [sample_record(), sample_record(value_re=-0.0, abs_err=math.inf, rel_err=math.nan, n=-3)]
        sink = io.StringIO()
        write_csv(recs, sink)
        rows = [",".join(map(oscquad.benchcli._fmt, astuple(r))) for r in recs]
        assert sink.getvalue() == "\n".join([CSV_HEADER, *rows]) + "\n"

    def test_bad_header_rejected(self):
        from oscquad.errors import ParameterError

        with pytest.raises(ParameterError):
            parse_csv("nope\n1,2,3\n")


class TestEval:
    def test_json_output(self):
        code, out, err = run(
            ["eval", "--problem", "ex51", "--alpha", "0.5",
             "--w", "100", "--n", "12", "--method", "levin"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["method"] == "levin-physical"
        assert doc["diagnostics"]["n"] == 12
        assert math.isfinite(doc["value_re"]) and math.isfinite(doc["value_im"])
        assert doc["diagnostics"]["residual_norm"] <= 1e-10

    def test_value_matches_oracle(self):
        code, out, _ = run(
            ["eval", "--problem", "ex52", "--alpha", "-0.5",
             "--w", "100", "--n", "16", "--method", "levin"]
        )
        assert code == 0
        doc = json.loads(out)
        ref = reference_oracle(builtin_problem("ex52", -0.5, 100.0))
        got = complex(doc["value_re"], doc["value_im"])
        assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_custom_polynomial_problem(self):
        # f = 1 - x, g = x on [0, 1]: checked against the oracle.
        code, out, _ = run(
            ["eval", "--f-poly", "1,-1", "--g-poly", "0,1",
             "--alpha", "0.5", "--w", "50", "--n", "12",
             "--method", "levin"]
        )
        assert code == 0
        doc = json.loads(out)
        got = complex(doc["value_re"], doc["value_im"])
        from oscquad.problem import Amplitude, Oscillator, SingKind, build_problem

        spec = build_problem(
            amplitude=Amplitude.from_poly([1.0, -1.0]),
            oscillator=Oscillator.from_poly([0.0, 1.0]),
            a=1.0,
            alpha=0.5,
            kind=SingKind.ALGEBRAIC,
            w=50.0,
        )
        ref = reference_oracle(spec)
        assert abs(got - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("pid, w, method, n, s", [
        ("ex51", "100", "levin-physical", 12, 0),
        ("ex51", "1", "levin-physical", 16, 0),
        ("ex53b", "100", "levin-freq", 8, 1),
        ("ex52", "100", "filon", 6, 1),
        ("ex54", "100", "cmfp", 4, 0),
        ("ex51", "50", "oracle", 8, 0),
    ])
    def test_prints_computes_diagnostics(self, pid, w, method, n, s):
        # The printed line is json.dumps of compute's value and diagnostics,
        # with the method, n and s beside them.  At w = 1 the ex51 operator
        # is factored by truncated SVD.
        code, out, _ = run(["eval", "--problem", pid, "--alpha", "0.5", "--w", w, "--n", str(n),
                            "--s", str(s), "--method", method])
        result = compute(builtin_problem(pid, 0.5, float(w)), Method(method), n, s)
        if w == "1":
            assert result.diagnostics["factor"] == "tsvd"
        diagnostics = {**result.diagnostics, "method": method, "n": result.n, "s": result.s}
        payload = {"value_re": result.value.real, "value_im": result.value.imag, "diagnostics": diagnostics}
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True) + "\n"

    def test_unknown_method_exit_2(self):
        code, _, err = run(
            ["eval", "--problem", "ex51", "--alpha", "0.5",
             "--w", "100", "--n", "8", "--method", "simpson"]
        )
        assert code == 2
        assert "method" in err

    @pytest.mark.parametrize("argv", [
        ["--problem", "ex52", "--w", "nan"],
        ["--problem", "ex52", "--w", "inf"],
        ["--problem", "ex51", "--w=-inf"],
        ["--f-poly", "1,-1", "--g-poly", "0,1,1", "--w", "10", "--a", "inf"],
        ["--f-poly", "1,-1", "--g-poly", "0,1,1", "--w", "10", "--a", "1e308"],
        ["--f-poly", "1,-1", "--g-poly", "0,1+1j", "--w", "100"],
    ])
    def test_non_finite_or_extreme_argument_exit_2(self, argv):
        # A non-finite w or a is refused by build_problem; an a at which
        # w a overflows is refused when the problem is mapped onto [0, 1];
        # a g coefficient with an imaginary part makes a bad coefficient
        # list rather than being cut to its real part.
        with np.errstate(all="ignore"):
            code, _, err = run(["eval", "--alpha", "0.5", "--n", "8"] + argv)
        assert code == 2
        assert "error:" in err

    def test_overflowing_w_a_exit_2(self):
        with np.errstate(all="ignore"):  # g' overflows in build_problem's monotonicity check
            code, _, err = run(["eval", "--alpha", "0.5", "--n", "8", "--f-poly", "1,-1",
                                "--g-poly", "0,1,1", "--w", "10", "--a", "1e308"])
        assert code == 2
        assert "w a = 10.0 * 1e+308 overflows" in err

    def test_cmfp_mesh_beyond_documented_w_exit_3(self):
        code, out, err = run(["eval", "--problem", "ex54", "--alpha", "0.5",
                              "--w", "1e200", "--n", "4", "--method", "cmfp"])
        assert code == 3
        assert out == ""
        assert "sub-panels" in err

    @pytest.mark.parametrize("problem, w, method", [
        ("ex53a", "1.7e308", "levin"),
        ("ex53a", "1e306", "levin-freq"),
        ("ex53b", "1e306", "levin-freq"),
    ])
    def test_svd_failure_exit_4(self, problem, w, method):
        # The collocation matrix overflows, its SVD does not converge, and
        # the call is an accuracy failure rather than a traceback.
        with np.errstate(all="ignore"):
            code, _, err = run(["eval", "--problem", problem, "--alpha", "0.5",
                                "--w", w, "--n", "8", "--s", "1" if method == "levin-freq" else "0",
                                "--method", method])
        assert code == 4
        assert "SVD" in err

    @pytest.mark.parametrize("problem", [
        pytest.param(["--problem", "ex51", "--w", "1e306"], id="1e306"),
        pytest.param(["--problem", "ex51", "--w", "1e-300"], id="1e-300"),
        pytest.param(["--f-poly", "1", "--g-poly", "0,1", "--a", "1e33", "--w", "10"], id="a1e33"),
    ])
    def test_filon_outside_documented_w_exit_4(self, problem):
        # The moments' incomplete gamma overflows, (-iw)^(1+alpha)
        # underflows, or, at w a = 1e34, g(a)^(j+alpha) overflows: an
        # accuracy failure, not a traceback.
        with np.errstate(all="ignore"):
            code, _, err = run(["eval", *problem, "--alpha", "0.5", "--n", "8", "--s", "1", "--method", "filon"])
        assert code == 4
        assert "accuracy error" in err

    def test_capability_refusal_exit_3(self):
        # CMFP on a nonlinear oscillator, and on a linear one on [0, 2],
        # whose meshes on [0, 1] would miss (1, 2].
        for problem in (["--problem", "ex53a"], ["--f-poly", "1,-0.3", "--g-poly", "0,1", "--a", "2"]):
            code, _, err = run(["eval", *problem, "--alpha", "0.5", "--w", "100", "--n", "4", "--method", "cmfp"])
            assert code == 3

    def test_non_finite_value_exit_4(self):
        # The oracle reference is not finite at alpha = -0.99: an accuracy
        # failure (exit 4), not bad arguments (exit 2).
        with np.errstate(all="ignore"):
            code, _, err = run(
                ["compare", "--problem", "ex51", "--alpha", "-0.99", "--s", "0",
                 "--w", "1.0", "--n", "8"]
            )
        assert code == 4
        assert "accuracy error" in err

    def test_oracle_cap_exit_3(self):
        code, _, _ = run(
            ["eval", "--problem", "ex51", "--alpha", "0.5",
             "--w", "1e6", "--n", "8", "--method", "oracle"]
        )
        assert code == 3


class TestSweeps:
    def test_sweep_n_error_pins(self):
        code, out, _ = run(
            ["sweep-n", "--problem", "ex53a", "--alpha", "0.5",
             "--w", "100", "--s", "0",
             "--n", "4,6,8,10,12,14", "--method", "levin,filon"]
        )
        assert code == 0
        recs = parse_csv(out)
        assert len(recs) == 12
        assert {r.method for r in recs} == {"levin-physical", "filon"}
        levin_ns = [r.n for r in recs if r.method == "levin-physical"]
        assert levin_ns == [4, 6, 8, 10, 12, 14]
        levin4 = next(r for r in recs if r.method == "levin-physical" and r.n == 4)
        filon4 = next(r for r in recs if r.method == "filon" and r.n == 4)
        assert 1.5382e-05 / 3.0 <= levin4.abs_err <= 1.5382e-05 * 3.0
        assert 4.3048e-05 / 3.0 <= filon4.abs_err <= 4.3048e-05 * 3.0

    def test_sweep_w_scaled_err_flat(self):
        # scaled_err = abs_err |w|^order / delta_alpha stays flat across two
        # decades when the collocation error dominates the reference noise.
        code, out, _ = run(
            ["sweep-w", "--problem", "ex51", "--alpha", "0.5",
             "--w", "100,316,1000,3162,10000", "--n", "4",
             "--s", "1", "--method", "levin"]
        )
        assert code == 0
        recs = parse_csv(out)
        vals = [r.scaled_err for r in recs]
        assert max(vals) / min(vals) <= 10.0

    def test_empty_w_list_exit_2(self):
        # ex52's amplitude does not depend on w, so only the check of w
        # itself refuses a non-finite one.
        for problem, w in (("ex51", ""), ("ex52", "10,nan"), ("ex52", "10,inf")):
            code, _, err = run(
                ["sweep-w", "--problem", problem, "--alpha", "0.5",
                 "--w", w, "--n", "8", "--method", "levin"]
            )
            assert code == 2

    def test_determinism_modulo_time(self):
        argv = ["sweep-n", "--problem", "ex51", "--alpha", "-0.5",
                "--w", "300", "--n", "4,8,12", "--method", "levin,filon"]
        _, out1, _ = run(argv)
        _, out2, _ = run(argv)
        strip = lambda text: re.sub(r",\d+$", ",T", text, flags=re.M)
        assert strip(out1) == strip(out2)


class TestCompare:
    def test_compare_emits_ref_kind(self):
        # |w| g(a) = 50 is below the NSD crossover: the oracle is the reference.
        code, out, err = run(
            ["compare", "--problem", "ex51", "--alpha", "0.5",
             "--w", "50", "--n", "8"]
        )
        assert code == 0
        assert "# ref_kind=oracle" in err
        recs = parse_csv(out)
        assert {r.method for r in recs} >= {"levin-physical", "cmfp", "oracle"}

    @pytest.mark.parametrize("problem", [["--problem", pid] for pid in ("ex51", "ex52", "ex53a", "ex53b", "ex54")]
                             + [["--f-poly", "1,-1", "--g-poly", g]
                                for g in ("0,1", "0,2.5,0,0", "3,-1", "1,2", "0,1,0.3", "0,1,0,0.1")]
                             + [["--f-poly", "1,-0.3", "--g-poly", "0,1", "--a", "2"],
                                ["--f-poly", "1,-0.3", "--g-poly", "0,1", "--w", "1e-3"]])
    def test_cmfp_row_where_g_is_linear(self, problem):
        # compare lists cmfp exactly where the problem's g is linear once
        # build_problem has shifted it to g(0) = 0 and made it increasing,
        # on [0, 1] and with |w| g'(0) >= 1 (a later --w replaces 50).
        argv = ["compare", "--alpha", "0.5", "--w", "50", "--n", "4", *problem]
        code, out, _ = run(argv)
        assert code == 0
        args = oscquad.benchcli._parse(argv)
        spec = oscquad.benchcli._build_spec(args, args.w)
        poly = spec.oscillator.poly
        linear = poly is not None and np.trim_zeros(poly, "b").size <= 2
        applies = linear and spec.a == 1.0 and abs(spec.w) * poly[1] >= 1.0
        assert ("cmfp" in {r.method for r in parse_csv(out)}) == applies

    def test_compare_nsd_reference(self):
        # Above the crossover the reference is NSD; the oracle row (still
        # under the phase cap) agrees with it.
        code, out, err = run(
            ["compare", "--problem", "ex53a", "--alpha", "-0.5",
             "--w", "500", "--n", "8"]
        )
        assert code == 0
        assert "# ref_kind=nsd" in err
        recs = parse_csv(out)
        oracle = next(r for r in recs if r.method == "oracle")
        assert oracle.rel_err <= 1e-13

    def test_compare_high_w_self_reference(self):
        # A cubic g is outside NSD's scope, so above the oracle's phase cap
        # the reference is the n=32, s=2 Levin value.
        code, out, err = run(
            ["compare", "--f-poly", "1,0.5", "--g-poly", "0,1,0.5,0.25",
             "--alpha", "0.5", "--w", "2e4", "--n", "8"]
        )
        assert code == 0
        assert "# ref_kind=levin-n32-s2" in err
        recs = parse_csv(out)
        assert "oracle" not in {r.method for r in recs}

    def test_nsd_refusal_falls_back(self):
        # ex52 below |w| = 70 puts its pole too close to NSD's nodes: the
        # reference falls back to the oracle, rows and exit code unchanged.
        argv = ["compare", "--problem", "ex52", "--alpha", "0.5", "--w", "60", "--n", "8"]
        code, _, err = run(argv)
        assert code == 0
        assert "# ref_kind=oracle" in err

    @pytest.mark.parametrize("argv", [
        ["compare", "--problem", "ex53a", "--alpha", "-0.5", "--w", "30", "--n", "8"],
        ["compare", "--problem", "ex53a", "--alpha", "-0.5", "--w", "500", "--n", "8"],
        ["sweep-w", "--problem", "ex51", "--alpha", "0.5", "--w", "20,300,300",
         "--n", "8", "--method", "oracle,levin"],
    ])
    def test_one_oracle_call_per_spec(self, monkeypatch, argv):
        # The oracle row reuses the reference's oracle value and its time.
        calls = []
        original = oscquad.benchcli.reference_oracle

        def counting(spec):
            calls.append(spec.w)
            return original(spec)

        for module in (oscquad.benchcli, oscquad.baselines):
            monkeypatch.setattr(module, "reference_oracle", counting)
        code, out, _ = run(argv)
        assert code == 0
        assert len(calls) == len(set(calls))
        recs = parse_csv(out)
        assert len(calls) == len({r.w for r in recs if r.method == "oracle"})
        monkeypatch.undo()
        for rec in recs:
            if rec.method == "oracle":
                spec = builtin_problem(rec.problem, rec.alpha, rec.w)
                assert complex(rec.value_re, rec.value_im) == reference_oracle(spec)
                assert rec.time_ns > 0

    @pytest.mark.parametrize("argv", [
        ["sweep-n", "--problem", "ex51", "--alpha", "-0.5", "--w", "300",
         "--n", "4,8,12", "--method", "levin,filon"],
        ["sweep-w", "--problem", "ex53a", "--alpha", "0.5", "--w", "50,500",
         "--n", "8", "--method", "levin,oracle"],
        ["compare", "--problem", "ex51", "--alpha", "0.5", "--w", "50", "--n", "8"],
    ])
    def test_one_problem_build_per_frequency(self, monkeypatch, argv):
        # The reference and every row at one w share one built problem.
        calls = []
        original = oscquad.benchcli.builtin_problem

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oscquad.benchcli, "builtin_problem", counting)
        code, out, _ = run(argv)
        assert code == 0
        assert len(calls) == len({r.w for r in parse_csv(out)})


class TestParserOncePerProcess:
    def test_reused_parser_matches_fresh_parsers(self, monkeypatch):
        # One process runs several invocations on the memoised parser; their
        # stdout (time column masked) and exit codes equal those of a fresh
        # parser per call.
        calls = [
            ["sweep-w", "--problem", "ex51", "--alpha", "0.5",
             "--w", "10,100", "--n", "8", "--method", "levin"],
            ["sweep-w", "--problem", "ex51", "--alpha", "0.5", "--n", "x"],
            ["compare", "--problem", "ex53a", "--alpha", "-0.5",
             "--w", "50", "--n", "8"],
            ["sweep-w", "--problem", "ex52", "--alpha", "-0.3",
             "--w", "20,2000", "--n", "10", "--s", "1", "--method", "levin"],
        ]
        strip = lambda text: re.sub(r",\d+$", ",T", text, flags=re.M)

        def run_all():
            out = []
            for argv in calls:
                code, text, _ = run(argv)
                out.append((code, strip(text)))
            return out

        reused = run_all()
        assert len(oscquad.benchcli._make_parser.cache) == 1
        monkeypatch.setattr(
            oscquad.benchcli, "_make_parser", oscquad.benchcli._make_parser.__wrapped__
        )
        assert run_all() == reused
        assert [code for code, _ in reused] == [0, 2, 0, 0]


    @pytest.mark.parametrize("argv", [
        ["sweep-w", "--problem", "ex51", "--alpha", "0.5", "--w", "10,100", "--n", "8"],
        ["sweep-n", "--problem", "ex53a", "--alpha", "-0.5", "--w", "50", "--n", "8,10", "--method", "filon"],
        ["eval", "--f-poly", "1,2", "--g-poly", "0,1", "--alpha", "0.5", "--w", "3", "--n", "6", "--s", "1"],
    ])
    def test_one_pass_namespace_is_the_parsers(self, argv):
        parser, _ = oscquad.benchcli._make_parser()
        assert vars(oscquad.benchcli._parse(argv)) == vars(parser.parse_known_args(argv)[0])

    @pytest.mark.parametrize("argv", [
        ["sweep-w", "--problem", "ex51", "--alpha", "0.5", "--w", "10", "--n", "8", "--bogus", "1"],
        ["sweep-n", "--problem", "ex51", "--alpha", "0.5"],
        ["compare", "--problem", "ex53a", "--alpha", "-0.5", "--w", "50", "--n", "8", "--", "x"],
        ["sweep-w", "--help"],
        ["bogus"],
        ["-h"],
        [],
    ])
    def test_refusals_are_the_parsers(self, capsys, argv):
        # Exit code, stdout and stderr of a refused or help invocation are
        # those of the parser's own parse_args.
        parser, _ = oscquad.benchcli._make_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        want = (exc.value.code, *capsys.readouterr())
        out = io.StringIO()
        code = run_command(argv, stdout=out, stderr=io.StringIO())
        assert (code, *capsys.readouterr()) == want
        assert out.getvalue() == ""

    def test_unknown_flag_after_command_exit_2(self, capsys):
        code, _, _ = run(["sweep-w", "--problem", "ex51", "--alpha", "0.5", "--w", "10", "--n", "8", "--bogus"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err[0].startswith("usage: oscquad-bench [-h] {eval,sweep-w,sweep-n,compare} ...")
        assert err[-1] == "oscquad-bench: error: unrecognized arguments: --bogus"


class TestConfigAndOutput:
    def test_config_file_seeds_options(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("problem=ex51\nalpha=0.5\nw=100\nn=8\nmethod=levin\n")
        code, out, _ = run(["eval", "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["diagnostics"]["n"] == 8

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("problem=ex51\nalpha=0.5\nw=100\nn=8\nmethod=levin\n")
        code, out, _ = run(["eval", "--config", str(cfg), "--n", "12"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["n"] == 12

    def test_missing_config_exit_5(self):
        code, _, _ = run(
            ["eval", "--config", "/nonexistent/path.cfg",
             "--problem", "ex51", "--alpha", "0.5", "--w", "10", "--n", "8"]
        )
        assert code == 5

    def test_output_file(self, tmp_path):
        dest = tmp_path / "rows.csv"
        code, out, _ = run(
            ["sweep-n", "--problem", "ex51", "--alpha", "0.5",
             "--w", "100", "--n", "4,8", "--method", "levin",
             "--output", str(dest)]
        )
        assert code == 0
        assert out == ""
        recs = parse_csv(dest.read_text())
        assert len(recs) == 2

    def test_unwritable_output_exit_5(self):
        code, _, _ = run(
            ["sweep-n", "--problem", "ex51", "--alpha", "0.5",
             "--w", "100", "--n", "4", "--method", "levin",
             "--output", "/nonexistent-dir/rows.csv"]
        )
        assert code == 5


class TestModuleEntry:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "oscquad", "eval", "--problem", "ex51",
             "--alpha", "0.5", "--w", "50", "--n", "8"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["diagnostics"]["method"] == "levin-physical"

    @pytest.mark.parametrize("argv, code, line", [
        pytest.param(["--problem", "ex51", "--method", "levin-freq", "--w", "100", "--s", "3000"], 3,
                     "capability error: basis size 6007 exceeds the supported cap 40", id="levin-freq-s3000"),
        pytest.param(["--problem", "ex51", "--method", "filon", "--w", "100", "--s", "3000"], 3,
                     "capability error: basis size 6008 exceeds the supported cap 40", id="filon-s3000"),
        pytest.param(["--f-poly", "1", "--g-poly", "0,1", "--a", "1e33", "--method", "filon", "--w", "10", "--s", "1"],
                     4, "accuracy error: z**a overflows at |z| = 1e+33, a = 9.5", id="filon-a1e33"),
        pytest.param(["--f-poly", "1", "--g-poly", "0,1", "--a", "1e-40", "--method", "filon", "--w", "10", "--s", "1"],
                     4, "accuracy error: z**a overflows at |z| = 1e-40, a = -9", id="filon-a1e-40"),
    ])
    def test_refusal_writes_its_error_line_alone(self, argv, code, line):
        # The basis cap refuses before the layout's factorials overflow (s >=
        # 171), g(a)^(j + alpha) overflows in the moments before FILON's
        # column recurrence would, and a tiny g(a)'s largest column scale
        # g(a)^(1 - M1) is refused before it is formed: no NumPy warning
        # reaches stderr.
        import subprocess
        import sys

        proc = subprocess.run([sys.executable, "-m", "oscquad", "eval", *argv, "--alpha", "0.5", "--n", "8"],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", line + "\n")
