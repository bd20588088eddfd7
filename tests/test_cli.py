"""Black-box CLI tests: run the package's entry point in a subprocess."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcreduce import __file__ as PACKAGE_INIT
from pcreduce.matrixio import read_matrix_file, read_trace_file

#: source root of the package under test; the subprocess imports it first
SRC = str(Path(PACKAGE_INIT).resolve().parent.parent)

A3_TEXT = "mode=multiplicative\nn=3\n{} {} {}\n".format(
    repr(math.exp(-2.0)), repr(math.exp(3.0)), repr(math.exp(1.0))
)
A4_TEXT = "mode=multiplicative\nn=4\n{} {} 1.0\n{} 1.0\n1.0\n".format(
    repr(math.exp(-2.0)), repr(math.exp(3.0)), repr(math.exp(1.0))
)
B3_TEXT = "mode=additive\nn=3\n-2 3 1\n"
# triad (1,2,3) exactly consistent; p = -1 lands in the indicator's hole
HOLE_TEXT = "mode=multiplicative\nn=4\n2 4 1\n2 1\n1\n"
BAD_GRID_TEXT = "1 2 4\n0.6 1 2\n0.25 0.5 1\n"
HUGE_TEXT = "mode=additive\nn=3\n800 1 1\n"
TINY_TEXT = "mode=additive\nn=3\n-800 1 1\n"
SUBNORMAL_TEXT = "mode=additive\nn=3\n-709 1 1\n"
# a step of 1e307 along this start's direction overflows entry (1,2)
OVERFLOW_TEXT = "mode=additive\nn=4\n1 2 0.5 1.000000001 3 -1\n"


def pcreduce(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pcreduce", *args],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("matrices")
    paths = {}
    for name, text in [("a3", A3_TEXT), ("a4", A4_TEXT), ("b3", B3_TEXT),
                       ("hole", HOLE_TEXT), ("bad", BAD_GRID_TEXT),
                       ("huge", HUGE_TEXT), ("tiny", TINY_TEXT),
                       ("subnormal", SUBNORMAL_TEXT), ("overflow", OVERFLOW_TEXT)]:
        p = d / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestEvaluate:
    def test_default_p(self, files):
        r = pcreduce("evaluate", files["a4"])
        assert r.returncode == 0
        assert r.stdout.strip() == "0.917915"

    def test_p_inf(self, files):
        r = pcreduce("evaluate", files["a4"], "--p", "inf")
        assert r.returncode == 0
        assert r.stdout.strip() == "0.981684"

    def test_additive_input(self, files):
        r = pcreduce("evaluate", files["b3"])
        assert r.returncode == 0
        assert r.stdout.strip() == "0.981684"

    @pytest.mark.parametrize("p", ["1000", "-1000"])
    def test_extreme_p_gives_the_single_defect(self, files, p):
        # the plain power mean overflows here; order 3 has one defect, 4
        r = pcreduce("evaluate", files["b3"], "--p", p)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "0.981684"

    def test_p_zero_rejected_as_usage_error(self, files):
        r = pcreduce("evaluate", files["a4"], "--p", "0")
        assert r.returncode == 1

    @pytest.mark.parametrize("p", ["1e-17", "1e-300", "1e-320", "-1e-7"])
    def test_tiny_p_rejected_as_usage_error(self, files, p):
        # 1/p amplifies rounding until M_p reads 1 whatever the defects
        r = pcreduce("evaluate", files["b3"], "--p", p)
        assert r.returncode == 1
        assert r.stdout == ""
        # argparse reads -1e-7 as an option; the others reach normalize_exponent
        assert ("usage" if p.startswith("-") else "invalid exponent") in r.stderr

    def test_p_garbage_rejected(self, files):
        r = pcreduce("evaluate", files["a4"], "--p", "two")
        assert r.returncode == 1

    def test_negative_p_in_hole_is_domain_error(self, files):
        r = pcreduce("evaluate", files["hole"], "--p", "-1")
        assert r.returncode == 2
        assert "triad" in r.stderr

    def test_bad_matrix_file(self, files):
        r = pcreduce("evaluate", files["bad"])
        assert r.returncode == 1
        assert "reciprocal" in r.stderr

    def test_missing_file(self):
        r = pcreduce("evaluate", "no-such-file.txt")
        assert r.returncode == 1


class TestGradient:
    def test_analytic_order_three(self, files):
        r = pcreduce("gradient", files["a3"])
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "w_1_2 0.135335"
        assert lines[1] == "w_1_3 -0.000912"
        assert lines[2] == "w_2_3 0.006738"

    def test_analytic_p_one_collapses_at_order_three(self, files):
        r = pcreduce("gradient", files["a3"], "--p", "1")
        assert r.returncode == 0

    def test_analytic_p_one_rejected_at_order_four(self, files):
        r = pcreduce("gradient", files["a4"], "--p", "1")
        assert r.returncode == 2
        assert "difference" in r.stderr

    def test_difference_kind(self, files):
        r = pcreduce("gradient", files["a4"], "--p", "1",
                     "--kind", "difference", "--l", "0.001")
        assert r.returncode == 0
        assert len(r.stdout.strip().splitlines()) == 6

    def test_unknown_kind_is_usage_error(self, files):
        r = pcreduce("gradient", files["a4"], "--kind", "newton")
        assert r.returncode == 1


class TestReduce:
    def test_basic_run(self, files, tmp_path):
        trace = tmp_path / "run.trace"
        out = tmp_path / "best.txt"
        r = pcreduce("reduce", files["a3"], "--h", "0.1", "--l", "0.001",
                     "--eps", "0.001", "--trace", str(trace), "--out", str(out))
        assert r.returncode == 0
        lines = dict(
            line.split(" ", 1) for line in r.stdout.strip().splitlines()
        )
        assert lines["stop_reason"] == "converged"
        assert abs(float(lines["a_1_2"]) - 4.045) < 0.05
        assert abs(float(lines["a_1_3"]) - 19.676) < 0.05
        assert abs(float(lines["a_2_3"]) - 4.867) < 0.05
        data = read_trace_file(trace)
        assert data.stop_reason == "converged"
        assert int(lines["best_iter"]) == data.best_iter
        best = read_matrix_file(out)
        assert best.upper == data.best_upper

    def test_additive_scheme_prefix(self, files):
        r = pcreduce("reduce", files["a3"], "--scheme", "additive",
                     "--h", "0.1", "--l", "0.001", "--eps", "0.001")
        assert r.returncode == 0
        assert "b_1_2 " in r.stdout

    def test_l_defaults_for_difference(self, files):
        # the difference direction is the default and so is its increment
        r = pcreduce("reduce", files["a3"], "--h", "0.1")
        assert r.returncode == 0, r.stderr
        assert "stop_reason converged" in r.stdout

    def test_step_overflow_is_positivity_failure(self, files):
        # h * w_1_2 overflows: the run stops and prints its best iterate
        r = pcreduce("reduce", files["overflow"], "--scheme", "additive",
                     "--p", "0.5", "--l", "1e-6", "--h", "1e307")
        assert r.returncode == 2
        assert "stop_reason positivity_failure" in r.stdout
        assert "b_1_2 1.000000" in r.stdout
        assert r.stderr == ""

    def test_indicator_hole_exits_two(self, files, tmp_path):
        # a start in the hole is known before iterate 0: nothing is printed
        # and no file is written
        trace, out = tmp_path / "run.trace", tmp_path / "best.txt"
        r = pcreduce("reduce", files["hole"], "--p", "-1", "--h", "0.002", "--l", "0.1",
                     "--trace", str(trace), "--out", str(out))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "triad (1, 2, 3)" in r.stderr
        assert not trace.exists() and not out.exists()

    @pytest.mark.parametrize("p", ["1", "inf"])
    def test_analytic_nonsmooth_p_rejected_at_order_four(self, files, p):
        # known before iterate 0: no run starts and nothing is printed
        r = pcreduce("reduce", files["a4"], "--gradient", "analytic",
                     "--p", p, "--h", "0.1")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "use the difference gradient" in r.stderr

    def test_analytic_order_three_any_p(self, files):
        r = pcreduce("reduce", files["a3"], "--gradient", "analytic",
                     "--p", "inf", "--h", "0.1", "--eps", "0.001")
        assert r.returncode == 0

    def test_additive_entry_overflowing_exp_is_validation_error(self, files):
        # e^800 is not a float, e^-800 is 0.0 and e^-709 subnormal: the
        # multiplicative scheme cannot start at any of them
        for name, value in [("huge", "800"), ("tiny", "-800"), ("subnormal", "-709")]:
            r = pcreduce("reduce", files[name], "--h", "0.1", "--l", "0.001")
            assert r.returncode == 1
            assert f"additive entry (1,2) = {value}.0 " in r.stderr
            assert "Traceback" not in r.stderr

    def test_bad_h_is_usage_error(self, files):
        r = pcreduce("reduce", files["a3"], "--h", "-0.1", "--l", "0.001")
        assert r.returncode == 1

    def test_infinite_l_is_rejected(self, files):
        # at l = inf every quotient is -0.0, so a run takes only zero steps
        for args in (("gradient", files["a3"], "--kind", "difference"),
                     ("reduce", files["a4"], "--h", "0.1")):
            r = pcreduce(*args, "--l", "inf")
            assert r.returncode == 1
            assert r.stdout == ""
            assert "increment l" in r.stderr

    @pytest.mark.parametrize("eps", ["700", "inf"])
    def test_eps_not_below_one_is_rejected(self, files, eps):
        # K_p < 1: such an eps would report converged at iterate 0
        r = pcreduce("reduce", files["a3"], "--h", "0.1", "--l", "0.001",
                     f"--eps={eps}")
        assert r.returncode == 1
        assert r.stdout == ""
        assert "eps" in r.stderr


class TestRepro:
    def test_full_table(self, tmp_path):
        outdir = tmp_path / "repro"
        r = pcreduce("repro", "--outdir", str(outdir))
        assert r.returncode == 0
        traces = sorted(outdir.glob("*.trace"))
        assert len(traces) == 16
        assert (outdir / "summary.csv").exists()
        report = (outdir / "report.txt").read_text()
        assert report.count("best_iter") == 16
        csv_lines = (outdir / "summary.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 17  # header + one row per run
        # stdout carries the same report
        assert "01_mult3_h0.1_l0.001" in r.stdout


class TestUsage:
    def test_no_arguments(self):
        r = pcreduce()
        assert r.returncode == 1

    def test_unknown_subcommand(self):
        r = pcreduce("optimize")
        assert r.returncode == 1
