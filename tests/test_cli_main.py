"""In-process CLI tests: call cli.main and capture what it prints."""

import contextlib
import dataclasses
import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from pcreduce import cli
from pcreduce.cli import build_parser, main
from pcreduce.core import MAX_ORDER, triad_slots, upper_size
from pcreduce.descent import DescentConfig
from pcreduce.repro import START3_ADD, START3_MULT, START4_MULT

#: the bundled reference starts, as (mode, order, upper triangle)
STARTS = {
    "mult3": ("multiplicative", 3, START3_MULT),
    "add3": ("additive", 3, START3_ADD),
    "start4": ("multiplicative", 4, START4_MULT),
}

# sha256 of the label, exit code and stdout of every run in pinned_runs(),
# recorded before the descent loop moved onto raw log-coordinate tuples.
# A change meant to alter these outputs updates it and says why in CHANGES.md.
PINNED_SHA256 = "5e6b866e0405bc0a3604242d75b3fb20b20a33ea9ba9a78c2f3a6bfa07cb528e"

#: option values at the edges of what the parsers accept
EDGE_VALUES = ("inf", "nan", "1e300", "-1e300", "1e-300", "-1", "700", "0.1", "2",
               "-1e-6")
EDGE_ENTRIES = (1e-300, 1e300, 1.7e308, -1.7e308, 710.0, -3.0, 0.5, 1.0, 2.0)


def matrix_text(mode, n, upper):
    return f"mode={mode}\nn={n}\n" + " ".join(repr(x) for x in upper) + "\n"


def call(argv):
    """Exit code and stdout of one cli.main call; argparse exits through SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def pinned_runs():
    """(start name, arguments after the matrix file) of every pinned run."""
    for name, (_, n, _) in STARTS.items():
        for p in ("1", "2", "0.5", "inf", "-1", "3.7"):
            for kind in ("analytic", "difference"):
                for l in ("1e-3", "0.1"):
                    yield name, ["gradient", f"--p={p}", "--kind", kind, "--l", l]
            for scheme in ("multiplicative", "additive"):
                head = ["reduce", f"--p={p}", "--scheme", scheme, "--h", "0.1",
                        "--max-iter", "300"]
                yield name, head + ["--gradient", "difference", "--l", "1e-3"]
                # the order-3 analytic route takes every p; above it only smooth p
                if n == 3 or p not in ("1", "inf"):
                    yield name, head + ["--gradient", "analytic"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_main")


def test_gradient_and_reduce_outputs_are_pinned(workdir):
    paths = {}
    for name, (mode, n, upper) in STARTS.items():
        paths[name] = workdir / f"{name}.txt"
        paths[name].write_text(matrix_text(mode, n, upper))
    digest = hashlib.sha256()
    for name, args in pinned_runs():
        code, stdout = call([args[0], str(paths[name]), *args[1:]])
        digest.update(f"{name} {' '.join(args)}\n{code}\n{stdout}".encode())
    assert digest.hexdigest() == PINNED_SHA256


@st.composite
def edge_invocations(draw):
    """A small matrix file and an evaluate/gradient/reduce argv for it."""
    mode = draw(st.sampled_from(("multiplicative", "additive")))
    n = draw(st.integers(min_value=3, max_value=5))
    k = upper_size(n)
    upper = draw(st.lists(st.sampled_from(EDGE_ENTRIES), min_size=k, max_size=k))
    command = draw(st.sampled_from(("evaluate", "gradient", "reduce")))
    options = {"evaluate": ("--p",), "gradient": ("--p", "--l"),
               "reduce": ("--p", "--eps")}[command]
    argv = [command]
    for option in options:
        if draw(st.booleans()):
            argv.append(f"{option}={draw(st.sampled_from(EDGE_VALUES))}")
    if command == "gradient":
        argv += ["--kind", draw(st.sampled_from(("analytic", "difference")))]
    if command == "reduce":
        argv += [f"--h={draw(st.sampled_from(EDGE_VALUES))}",
                 f"--l={draw(st.sampled_from(EDGE_VALUES))}",
                 "--scheme", draw(st.sampled_from(("multiplicative", "additive"))),
                 "--gradient", draw(st.sampled_from(("analytic", "difference"))),
                 "--max-iter", str(draw(st.integers(min_value=1, max_value=20)))]
    return matrix_text(mode, n, upper), argv


@given(edge_invocations())
@settings(max_examples=300, deadline=None)
def test_any_edge_invocation_exits_cleanly(workdir, invocation):
    text, argv = invocation
    path = workdir / "fuzz.txt"
    path.write_text(text)
    code, stdout = call([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2)
    assert "nan" not in stdout


@pytest.mark.parametrize("form", ["header", "grid", "tall_grid"])
@pytest.mark.parametrize("argv", [["evaluate"], ["gradient"], ["reduce", "--h=0.1"]],
                         ids=lambda argv: argv[0])
def test_order_above_max_exits_one_before_any_table(workdir, form, argv):
    n = 300 if form == "tall_grid" else MAX_ORDER + 1
    path = workdir / f"order_{form}.txt"
    path.write_text(f"n={n}\n" if form == "header"
                    else "\n".join(" ".join(["1"] * n) for _ in range(n)) + "\n")
    before = triad_slots.cache_info().currsize
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code == 1
    assert err.getvalue() == f"pcreduce: error: matrix order must be <= {MAX_ORDER}, got {n}\n"
    assert triad_slots.cache_info().currsize == before


def test_overflowing_mean_reads_one(workdir):
    # triad defects inf, 1e308, 1e308, 1e308: at p = -1e-6 the root of even
    # the scaled power mean overflows, and K_p reads 1
    path = workdir / "overflow.txt"
    path.write_text(matrix_text("additive", 4, (1e308, -1e308, 0.0, 1e308, 0.0, 0.0)))
    assert call(["evaluate", str(path), "--p=-1e-6"]) == (0, "1.000000\n")


def test_a_nonzero_entry_never_prints_as_zero(workdir):
    # six decimals would print the first entry, about 1.015e-07, as 0.000000
    path = workdir / "tiny_entry.txt"
    path.write_text("n=3\n1e-7 2 3\n")
    code, out = call(["reduce", str(path), "--h", "1e-9", "--max-iter", "1"])
    assert code == 0
    assert out.splitlines()[3] == "a_1_2 1.0150000000000006e-07"


@pytest.mark.parametrize("option", ["--trace", "--out"])
def test_reduce_prints_nothing_when_an_output_file_fails(workdir, option):
    # the files are written before the result is printed, so a file that
    # cannot be written leaves stdout empty rather than showing a success
    path = workdir / "unwritable.txt"
    path.write_text(matrix_text(*STARTS["start4"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce", str(path), "--h", "1", "--p", "2", option, str(workdir)])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("pcreduce: error: ")
    assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("option", ["--trace", "--out"])
def test_reduce_checks_its_output_files_before_the_run(workdir, option, monkeypatch):
    # an output file that cannot be written fails before any iterate is computed
    path = workdir / "never_run.txt"
    path.write_text(matrix_text(*STARTS["start4"]))

    def unreached(m, cfg):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(cli, "run", unreached)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce", str(path), "--h", "1", "--p", "2", option, str(workdir)])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("pcreduce: error: ")
    assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("x, text", [(0.25, "0.250000"), (0.0, "0.000000"),
                                     (-0.0, "-0.000000"), (4e-7, "4e-07"),
                                     (-1e-300, "-1e-300"), (6e-7, "0.000001"),
                                     (1e15, "1000000000000000.0"), (-1e308, "-1e+308"),
                                     (999999999999999.9, "999999999999999.875000"),
                                     (float("inf"), "inf"), (float("nan"), "nan")])
def test_values_print_with_six_decimals_unless_those_mislead(x, text):
    assert cli.format_value(x) == text


def test_nan_defect_gives_nan_component(workdir):
    # the quotient for b_1_3 moves that log to inf, so triad (1,2,3) reads
    # inf - inf = nan ahead of a 1e308 defect: K_p and w_1_3 are nan
    path = workdir / "nan_defect.txt"
    path.write_text(matrix_text("additive", 4, (1e308, 1e308, 0.0, 1e308, 0.0, 0.0)))
    code, out = call(["gradient", str(path), "--p", "2", "--kind", "difference",
                      "--l", "1e308"])
    assert code == 0
    assert out.splitlines()[1] == "w_1_3 nan"


def test_a_stray_value_error_is_not_reported_as_a_user_error(workdir, monkeypatch):
    # exit 1 is for rejected input (ValidationError) and OS errors; any other
    # ValueError is a fault of the program and propagates
    path = workdir / "stray.txt"
    path.write_text(matrix_text(*STARTS["mult3"]))

    def stray(m, p):
        raise ValueError("stray")

    monkeypatch.setattr(cli, "kii", stray)
    with pytest.raises(ValueError, match="stray"):
        main(["evaluate", str(path)])


def test_reduce_defaults_are_the_descent_config_defaults():
    args = build_parser().parse_args(["reduce", "m.txt", "--h", "0.1"])
    defaults = {f.name: f.default for f in dataclasses.fields(DescentConfig)
                if f.default is not dataclasses.MISSING}
    assert set(defaults) == {"scheme", "gradient", "l", "eps", "max_iter", "stall_window"}
    assert {name: getattr(args, name) for name in defaults} == defaults
    # gradient's difference increment is the same default
    assert build_parser().parse_args(["gradient", "m.txt"]).l == defaults["l"]
