"""Property tests on arbitrary input: the file parsers and the command line
end in a value, a ParseError or an exit code, never in another exception.

Sizes are drawn well below the caps (dim, grid, depth, trials): a cap is
tested at cap + 1 elsewhere, never by allocating at it.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wcslab.cli import main
from wcslab.specfiles import ParseError, load_surfaces, load_symbol, parse_sections

JUNK = st.text(max_size=12)

NUMBERS = st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "-3/2", "0.5", "1e3", "1e-400",
                           "nan", "inf", "-inf", "9" * 40, "1/0", "x", ""])
MATRICES = st.sampled_from(["1", "0", "1 0; 0 1", "1 2; 3", "1j", "1 0; 0 -1", "a b; c d",
                            "1;;", ";", "1e308 1e308; 1e308 1e308"])
HEADERS = st.sampled_from(["[component degree=0]", "[component degree=-1]",
                           "[component degree=-2]", "[component degree=1/2]",
                           "[component degree=x]", "[component]", "[surface s]",
                           "[surface t u]", "[surface]", "[nope]", "[", "[]", "[ ]"])
KEYS = st.sampled_from(["order", "dim", "grid", "plus", "minus", "plus_cos1", "minus_sin2",
                        "plus_cos" + "9" * 400, "plus_cosx", "type", "a", "b", "sigma",
                        "vol", "r_inf", "", "#"])
VALUES = NUMBERS | MATRICES | st.sampled_from(["t4", "cp2", "cp1xcp1", "generic", "16", "32"])
LINES = HEADERS | st.builds("{} = {}".format, KEYS, VALUES) | JUNK
# Valid openings, so that lines drawn after them reach the value checks.
OPENINGS = st.sampled_from(["", "order = 0\ndim = 1\n[component degree=0]\nplus = 1\nminus = 1",
                            "order = -1\ndim = 2\ngrid = 16\n[component degree=-1]",
                            "[surface s]\ntype = generic", "[surface s]\ntype = cp1xcp1"])
SPEC_TEXT = st.builds("{}\n{}".format, OPENINGS, st.lists(LINES, max_size=14).map("\n".join)) | \
    st.text(max_size=200)


@settings(max_examples=300, deadline=None)
@given(SPEC_TEXT)
def test_spec_parsers_return_or_raise_parse_error(text):
    for parse in (parse_sections, load_symbol, load_surfaces):
        try:
            parse(text)
        except ParseError:
            pass


# Real subcommands, flags and values, plus junk.  Sizes stay small: the
# default psdo run is not reachable (no symbol file is ever valid), and
# --grid/--trials/--depth values are small or invalid.
COMMANDS = ["catalog", "density", "integral", "decide", "psdo", "verify-prop22"]
FLAGS = ["--surface", "--k", "--k-range", "--config", "--out", "--format", "--seed",
         "--a", "--b", "--sigma", "--vol", "--r-inf", "--symbol-file", "--trials",
         "--depth", "--charge", "--grid", "-h", "--help", "--", "-"]
ARG_VALUES = ["t4", "cp2", "cp1xcp1", "generic", "nope", "json", "csv", "1", "2", "-1",
              "0", "16", "-3..3", "2..1", "0..1000", "1..", "x", ".", "9" * 30, "1e3"]
TOKEN = st.sampled_from(COMMANDS + FLAGS + ARG_VALUES) | JUNK
ARGV = st.lists(TOKEN, max_size=10) | st.tuples(
    st.sampled_from(COMMANDS), st.lists(TOKEN, max_size=10)).map(lambda t: [t[0], *t[1]])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ARGV)
def test_cli_exit_code_and_one_line_errors(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # --out may name any junk path
    assert_exit_code_and_one_line_errors(argv)


def assert_exit_code_and_one_line_errors(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


# Finite entries at the ends of the float range: their sums, traces and
# products overflow, and no numpy warning may reach stderr.
EXTREMES = st.sampled_from(["1.7976931348623157e308", "-1.7976931348623157e308",
                            "1e308+1e308j", "5e-324", "1e-308j", "1e154", "0"])


@st.composite
def extreme_symbol_files(draw):
    dim, order = draw(st.sampled_from([1, 2])), draw(st.sampled_from([-1, 0]))

    def matrix():
        return "; ".join(" ".join(draw(EXTREMES) for _ in range(dim)) for _ in range(dim))

    lines = [f"order = {order}", f"dim = {dim}", "grid = 16"]
    for degree in draw(st.sets(st.sampled_from([order, order - 1]), min_size=1)):
        lines.append(f"[component degree={degree}]")
        for side in ("plus", "minus"):
            lines.append(f"{side} = {matrix()}")
            for mode in draw(st.lists(st.sampled_from(["cos1", "sin1", "cos2"]), max_size=2,
                                      unique=True)):
                lines.append(f"{side}_{mode} = {matrix()}")
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(extreme_symbol_files())
def test_psdo_on_extreme_finite_entries(tmp_path, text):
    path = tmp_path / "extreme.sym"
    path.write_text(text)
    assert_exit_code_and_one_line_errors(
        ["psdo", "--symbol-file", str(path), "--trials", "1", "--depth", "4"])
