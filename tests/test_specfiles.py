import re

import numpy as np
import pytest

from wcslab.psdo import wodzicki_residue
from wcslab.specfiles import (
    MAX_SYMBOL_DEPTH,
    MAX_SYMBOL_DIM,
    MAX_SYMBOL_GRID,
    ParseError,
    load_surfaces,
    load_symbol,
    parse_sections,
)

INVERSE_XI = """
# leading part of (1 + Laplacian)^(-1/2), scalar
order = -1
dim = 1
grid = 32

[component degree=-1]
plus = 1
minus = 1
"""

FOURIER_SYMBOL = """
order = 0
dim = 2
grid = 32

[component degree=0]
plus = 1 0; 0 1
minus = 1 0; 0 1

[component degree=-1]
plus = 0 1; 1 0
plus_cos1 = 1 0; 0 -1
minus = 0 0; 0 0
minus_sin2 = 0 1; -1 0
"""

SURFACES = """
[surface mytorus]
type = t4

[surface squares]
type = cp1xcp1
a = 2
b = 3

[surface k3ish]
type = generic
sigma = -16
vol = 1.0
r_inf = 1.0
"""


class TestParseSections:
    def test_basic(self):
        top, sections = parse_sections("a = 1\n[s one]\nb = 2  # comment\n")
        assert top["a"][0] == "1"
        assert sections[0].header == "s one"
        assert sections[0].entries["b"] == ("2", 3)

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_sections("a = 1\nbogus line\n")

    def test_unterminated_header(self):
        with pytest.raises(ParseError):
            parse_sections("[oops\n")

    @pytest.mark.parametrize("header", ["[]", "[ ]"])
    def test_empty_header(self, header):
        with pytest.raises(ParseError, match="line 2.*empty section header"):
            load_surfaces(f"# surfaces\n{header}\ntype = t4\n")
        with pytest.raises(ParseError, match="line 3.*empty section header"):
            load_symbol(f"order = 0\ndim = 1\n{header}\nplus = 1\nminus = 1\n")


class TestLoadSymbol:
    def test_inverse_xi_residue(self):
        sym = load_symbol(INVERSE_XI)
        assert sym.order == -1
        assert sym.grid == 32
        assert wodzicki_residue(sym) == pytest.approx(2.0, abs=1e-12)

    def test_fourier_terms(self):
        sym = load_symbol(FOURIER_SYMBOL)
        assert sym.depth == 2
        x = 2.0 * np.pi * np.arange(32) / 32
        plus, minus = sym.ladder[1]
        assert np.allclose(plus[:, 0, 0], np.cos(x))
        assert np.allclose(plus[:, 0, 1], 1.0)
        assert np.allclose(minus[:, 0, 1], np.sin(2 * x))

    def test_missing_order(self):
        with pytest.raises(ParseError, match="order"):
            load_symbol("dim = 1\n[component degree=0]\nplus = 1\nminus = 1\n")

    def test_missing_component_matrix(self):
        with pytest.raises(ParseError, match="minus"):
            load_symbol("order = 0\ndim = 1\n[component degree=0]\nplus = 1\n")

    def test_bad_matrix(self):
        with pytest.raises(ParseError):
            load_symbol(
                "order = 0\ndim = 1\n[component degree=0]\nplus = zap\nminus = 1\n"
            )

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf+1j", "1e400"])
    def test_matrix_entries_must_be_finite(self, entry):
        text = f"order = 0\ndim = 1\n[component degree=0]\nplus = 1\nminus = {entry}\n"
        with pytest.raises(ParseError, match="line 5.*matrix entries must be finite"):
            load_symbol(text)

    def test_values_that_overflow_are_rejected(self):
        # Two finite matrices whose sum is beyond the float range.
        text = ("order = 0\ndim = 1\n[component degree=0]\nplus = 1e308\n"
                "plus_cos0 = 1e308\nminus = 1\n")
        with np.errstate(all="raise"):  # rejected without a floating-point warning
            with pytest.raises(ParseError, match="line 3.*the 'plus' values overflow"):
                load_symbol(text)

    @pytest.mark.parametrize("matrix", ["1", "1 0 0; 0 1 0; 0 0 1", "1 0; 0 1; 1 1"])
    def test_matrix_must_be_dim_by_dim(self, matrix):
        text = f"order = 0\ndim = 2\n[component degree=0]\nplus = 1 0; 0 1\nminus = {matrix}\n"
        with pytest.raises(ParseError, match="line 5.*matrix must be 2 x 2"):
            load_symbol(text)
        fourier = f"order = 0\ndim = 2\n[component degree=0]\nplus = 1 0; 0 1\nplus_sin1 = {matrix}\n"
        with pytest.raises(ParseError, match="line 5.*matrix must be 2 x 2"):
            load_symbol(fourier + "minus = 1 0; 0 1\n")

    BAD_VALUES = {
        "order-x": ("order = x\ndim = 1", "degree=0", 1),
        "order-1/0": ("order = 1/0\ndim = 1", "degree=0", 1),
        "dim-0": ("order = 0\ndim = 0", "degree=0", 2),
        "dim-two": ("order = 0\ndim = two", "degree=0", 2),
        "grid-12": ("order = 0\ndim = 1\ngrid = 12", "degree=0", 3),
        "grid-8": ("order = 0\ndim = 1\ngrid = 8", "degree=0", 3),
        "degree-q": ("order = 0\ndim = 1", "degree=q", 3),
        "degree-above-order": ("order = 0\ndim = 1", "degree=1", 3),
        "degree-off-ladder": ("order = 0\ndim = 1", "degree=-1/2", 3),
        # A decimal exponent is refused before Fraction builds its power of ten.
        "order-1e-10000": ("order = 1e-10000\ndim = 1", "degree=0", 1),
        "degree-1e-10000": ("order = 0\ndim = 1", "degree=1e-10000", 3),
        # Each cap at cap + 1 only; the grid cap also at the next power of
        # two, since cap + 1 already fails the power-of-two rule.
        "dim-cap": (f"order = 0\ndim = {MAX_SYMBOL_DIM + 1}", "degree=0", 2),
        "grid-cap": (f"order = 0\ndim = 1\ngrid = {MAX_SYMBOL_GRID + 1}", "degree=0", 3),
        "grid-cap-pow2": (f"order = 0\ndim = 1\ngrid = {2 * MAX_SYMBOL_GRID}", "degree=0", 3),
        "depth-cap": ("order = 0\ndim = 1", f"degree=-{MAX_SYMBOL_DEPTH}", 3),
    }

    @pytest.mark.parametrize("top, header, line", BAD_VALUES.values(), ids=BAD_VALUES)
    def test_bad_value_carries_its_line(self, top, header, line):
        text = f"{top}\n[component {header}]\nplus = 1\nminus = 1\n"
        with pytest.raises(ParseError, match=f"^line {line}, .*expected"):
            load_symbol(text)

    def test_caps_are_inclusive(self):
        eye = "; ".join(" ".join("1" if i == j else "0" for j in range(MAX_SYMBOL_DIM))
                        for i in range(MAX_SYMBOL_DIM))
        sym = load_symbol(f"order = 0\ndim = {MAX_SYMBOL_DIM}\ngrid = 16\n"
                          f"[component degree={1 - MAX_SYMBOL_DEPTH}]\n"
                          f"plus = {eye}\nminus = {eye}\n")
        assert (sym.depth, sym.fiber_dim) == (MAX_SYMBOL_DEPTH, MAX_SYMBOL_DIM)
        sym = load_symbol(f"order = 0\ndim = 1\ngrid = {MAX_SYMBOL_GRID}\n"
                          "[component degree=0]\nplus = 1\nminus = 1\n")
        assert sym.grid == MAX_SYMBOL_GRID

    def test_second_component_of_a_degree(self):
        text = (
            "order = -1\ndim = 1\n"
            "[component degree=-1]\nplus = 1\nminus = 1\n"
            "[component degree=-2/2]\nplus = 5\nminus = 1\n"
        )
        with pytest.raises(ParseError, match="^line 6, .*second component of degree -1 "
                                             r"\(the first is at line 3\)"):
            load_symbol(text)

    # A mode is ASCII decimal digits: int() alone would read "1_0" as 10,
    # the Arabic-Indic digit two as 2, and accept a sign.
    @pytest.mark.parametrize("key", ["plus_cosx", "minus_sin", "plus_cos1.5", "plus_cos1_0",
                                     "plus_cos\u0662", "minus_sin-1", "plus_cos+1",
                                     pytest.param("plus_cos" + "9" * 400, id="beyond-float"),
                                     pytest.param("plus_cos" + "9" * 5000, id="beyond-int")])
    def test_bad_fourier_suffix(self, key):
        with pytest.raises(ParseError, match=f"line 5.*bad Fourier key {re.escape(repr(key))}"):
            load_symbol(
                f"order = 0\ndim = 1\n[component degree=0]\nplus = 1\n{key} = 1\nminus = 1\n"
            )

    def test_gap_degrees_filled_with_zeros(self):
        text = (
            "order = 0\ndim = 1\n"
            "[component degree=0]\nplus = 1\nminus = 1\n"
            "[component degree=-2]\nplus = 1\nminus = 1\n"
        )
        sym = load_symbol(text)
        assert sym.depth == 3
        assert np.abs(sym.ladder[1]).max() == 0.0


class TestLoadSurfaces:
    def test_catalog_types(self):
        surfaces = load_surfaces(SURFACES)
        assert set(surfaces) == {"mytorus", "squares", "k3ish"}
        assert surfaces["mytorus"].r_inf == 0.0
        assert surfaces["squares"].params == {"a": 2, "b": 3}
        assert not surfaces["k3ish"].curvature_known
        assert surfaces["k3ish"].name == "k3ish"

    def test_unknown_type(self):
        with pytest.raises(ParseError, match="unknown surface type"):
            load_surfaces("[surface x]\ntype = banana\n")

    def test_missing_parameter(self):
        with pytest.raises(ParseError, match="needs key"):
            load_surfaces("[surface x]\ntype = cp1xcp1\na = 2\n")

    @pytest.mark.parametrize("entry", ["a = 0\nb = 1", "a = x\nb = 1"])
    def test_bad_parameter_carries_section_line(self, entry):
        text = f"[surface ok]\ntype = t4\n[surface x]\ntype = cp1xcp1\n{entry}\n"
        with pytest.raises(ParseError, match="line 3.*surface type 'cp1xcp1'"):
            load_surfaces(text)

    def test_catalog_types_keep_their_type_name(self):
        surfaces = load_surfaces(SURFACES)
        assert surfaces["mytorus"].name == "t4"
        assert surfaces["squares"].name == "cp1xcp1"

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_surfaces("[not a surface header here]\n")

    def test_second_section_of_a_name(self):
        # Later sections would replace the first: cp1xcp1's rows would be t4's.
        text = "[surface x]\ntype = cp1xcp1\na = 2\nb = 3\n\n[surface x]\ntype = t4\n"
        with pytest.raises(ParseError, match=r"^line 6, .*second section \[surface x\] "
                                             r"\(the first is at line 1\)"):
            load_surfaces(text)
