import re
from fractions import Fraction

import numpy as np
import pytest

from wcslab import psdo
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

    @pytest.mark.parametrize("text, key, line, first", [
        ("a = 1\nb = 2\na = 3\n", "a", 3, 1),
        ("a = 1\n[s]\nb = 2\n# note\nb = 3\n", "b", 5, 3),
        ("[s]\na = 1\n[t]\na = 2\na = 3\n", "a", 5, 4),
    ], ids=["top-level", "section", "later-section"])
    def test_second_key(self, text, key, line, first):
        # The second value would silently replace the first.
        with pytest.raises(ParseError, match=rf"^line {line}, .*second key '{key}' "
                                             rf"\(the first is at line {first}\)"):
            parse_sections(text)

    def test_same_key_in_two_places(self):
        top, sections = parse_sections("a = 1\n[s]\na = 2\n[t]\na = 3\n")
        assert top == {"a": ("1", 1)}
        assert [sec.entries for sec in sections] == [{"a": ("2", 3)}, {"a": ("3", 5)}]

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

    @pytest.mark.parametrize("key", ["order", "dim", "grid"])
    def test_second_top_level_key(self, key):
        text = ("order = -1\ndim = 1\ngrid = 32\n[component degree=-1]\nplus = 1\nminus = 1\n"
                .replace(f"{key} =", f"{key} = 2\n{key} =", 1))
        first = {"order": 1, "dim": 2, "grid": 3}[key]
        with pytest.raises(ParseError, match=rf"^line {first + 1}, .*second key '{key}' "
                                             rf"\(the first is at line {first}\)"):
            load_symbol(text)

    def test_second_matrix_of_a_side(self):
        text = "order = -1\ndim = 1\n[component degree=-1]\nplus = 1\nminus = 1\nplus = 5\n"
        with pytest.raises(ParseError, match=r"^line 6, .*second key 'plus' "
                                             r"\(the first is at line 4\)"):
            load_symbol(text)

    def test_second_degree_in_a_header(self):
        text = "order = -1\ndim = 1\n[component degree=-1 degree=0]\nplus = 1\nminus = 1\n"
        with pytest.raises(ParseError, match=r"^line 3, .*second 'degree=' in the section header"):
            load_symbol(text)

    @pytest.mark.parametrize("first, second", [("plus_cos1", "plus_cos01"),
                                               ("minus_sin002", "minus_sin2"),
                                               ("plus_cos0", "plus_cos00")])
    def test_one_mode_written_twice(self, first, second):
        # Both spellings are the same Fourier term; the file would add it twice.
        text = (f"order = 0\ndim = 1\n[component degree=0]\nplus = 1\nminus = 1\n"
                f"{first} = 1\n{second} = 2\n")
        with pytest.raises(ParseError, match=rf"^line 7, .*'{second}' repeats the term "
                                             rf"'{first}' \(line 6\)"):
            load_symbol(text)

    def test_cos_and_sin_of_one_mode(self):
        sym = load_symbol("order = 0\ndim = 1\ngrid = 16\n[component degree=0]\n"
                          "plus = 0\nplus_cos1 = 1\nplus_sin01 = 1\nminus = 0\n")
        x = 2.0 * np.pi * np.arange(16) / 16
        assert np.allclose(sym.ladder[0, 0, :, 0, 0], np.cos(x) + np.sin(x), rtol=0, atol=1e-15)

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


def ladder_reference(text: str) -> np.ndarray:
    """The ladder of load_symbol(text), for a valid file, as the per-term
    loop before the one psdo routine built it: each side starts from
    complex zeros and adds its terms in file order, the constant matrix as
    it is and a Fourier term as wave(mode x)[:, None, None] * matrix, a real
    row times a complex matrix."""
    top, sections = parse_sections(text)
    order, dim = Fraction(top["order"][0]), int(top["dim"][0])
    grid = int(top["grid"][0]) if "grid" in top else 64
    x = 2.0 * np.pi * np.arange(grid) / grid
    places = {int(order - Fraction(sec.header.split("=")[1])): sec for sec in sections}
    values = np.zeros((max(places) + 1, 2, grid, dim, dim), dtype=complex)
    for j, sec in places.items():
        for prefix, side in zip(("plus", "minus"), values[j]):
            for key, (matrix, _) in sec.entries.items():
                mat = np.array([[complex(v) for v in row.split()]
                                for row in matrix.split(";") if row.strip()])
                if key == prefix:
                    side += mat[None, :, :]
                elif key.startswith((prefix + "_cos", prefix + "_sin")):
                    wave = np.cos if key.startswith(prefix + "_cos") else np.sin
                    side += wave(int(key[len(prefix) + 4:]) * x)[:, None, None] * mat
    return values


#: Matrix entries with signed zeros, subnormals, large values and parts
#: that round, so that a changed product or order of sums shows in the bits.
ENTRIES = ["0", "-0", "-0-0j", "0-0j", "1", "-1.5", "2.25-0.5j", "-7j", "5e-324", "-3e-310",
           "1e300", "-2.5e299+1e299j", "0.1"]


def symbol_file(rng: np.random.Generator) -> list:
    """A valid symbol file as a list of sections, each a list of lines; the
    top-level lines first.  Every side has its constant matrix and 0 to 5
    Fourier terms with distinct (wave, mode), in a random order, so the
    constant can come after them."""
    dim = int(rng.integers(1, 4))
    order = int(rng.integers(-2, 2))
    top = [f"order = {order}", f"dim = {dim}"]
    grid = [None, 16, 32, 64][int(rng.integers(0, 4))]
    if grid is not None:
        top.append(f"grid = {grid}")

    def matrix():
        def entry():
            if rng.random() < 0.5:
                return ENTRIES[int(rng.integers(0, len(ENTRIES)))]
            return f"{rng.standard_normal():.17g}{rng.standard_normal():+.17g}j"
        return "; ".join(" ".join(entry() for _ in range(dim)) for _ in range(dim))

    sections = [top]
    floor = min(order, -1) - int(rng.integers(0, 3))
    for degree in range(order, floor - 1, -1):
        if degree not in (order, floor) and rng.random() < 0.3:
            continue
        lines = []
        for side in ("plus", "minus"):
            lines.append(f"{side} = {matrix()}")
            modes = rng.choice([0, 1, 2, 3, 7, 64, 10**6, 2**70], size=int(rng.integers(0, 6)),
                               replace=False)
            for mode in modes:
                for wave in ("cos", "sin"):
                    if rng.random() < 0.6:
                        lines.append(f"{side}_{wave}{mode} = {matrix()}")
        order_of_lines = rng.permutation(len(lines))
        sections.append([f"[component degree={degree}]"] + [lines[i] for i in order_of_lines])
    return sections


class TestOneFourierRoutine:
    """Every band-limited symbol is evaluated by psdo.band_limited_values.
    A symbol file's ladder keeps the bits of the per-term loop, signs of
    zero included, whatever the order of its lines."""

    @pytest.mark.parametrize("seed", range(4))
    def test_ladder_matches_per_term_loop(self, seed):
        rng = np.random.default_rng(seed)
        fourier_first = 0
        for _ in range(60):
            sections = symbol_file(rng)
            for flip in (False, True):  # each section's lines as drawn, then reversed
                parts = [sections[0]] + [[sec[0]] + (sec[:0:-1] if flip else sec[1:])
                                         for sec in sections[1:]]
                text = "\n".join("\n".join(part) for part in parts) + "\n"
                want = ladder_reference(text)
                got = load_symbol(text)
                assert got.stored.shape == want.shape
                assert got.stored.tobytes() == want.tobytes(), text
                fourier_first += any(not line.startswith(("plus =", "minus ="))
                                     for sec in parts[1:] for line in sec[1:2])
        assert fourier_first > 30  # files whose sections open with a Fourier term

    def test_default_grid(self):
        sym = load_symbol("order = 0\ndim = 1\n[component degree=0]\nplus = 1\nminus = 1\n")
        assert sym.grid == psdo.DEFAULT_GRID

    def test_files_and_random_symbols_share_the_routine(self, monkeypatch):
        calls = []
        routine = psdo.band_limited_values

        def counted(coefficients, terms, scales, grid):
            calls.append((list(terms), list(scales), grid))
            return routine(coefficients, terms, scales, grid)

        monkeypatch.setattr(psdo, "band_limited_values", counted)
        load_symbol(FOURIER_SYMBOL)
        # One call per side, its terms in file order, with unit scales.
        assert calls == [([("cos", 0)], [1.0], 32), ([("cos", 0)], [1.0], 32),
                         ([("cos", 0), ("cos", 1)], [1.0, 1.0], 32),
                         ([("cos", 0), ("sin", 2)], [1.0, 1.0], 32)]
        calls.clear()
        psdo.random_symbol(np.random.default_rng(0), 0, 3, dim=2, grid=16, modes=2)
        assert calls == [([("cos", 0), ("cos", 1), ("sin", 1), ("cos", 2), ("sin", 2)],
                          [1.0, 1.0, 1.0, 0.5, 0.5], 16)]

    def test_waves(self):
        x = 2.0 * np.pi * np.arange(16) / 16
        for (wave, n), want in [(("cos", 0), np.ones(16)), (("sin", 3), np.sin(3 * x)),
                                (("cos", 2), np.cos(2 * x))]:
            got = psdo._wave(wave, n, 16)
            assert got.tobytes() == want.tobytes() and not got.flags.writeable

    def test_symbol_keeps_the_ladder_it_was_given(self):
        # The ladder load_symbol builds is frozen, so the symbol keeps it
        # without a copy.
        sym = load_symbol(FOURIER_SYMBOL)
        assert not sym.stored.flags.writeable and sym.ladder is sym.stored


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

    @pytest.mark.parametrize("stype", ["t4", "cp2", "cp1xcp1", "generic"])
    def test_section_named_after_a_type(self, stype):
        # It would shadow the built-in type in every --surface lookup.
        text = f"[surface ok]\ntype = t4\n\n[surface {stype}]\ntype = t4\n"
        with pytest.raises(ParseError, match=rf"^line 4, .*section \[surface {stype}\] "
                                             rf"would shadow the built-in type '{stype}'"):
            load_surfaces(text)

    def test_second_parameter_in_a_section(self):
        # The second a would replace the first: x would be cp1xcp1 (3, 2).
        text = "[surface x]\ntype = cp1xcp1\na = 1\nb = 2\na = 3\n"
        with pytest.raises(ParseError, match=r"^line 5, .*second key 'a' "
                                             r"\(the first is at line 3\)"):
            load_surfaces(text)

    def test_second_section_of_a_name(self):
        # Later sections would replace the first: cp1xcp1's rows would be t4's.
        text = "[surface x]\ntype = cp1xcp1\na = 2\nb = 3\n\n[surface x]\ntype = t4\n"
        with pytest.raises(ParseError, match=r"^line 6, .*second section \[surface x\] "
                                             r"\(the first is at line 1\)"):
            load_surfaces(text)
