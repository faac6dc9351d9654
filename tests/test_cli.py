import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcslab import cli, leading, psdo, wcs
from wcslab.catalog import (KahlerSurface, cp2_fubini_study, flat_torus, generic_bounds,
                            product_cp1)
from wcslab.cli import CSV_COLUMNS, main
from wcslab.geometry import LEVI_CIVITA, STANDARD_J, RiemannTensor

SYMBOL_FILE = """
order = -1
dim = 1
grid = 32

[component degree=-1]
plus = 1
minus = 1
"""

CONFIG_FILE = """
[surface k3ish]
type = generic
sigma = -16
vol = 1.0
r_inf = 1.0
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCatalog:
    def test_default_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        rows = json.loads(out)
        assert code == 0
        assert [r["surface"] for r in rows] == ["t4", "cp2", "cp1xcp1", "generic"]
        assert all(r["schema_version"] == 1 for r in rows)

    def test_with_product_params(self, capsys):
        code, out, _ = run(capsys, "catalog", "--a", "2", "--b", "3")
        rows = json.loads(out)
        entry = next(r for r in rows if r["surface"] == "cp1xcp1")
        assert entry["params"] == {"a": 2, "b": 3}
        assert entry["volume"] == pytest.approx((8 * np.pi) * (12 * np.pi))


class TestDecide:
    def test_torus_sweep(self, capsys):
        code, out, _ = run(capsys, "decide", "--surface", "t4", "--k-range", "-3..3")
        rows = json.loads(out)
        assert code == 0
        verdicts = {r["k"]: r["verdict"] for r in rows}
        assert verdicts[0] == "INCONCLUSIVE"
        assert all(v == "INFINITE_ORDER" for k, v in verdicts.items() if k != 0)

    def test_cp2_sweep(self, capsys):
        code, out, _ = run(capsys, "decide", "--surface", "cp2", "--k-range", "-2..2")
        verdicts = {r["k"]: r["verdict"] for r in json.loads(out)}
        assert verdicts == {
            -2: "INFINITE_ORDER",
            -1: "INCONCLUSIVE",
            0: "INCONCLUSIVE",
            1: "INCONCLUSIVE",
            2: "INFINITE_ORDER",
        }

    def test_rows_sorted_by_k(self, capsys):
        code, out, _ = run(capsys, "decide", "--surface", "t4", "--k-range", "-2..2")
        ks = [r["k"] for r in json.loads(out)]
        assert ks == sorted(ks)

    def test_generic_bounds_small_k(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--surface", "generic", "--sigma", "-16",
            "--vol", "1", "--r-inf", "1", "--k", "1",
        )
        row = json.loads(out)[0]
        assert code == 0
        assert row["verdict"] == "INCONCLUSIVE"
        assert row["integral"] is None


class TestErrors:
    def test_unknown_surface_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decide", "--surface", "nope", "--k", "1")
        assert code == 2 and "unknown surface" in err

    def test_product_without_params(self, capsys):
        code, _, err = run(capsys, "decide", "--surface", "cp1xcp1", "--k", "1")
        assert code == 2 and "--a and --b" in err

    def test_generic_without_params(self, capsys):
        code, _, err = run(capsys, "decide", "--surface", "generic", "--k", "1")
        assert code == 2

    def test_missing_k(self, capsys):
        code, _, _ = run(capsys, "decide", "--surface", "t4")
        assert code == 2

    def test_both_k_and_range_rejected(self, capsys):
        code, out, err = run(capsys, "decide", "--surface", "t4", "--k", "1", "--k-range", "1..2")
        assert code == 2 and out == ""
        assert err == "error: argument --k-range: not allowed with argument --k\n"

    def test_bad_k_range(self, capsys):
        code, _, err = run(capsys, "decide", "--surface", "t4", "--k-range", "3..1")
        assert code == 2

    def test_density_on_bounds_only_is_computation_error(self, capsys):
        code, _, err = run(
            capsys, "density", "--surface", "generic", "--sigma", "-16",
            "--vol", "1", "--r-inf", "1", "--k", "1",
        )
        assert code == 3 and "bounds-only" in err

    def test_missing_files(self, capsys, tmp_path):
        code, _, _ = run(capsys, "psdo", "--symbol-file", str(tmp_path / "nope.txt"))
        assert code == 2
        code, _, _ = run(
            capsys, "decide", "--surface", "t4", "--k", "1",
            "--config", str(tmp_path / "nope.cfg"),
        )
        assert code == 2

    @pytest.mark.parametrize("case", ["config dir", "symbol dir", "out dir",
                                      "config not utf-8", "symbol not utf-8"])
    def test_unreadable_paths_are_usage_errors(self, capsys, tmp_path, case):
        path = tmp_path / "input"
        if case.endswith("dir"):
            path.mkdir()
        else:
            path.write_bytes(b"[surface s]\ntype = t4 \xff\xfe\n")
        argv = {
            "config": ("decide", "--surface", "t4", "--k", "1", "--config", str(path)),
            "symbol": ("psdo", "--symbol-file", str(path), "--trials", "1"),
            "out": ("decide", "--surface", "t4", "--k", "1", "--out", str(path)),
        }[case.split()[0]]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_lift_consistency_error_is_computation_error(self, capsys, monkeypatch):
        broken = KahlerSurface(name="broken", volume=1.0, signature=0, r_inf=1.0,
                               curvature=RiemannTensor(LEVI_CIVITA[4]), J=STANDARD_J)
        monkeypatch.setattr(cli, "_resolve_surface", lambda args: broken)
        code, out, err = run(capsys, "decide", "--surface", "broken", "--k", "1")
        assert code == 3 and out == ""
        assert err.startswith("computation error: lift part") and err.count("\n") == 1


BAD_VALUES = [
    ("cp1xcp1", {"a": "0", "b": "1"}),
    ("cp1xcp1", {"a": "x", "b": "1"}),
    ("generic", {"sigma": "1", "vol": "-1", "r_inf": "1"}),
    ("generic", {"sigma": "1", "vol": "nan", "r_inf": "1"}),
    ("generic", {"sigma": "1", "vol": "1", "r_inf": "inf"}),
    # The volume (4 pi a)(4 pi b) overflows to inf.
    ("cp1xcp1", {"a": "1" + "0" * 200, "b": "1" + "0" * 200}),
]


def _flags(params):
    return [arg for key, value in params.items() for arg in (f"--{key.replace('_', '-')}", value)]


class TestBadSurfaceValues:
    """The same bad value exits 2 with one line, whichever path it takes."""

    def assert_usage_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("stype, params", BAD_VALUES)
    def test_from_flags(self, capsys, stype, params):
        self.assert_usage_error(capsys, "decide", "--surface", stype, *_flags(params), "--k", "1")

    @pytest.mark.parametrize("stype, params", BAD_VALUES)
    def test_from_catalog(self, capsys, stype, params):
        self.assert_usage_error(capsys, "catalog", *_flags(params))

    @pytest.mark.parametrize("stype, params", BAD_VALUES)
    def test_from_config(self, capsys, tmp_path, stype, params):
        cfg = tmp_path / "bad.cfg"
        body = "".join(f"{key} = {value}\n" for key, value in params.items())
        cfg.write_text(f"[surface s]\ntype = {stype}\n{body}")
        self.assert_usage_error(capsys, "decide", "--surface", "s", "--k", "1", "--config", str(cfg))
        self.assert_usage_error(capsys, "catalog", "--config", str(cfg))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_volume_in_either_format(self, capsys, tmp_path, fmt):
        huge = "1" + "0" * 200
        self.assert_usage_error(capsys, "decide", "--surface", "cp1xcp1", "--a", huge,
                                "--b", huge, "--k", "1", "--format", fmt)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"[surface s]\ntype = cp1xcp1\na = {huge}\nb = {huge}\n")
        self.assert_usage_error(capsys, "decide", "--surface", "s", "--k", "1",
                                "--config", str(cfg), "--format", fmt)
        assert "volume (4 pi a)(4 pi b) must be finite" in run(capsys, "catalog", "--config",
                                                                str(cfg))[2]

    # A warning would reach stderr as more lines; here it fails the test.
    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_is_not_emitted_as_json(self, capsys):
        # The volume is finite, but the integral overflows to inf; the
        # emitter refuses the row.
        big = "1" + "0" * 150
        code, out, err = run(
            capsys, "integral", "--surface", "cp1xcp1", "--a", big, "--b", big, "--k", "1000"
        )
        assert (code, out) == (3, "")
        assert err == "computation error: non-finite integral = inf at surface='cp1xcp1' k=1000\n"


BIG = "1" + "0" * 150


class TestNonFiniteRows:
    """A row holding inf or nan is refused in both formats: exit 3, one
    line naming the column, the surface and k, and nothing on stdout.  An
    overflow warning would be more lines on stderr, so it fails the test."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv, message", [
        # The volume (4 pi a)(4 pi b) is finite; times the density it
        # overflows to inf.
        (("--surface", "cp1xcp1", "--a", BIG, "--b", BIG, "--k", "1000"),
         "non-finite integral = inf at surface='cp1xcp1' k=1000"),
        # 224 k^2 r_inf vol and 192 k^4 vol overflow to inf - inf.
        (("--surface", "generic", "--sigma", "1", "--vol", "1e308", "--r-inf", "1",
          "--k", "1000"),
         "non-finite prop39_lhs = nan at surface='generic' k=1000"),
    ])
    def test_refused(self, capsys, tmp_path, fmt, argv, message):
        code, out, err = run(capsys, "decide", *argv, "--format", fmt)
        assert (code, out) == (3, "")
        assert err == f"computation error: {message}\n"
        path = tmp_path / "rows.out"
        assert run(capsys, "decide", *argv, "--format", fmt, "--out", str(path))[0] == 3
        assert not path.exists()

    def test_nested_values_are_checked(self):
        with pytest.raises(ValueError, match=r"residue\[1\] = nan"):
            cli._check_finite([{"residue": [0.0, float("nan")]}])
        with pytest.raises(ValueError, match=r"sup\['-1'\] = -inf"):
            cli._check_finite([{"sup": {"0": 1.0, "-1": float("-inf")}}])
        cli._check_finite([{"residue": [0.0, 1.0], "k": 10**400, "sup": {"0": 2.0}}])


# Text that the flat-row layout must leave alone: quotes, backslashes,
# newlines, non-ASCII, and the row boundary the layout rewrites.
TRICKY_TEXT = st.sampled_from(['"', "\\", "\n", "},\n    {", "{}", "é ∞ 🙂", ""]) | st.text()
SCALARS = (st.none() | st.booleans() | st.integers() | TRICKY_TEXT
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
           | st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 10**30]))
NESTED = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TRICKY_TEXT, inner, max_size=3), max_leaves=6)
FLAT_ROWS = st.lists(st.dictionaries(TRICKY_TEXT, SCALARS, max_size=8), max_size=4)
NESTED_ROWS = st.lists(st.dictionaries(TRICKY_TEXT, NESTED, max_size=4), max_size=3)


class TestJsonEmitter:
    """The JSON text is json.dumps(rows, indent=2, sort_keys=True) and a
    newline, whichever encoder writes it, and a non-finite value is refused
    with one line naming it, in either format."""

    @settings(max_examples=400, deadline=None)
    @given(FLAT_ROWS | NESTED_ROWS)
    @example([])
    @example([{}])
    @example([{"a": 1}, {}, {"b": None}])
    @example([{"s": "},\n    {", "t": "\"\\\n", "u": "é ∞", "v": -0.0, "w": 5e-324,
               "x": 1e308, "y": True, "z": None}] * 2)
    @example([{"params": {"a": 2}, "surface": "cp1xcp1"}, {"residue": [0.0, -0.0]}])
    def test_text_is_json_dumps(self, rows):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit(rows, "json", None)
        assert out.getvalue() == json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"

    @pytest.mark.parametrize("surface", [flat_torus(), cp2_fubini_study(), product_cp1(2, 3),
                                         generic_bounds(-3, 1.5, 2.0)])
    def test_sweep_rows_are_flat_python_scalars(self, surface):
        # So the one-call encoder writes them; a numpy scalar would send
        # every sweep through json.dumps.
        rows = [cli._level_row(v) for v in wcs.decide_levels(surface, range(-2, 3))]
        assert {type(value) for row in rows for value in row.values()} <= cli._SCALARS

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("column", [
        "schema_version", "density_closed", "density_perm", "route_agreement", "integral",
        "prop39_lhs", "verdict", "calibration_constant", "provenance",
    ])
    def test_non_finite_sweep_column(self, capsys, monkeypatch, fmt, value, column):
        level_row = cli._level_row
        monkeypatch.setattr(cli, "_level_row", lambda verdict: {**level_row(verdict), column: value})
        code, out, err = run(capsys, "decide", "--surface", "t4", "--k-range", "1..2",
                             "--format", fmt)
        assert (code, out) == (3, "")
        assert err == f"computation error: non-finite {column} = {value} at surface='t4' k=1\n"

    def test_non_finite_prop22_column(self, capsys, monkeypatch):
        monkeypatch.setattr(leading, "relative_error", lambda lhs, rhs: float("nan"))
        code, out, err = run(capsys, "verify-prop22", "--charge", "1", "--grid", "16")
        assert (code, out, err) == (3, "", "computation error: non-finite relative_error = nan\n")

    def test_non_finite_nested_value(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text(SYMBOL_FILE)
        monkeypatch.setattr(psdo, "wodzicki_residue", lambda symbol: complex(0.0, float("nan")))
        code, out, err = run(capsys, "psdo", "--symbol-file", str(path), "--trials", "1")
        assert (code, out, err) == (3, "", "computation error: non-finite residue[1] = nan\n")


class TestOutputFormats:
    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "density", "--surface", "t4", "--k", "1", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1].startswith("t4,1,")

    def test_density_values(self, capsys):
        code, out, _ = run(capsys, "density", "--surface", "t4", "--k", "2")
        row = json.loads(out)[0]
        assert row["density_closed"] == pytest.approx(6.4 * 64)
        assert row["route_agreement"] <= 1e-8

    def test_deterministic_json(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "integral", "--surface", "cp2", "--k-range", "-2..2", "--out", str(a))
        run(capsys, "integral", "--surface", "cp2", "--k-range", "-2..2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_same_bytes_cold_and_warm(self, capsys):
        # The first sweep of each surface computes its terms, the second
        # reads them; both print the same bytes.
        wcs._sweep_terms.cache_clear()
        surfaces = (["t4"], ["cp2"], ["cp1xcp1", "--a", "2", "--b", "3"])
        for command in ("decide", "density", "integral"):
            for surface in surfaces:
                for fmt in ("json", "csv"):
                    argv = (command, "--surface", *surface, "--k-range", "-3..3", "--format", fmt)
                    first = run(capsys, *argv)
                    assert first[0] == 0 and first[1]
                    assert run(capsys, *argv) == first

    def test_config_file_surface(self, capsys, tmp_path):
        cfg = tmp_path / "surfaces.cfg"
        cfg.write_text(CONFIG_FILE)
        code, out, _ = run(
            capsys, "decide", "--surface", "k3ish", "--k", "5", "--config", str(cfg)
        )
        row = json.loads(out)[0]
        assert code == 0
        assert row["verdict"] == "INFINITE_ORDER"


class TestPsdoCommand:
    def test_report(self, capsys, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text(SYMBOL_FILE)
        code, out, _ = run(
            capsys, "psdo", "--symbol-file", str(path), "--trials", "3"
        )
        report = json.loads(out)[0]
        assert code == 0
        assert report["residue"][0] == pytest.approx(2.0, abs=1e-10)
        assert report["commutator_max_violation"] <= 1e-8
        assert all(v <= 1e-10 for v in report["parametrix_defect_sup"].values())
        assert report["seed"] == 0

    def test_defect_sup_norms_are_the_component_norms(self, capsys, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text(SYMBOL_FILE)
        for depth in (4, 6, 9):
            code, out, _ = run(capsys, "psdo", "--symbol-file", str(path), "--trials", "1",
                               "--depth", str(depth))
            A = psdo.laplacian_plus_one_symbol(np.zeros((1, 1)), depth=depth)
            defect = psdo.compose(psdo.parametrix(A, depth), A, depth) \
                - psdo.identity_symbol(1, depth=depth)
            want = {str(defect.order - j): float(np.abs(values).max())
                    for j, values in enumerate(defect.ladder)}
            assert code == 0 and json.loads(out)[0]["parametrix_defect_sup"] == want
            assert len(want) == depth

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("order = 0\n")
        code, _, err = run(capsys, "psdo", "--symbol-file", str(path))
        assert code == 2

    @pytest.mark.parametrize("text", [
        "order = 0\ndim = 2\n[component degree=0]\nplus = 1\nminus = 1\n",
        "order = x\ndim = 1\n[component degree=0]\nplus = 1\nminus = 1\n",
        "order = 0\ndim = 1\ngrid = 12\n[component degree=0]\nplus = 1\nminus = 1\n",
        "order = 1e-10000\ndim = 1\n[component degree=0]\nplus = 1\nminus = 1\n",
        pytest.param(SYMBOL_FILE + f"plus_cos{'9' * 400} = 1\n", id="fourier-mode-beyond-float"),
        pytest.param(SYMBOL_FILE.replace("plus = 1", "plus = nan"), id="nan-entry"),
    ])
    def test_bad_symbol_value_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, "psdo", "--symbol-file", str(path), "--trials", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: line ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["plus_cosx", "plus_cos1_0", "plus_cos\u0662"])
    def test_bad_fourier_key_is_usage_error(self, capsys, tmp_path, key):
        path = tmp_path / "bad.txt"
        path.write_text(SYMBOL_FILE + f"{key} = 1\n", encoding="utf-8")
        code, _, err = run(capsys, "psdo", "--symbol-file", str(path), "--trials", "1")
        assert code == 2 and f"bad Fourier key {key!r}" in err

    # numpy would warn on the sums; the warning would be more stderr lines.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_residue_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text(SYMBOL_FILE.replace("plus = 1", "plus = 1e308")
                        .replace("minus = 1", "minus = 1e308"))
        code, out, err = run(capsys, "psdo", "--symbol-file", str(path), "--trials", "1",
                             "--depth", "4")
        assert (code, out, err) == (3, "", "computation error: non-finite residue[0] = inf\n")

    def test_one_laplacian_per_run(self, capsys, tmp_path, monkeypatch):
        # The parametrix and its defect share one symbol of 1 + D*D.
        path = tmp_path / "sym.txt"
        path.write_text(SYMBOL_FILE)
        calls = []
        original = psdo.laplacian_plus_one_symbol

        def counting(*args, **kwargs):
            calls.append(kwargs.get("depth"))
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.partition(".")[0] == "wcslab" and getattr(mod, original.__name__, None) is original:
                monkeypatch.setattr(mod, original.__name__, counting)
        code, _, _ = run(capsys, "psdo", "--symbol-file", str(path), "--trials", "2",
                         "--depth", "5")
        assert code == 0
        assert calls == [5]  # built at the depth that parametrix and compose read


# Each cap is tested at cap + 1 only: the check runs before any work.
HUGE = "9" * 300
OUT_OF_RANGE = [
    (("psdo", "--symbol-file", "unused.sym", "--trials", "0"), "--trials"),
    (("psdo", "--symbol-file", "unused.sym", "--trials", str(cli.MAX_TRIALS + 1)), "--trials"),
    (("psdo", "--symbol-file", "unused.sym", "--depth", "0"), "--depth"),
    (("psdo", "--symbol-file", "unused.sym", "--depth", "1"), "--depth"),
    (("psdo", "--symbol-file", "unused.sym", "--depth", "3"), "--depth"),
    (("psdo", "--symbol-file", "unused.sym", "--depth", str(cli.MAX_DEPTH + 1)), "--depth"),
    (("psdo", "--symbol-file", "unused.sym", "--seed", "-1"), "seed"),
    (("verify-prop22", "--charge", "1", "--grid", str(cli.MAX_PROP22_GRID + 1)), "--grid"),
    (("verify-prop22", "--charge", str(cli.MAX_ABS_LEVEL + 1)), "--charge"),
    (("verify-prop22", "--charge", f"-{HUGE}"), "--charge"),
    (("decide", "--surface", "cp2", "--k", str(cli.MAX_ABS_LEVEL + 1)), "--k "),
    (("decide", "--surface", "cp2", "--k", f"-{cli.MAX_ABS_LEVEL + 1}"), "--k "),
    (("decide", "--surface", "cp2", "--k", HUGE), "--k "),
    (("decide", "--surface", "cp2", "--k-range", f"0..{cli.MAX_K_RANGE}"), "--k-range"),
    (("decide", "--surface", "cp2", "--k-range", f"-{cli.MAX_ABS_LEVEL + 1}..0"), "--k-range"),
    (("decide", "--surface", "cp2", "--k-range", f"0..{HUGE}"), "--k-range"),
    (("decide", "--surface", "generic", "--sigma", "9" * 400, "--vol", "1", "--r-inf", "1",
      "--k", "1"), "sigma must convert to a finite float"),
]


@pytest.mark.parametrize("argv, names", OUT_OF_RANGE,
                         ids=[" ".join(argv)[:60] for argv, _ in OUT_OF_RANGE])
def test_out_of_range_values_are_usage_errors(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and names in err
    assert err.count("\n") == 1 and len(err) < 200


def test_widest_k_range_within_cap_is_accepted():
    ks = cli._parse_k_range(f"{cli.MAX_ABS_LEVEL - cli.MAX_K_RANGE + 1}..{cli.MAX_ABS_LEVEL}")
    assert len(ks) == cli.MAX_K_RANGE and ks[-1] == cli.MAX_ABS_LEVEL


class TestVerifyProp22:
    def test_unit_charge(self, capsys):
        code, out, _ = run(capsys, "verify-prop22", "--charge", "1", "--grid", "32")
        report = json.loads(out)[0]
        assert code == 0
        assert report["family_pairing"] == pytest.approx(2.0 * np.pi, rel=1e-6)
        assert report["pass"] is True

    def test_zero_charge(self, capsys):
        code, out, _ = run(capsys, "verify-prop22", "--charge", "0", "--grid", "32")
        assert code == 0
        assert json.loads(out)[0]["relative_error"] == 0.0

    def test_small_grid_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify-prop22", "--charge", "1", "--grid", "8")
        assert code == 2

    def test_one_quadrature_per_run(self, capsys, monkeypatch):
        calls = []
        for fname in ("c_lo_pairing", "rhs_prop22"):
            original = getattr(leading, fname)

            def counting(*args, _name=fname, _original=original):
                calls.append(_name)
                return _original(*args)

            # Callers reach these by attribute or by name; patch every binding.
            for name, mod in list(sys.modules.items()):
                if name.partition(".")[0] == "wcslab" and getattr(mod, fname, None) is original:
                    monkeypatch.setattr(mod, fname, counting)
        code, _, _ = run(capsys, "verify-prop22", "--charge", "1", "--grid", "16")
        assert code == 0
        assert sorted(calls) == ["c_lo_pairing", "rhs_prop22"]


@pytest.mark.parametrize("argv, message", [
    (("decide", "--surface", "t4", "--k", "x"), "error: argument --k: invalid int value: 'x'"),
    (("decide", "--k", "1"), "error: the following arguments are required: --surface"),
    (("nope",), "error: argument command: invalid choice: 'nope'"),
    ((), "error: the following arguments are required: command"),
    (("catalog", "--junk"), "error: unrecognized arguments: --junk"),
    (("catalog", "a\nb"), "error: unrecognized arguments: a b"),
])
def test_argparse_errors_are_one_line_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


SWEEP_FLAGS = {"--out", "--format", "--config", "--surface", "--a", "--b", "--sigma", "--vol",
               "--r-inf", "--k", "--k-range"}
FLAGS = {
    "catalog": {"--out", "--config", "--a", "--b", "--sigma", "--vol", "--r-inf"},
    "density": SWEEP_FLAGS,
    "integral": SWEEP_FLAGS,
    "decide": SWEEP_FLAGS,
    "psdo": {"--out", "--seed", "--symbol-file", "--trials", "--depth"},
    "verify-prop22": {"--out", "--charge", "--grid"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    flags = {name: {flag for action in parser._actions for flag in action.option_strings}
             - {"-h", "--help"} for name, parser in sub.choices.items()}
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 48


# Each flag that the subcommand or the chosen surface does not read; an
# unknown surface keeps its own message.
UNREAD = [
    (("catalog", "--seed", "1"), "unrecognized arguments: --seed 1"),
    (("catalog", "--format", "csv"), "unrecognized arguments: --format csv"),
    *(((sub, "--surface", "t4", "--k", "1", "--seed", "3"), "unrecognized arguments: --seed 3")
      for sub in ("density", "integral", "decide")),
    (("psdo", "--symbol-file", "<SYM>", "--format", "csv"),
     "unrecognized arguments: --format csv"),
    (("psdo", "--symbol-file", "<SYM>", "--config", "<CFG>"), "unrecognized arguments: --config"),
    (("verify-prop22", "--charge", "1", "--seed", "3"), "unrecognized arguments: --seed 3"),
    (("verify-prop22", "--charge", "1", "--format", "json"),
     "unrecognized arguments: --format json"),
    (("verify-prop22", "--charge", "1", "--config", "<CFG>"), "unrecognized arguments: --config"),
    (("decide", "--surface", "t4", "--k", "1", "--a", "3"), "--a does not apply to surface t4"),
    (("density", "--surface", "cp2", "--k", "1", "--sigma", "2"),
     "--sigma does not apply to surface cp2"),
    (("integral", "--surface", "cp1xcp1", "--a", "1", "--b", "2", "--vol", "1", "--k", "1"),
     "--vol does not apply to surface cp1xcp1"),
    (("decide", "--surface", "k3ish", "--config", "<CFG>", "--k", "1", "--a", "3"),
     "--a does not apply to surface k3ish"),
    (("decide", "--surface", "k3ish", "--config", "<CFG>", "--k", "1", "--sigma", "-16"),
     "--sigma does not apply to surface k3ish"),
    (("decide", "--surface", "nope", "--a", "3", "--k", "1"), "unknown surface type 'nope'\n"),
]


@pytest.mark.parametrize("argv, message", UNREAD, ids=[" ".join(argv) for argv, _ in UNREAD])
def test_unread_flags_are_usage_errors(capsys, tmp_path, argv, message):
    sym, cfg = tmp_path / "sym.txt", tmp_path / "surfaces.cfg"
    sym.write_text(SYMBOL_FILE)
    cfg.write_text(CONFIG_FILE)
    files = {"<SYM>": str(sym), "<CFG>": str(cfg)}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("decide", "--surface", "k3ish", "--k", "1"), ("catalog",)])
def test_config_naming_a_surface_twice_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "twice.cfg"
    path.write_text(CONFIG_FILE + "\n[surface k3ish]\ntype = t4\n")
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: line 8, column 1: second section [surface k3ish] "
                   "(the first is at line 2)\n")


@pytest.mark.parametrize("argv", [("decide", "--surface", "k3ish", "--k", "1"), ("catalog",)])
def test_config_repeating_a_key_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "twice.cfg"
    path.write_text(CONFIG_FILE + "sigma = -8\n")
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 7, column 1: second key 'sigma' (the first is at line 4)\n"


@pytest.mark.parametrize("text, message", [
    (SYMBOL_FILE + "plus = 5\n", "line 9, column 1: second key 'plus' (the first is at line 7)"),
    (SYMBOL_FILE.replace("order = -1\n", "order = -1\norder = 0\n"),
     "line 3, column 1: second key 'order' (the first is at line 2)"),
    (SYMBOL_FILE.replace("degree=-1]", "degree=-1 degree=0]"),
     "line 6, column 1: second 'degree=' in the section header"),
    (SYMBOL_FILE + "plus_cos1 = 1\nplus_cos01 = 1\n",
     "line 10, column 1: 'plus_cos01' repeats the term 'plus_cos1' (line 9)"),
], ids=["side", "order", "header", "mode"])
def test_symbol_file_repeating_a_key_is_usage_error(capsys, tmp_path, text, message):
    path = tmp_path / "twice.sym"
    path.write_text(text)
    code, out, err = run(capsys, "psdo", "--symbol-file", str(path), "--trials", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [("decide", "--surface", "cp2", "--k", "2"), ("catalog",)])
def test_config_section_named_after_a_type_is_usage_error(capsys, tmp_path, argv):
    # It would shadow the built-in: --surface cp2 would print t4's row.
    path = tmp_path / "shadow.cfg"
    path.write_text(CONFIG_FILE + "\n[surface cp2]\ntype = t4\n")
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: line 8, column 1: section [surface cp2] would shadow the "
                   "built-in type 'cp2'; choose another name\n")


class TestParserReuse:
    """main builds its parser once per process; reusing it is invisible."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def run_fresh(self, capsys, monkeypatch, *argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            return run(capsys, *argv)

    def test_parser_built_once(self, capsys, monkeypatch):
        builds, original = [], cli.build_parser

        def counting():
            builds.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (["catalog"], ["decide", "--surface", "t4", "--k", "1"], ["nope"],
                     ["density", "--surface", "cp2", "--k-range", "-1..1"], ["--help"]):
            run(capsys, *argv)
        assert len(builds) == 1

    def test_no_state_carries_over(self, capsys, monkeypatch, tmp_path):
        sym, cfg = tmp_path / "sym.txt", tmp_path / "surfaces.cfg"
        sym.write_text(SYMBOL_FILE)
        cfg.write_text(CONFIG_FILE)
        sequence = [
            ("psdo", "--symbol-file", str(sym), "--trials", "2", "--depth", "4"),
            ("decide", "--surface", "k3ish", "--k", "5", "--config", str(cfg)),
            ("density", "--surface", "t4", "--k", "1", "--format", "csv"),
            ("integral", "--surface", "cp2", "--k", "2"),
            ("decide", "--surface", "cp2", "--k", "2"),
            ("decide", "--surface", "cp2", "--k-range", "-1..1"),
            ("decide", "--surface", "t4", "--k", "1", "--k-range", "1..2"),
            ("catalog",),
            ("verify-prop22", "--charge", "1", "--grid", "16"),
        ]
        reused = [run(capsys, *argv) for argv in sequence]
        fresh = [self.run_fresh(capsys, monkeypatch, *argv) for argv in sequence]
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 2, 0, 0]
        assert json.loads(reused[3][1])[0]["k"] == 2  # json, not the csv before it
        assert reused == fresh

    @pytest.mark.parametrize("argv", [("--help",), ("decide", "--help")])
    def test_help_follows_columns(self, capsys, monkeypatch, argv):
        run(capsys, "catalog")  # build the parser under the caller's width
        texts = []
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert (code, out, err) == self.run_fresh(capsys, monkeypatch, *argv)
            if argv == ("--help",):
                assert out == cli.build_parser().format_help()
            texts.append(out)
        assert texts[0] != texts[1]
