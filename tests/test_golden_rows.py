"""Golden rows: the catalog listing and the per-(surface, k) rows, pinned.

``golden_rows.json`` holds the exit code and stdout of every command in
``commands()``: the surface rows, and the ``psdo`` and ``verify-prop22``
reports.  Keys, strings, ints and None must match exactly; floats
must match within 1e-12 relative/absolute.

    PYTHONPATH=src python tests/test_golden_rows.py          # print every stdout
    PYTHONPATH=src python tests/test_golden_rows.py --write  # rewrite the fixture

Rewrite the fixture only when the row format changes on purpose.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from wcslab import geometry, sasaki, wcs
from wcslab.cli import main

GOLDEN = Path(__file__).with_name("golden_rows.json")
CONFIG_TOKEN = "<CONFIG>"
CONFIG_FILE = """
[surface flat]
type = t4

[surface proj]
type = cp2

[surface quad]
type = cp1xcp1
a = 1
b = 4

[surface k3ish]
type = generic
sigma = -16
vol = 1.0
r_inf = 1.0
"""
SYMBOL_DIM1 = """
order = 0
dim = 1

[component degree=0]
plus = 1
plus_cos1 = 0.5
minus = 2
minus_sin2 = 0.25

[component degree=-1]
plus = 0.5
plus_sin1 = 1
minus = -1
"""
SYMBOL_DIM2 = """
order = -1
dim = 2
grid = 32

[component degree=-1]
plus = 1 2; 0 1
plus_cos1 = 0 1; 1 0
minus = 1 0; 0 3
minus_sin1 = 1 0; 0 -1

[component degree=-2]
plus = 0 1j; -1j 0
minus = 1 0; 0 1
minus_cos2 = 0.5 0; 0 0.5
"""
FILES = {
    CONFIG_TOKEN: ("surfaces.cfg", CONFIG_FILE),
    "<SYMBOL_DIM1>": ("dim1.sym", SYMBOL_DIM1),
    "<SYMBOL_DIM2>": ("dim2.sym", SYMBOL_DIM2),
}
GENERIC_FLAGS = ["--sigma", "-1", "--vol", "1", "--r-inf", "1"]
SURFACES = (
    ["t4"],
    ["cp2"],
    ["cp1xcp1", "--a", "2", "--b", "3"],
    ["generic", *GENERIC_FLAGS],
    *([name, "--config", CONFIG_TOKEN] for name in ("flat", "proj", "quad", "k3ish")),
)
FORMATS = ("json", "csv")


def commands() -> list[list[str]]:
    listings = (
        ["catalog"],
        ["catalog", "--a", "2", "--b", "3"],
        ["catalog", *GENERIC_FLAGS, "--config", CONFIG_TOKEN],
    )
    sweeps = (
        [sub, "--surface", *surface, "--k-range", "-3..3"]
        for sub in ("decide", "density", "integral")
        for surface in SURFACES
    )
    residues = (
        ["psdo", "--symbol-file", token, "--depth", depth, "--trials", "3", "--seed", "7"]
        for token in ("<SYMBOL_DIM1>", "<SYMBOL_DIM2>")
        for depth in ("4", "6")
    )
    prop22 = (["verify-prop22", "--charge", "1", "--grid", grid] for grid in ("16", "32"))
    return [
        *([*argv, "--format", fmt] for argv in (*listings, *sweeps) for fmt in FORMATS),
        *([*argv, "--format", "json"] for argv in (*residues, *prop22)),
    ]


def write_files(directory: Path) -> dict[str, str]:
    """Write every input file into `directory`; map each token to its path."""
    paths = {}
    for token, (name, text) in FILES.items():
        path = directory / name
        path.write_text(text)
        paths[token] = str(path)
    return paths


def run(argv: list[str], paths: dict[str, str]) -> tuple[int, str]:
    argv = [paths.get(a, a) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def parse(argv: list[str], stdout: str):
    if not stdout:
        return None
    if argv[-1] == "csv":
        return list(csv.reader(io.StringIO(stdout)))
    return json.loads(stdout)


def assert_matches(actual, expected, where: str) -> None:
    if isinstance(expected, str) and isinstance(actual, str) and expected != actual:
        # CSV cells: compare numerically unless they are ints or text.
        try:
            int(expected)
        except ValueError:
            try:
                actual, expected = float(actual), float(expected)
            except ValueError:
                pass
    assert type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: length differs"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-12), (
            f"{where}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize(
    "entry", GOLDEN_ENTRIES, ids=[" ".join(e["argv"]) for e in GOLDEN_ENTRIES]
)
def test_rows_match_golden(entry, tmp_path):
    code, stdout = run(entry["argv"], write_files(tmp_path))
    assert code == entry["exit"]
    assert_matches(parse(entry["argv"], stdout), parse(entry["argv"], entry["stdout"]), "rows")


def test_golden_covers_every_command():
    assert [e["argv"] for e in GOLDEN_ENTRIES] == commands()


def test_one_lift_polynomial_per_sweep(capsys, monkeypatch):
    wcs.calibration_constant()  # its own lift is cached once per process
    wcs._sweep_terms.cache_clear()
    calls = []
    for module, fname in ((sasaki, "lift_parts"), (sasaki, "lift_curvature"),
                          (geometry, "pontrjagin_density")):
        original = getattr(module, fname)

        def counting(*args, _name=fname, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        # Callers import these by name; patch every such binding.
        for name, mod in list(sys.modules.items()):
            if name.partition(".")[0] == "wcslab" and getattr(mod, fname, None) is original:
                monkeypatch.setattr(mod, fname, counting)
    # The first sweep of a curvature builds its lift polynomial once, a
    # repeat reads the kept terms, and another curvature builds its own.
    for argv, want in (
        (["cp2"], ["lift_parts", "pontrjagin_density"]),
        (["cp2"], []),
        (["cp1xcp1", "--a", "2", "--b", "3"], ["lift_parts", "pontrjagin_density"]),
    ):
        calls.clear()
        assert main(["decide", "--surface", *argv, "--k-range", "-3..3"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 7
        assert sorted(calls) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(Path(tmp))
        entries = []
        for argv in commands():
            code, stdout = run(argv, paths)
            entries.append({"argv": argv, "exit": code, "stdout": stdout})
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    else:
        for e in entries:
            sys.stdout.write(f"$ wcslab {' '.join(e['argv'])}  -> exit {e['exit']}\n{e['stdout']}")
