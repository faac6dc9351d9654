"""The library names that perfbench/ calls or traces.

The benchmark runs the committed tree of each change, so a name it reads
that a change removes or renames breaks the benchmark run, not a test.
These tests hold those names in place.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from wcslab.geometry import RiemannTensor, max_abs_component
from wcslab.psdo import ClassicalSymbol, random_symbol

ROOT = Path(__file__).resolve().parents[1]

# The tracer installs from sys.modules right after `import wcslab.cli`, so
# each traced module must be loaded by that import alone: checked in a
# fresh interpreter, since this one has loaded every module by now.
RESOLVE_TRACED = """
import sys
import wcslab.cli
sys.path.insert(0, sys.argv[1])
from spans import TRACED
for name, modname, attr in TRACED:
    owner = sys.modules[modname]
    *classes, last = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner)[last] if classes else getattr(owner, last)), name
print(len(TRACED))
"""


def test_every_traced_name_resolves_after_importing_the_cli():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-c", RESOLVE_TRACED, str(ROOT / "perfbench")],
                          capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) >= 20


def test_max_abs_component_takes_seed_and_samples():
    params = inspect.signature(max_abs_component).parameters
    assert {"seed", "samples"} <= set(params)
    R = RiemannTensor(np.zeros((4, 4, 4, 4)))
    assert max_abs_component(R, seed=3, samples=5) == 0.0


def test_symbol_components_and_leading_degree():
    sym = random_symbol(np.random.default_rng(0), -1, 3, grid=16)
    assert isinstance(vars(ClassicalSymbol)["components"], property)
    assert len(sym.components) == sym.depth == 3
    assert sym.leading_degree() == -1
