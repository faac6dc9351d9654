"""Every name that `wcslab` exports has a use.

A name in `wcslab.__all__` needs at least one of: a use in the package
other than its definition and the export lists, a backticked README entry,
or a place among the layers the benchmark traces (perfbench/spans.py's
TRACED).  A name with none of these is code only tests call.
"""

import ast
import re
from pathlib import Path

import pytest

import wcslab

ROOT = Path(__file__).resolve().parents[1]


def package_uses() -> set[str]:
    """The names the package reads: Name and Attribute nodes of its source
    in load context.  A def, a class, an assignment, an import or an
    `__all__` string is none of these."""
    used = set()
    for path in (ROOT / "src" / "wcslab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def traced_names() -> set[str]:
    """Every part of every dotted attribute path in TRACED, read from the
    source so that no tracer is imported."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    return {part for _, _, attr in ast.literal_eval(traced) for part in attr.split(".")}


PACKAGE_USES = package_uses()
README = (ROOT / "README.md").read_text()
TRACED_NAMES = traced_names()


@pytest.mark.parametrize("name", wcslab.__all__)
def test_exported_name_is_used(name):
    assert (name in PACKAGE_USES
            or re.search(rf"`(wcslab\.)?{re.escape(name)}\b", README)
            or name in TRACED_NAMES), f"{name}: no package use, README entry or traced layer"


def test_version_is_the_pyproject_version():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.+)"$', pyproject, re.M)[1] == wcslab.__version__
