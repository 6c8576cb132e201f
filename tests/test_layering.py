"""Dependency direction: the config and closed-form layers import no numpy
and none of the layers built on top of them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "teleqos"
LOWER = ("units.py", "model.py", "scenario.py")
UPPER = {"numpy", "sampling", "simulator", "validation", "cli"}


def imported_names(path: Path) -> set[str]:
    """Every dotted component of every module a file imports, at any depth;
    `from . import x` counts x as a module."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            names.update(module.split("."))
    return names


@pytest.mark.parametrize("module", LOWER)
def test_lower_layer_imports_no_upper_layer(module):
    assert imported_names(SRC / module) & UPPER == set()


def test_import_check_sees_each_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    for line in ("import numpy as np", "from numpy import asarray", "from . import sampling",
                 "from .sampling import SignalSpec", "from teleqos.cli import main",
                 "def f():\n    from . import simulator"):
        probe.write_text(line + "\n", encoding="utf-8")
        assert imported_names(probe) & UPPER, line
