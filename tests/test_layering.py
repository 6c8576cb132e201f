"""Dependency direction: the config and closed-form layers import no numpy
and none of the layers built on top of them, and numpy loads only where a
haptic signal is synthesized. Every module uses every name it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teleqos
from teleqos import baseline_text

SRC = Path(__file__).resolve().parents[1] / "src" / "teleqos"
LOWER = ("units.py", "model.py", "scenario.py")
UPPER = {"numpy", "sampling", "simulator", "validation", "cli"}
# modules every command imports; they reach sampling only inside the
# functions that synthesize or rate a signal
NUMPY_FREE = ("simulator.py", "validation.py", "cli.py")


def _nodes(tree: ast.AST, into_functions: bool):
    for node in ast.iter_child_nodes(tree):
        yield node
        if into_functions or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _nodes(node, into_functions)


def imported_names(path: Path, into_functions: bool = True) -> set[str]:
    """Every dotted component of every module a file imports, at any depth
    (only outside function bodies when into_functions is false);
    `from . import x` counts x as a module."""
    names: set[str] = set()
    for node in _nodes(ast.parse(path.read_text(encoding="utf-8")), into_functions):
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


def unused_imports(path: Path) -> set[str]:
    """The names a file imports, at any depth, and never reads; a
    `from __future__` import is a compiler directive, not a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


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


@pytest.mark.parametrize("module", NUMPY_FREE)
def test_module_level_imports_need_no_numpy(module):
    assert imported_names(SRC / module, into_functions=False) & {"numpy", "sampling"} == set()


def test_module_level_check_skips_function_bodies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    from . import sampling\n", encoding="utf-8")
    assert imported_names(probe, into_functions=False) == set()
    assert "sampling" in imported_names(probe)
    probe.write_text("if True:\n    import numpy\n", encoding="utf-8")
    assert "numpy" in imported_names(probe, into_functions=False)


@pytest.mark.parametrize("module", sorted(
    str(p.relative_to(SRC)) for p in SRC.rglob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports(SRC / module) == set()


def test_unused_import_check_sees_each_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    for line in ("import csv", "import os.path", "import numpy as np", "from io import StringIO",
                 "from dataclasses import replace as swap", "def f():\n    import csv"):
        probe.write_text("from __future__ import annotations\n" + line + "\n", encoding="utf-8")
        assert len(unused_imports(probe)) == 1, line
    probe.write_text("import os.path\nfrom io import StringIO as S\nos.path.join(S())\n",
                     encoding="utf-8")
    assert unused_imports(probe) == set()


def test_simulate_loads_no_numpy(tmp_path):
    # the subprocess imports the same teleqos as this test, installed or not
    scenario = tmp_path / "baseline.scn"
    scenario.write_text(baseline_text(), encoding="utf-8")
    src = str(Path(teleqos.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from teleqos.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "loaded = [m for m in ('numpy', 'concurrent.futures.process') if m in sys.modules]\n"
        "print(code, loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code,
         "simulate", "--config", str(scenario), "--duration", "2", "--warmup", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
