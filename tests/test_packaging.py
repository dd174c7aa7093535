import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# the package's module aliases, as every module imports them
_ALIASES = {"geo": "geometry", "sp": "spectral", "alg": "algebra", "fl": "flows",
            "lm": "limits"}
# every private name one module reads from another: a new one is a one-line diff
_PRIVATE_REACHES = {
    ("flows", "geometry._OCT_RHO_VERTEX"),
    ("flows", "geometry._metric_diagonal"),
    ("flows", "geometry._node_average"),
    ("flows", "geometry._oct_row_contains"),
    ("flows", "geometry._per_node_table"),
    ("limits", "geometry._metric_diagonal"),
    ("limits", "geometry._node_average"),
    ("limits", "geometry._per_node_table"),
    ("limits", "spectral._finite_real"),
    ("limits", "spectral._quantizations"),
    ("limits", "spectral._same_basis"),
    ("spectral", "geometry._per_node_table"),
    ("spectral", "geometry._sphere_rule"),
}


def test_every_declared_script_imports():
    # an installed console script whose target does not import crashes on start
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_private_names_read_across_modules_are_the_allowlist():
    reaches = set()
    for path in (ROOT / "src" / "framelab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and _ALIASES.get(node.value.id, path.stem) != path.stem
                    and node.attr.startswith("_")):
                reaches.add((path.stem, f"{_ALIASES[node.value.id]}.{node.attr}"))
    assert reaches == _PRIVATE_REACHES
