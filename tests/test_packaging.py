import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_declared_script_imports():
    # an installed console script whose target does not import crashes on start
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
