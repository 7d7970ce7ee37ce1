"""The package's public surface: its exports and README's examples."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import climdemand

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["climdemand"] + [
    f"climdemand.{info.name}" for info in pkgutil.iter_modules(climdemand.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks ``from module import *``.
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
