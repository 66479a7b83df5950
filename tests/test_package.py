"""The package's public surface: every exported name and the README example."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import slabspp

_MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(slabspp.__path__)
                  if name != "__main__")


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"slabspp.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, missing


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["g"].shape == (2, 2)
    assert namespace["samples"].values.shape == (500, 2)
    assert "amplified" in out.getvalue()
