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

# the workflow modules whose ``__all__`` the package itself exports
_PACKAGE_EXPORTS = ("media", "dispersion", "modes", "quantization", "fields")


@pytest.mark.parametrize("name, namespace", [
    *(pytest.param(name, None, id=name) for name in _MODULES),
    *(pytest.param(name, slabspp, id=f"package-{name}")
      for name in _PACKAGE_EXPORTS),
])
def test_every_exported_name_resolves(name, namespace):
    """Every name in ``__all__`` is the module's own object, also when taken
    from the package; an unknown name is an ``AttributeError`` on both."""
    module = importlib.import_module(f"slabspp.{name}")
    namespace = namespace or module
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    wrong = [attr for attr in exported if not hasattr(module, attr)
             or getattr(namespace, attr, None) is not getattr(module, attr)]
    assert not wrong, wrong
    with pytest.raises(AttributeError):
        getattr(namespace, "not_an_exported_name")


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), namespace)
    assert [len(row) for row in namespace["g"]] == [2, 2]
    assert namespace["samples"].values.shape == (500, 2)
    assert "amplified" in out.getvalue()
