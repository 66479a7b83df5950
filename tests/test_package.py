"""The package's public surface: every exported name and the README example."""

import ast
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


def test_import_star_binds_every_exported_name():
    """``from slabspp import *`` binds each workflow module's exports."""
    modules = [importlib.import_module(f"slabspp.{m}")
               for m in _PACKAGE_EXPORTS]
    exported = {name: getattr(module, name)
                for module in modules for name in module.__all__}
    namespace = {}
    exec("from slabspp import *", namespace)
    del namespace["__builtins__"]
    assert len(slabspp.__all__) == len(exported)
    assert namespace.keys() == exported.keys()
    assert all(namespace[name] is value for name, value in exported.items())


def test_readme_config_table_matches_schema():
    """The README's configuration table names exactly the keys of
    ``cli._SCHEMA``, section by section and in its order."""
    from slabspp.cli import _SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| section | key | default | meaning |\n"
                         "|---|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    section = None
    for row in table.splitlines():
        _, section_cell, key_cell, *_ = row.split("|")
        if section_cell.strip():
            section = re.fullmatch(r"`\[(.+)\]`", section_cell.strip()).group(1)
        documented.setdefault(section, []).extend(
            re.findall(r"`([^`]+)`", key_cell))
    assert documented == {name: list(keys) for name, keys in _SCHEMA.items()}


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


def _records():
    """One instance of each public record type, keyed by its name."""
    from slabspp import (SYMMETRIC, DielectricSpec, DrudeMetalSpec,
                         SlabGeometry, SppState, gain_sweep, green_coefficient,
                         make_medium_set, solve_dispersion)
    from slabspp.verify import CheckRecord

    metal = DrudeMetalSpec(1.402e16, 6.25e13)
    media = make_medium_set(metal, DielectricSpec(0.9726, -0.063), 4.8e15)
    geom = SlabGeometry(6e-8)
    sol = solve_dispersion(SYMMETRIC, geom, media)
    sweep = gain_sweep([SYMMETRIC], geom, metal, 0.9726, [-0.1, 0.0], 4.8e15)
    records = [metal, DielectricSpec(0.9726), media, SYMMETRIC, geom, sol,
               sweep.rows[0], sweep.crossings["symmetric"], sweep,
               green_coefficient(sol),
               CheckRecord("ccr_closure", "symmetric", 4.8e15, 0.0, 1e-12),
               SppState(1.0)]
    return {type(r).__name__: r for r in records}


_RECORDS = _records()


@pytest.mark.parametrize("record", _RECORDS.values(), ids=_RECORDS.keys())
def test_records_are_immutable(record):
    """Neither a field nor a new attribute of a record can be assigned."""
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    if type(record).__name__ == "GainSweepResult":
        with pytest.raises(AttributeError):
            record.rows.append(record.rows[0])
        with pytest.raises(TypeError):
            record.crossings["antisymmetric"] = None


_SRC = Path(slabspp.__file__).resolve().parent

# the exceptions the package raises for an input it cannot serve
_REFUSALS = [("dispersion", "DispersionError"),
             ("dispersion", "NonConvergence"),
             ("dispersion", "BranchViolation"),
             ("fields", "NeutralModeSingularity"),
             ("fields", "FieldOverflowError"),
             ("modes", "DegenerateResidue"),
             ("oracles", "QuadratureError"),
             ("oracles", "ContourError")]


@pytest.mark.parametrize("module, name", _REFUSALS,
                         ids=[name for _, name in _REFUSALS])
def test_every_refusal_is_a_value_error(module, name):
    cls = getattr(importlib.import_module(f"slabspp.{module}"), name)
    assert issubclass(cls, ValueError)


def test_field_overflow_is_still_an_overflow_error():
    from slabspp.fields import FieldOverflowError

    assert issubclass(FieldOverflowError, OverflowError)


def _handled_names(node):
    """Names of the exception classes an ``except`` clause lists."""
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _handled_names(elt)]
    return [node.attr if isinstance(node, ast.Attribute) else node.id]


def test_no_except_clause_names_a_package_exception():
    """Refusals are caught as ``ValueError``; the class hierarchy alone says
    which errors those are.  Only the CLI's own two errors are caught by
    name."""
    own = {name for module in _MODULES
           for name, value in vars(importlib.import_module(
               f"slabspp.{module}")).items()
           if isinstance(value, type) and issubclass(value, BaseException)
           and value.__module__.startswith("slabspp.")}
    assert {name for _, name in _REFUSALS} <= own
    allowed = {"ConfigError", "_OutputError"}
    named = [(path.name, handler.lineno, name)
             for path in sorted(_SRC.glob("*.py"))
             for handler in ast.walk(ast.parse(path.read_text()))
             if isinstance(handler, ast.ExceptHandler)
             for name in _handled_names(handler.type)
             if name in own - allowed]
    assert not named, named


def _unused_imports(path):
    """``(name, line)`` of each module-level import of ``path`` whose bound
    name the module never reads nor lists in its ``__all__``."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in bound.items()
                  if name not in used)


def test_no_module_level_import_goes_unused():
    """Each name a module-level import binds, in the package, the tests or
    the scripts, is read somewhere in its module."""
    root = Path(__file__).resolve().parents[1]
    unused = [(str(path.relative_to(root)), name, line)
              for folder in (_SRC, root / "tests", root / "scripts")
              for path in sorted(folder.glob("*.py"))
              for name, line in _unused_imports(path)]
    assert not unused, unused
