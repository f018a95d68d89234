"""Every module under ``src/repro`` has a consumer that a user runs.

A module counts as consumed when code outside ``tests/`` imports it: the
package itself (package ``__init__`` re-exports aside), an example, or a
benchmark.  ``from pkg import name`` is resolved through the package's
``from ... import`` re-exports, and through ``repro``'s lazy ``_EXPORTS``
table, to the module that defines ``name``, so re-exporting a module from
its ``__init__`` does not make it consumed.  A module that only its own
unit tests import is dead surface: give it a consumer or delete it.  The
same holds one level down for the fields of the parameter tables.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Run as the ``astra-repro`` console script, not imported.
ENTRY_POINTS = {"repro.cli"}

#: Modules kept without a consumer, each with the reason ROADMAP gives.
ALLOWED = {
    "repro.analysis.trace": "the cross-dimension overlap metric of the "
                            "chunk-pipelining item",
    "repro.topology.auto_map": "the paper's Sec. IV-B logical-to-physical "
                               "mapping, run by the mapped-route and "
                               "transport pins",
}


def _source(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _imports(tree: ast.AST):
    """``(module, name)`` per imported name; ``name`` is None for ``import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield node.module, alias.name


def _reexports(package: str) -> dict[str, str]:
    """Name -> the module a package ``__init__`` imports it from."""
    if package == "repro":
        return dict(repro._EXPORTS)
    tree = ast.parse(_source(package).read_text())
    return {name: module for module, name in _imports(tree) if name}


def _defining_module(module: str, name: str | None) -> str:
    """The module ``from module import name`` (or ``import module``) uses."""
    if name is not None and _source(f"{module}.{name}"):
        return f"{module}.{name}"
    if name is not None and _source(module).name == "__init__.py":
        origin = _reexports(module).get(name)
        if origin is not None:
            return _defining_module(origin, name)
    return module


def _consumer_files() -> list[Path]:
    files = [p for p in (SRC / "repro").rglob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "examples").rglob("*.py")
    files += [p for p in (ROOT / "benchmarks").rglob("*.py")
              if (ROOT / "benchmarks" / "e2e" / "tests") not in p.parents]
    return files


def _consumed() -> set[str]:
    consumed = set()
    for path in _consumer_files():
        for module, name in _imports(ast.parse(path.read_text())):
            if module == "repro" or module.startswith("repro."):
                consumed.add(_defining_module(module, name))
    return consumed


def test_every_module_has_a_consumer():
    modules = {".".join(p.relative_to(SRC).with_suffix("").parts)
               for p in (SRC / "repro").rglob("*.py") if p.name != "__init__.py"}
    consumed = _consumed()
    dead = sorted(modules - consumed - ENTRY_POINTS - set(ALLOWED))
    assert not dead, f"modules nothing outside tests/ imports: {dead}"
    stale = sorted(set(ALLOWED) & consumed)
    assert not stale, f"allowed modules now have a consumer; drop them from ALLOWED: {stale}"


def _attributes_read(files) -> set[str]:
    """Every attribute name loaded (``x.name``) in ``files``."""
    return {node.attr for path in files
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_parameter_field_has_a_reader():
    """A field of a :mod:`repro.config.parameters` table that no code
    outside ``config/`` reads is a value a user can set that changes
    nothing but the run-cache key: read it or delete it.

    A field counts as read when any attribute of that name is loaded, on
    any object, so a name shared with an unrelated attribute hides a dead
    field: ``SystemConfig.topology`` (read as ``system.topology``, the
    logical topology) and ``SimulationConfig.num_passes`` (``args.num_passes``)
    both counted as read before they were deleted."""
    import dataclasses

    from repro.config import parameters

    tables = [cls for cls in vars(parameters).values()
              if dataclasses.is_dataclass(cls) and cls.__module__ == parameters.__name__]
    config_dir = SRC / "repro" / "config"
    read = _attributes_read(p for p in (SRC / "repro").rglob("*.py")
                            if config_dir not in p.parents)
    unread = [f"{cls.__name__}.{field.name}" for cls in tables
              for field in dataclasses.fields(cls) if field.name not in read]
    assert not unread, f"parameter fields nothing outside config/ reads: {unread}"
