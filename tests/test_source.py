"""Source hygiene of the package: no module imports a name it never uses, and the
modules import each other in layers, without a cycle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qgame"

# perfbench/layertrace.py traces these where the sweep looks names up, so
# `qgame.sweep` keeps importing them although the sweep calls neither
TRACED_IN_SWEEP = {"nash_equilibria", "rmsd_at_equilibrium"}


def unused_imports(source: str, allowed=frozenset()) -> list[str]:
    """Names that `source` imports but never reads, bar `allowed` and the
    names a module re-exports in its `__all__`."""
    tree = ast.parse(source)
    imported, used = set(), set(allowed)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(path):
    allowed = TRACED_IN_SWEEP if path.stem == "sweep" else frozenset()
    assert unused_imports(path.read_text(encoding="utf-8"), allowed) == []


def test_leftover_import_is_found():
    source = "from functools import cached_property, lru_cache\nimport numpy as np\nimport os.path\n\nlru_cache(np)\n"
    assert unused_imports(source) == ["cached_property", "os"]
    assert unused_imports("from x import a, b\n__all__ = ['a']\n") == ["b"]
    assert unused_imports("from x import a\n", allowed={"a"}) == []


def package_imports(source: str, modules) -> set[str]:
    """The package modules among `modules` that `source` imports anywhere, a function body included."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    return {name.partition(".")[2] for name in imported if name.startswith("qgame.")} & set(modules)


def import_cycle(graph: dict) -> list[str]:
    """The modules left once every module that imports no module left is removed
    over and over: empty exactly when the import graph has no cycle."""
    left = dict(graph)
    while leaves := [module for module, imports in left.items() if not imports & left.keys()]:
        for module in leaves:
            del left[module]
    return sorted(left)


def package_graph() -> dict:
    """Each module of the package -> the package modules it imports."""
    paths = {path.stem: path for path in SRC.glob("*.py")}
    return {stem: package_imports(path.read_text(encoding="utf-8"), paths) for stem, path in paths.items()}


def test_package_imports_have_no_cycle():
    assert import_cycle(package_graph()) == []


def test_config_imports_only_game_and_statevector():
    # the config file format sits below emulation and the sweep, which both read it
    assert package_graph()["config"] <= {"game", "statevector"}


def test_import_cycle_is_found():
    source = "import qgame.sweep\nfrom qgame.noise import x\nimport numpy\n\ndef f():\n    from qgame.game import y\n"
    assert package_imports(source, ["sweep", "noise", "game", "config"]) == {"sweep", "noise", "game"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}, "e": set()}) == ["a", "b", "c", "d"]
    assert import_cycle({"a": {"b"}, "b": set()}) == []
