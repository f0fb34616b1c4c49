"""Module structure: how the modules of ``src/qlayout`` import each other,
and which of their public names the program uses."""
import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import qlayout

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlayout"

#: the directories besides the package whose programs call the library
CALLERS = ("perfbench", "demos", "tools")


def package_imports(nodes) -> set[str]:
    """Modules of the package named by the import statements among ``nodes``."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import module
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qlayout."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("qlayout."))
    return found


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_import_graph_has_no_cycle():
    graph = {name: package_imports(ast.walk(tree)) for name, tree in modules().items()}
    assert "pipeline" in graph["bench"]  # the walk sees the package's own imports
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_package_imports_only_at_module_level():
    for name, tree in modules().items():
        nested = package_imports(ast.walk(tree)) - package_imports(tree.body)
        assert not nested, f"{name} imports {sorted(nested)} inside a function or block"


def test_every_import_is_used():
    for name, tree in modules().items():
        if name == "__init__":
            continue  # it imports to re-export
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"{name} imports {unused} and never uses them"


def referenced_names(tree: ast.Module) -> set[str]:
    """The names a module reads: bare names, attributes and the names it
    imports.  A ``def`` or ``class`` statement does not read its own name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_name_has_a_caller():
    # a public name only the tests call belongs in the tests
    trees = [tree for name, tree in modules().items() if name != "__init__"]
    trees += [ast.parse(path.read_text())
              for caller in CALLERS for path in sorted((ROOT / caller).glob("*.py"))]
    used = set().union(*map(referenced_names, trees))
    unused = sorted(set(qlayout.__all__) - used)
    assert not unused, f"qlayout exports {unused}, which nothing outside the tests uses"
