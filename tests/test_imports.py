"""Module structure: how the modules of ``src/qlayout`` import each other."""
import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qlayout"


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
