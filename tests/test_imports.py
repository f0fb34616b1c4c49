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


def test_searches_share_only_public_names():
    # the relabel search and the router share the search core's public
    # names, and the core knows neither of them
    trees = modules()
    for name in ("relabel", "routing"):
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.ImportFrom) and package_imports([node]) & {
                    "relabel", "routing", "search"}:
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{name} imports {private} from {node.module}"
    assert not package_imports(ast.walk(trees["search"])) & {"relabel", "routing"}


def test_no_search_recurses():
    # a search walks an explicit stack: its depth is bounded by its own
    # limits, not by the interpreter's recursion limit
    trees = modules()
    for name in ("relabel", "routing", "search"):
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.FunctionDef):
                names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                         for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
                assert node.name not in names, f"{name}.{node.name} refers to its own name"


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
    imports.  A ``def`` or ``class`` statement does not read its own name,
    nor does an assignment to it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def caller_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text())
            for caller in CALLERS for path in sorted((ROOT / caller).glob("*.py"))]


def test_every_public_name_has_a_caller():
    # a public name only the tests call belongs in the tests
    trees = [tree for name, tree in modules().items() if name != "__init__"] + caller_trees()
    used = set().union(*map(referenced_names, trees))
    unused = sorted(set(qlayout.__all__) - used)
    assert not unused, f"qlayout exports {unused}, which nothing outside the tests uses"


def defined_names(tree: ast.Module) -> set[str]:
    """The functions, classes and constants a module defines at its top level."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Assign):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
    return found


def test_every_private_name_is_read():
    # a helper or constant left behind by a rewrite is dead code, however small
    trees = modules()
    used = set().union(*map(referenced_names, [*trees.values(), *caller_trees()]))
    unread = sorted(f"{name}.{defined}" for name, tree in trees.items()
                    for defined in defined_names(tree) - used)
    assert not unread, f"nothing in the package or its callers reads {unread}"
