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


def read_names(tree: ast.Module, package: bool) -> set[str]:
    """The package's names that a module reads, counted only where the
    read must refer to them: a name imported from a module of the package
    (``from .mod import X``, ``from qlayout(.mod) import X``), an attribute
    of an imported ``qlayout`` module (``ql.X``), and, in a module of the
    package (``package``), a load of a name it defines at its top level.
    A local or an attribute that only shares a name with the package's
    does not count, nor does a ``def``, ``class`` or assignment read its
    own name."""
    own = defined_names(tree) if package else set()
    aliases = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] == "qlayout"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "qlayout"):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id in aliases):
            found.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in own:
            found.add(node.id)
    return found


def caller_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text())
            for caller in CALLERS for path in sorted((ROOT / caller).glob("*.py"))]


def package_reads(trees) -> set[str]:
    """The names the modules ``trees`` and the callers read, by :func:`read_names`."""
    return set().union(*(read_names(tree, True) for tree in trees),
                       *(read_names(tree, False) for tree in caller_trees()))


def test_a_name_shared_by_a_local_is_not_a_read():
    # a local, a parameter or a foreign attribute spelled like an export
    # does not keep the export alive; an import or an attribute of
    # qlayout does, and so does a module's load of its own name
    tree = ast.parse("import numpy as np\n"
                     "import qlayout as ql\n"
                     "from .ir import Gate\n"
                     "from qlayout.routing import route_circuit\n"
                     "def helper(barrier):\n"
                     "    measure = 1\n"
                     "    return measure, barrier, np.h, ql.cx, helper\n")
    assert read_names(tree, package=True) == {"Gate", "route_circuit", "cx", "helper"}
    assert read_names(tree, package=False) == {"Gate", "route_circuit", "cx"}


def test_every_public_name_has_a_caller():
    # a public name only the tests call belongs in the tests
    used = package_reads(tree for name, tree in modules().items() if name != "__init__")
    unused = sorted(set(qlayout.__all__) - used)
    assert not unused, f"qlayout exports {unused}, which nothing outside the tests uses"


def test_every_private_name_is_read():
    # a helper or constant left behind by a rewrite is dead code, however
    # small; a dunder such as ``__version__`` is read by convention, by
    # whoever inspects the package, not by its code
    trees = modules()
    used = package_reads(trees.values())
    unread = sorted(f"{name}.{defined}" for name, tree in trees.items()
                    for defined in defined_names(tree) - used
                    if not (defined.startswith("__") and defined.endswith("__")))
    assert not unread, f"nothing in the package or its callers reads {unread}"
