"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import fillin

# module -> {imported name: why it stays unreferenced}
KEPT = {
    "solver": {
        "is_chordal": "perfbench/layers.py traces the graphs layer through "
                      "fillin.solver.is_chordal",
    },
}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_every_import_is_used():
    modules = sorted(Path(fillin.__file__).parent.glob("*.py"))
    found = {path.stem: unused_imports(path.read_text())
             for path in modules if path.name != "__init__.py"}
    assert len(found) >= 9
    unused = {mod: names - set(KEPT.get(mod, ())) for mod, names in found.items()}
    assert {mod: names for mod, names in unused.items() if names} == {}
    # a listed exception that is used after all no longer needs listing
    assert all(set(names) <= found[mod] for mod, names in KEPT.items())


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .graphs import Graph, edge\nedge(1, 2)\n"
    assert unused_imports(source) == {"os", "np", "Graph"}
