"""Every name a module of the package imports is used in that module,
every function, class and method it defines is named somewhere else in
the package or exported, every test helper is named by a test or another
helper, and the README's library section names every export."""

import ast
import re
from collections import Counter
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


# defined name -> why nothing in the package names it
UNCALLED_KEPT: dict[str, str] = {
    "Graph.fill_edges": "the fill pairs in index order, for library callers; the "
                        "package reads one at a time through Graph.fill_pair",
}


def uncalled(sources: dict[str, str], exported) -> set[str]:
    """Top-level functions and classes, and the non-dunder methods of
    top-level classes, that no code outside their own body names (as an
    ast Name or Attribute) and that are not exported.  Methods are
    reported as Class.method."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    named = Counter()
    for tree in trees.values():
        named.update(names_in(tree))
    found = set()
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            for label, d in defs:
                if d.name not in exported and named[d.name] <= names_in(d)[d.name]:
                    found.add(label)
    return found


def names_in(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_function_has_a_caller_in_the_package():
    modules = sorted(Path(fillin.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = uncalled({path.stem: path.read_text() for path in modules}, set(fillin.__all__))
    assert found - set(UNCALLED_KEPT) == set()
    # a listed exception that has a caller after all no longer needs listing
    assert set(UNCALLED_KEPT) <= found


def test_every_test_helper_has_a_caller():
    # a helper is named by a test module or by another helper
    tests = Path(__file__).resolve().parent
    sources = {path.stem: path.read_text() for path in sorted(tests.glob("*.py"))}
    assert len(sources) >= 10
    helpers = {node.name for node in ast.parse(sources["helpers"]).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert len(helpers) >= 20
    assert uncalled(sources, set()) & helpers == set()


def test_uncalled_definitions_are_found():
    sources = {
        "a": "def used():\n    pass\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "def exported():\n    pass\n\n"
             "class Box:\n    def __len__(self):\n        return 0\n\n"
             "    def read(self):\n        return self.fresh()\n\n"
             "    def fresh(self):\n        return 1\n",
        "b": "from .a import used\n\nused()\nBox = None\n",
    }
    assert uncalled(sources, {"exported"}) == {"recursive", "Box.read"}


def test_readme_library_section_names_every_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("## Library"):readme.index("## Tests")]
    assert set(fillin.__all__) - set(re.findall(r"`(\w+)", library)) == set()
