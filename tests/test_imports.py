"""The package's modules use each other only through public names and import
only what they read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hydroloc"


def private_imports(source: str, filename: str = "<source>") -> list[str]:
    """Each `from m import _name` in source, as 'file:line: m._name'.

    Dunder names such as __version__ are public by convention.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{filename}:{node.lineno}: {module}.{alias.name}")
    return found


def test_detector_flags_private_names():
    source = "from .propagation import ChannelProfile, _layer_at\nfrom . import __version__\n"
    assert private_imports(source) == ["<source>:1: .propagation._layer_at"]


def test_no_module_imports_a_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in private_imports(path.read_text(), path.name)]
    assert found == []


def reexports(source: str, filename: str = "<source>") -> list[str]:
    """Each name in source's __all__ that the module does not define, as 'file: name'.

    A module defines the names its top-level def, class and assignment
    statements bind; a name bound only by an import is a re-export.
    """
    tree = ast.parse(source, filename=filename)
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
                defined |= names
    return [f"{filename}: {name}" for name in exported if name not in defined]


def test_detector_flags_reexports():
    source = (
        "from .streams import child_seed\n"
        "__all__ = ['LIMIT', 'Solver', 'solve', 'child_seed']\n"
        "LIMIT = 1\nclass Solver: pass\ndef solve(): pass\n"
    )
    assert reexports(source) == ["<source>: child_seed"]


def test_every_exported_name_is_defined_where_exported():
    modules = sorted(SRC.glob("*.py"))
    assert any("__all__" in path.read_text() for path in modules)
    found = [hit for path in modules for hit in reexports(path.read_text(), path.name)]
    assert found == []


def unused_imports(source: str, filename: str = "<source>") -> list[str]:
    """Each name an import in source binds and the module never reads, as 'file:line: name'.

    A name listed only in __all__ is not read: that is a re-export.
    `from __future__` imports are compiler directives, not names.
    """
    tree = ast.parse(source, filename=filename)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                found.append(f"{filename}:{node.lineno}: {name}")
    return found


def test_detector_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from .streams import Stream, child_seed\n"
        "__all__ = ['child_seed']\n"
        "def run(): return np.zeros(os.path.getsize('x')), Stream\n"
    )
    assert unused_imports(source) == ["<source>:4: child_seed"]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [hit for path in modules for hit in unused_imports(path.read_text(), path.name)]
    assert found == []
