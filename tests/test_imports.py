"""The package's modules use each other only through public names."""

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
