"""The library stays stdlib-only: sympy and hypothesis serve the tests alone."""

import ast
import sys
from pathlib import Path

import mkdv_a22


def test_library_imports_only_the_standard_library():
    modules = sorted(Path(mkdv_a22.__file__).parent.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_only_exact_reads_the_fraction_view_of_a_poly():
    # every Poly is stored as content times a primitive integer tuple; the
    # engine reads that form, and ``coeffs`` serves callers outside it
    readers = []
    for path in sorted(Path(mkdv_a22.__file__).parent.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "coeffs":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
