"""The package surface: its export list and its runtime dependencies."""

import ast
import inspect
import sys
from pathlib import Path

import marketstates

PACKAGE_DIR = Path(marketstates.__file__).parent


def test_all_is_sorted_unique_and_every_public_name():
    exported = marketstates.__all__
    assert len(set(exported)) == len(exported)
    assert exported == sorted(exported)
    bound = {name for name, value in vars(marketstates).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(exported) == bound
    assert all(hasattr(marketstates, name) for name in exported)


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
