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


def imported_names():
    """(file, name) per absolute import in the package; ``from m import x`` gives m and m.x."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module
                yield from ((path.name, f"{node.module}.{alias.name}") for alias in node.names)


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = [f"{file}: {name}" for file, name in imported_names()
               if name.split(".")[0] not in allowed]
    assert outside == []


def test_package_runs_on_threads_only():
    # every --workers count means threads that share one process's arrays
    processes = [f"{file}: {name}" for file, name in imported_names()
                 if name.split(".")[0] == "multiprocessing"
                 or name.startswith("concurrent.futures.process")
                 or name.endswith("ProcessPoolExecutor")]
    assert processes == []
