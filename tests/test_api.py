"""The package surface: its export list and its runtime dependencies."""

import ast
import dataclasses
import importlib
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


def test_every_export_is_read_by_a_package_module():
    # a public name that no module of the package reads serves only the tests;
    # save_series stays as the tests' reference writer of save_epoch_correlations'
    # bytes, and CI re-saves the demo archive with it
    read = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(set(marketstates.__all__) - read - {"save_series"}) == []


def imported_names(relative=False):
    """(file, name) per absolute import in the package; ``from m import x`` gives m and m.x.

    With ``relative``, per import from a package module instead: ``from .m
    import x`` gives m and m.x.
    """
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import) and not relative:
                yield from ((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.level > 0) == relative:
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


def test_only_corrmat_knows_how_the_epoch_stack_is_stored():
    # corrmat.save_series and load_series own corr_raw.npz, and corrmat alone
    # lays out the packed rows: geometry's kernel gets its rows from
    # corrmat._kernel_copy, and the state averages and the sector series
    # read the rows through the series' own methods
    storage = {"_packed_width", "_triangle", "_pack_chunk", "_pack_epochs", "_unpack_epochs",
               "_power"}
    leaks = [f"{file}: {name}" for file, name in imported_names(relative=True)
             if file != "corrmat.py" and name.rpartition(".")[2] in storage]
    assert leaks == []
    # the archive member, by name or as a save_arrays keyword
    members = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.name != "corrmat.py"
               and any(word in path.read_text() for word in ('"packed"', "packed="))]
    assert members == []


def importers(name):
    """The package modules that import ``name`` from another package module."""
    return {file for file, imported in imported_names(relative=True)
            if imported.rpartition(".")[2] == name and file != "__init__.py"}


def test_one_route_from_prices_to_states():
    # corr streams the stock-level epochs into their archive through one
    # writer; states and sectors read it, and only an event window cuts its
    # own epochs from returns into memory
    assert importers("save_epoch_correlations") == {"pipeline.py", "cli.py"}
    assert importers("epoch_correlations") == {"trajectory.py"}
    # only the sector fit reads the sector map, and no record carries it
    assert importers("load_sector_map") == {"pipeline.py", "cli.py"}
    carriers = [f"{module.__name__}.{cls.__name__}"
                for module in (importlib.import_module(f"marketstates.{path.stem}")
                               for path in sorted(PACKAGE_DIR.glob("*.py"))
                               if path.stem != "__main__")  # which would run the CLI
                for cls in vars(module).values()
                if dataclasses.is_dataclass(cls) and isinstance(cls, type)
                and "sector_of" in {f.name for f in dataclasses.fields(cls)}]
    assert carriers == []
    # stages share values only through their files, and only the pipeline's
    # stages and the CLI read corr_raw.npz as a series
    from marketstates.pipeline import _Run

    assert {f.name for f in dataclasses.fields(_Run)} == {"out", "workers", "names", "digests"}
    assert importers("load_series") == {"pipeline.py", "cli.py"}


def test_serialize_knows_formats_and_no_domain_type():
    # pipeline.write_fit writes a state model's files and pipeline.read_state_of
    # reads its model.json; serialize takes only its error type from the package
    assert {name for file, name in imported_names(relative=True)
            if file == "serialize.py"} == {"errors", "errors.DataError"}


def test_every_config_field_has_a_parser_for_its_annotation():
    # from_mapping finds a key's parser by the field's annotation; a missing one is a KeyError
    from marketstates.pipeline import PipelineConfig

    for f in dataclasses.fields(PipelineConfig):
        assert f.type in PipelineConfig._PARSERS, f.name
