"""The two sides of the package stay apart: the numerical side (sampling
and root finding) imports nothing of the exact search, and the exact side
never loads the estimator or numpy.  `cli` is where the two meet.  No
module but `subspace_search`, for `SearchResult` alone, imports
`dataclasses`, so none puts it and the `inspect` it pulls in back on a
command's start-up path.  `cli.main` names no command: each command
checks its own flags.

The modules are read as source, not imported, and every import counts,
those inside function bodies included."""

import ast
from pathlib import Path

import pytest

import amoebadim

PACKAGE = Path(amoebadim.__file__).parent
BEYOND_THE_SEARCH = sorted(path.stem for path in PACKAGE.glob("*.py")
                           if path.stem != "subspace_search")
NUMERICAL = ("estimator", "roots")
EXACT = ("subspace_search", "bounds", "polyhedral", "rational_linalg",
         "families")


def imported_modules(name):
    """The top-level names of the modules that `name`.py imports, with
    the package's own modules named without the `amoebadim.` prefix."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:             # from . import x
                paths = [alias.name for alias in node.names]
            else:                               # from .x import y
                paths = [node.module]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if parts[0] == "amoebadim" and len(parts) > 1:
                parts = parts[1:]
            found.add(parts[0])
    return found


@pytest.mark.parametrize("name", NUMERICAL)
def test_numerical_side_imports_nothing_exact(name):
    assert imported_modules(name).isdisjoint(EXACT)


@pytest.mark.parametrize("name", EXACT)
def test_exact_side_imports_no_estimator_or_numpy(name):
    assert imported_modules(name).isdisjoint(NUMERICAL + ("numpy",))


def test_imports_are_found_in_function_bodies():
    # estimator imports numpy and roots only inside its kernels
    assert {"numpy", "roots", "frozen"} <= imported_modules("estimator")


@pytest.mark.parametrize("name", BEYOND_THE_SEARCH)
def test_only_the_search_imports_dataclasses(name):
    assert "dataclasses" not in imported_modules(name)


def test_main_names_no_command():
    # each command checks its own flags; `main` only parses and runs
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    strings = {node.value for node in ast.walk(main)
               if isinstance(node, ast.Constant)}
    assert strings.isdisjoint({"dim", "gen", "estimate", "verify"})
