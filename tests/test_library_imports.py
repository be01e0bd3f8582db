"""The library runs on the standard library alone and is deterministic: every
absolute import under src/mcvlie is a standard-library module, and none of
them is `random` or `dataclasses`.  Every name a module imports is read in
that module.  The CLI reads argv from its own command table and the records
are NamedTuples, so importing it loads none of `argparse`, `dataclasses` or
`inspect`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mcvlie"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_imports_only_the_deterministic_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for name in _absolute_imports(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, (path.name, name)
            assert top not in ("random", "dataclasses"), (path.name, name)


def test_every_module_level_import_is_read():
    files = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert files
    unread = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [(path.name, name) for name in sorted(imported - read)]
    assert unread == []


def test_importing_the_cli_loads_no_argparse():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, mcvlie.cli; "
             "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout == "[]\n"
