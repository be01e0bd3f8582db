"""`python3 bench/run.py --trace 1` wraps mcvlie functions by name (the
TARGETS table in bench/tracing.py); a rename or deletion under src/ that
breaks one of them fails here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for module_name, path, metric in targets:
        home = importlib.import_module(f"mcvlie.{module_name}")
        if "." in path:
            # methods are patched in the class's own namespace
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(home, cls_name)), (module_name, path)
        else:
            assert callable(getattr(home, path, None)), (module_name, path)
