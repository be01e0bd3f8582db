"""`python3 bench/run.py --trace 1` wraps mcvlie functions by name (the
TARGETS table in bench/tracing.py) and reads attributes of their arguments
for its counters; a rename or deletion under src/ that breaks either fails
here."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from mcvlie.arrangement import Arrangement, canonicalize
from mcvlie.exactcore import ExactMatrix

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _tracing().TARGETS
    assert targets
    for module_name, path, metric in targets:
        home = importlib.import_module(f"mcvlie.{module_name}")
        if "." in path:
            # methods are patched in the class's own namespace
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(home, cls_name)), (module_name, path)
        else:
            assert callable(getattr(home, path, None)), (module_name, path)


def test_tracer_reads_its_arguments():
    # rref's counters read the matrix's shape and its entries as Fractions
    # (`rows`, `cols`, `data`); codim2_flats' repeat counter keys an
    # arrangement by `dim` and each hyperplane's `id` and `key`
    tracer = _tracing().Tracer()
    m = ExactMatrix([[Fraction(1, 1000), 3], [-7, 0], [2, 5]])
    tracer._observe("exactcore.rref", (m,))
    assert tracer.maxima["exactcore.rref.max_cells"] == 6
    assert tracer.maxima["exactcore.rref.max_entry_bits"] == (1000).bit_length()

    def arrangement(offset):
        planes = [canonicalize("H1", (1, 0), 0), canonicalize("H2", (0, 1), offset)]
        return Arrangement(2, planes)

    for arr in (arrangement(0), arrangement(1), arrangement(0)):
        tracer._observe("arrangement.codim2_flats", (arr,))
    assert tracer.counts["arrangement.codim2_flats.repeats"] == 1
