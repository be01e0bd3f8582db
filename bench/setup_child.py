"""Time `import mcvlie.cli` in this fresh interpreter; print the seconds.

Nothing that mcvlie imports is imported before the clock starts: os, sys
and time are already loaded when the interpreter starts.
"""

import os
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

t0 = perf_counter()
import mcvlie.cli  # noqa: E402, F401

print(perf_counter() - t0)
