"""Per-layer tracing of mcvlie from outside the package.

`Tracer.install()` wraps the public functions listed in TARGETS in every
mcvlie module that holds them (so `codim2_flats` is traced whether it is
called from arrangement, holonomy or convolution) and `remove()` puts the
originals back.  Nothing under src/ is modified.

Each traced call is a span: name, start, end, parent span and job id.  A
span's self time is its duration minus the time covered by its child spans.
The process is single-threaded and does no I/O, so there is no wait time to
report.  The hottest tiny calls are not stored as spans (see TIMED_ONLY and
COUNT_ONLY) so that tracing does not swamp the run.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, metric prefix); the layer is the prefix's first part
TARGETS = [
    ("exactcore", "ExactMatrix.rref", "exactcore.rref"),
    ("exactcore", "kernel", "exactcore.kernel"),
    ("exactcore", "Subspace.__init__", "exactcore.subspace"),
    ("exactcore", "ExactMatrix.__mul__", "exactcore.matmul"),
    ("exactcore", "ExactMatrix.det", "exactcore.det"),
    ("exactcore", "pencil_full_rank", "exactcore.pencil_full_rank"),
    ("exactcore", "PolyMatrix.submatrix_det", "exactcore.submatrix_det"),
    ("exactcore", "charpoly", "exactcore.charpoly"),
    ("exactcore", "Poly.rational_roots", "exactcore.rational_roots"),
    ("arrangement", "codim2_flats", "arrangement.codim2_flats"),
    ("arrangement", "Hyperplane.contains_flat", "arrangement.flat_probes"),
    ("arrangement", "y_closure", "arrangement.y_closure"),
    ("holonomy", "check_integrability", "holonomy.check_integrability"),
    ("holonomy", "zero_extend", "holonomy.zero_extend"),
    ("convolution", "haraoka_convolution", "convolution.haraoka_convolution"),
    ("convolution", "haraoka_middle_convolution", "convolution.haraoka_middle_convolution"),
    ("convolution", "dr_middle_convolution", "convolution.dr_middle_convolution"),
    ("convolution", "induce_on_quotients", "convolution.induce_on_quotients"),
    ("analysis", "check_star_conditions", "analysis.check_star_conditions"),
    ("analysis", "is_irreducible", "analysis.is_irreducible"),
    ("analysis", "composition_harness", "analysis.composition_harness"),
    ("analysis", "rh_hypotheses", "analysis.rh_hypotheses"),
    ("freelie", "verify_braid_relations", "freelie.verify_braid_relations"),
    ("freelie", "bracket", "freelie.bracket"),
]

# timed and counted, but too frequent to keep one span record per call
TIMED_ONLY = {"exactcore.rref", "exactcore.matmul", "freelie.bracket"}
# counted only: the time stays with the caller (a probe is one rref call)
COUNT_ONLY = {"arrangement.flat_probes"}

LAYERS = ("exactcore", "arrangement", "holonomy", "convolution", "analysis", "freelie", "cli")


def _entry_bits(data) -> int:
    best = 0
    for row in data:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > best:
                best = b
    return best


def _arrangement_key(arr):
    return arr.dim, tuple((h.id, h.key) for h in arr.hyperplanes)


class Tracer:
    """Span recorder; one instance per traced batch."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counts = Counter()
        self.maxima = Counter()
        self.job = -1
        self.charged = Counter()  # layer -> self seconds, exactcore charged to its caller
        self._stack = []  # open frames: [start, child seconds, span index, owner layer]
        self._open = Counter()
        self._seen_arrangements = set()
        self._patches = []

    # -- instrumentation

    def _observe(self, name, args):
        """Counters taken where the work happens, before the clock starts."""
        if name == "exactcore.rref":
            m = args[0]
            self.maxima["exactcore.rref.max_cells"] = max(
                self.maxima["exactcore.rref.max_cells"], m.rows * m.cols)
            self.maxima["exactcore.rref.max_entry_bits"] = max(
                self.maxima["exactcore.rref.max_entry_bits"], _entry_bits(m.data))
        elif name == "arrangement.codim2_flats":
            key = _arrangement_key(args[0])
            if key in self._seen_arrangements:
                self.counts["arrangement.codim2_flats.repeats"] += 1
            self._seen_arrangements.add(key)
        elif name == "holonomy.check_integrability":
            if self._open["convolution.haraoka_convolution"]:
                self.counts["holonomy.checks_in_convolution"] += 1

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        stack, spans, stats, opened = self._stack, self.spans, self.stats, self._open
        keep = name not in TIMED_ONLY
        observe = self._observe
        layer = name.split(".")[0]
        charged = self.charged

        def traced(*args, **kwargs):
            observe(name, args)
            parent = stack[-1] if stack else None
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            owner = parent[3] if layer == "exactcore" and parent is not None else layer
            frame = [perf_counter(), 0.0, index, owner]
            stack.append(frame)
            opened[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened[name] -= 1
                stack.pop()
                duration = end - frame[0]
                st = stats[name]
                st[0] += 1
                st[1] += duration - frame[1]
                charged[owner] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if keep:
                    spans[index] = (name, frame[0], end,
                                    parent[2] if parent is not None else -1, self.job)

        return traced

    def install(self):
        """Wrap every target in every loaded mcvlie module that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mcvlie" or n.startswith("mcvlie.")]
        for module_name, path, name in TARGETS:
            home = sys.modules[f"mcvlie.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, name))
                self._patches.append((cls, attr, original))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- jobs

    def run_job(self, job_id, call):
        """Run one CLI job under a root `cli` span; returns call()'s result."""
        self.job = job_id
        self._seen_arrangements.clear()
        return self._wrap(call, "cli")()

    # -- results

    def metrics(self) -> dict:
        out = {}
        for _, _, name in TARGETS:
            if name in COUNT_ONLY:
                continue
            calls, self_s = self.stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["arrangement.flat_probes"] = self.counts["arrangement.flat_probes"]
        out.update(self.maxima)
        out.setdefault("exactcore.rref.max_cells", 0)
        out.setdefault("exactcore.rref.max_entry_bits", 0)
        out["exactcore.minors_per_pencil"] = _ratio(
            out["exactcore.submatrix_det.calls"], out["exactcore.pencil_full_rank.calls"])
        out["arrangement.codim2_flats.repeat_ratio"] = _ratio(
            self.counts["arrangement.codim2_flats.repeats"], out["arrangement.codim2_flats.calls"])
        out["holonomy.checks_per_convolution"] = _ratio(
            self.counts["holonomy.checks_in_convolution"],
            out["convolution.haraoka_convolution.calls"])
        out["cli.self_s"] = self.stats["cli"][1]
        out["trace.spans"] = len(self.spans)
        total = sum(st[1] for st in self.stats.values())
        for layer in LAYERS:
            layer_s = sum(st[1] for n, st in self.stats.items() if n.split(".")[0] == layer)
            out[f"share.{layer}"] = _ratio(layer_s, total)
            out[f"caller_share.{layer}"] = _ratio(self.charged[layer], total)
        return out


def _ratio(num, den):
    return num / den if den else 0.0
