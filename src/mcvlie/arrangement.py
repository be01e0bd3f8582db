"""Affine hyperplane arrangements over Q^l.

Hyperplanes are affine forms f(x) = normal·x + offset in canonical scaling
(first nonzero normal entry 1).  The module computes codimension-2 flats with
their maximal families, the split into hyperplanes parallel/transverse to a
line through the origin, the Y-closedness criterion and the Y-closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalInvariantError, PreconditionError
from .exactcore import ExactMatrix, int_from_json, rat, rat_str

_ZERO = Fraction(0)


def _canon_scale(vec):
    lead = next((x for x in vec if x != 0), None)
    if lead is None:
        return None
    return tuple(x / lead for x in vec)


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : normal·x + offset = 0}, canonically scaled.

    Equality and hashing are geometric (normal, offset); the id is a label.
    """

    id: str
    normal: tuple
    offset: Fraction

    @property
    def key(self):
        return (self.normal, self.offset)

    def __eq__(self, other):
        return isinstance(other, Hyperplane) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def contains_flat(self, flat: "Flat2") -> bool:
        return flat.cuts_form(self.normal, self.offset)


def canonicalize(hid: str, normal, offset) -> Hyperplane:
    """Scale (normal, offset) so the first nonzero normal entry is 1."""
    normal = tuple(rat(x) for x in normal)
    offset = rat(offset)
    if not any(normal):
        raise InputError(f"hyperplane {hid!r} has zero normal")
    *normal, offset = _canon_scale(normal + (offset,))
    return Hyperplane(hid, tuple(normal), offset)


@dataclass(frozen=True)
class Line:
    """Line through the origin, canonical direction (first nonzero entry 1)."""

    direction: tuple

    @staticmethod
    def of(direction) -> "Line":
        d = _canon_scale(tuple(rat(x) for x in direction))
        if d is None:
            raise InputError("line direction must be nonzero")
        return Line(d)


class Arrangement:
    """Ordered tuple of pairwise distinct canonical hyperplanes in Q^dim.

    The hyperplanes are fixed at construction, so derived data (the key set
    and the codimension-2 flats) is computed at most once per arrangement.
    """

    __slots__ = ("dim", "hyperplanes", "_by_id", "_keys", "_flats")

    def __init__(self, dim: int, hyperplanes):
        self.dim = dim
        self.hyperplanes = tuple(hyperplanes)
        self._keys = set()
        self._by_id = {}
        self._flats = None
        for h in self.hyperplanes:
            if len(h.normal) != dim:
                raise InputError(f"hyperplane {h.id!r} has wrong dimension")
            if h.key in self._keys:
                raise InputError(f"duplicate hyperplane {h.id!r}")
            if h.id in self._by_id:
                raise InputError(f"duplicate hyperplane id {h.id!r}")
            self._keys.add(h.key)
            self._by_id[h.id] = h

    def __len__(self):
        return len(self.hyperplanes)

    def __iter__(self):
        return iter(self.hyperplanes)

    def by_id(self, hid: str) -> Hyperplane:
        try:
            return self._by_id[hid]
        except KeyError:
            raise InputError(f"unknown hyperplane id {hid!r}") from None

    def ids(self):
        return [h.id for h in self.hyperplanes]

    def has_key(self, key) -> bool:
        return key in self._keys

    def contains_arrangement(self, other: "Arrangement") -> bool:
        return other.dim == self.dim and other._keys <= self._keys

    def __eq__(self, other):
        return (
            isinstance(other, Arrangement)
            and self.dim == other.dim
            and [h.key for h in self] == [h.key for h in other]
        )

    def __repr__(self):
        return f"Arrangement(dim {self.dim}, {len(self.hyperplanes)} hyperplanes)"

    # -- JSON

    def to_json(self):
        return {
            "dim": self.dim,
            "hyperplanes": [
                {
                    "id": h.id,
                    "normal": [rat_str(x) for x in h.normal],
                    "offset": rat_str(h.offset),
                }
                for h in self.hyperplanes
            ],
        }

    @staticmethod
    def from_json(data) -> "Arrangement":
        try:
            dim = int_from_json(data["dim"])
            hyperplanes = data["hyperplanes"]
            if not isinstance(hyperplanes, list):
                raise TypeError("hyperplanes must be an array")
            planes = []
            for h in hyperplanes:
                if not isinstance(h, dict) or not isinstance(h["normal"], list):
                    raise TypeError("each hyperplane must be an object with a normal array")
                planes.append(
                    canonicalize(str(h["id"]), h["normal"], h.get("offset", 0))
                )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed arrangement JSON: {exc}") from exc
        return Arrangement(dim, planes)


@dataclass(frozen=True)
class Flat2:
    """Codimension-2 flat: the reduced echelon pair of affine forms cutting
    it, plus the maximal family of arrangement hyperplanes containing it."""

    equations: tuple  # two (normal, offset) pairs, jointly in echelon form
    family: tuple  # hyperplane ids in arrangement order

    def cuts_form(self, normal, offset) -> bool:
        """Whether the affine form vanishes on the flat (i.e. lies in the
        span of the flat's equations)."""
        rows = [n + (o,) for n, o in self.equations]
        rows.append(tuple(normal) + (rat(offset),))
        return ExactMatrix(rows).rank() == 2

    @property
    def key(self) -> str:
        return "|".join(
            ",".join(rat_str(x) for x in n + (o,)) for n, o in self.equations
        )


def _flat_from_pair(h1: Hyperplane, h2: Hyperplane):
    """Canonical equation pair of h1 ∩ h2, or None for parallel hyperplanes."""
    l = len(h1.normal)
    rows = ExactMatrix([h1.normal + (h1.offset,), h2.normal + (h2.offset,)])
    red, pivots = rows.rref()
    if len(pivots) < 2:
        return None  # proportional forms: distinct canonical planes are parallel
    if pivots[-1] == l:
        return None  # inconsistent system: empty intersection
    return (
        (red.data[0][:l], red.data[0][l]),
        (red.data[1][:l], red.data[1][l]),
    )


def codim2_flats(arr: Arrangement) -> list:
    """Every codimension-2 flat of the intersection poset, each with its
    maximal family of containing hyperplanes, as a new list.

    Two distinct hyperplanes containing a codimension-2 flat X meet in
    exactly X, so the family of X is the set of hyperplanes in the pairs
    whose canonical equations are X's.  Flats come in the order of their
    first pair (i < j, lexicographic), families in arrangement order.  The
    flats are computed once per arrangement and cached on it.
    """
    if arr._flats is None:
        members = {}  # equations -> indices of the hyperplanes containing X
        planes = arr.hyperplanes
        for i, h1 in enumerate(planes):
            for j in range(i + 1, len(planes)):
                eqs = _flat_from_pair(h1, planes[j])
                if eqs is not None:
                    members.setdefault(eqs, set()).update((i, j))
        arr._flats = tuple(
            Flat2(equations=eqs, family=tuple(planes[k].id for k in sorted(idx)))
            for eqs, idx in members.items()
        )
    return list(arr._flats)


def split_parallel(arr: Arrangement, line: Line):
    """Split into (parallel, transverse) with respect to the line; a
    hyperplane is parallel iff normal·direction = 0 (this includes Y inside
    the hyperplane, matching the fibration picture)."""
    if len(line.direction) != arr.dim:
        raise PreconditionError("line dimension does not match arrangement")
    par, tra = [], []
    for h in arr.hyperplanes:
        dot = sum((a * b for a, b in zip(h.normal, line.direction)), _ZERO)
        (par if dot == 0 else tra).append(h)
    return Arrangement(arr.dim, par), Arrangement(arr.dim, tra)


def _flat_plus_line(flat: Flat2, line: Line):
    """The hyperplane flat + line, or None when the direction lies in the
    flat (then flat + line = flat)."""
    (n1, o1), (n2, o2) = flat.equations
    d1 = sum((a * b for a, b in zip(n1, line.direction)), _ZERO)
    d2 = sum((a * b for a, b in zip(n2, line.direction)), _ZERO)
    if d1 == 0 and d2 == 0:
        return None
    # the unique (up to scale) combination of the two forms killing the
    # direction: (-d2)·(n1,o1) + d1·(n2,o2)
    normal = tuple(-d2 * a + d1 * b for a, b in zip(n1, n2))
    *normal, offset = _canon_scale(normal + (-d2 * o1 + d1 * o2,))
    return tuple(normal), offset


def is_y_closed(arr: Arrangement, line: Line) -> bool:
    """Terao's criterion: the line is good iff for every codim-2 flat X the
    sum X + line is again in the intersection poset."""
    if len(line.direction) != arr.dim:
        raise PreconditionError("line dimension does not match arrangement")
    return not _closure_pass(arr, line)


def _closure_pass(arr: Arrangement, line: Line):
    additions = []
    seen = set()
    for flat in codim2_flats(arr):
        form = _flat_plus_line(flat, line)
        if form is None or form in seen or arr.has_key(form):
            continue
        seen.add(form)
        additions.append((flat.key, form))
    return additions


def y_closure(arr: Arrangement, line: Line) -> Arrangement:
    """The minimal Y-closed arrangement containing arr: appends the missing
    hyperplanes X + Y with generated ids.  A single pass suffices; the loop
    still runs to a fixpoint and treats a productive second pass as a bug."""
    if len(line.direction) != arr.dim:
        raise PreconditionError("line dimension does not match arrangement")
    current = arr
    passes = 0
    while True:
        additions = _closure_pass(current, line)
        if not additions:
            return current
        passes += 1
        if passes > 1:
            raise InternalInvariantError(
                "Y-closure did not stabilize after one pass"
            )
        taken = set(current.ids())
        planes = list(current.hyperplanes)
        for flat_key, (normal, offset) in additions:
            hid = f"cl:{flat_key}"
            while hid in taken:
                hid += "'"
            taken.add(hid)
            planes.append(Hyperplane(hid, normal, offset))
        current = Arrangement(arr.dim, planes)


def line_from_json(data) -> Line:
    try:
        return Line.of(data["direction"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed line JSON: {exc}") from exc


def braid_arrangement(n: int) -> Arrangement:
    """The braid arrangement {z_i - z_j = 0 : i < j} in Q^n."""
    planes = []
    for i in range(n):
        for j in range(i + 1, n):
            normal = [_ZERO] * n
            normal[i], normal[j] = Fraction(1), Fraction(-1)
            planes.append(Hyperplane(f"H{i + 1}{j + 1}", tuple(normal), _ZERO))
    return Arrangement(n, planes)
