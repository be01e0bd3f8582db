"""Affine hyperplane arrangements over Q^l.

A hyperplane normal·x + offset = 0 is kept as the reduced echelon row of
[normal…, offset] (first nonzero normal entry 1), an `ExactMatrix`, and a
line through the origin as the primitive integer row of its direction, so
equal objects have equal forms.  A codimension-2 flat is its family: the
ids of the hyperplanes containing it, in arrangement order.  Two distinct
hyperplanes through the flat meet exactly in it, so the family determines
the flat, and any two members give its 2-row echelon equations
(`_flat_from_pair`, O(dim) from their Plücker coordinates).  JSON prints
hyperplanes with the first nonzero normal entry 1.

No echelon form here runs a general elimination.  `codim2_flats` finds the
families without building any equations: each pair costs one
multiply-subtract on Kronecker-packed integer rows, a few bit operations
and a hash mod P, and only pairs that land in one bucket are compared
exactly.  The Y-closure builds equations only for the flats that add a
hyperplane, whose ids they give.

The flats that add one are read off the families.  With Y the line, y its
direction and F the family of a codimension-2 flat X: X + Y is X or a
hyperplane of the arrangement exactly when some member of F is parallel to
Y (normal·y = 0).  (⇐) Let H ∈ F be parallel.  If y lies in the direction
of X, X + Y = X.  Otherwise X + Y ⊆ H, since H contains X and is invariant
under translation by y; both have dimension l − 1, so X + Y = H.  (⇒) If y
lies in the direction of X, every member of F contains y, so all are
parallel.  Otherwise X + Y = H' for some hyperplane H' of the arrangement;
H' contains X, so H' ∈ F, and H' contains y, so H' is parallel.  So only a
family with no parallel member builds X + Y, which is then a hyperplane not
yet in the arrangement, and Y-closedness is a scan of the families.

The module computes codimension-2 flats with their maximal families, the
split into hyperplanes parallel/transverse to a line through the origin, the
Y-closedness criterion and the Y-closure.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import InputError, InternalInvariantError, PreconditionError
from .exactcore import (
    P,
    ExactMatrix,
    _bits,
    _pack,
    _read_rows,
    _unpack,
    _width,
    int_from_json,
    matrix_to_json,
)


class Hyperplane(NamedTuple):
    """Affine hyperplane {x : normal·x + offset = 0}, stored as `form`, the
    1×(dim+1) reduced echelon ExactMatrix of [normal…, offset].

    Equality and hashing are geometric (the form); the id is a label.
    Tuple's own `==`, `!=` and hash would read the id too, so all three
    are overridden.
    """

    id: str
    form: ExactMatrix

    @property
    def key(self):
        """The form again; `bench/tracing.py` is its only reader."""
        return self.form

    def __eq__(self, other):
        return isinstance(other, Hyperplane) and self.form == other.form

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.form)

    def contains_flat(self, equations: ExactMatrix) -> bool:
        """Whether the hyperplane contains the codimension-2 flat with the
        2×(dim+1) `equations`, i.e. its form lies in their span."""
        return ExactMatrix.vstack([equations, self.form]).rank() == 2


def _row_form(ints):
    """The reduced echelon form of one integer row, the row over its first
    nonzero entry, with that entry's column; None for the zero row."""
    for c, lead in enumerate(ints):
        if lead:
            break
    else:
        return None
    if lead < 0:
        ints, lead = [-x for x in ints], -lead
    return ExactMatrix._of((tuple(ints),), lead, 1, len(ints)), c


def _hyperplane(hid: str, row) -> Hyperplane:
    """The hyperplane of the integer row [normal…, offset], up to a
    positive factor, in echelon form."""
    found = _row_form(row)
    if found is None or found[1] == len(row) - 1:
        raise InputError(f"hyperplane {hid!r} has zero normal")
    return Hyperplane(hid, found[0])


def canonicalize(hid: str, normal, offset) -> Hyperplane:
    """The hyperplane normal·x + offset = 0 in echelon form."""
    return _hyperplane(hid, ExactMatrix([list(normal) + [offset]]).ints[0])


def _planes_in_one_pass(hyperplanes):
    """The hyperplanes of a JSON array of objects, their rows [normal…,
    offset] read at once by `_read_rows`; None when an object is malformed
    or the read declines, and the caller reads them one by one, which
    raises the first error in order."""
    if not all(isinstance(h, dict) and isinstance(h.get("normal"), list) and "id" in h
               for h in hyperplanes):
        return None
    rows = [h["normal"] + [h.get("offset", 0)] for h in hyperplanes]
    read = _read_rows(rows, len(rows[0])) if rows else None
    if read is None:
        return None
    return [_hyperplane(str(h["id"]), row) for h, row in zip(hyperplanes, read[0])]


class Line(NamedTuple):
    """Line through the origin; `direction` is the integer row of the
    direction's echelon form (primitive, first nonzero entry positive)."""

    direction: tuple

    @staticmethod
    def of(direction) -> "Line":
        found = _row_form(ExactMatrix([list(direction)]).ints[0])
        if found is None:
            raise InputError("line direction must be nonzero")
        return Line(found[0].ints[0])


class Arrangement:
    """Ordered tuple of pairwise distinct canonical hyperplanes in Q^dim.

    The hyperplanes are fixed at construction, so derived data (the key set
    and the codimension-2 flats) is computed at most once per arrangement.
    """

    __slots__ = ("dim", "hyperplanes", "_keys", "_flats")

    def __init__(self, dim: int, hyperplanes):
        if dim < 0:
            raise InputError(f"dimension must be nonnegative, got {dim}")
        self.dim = dim
        self.hyperplanes = tuple(hyperplanes)
        self._keys = set()
        self._flats = None
        ids = set()
        for h in self.hyperplanes:
            if h.form.cols != dim + 1:
                raise InputError(f"hyperplane {h.id!r} has wrong dimension")
            if h.form in self._keys:
                raise InputError(f"duplicate hyperplane {h.id!r}")
            if h.id in ids:
                raise InputError(f"duplicate hyperplane id {h.id!r}")
            self._keys.add(h.form)
            ids.add(h.id)

    def __len__(self):
        return len(self.hyperplanes)

    def __iter__(self):
        return iter(self.hyperplanes)

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
            and [h.form for h in self] == [h.form for h in other]
        )

    def __repr__(self):
        return f"Arrangement(dim {self.dim}, {len(self.hyperplanes)} hyperplanes)"

    # -- JSON

    def to_json(self):
        return {
            "dim": self.dim,
            "hyperplanes": [
                {"id": h.id, "normal": normal, "offset": offset}
                for h in self.hyperplanes
                for *normal, offset in matrix_to_json(h.form)
            ],
        }

    @staticmethod
    def from_json(data) -> "Arrangement":
        try:
            dim = int_from_json(data["dim"])
            hyperplanes = data["hyperplanes"]
            if not isinstance(hyperplanes, list):
                raise TypeError("hyperplanes must be an array")
            planes = _planes_in_one_pass(hyperplanes)
            if planes is None:
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


def _flat_from_pair(h1: Hyperplane, h2: Hyperplane):
    """Echelon equations of h1 ∩ h2, or None for parallel hyperplanes.

    With a, b the integer rows of the two forms and i the first column
    where either is nonzero, the row of Plücker coordinates p_ik =
    a_i·b_k − a_k·b_i kills column i; its first nonzero normal column j is
    the second pivot.  The row p_kj = a_k·b_j − a_j·b_k kills column j and
    has p_ij at column i, so the two rows over p_ij are the reduced echelon
    form, the unique one any elimination reaches.  When p_ik vanishes on
    every normal column, the normals are proportional.  This costs O(dim);
    keying the flat by all C(dim+1, 2) Plücker coordinates would cost
    O(dim²) per pair.
    """
    a, b = h1.form.ints[0], h2.form.ints[0]
    n = len(a) - 1  # the last column is the offset
    i = next((k for k in range(n) if a[k] or b[k]), n)
    ai, bi = a[i], b[i]
    r2 = [ai * y - x * bi for x, y in zip(a, b)]
    j = next((k for k in range(i + 1, n) if r2[k]), None)
    if j is None:
        return None
    aj, bj = a[j], b[j]
    r1 = [x * bj - aj * y for x, y in zip(a, b)]
    p = r2[j]
    if p < 0:
        r1, r2, p = [-x for x in r1], [-x for x in r2], -p
    return ExactMatrix._of((tuple(r1), tuple(r2)), p, 2, n + 1)


def codim2_flats(arr: Arrangement) -> list:
    """Every codimension-2 flat of the intersection poset as its maximal
    family of containing hyperplanes, a tuple of ids in arrangement order,
    as a new list.

    Two distinct hyperplanes containing a codimension-2 flat X meet in
    exactly X, so the family of X is the set of hyperplanes in the pairs
    that cut X, and any two members of a family give back X
    (`_flat_from_pair`).  Flats come in the order of their first pair
    (i < j, lexicographic).  The families are found by `_families` on
    packed rows, without building any equations, once per arrangement, and
    cached on it.
    """
    if arr._flats is None:
        ids = arr.ids()
        arr._flats = tuple(
            tuple(map(ids.__getitem__, family))
            for family in _families([h.form.ints[0] for h in arr.hyperplanes], arr.dim)
        )
    return list(arr._flats)


def _families(rows, n: int):
    """The family of every codimension-2 flat cut by the hyperplanes with
    integer rows `rows` (normal…, offset; column n is the offset), as a
    tuple of row indices in increasing order, in the order of the first
    pair.

    A flat through h_i is h_i ∩ h_j for the later h_j, and it is fixed by
    the restriction r = a_c·b − b_c·a of b = row j to h_i, a = row i and c
    its first nonzero column: r kills column c, so two later planes cut the
    same flat with h_i exactly when their restrictions are proportional, and
    h_j is parallel to h_i when r is zero on every normal column.  On rows
    packed in slots of w bits (`exactcore._pack`), r is one multiply-subtract
    of packed integers, and the lowest set bit lies in the slot of r's first
    nonzero entry, the lead.  Entries of the rows are below 2^m and those
    of r below 2^(2m+1), so an entry of lead·r is one product of two
    factors below 2^(2m+1), and w = `_width(4m + 2, 1)` makes packing
    injective on r and on lead·r.  A wider w changes only the bucket keys
    below, not the families.

    A restriction R with lead l goes into the bucket (lead slot,
    R·l⁻¹ mod P), which is the same for proportional rows, and it joins a
    group of the bucket only when l'·R == l·R' exactly, so a colliding key
    costs one comparison and never merges two flats: any modulus gives the
    same families, and P keeps collisions rare.  When P divides l, the row
    is first made primitive, and when P still divides its lead every
    multiple of it shares the key (lead slot, None).  A family is emitted
    at its least member; the pairs of later members are the same flat and
    are skipped.
    """
    w = _width(4 * _bits(rows) + 2, 1)
    mask, half = (1 << w) - 1, 1 << (w - 1)
    q = P
    packed = [_pack(row, w) for row in rows]
    covered = {}  # plane index -> later planes of an emitted family through it
    for i, a in enumerate(rows[:-1]):
        c = next(filter(a.__getitem__, range(n)))
        ac, A = a[c], packed[i]
        skip = covered.pop(i, ())
        buckets, groups = {}, []
        for j in range(i + 1, len(rows)):
            if j in skip:
                continue
            R = ac * packed[j] - rows[j][c] * A
            slot = ((R & -R).bit_length() - 1) // w
            if slot == n:
                continue  # parallel
            # the lead is read inline, not through `_unpack`: 0.2 against
            # 2-3 µs a pair, 3-6 ms of a seed-1 arrangement-sweep batch
            # (1,933 pairs, one Xeon core)
            lead = ((R >> slot * w) + half & mask) - half
            if lead % q == 0:
                g = gcd(*_unpack(R, w, n + 1))
                R, lead = R // g, lead // g
            key = (slot, R % q * pow(lead, -1, q) % q if lead % q else None)
            bucket = buckets.setdefault(key, [])
            for lead2, R2, members in bucket:
                if lead2 * R == lead * R2:
                    members.append(j)
                    break
            else:
                members = [i, j]
                bucket.append((lead, R, members))
                groups.append(members)
        for members in groups:
            for t in range(2, len(members)):  # later members of a family of 3 or more
                covered.setdefault(members[t - 1], set()).update(members[t:])
            yield tuple(members)


def split_parallel(arr: Arrangement, line: Line):
    """Split into (parallel, transverse) with respect to the line; a
    hyperplane is parallel iff normal·direction = 0 (this includes Y inside
    the hyperplane, matching the fibration picture)."""
    if len(line.direction) != arr.dim:
        raise PreconditionError("line dimension does not match arrangement")
    par, tra = [], []
    for h in arr.hyperplanes:
        (par if _is_parallel(h, line) else tra).append(h)
    return Arrangement(arr.dim, par), Arrangement(arr.dim, tra)


def _is_parallel(h: Hyperplane, line: Line) -> bool:
    """Whether normal·direction = 0; the direction has dim entries, so the
    offset column drops out."""
    return not sum(map(mul, h.form.ints[0], line.direction))


def _transverse_families(arr: Arrangement, line: Line):
    """The families of `codim2_flats` with no member parallel to the line,
    in order, lazily: by the module's lemma, exactly the flats X whose
    X + Y is a hyperplane missing from arr."""
    parallel = {h.id for h in arr if _is_parallel(h, line)}
    return (family for family in codim2_flats(arr) if parallel.isdisjoint(family))


def _flat_plus_line(rows, line: Line):
    """The echelon form of the hyperplane flat + line, or None when the
    direction lies in the flat (then flat + line = flat); `rows` are two
    integer rows spanning the flat's forms."""
    e1, e2 = rows
    d1 = sum(map(mul, e1, line.direction))
    d2 = sum(map(mul, e2, line.direction))
    if d1 == 0 and d2 == 0:
        return None
    # the unique (up to scale) combination of the two forms killing the
    # direction, nonzero since the forms are independent
    return _row_form([d1 * b - d2 * a for a, b in zip(e1, e2)])[0]


def is_y_closed(arr: Arrangement, line: Line) -> bool:
    """Terao's criterion: the line is good iff for every codim-2 flat X the
    sum X + line is again in the intersection poset, that is X itself or a
    hyperplane of arr.  By the module's lemma, that holds for X exactly when
    X's family has a member parallel to the line, so this scans the
    families and builds no equation."""
    if len(line.direction) != arr.dim:
        raise PreconditionError("line dimension does not match arrangement")
    return next(_transverse_families(arr, line), None) is None


def _closure_pass(arr: Arrangement, line: Line):
    """The hyperplanes X + Y missing from arr, each as (h1, h2, form): the
    first two members of X's family and the echelon form of X + Y.

    A family with a member parallel to the line is skipped unbuilt: X + Y
    is then X or that member (the module's lemma).  Every other family
    gives a hyperplane X + Y that is not in arr, so `seen` is the only
    dedupe, and a form that is None or present raises."""
    additions = []
    seen = set()
    planes = {h.id: h for h in arr}
    for family in _transverse_families(arr, line):
        h1, h2 = planes[family[0]], planes[family[1]]
        form = _flat_plus_line((h1.form.ints[0], h2.form.ints[0]), line)
        if form is None or arr.has_key(form):
            raise InternalInvariantError(
                f"the family {family} has no member parallel to the line,"
                " yet X + Y is " + ("X" if form is None else "in the arrangement")
            )
        if form not in seen:
            seen.add(form)
            additions.append((h1, h2, form))
    return additions


def y_closure(arr: Arrangement, line: Line) -> Arrangement:
    """The minimal Y-closed arrangement containing arr: arr itself, or arr's
    hyperplanes, with their ids and in their order, followed by the missing
    hyperplanes X + Y.  Each of those contains the line's direction and gets
    the id `cl:` + the rows of X's echelon equations joined by "|", primed
    until unused; only these flats build their equations.

    A single pass suffices: every hyperplane X + Y contains y, so it is
    parallel to the line.  A flat of arr had a parallel member already or
    gains X + Y, and any other flat of the closure lies in an added
    hyperplane: either way its family has a parallel member.  A
    second pass over the result certifies that: `codim2_flats` recomputes
    the closure's families from scratch, and a family with no parallel
    member (by the module's lemma, a missing X + Y) is a bug."""
    if len(line.direction) != arr.dim:
        raise PreconditionError("line dimension does not match arrangement")
    additions = _closure_pass(arr, line)
    if not additions:
        return arr
    taken = set(arr.ids())
    planes = list(arr.hyperplanes)
    for h1, h2, form in additions:
        hid = "cl:" + "|".join(map(",".join, matrix_to_json(_flat_from_pair(h1, h2))))
        while hid in taken:
            hid += "'"
        taken.add(hid)
        planes.append(Hyperplane(hid, form))
    closed = Arrangement(arr.dim, planes)
    family = next(_transverse_families(closed, line), None)
    if family is not None:
        raise InternalInvariantError(
            f"Y-closure did not stabilize after one pass: the family {family}"
            " has no member parallel to the line"
        )
    return closed


def braid_arrangement(n: int) -> Arrangement:
    """The braid arrangement {z_i - z_j = 0 : i < j} in Q^n."""
    planes = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [0] * (n + 1)
            row[i], row[j] = 1, -1  # already in echelon form
            planes.append(Hyperplane(f"H{i + 1}{j + 1}", ExactMatrix([row])))
    return Arrangement(n, planes)
