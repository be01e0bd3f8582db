"""Exact rational linear algebra: dense matrices over Q, canonical subspaces,
univariate polynomials, polynomial pencils and integer spectra.

Everything here is exact.  Rationals are `fractions.Fraction`, matrices are
immutable tuples of tuples, and subspaces are kept in reduced column echelon
form so that structural equality coincides with equality of spans.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm
from operator import mul

from .errors import InputError, InternalInvariantError, PreconditionError

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


# Python prints integers of at most 4300 digits by default; a decimal
# exponent beyond that would build a number no output could show
MAX_EXPONENT = 4300


def rat(x) -> Fraction:
    """Coerce ints, Fractions and strings like "-3/7" or "5" to Fraction;
    anything else, booleans included, is an InputError, and so is a string
    whose decimal exponent exceeds MAX_EXPONENT in size."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        text = x.replace("−", "-").strip()
        if "e" in text or "E" in text:
            try:
                exponent = abs(int(text.lower().partition("e")[2]))
            except ValueError:
                exponent = 0  # malformed: Fraction rejects it below
            if exponent > MAX_EXPONENT:
                raise InputError(f"exponent larger than {MAX_EXPONENT} in {x!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {x!r}") from exc
    raise InputError(f"not a rational: {x!r}")


def rat_str(x: Fraction) -> str:
    """Canonical string form: reduced, positive denominator, "p/q" or "p".
    A number with more digits than Python prints is a PreconditionError."""
    try:
        return str(x)
    except ValueError as exc:
        raise PreconditionError(f"result too large to print: {exc}") from exc


# ---------------------------------------------------------------------------
# Dense exact matrices


class ExactMatrix:
    """Immutable dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, shape=None):
        rows = [tuple(rat(x) for x in row) for row in data]
        if shape is not None:
            r, c = shape
            if len(rows) != r or any(len(row) != c for row in rows):
                raise InputError(f"matrix data does not match shape {shape}")
            self.rows, self.cols = r, c
        else:
            self.rows = len(rows)
            if self.rows == 0:
                raise InputError("empty matrix needs an explicit shape")
            self.cols = len(rows[0])
            if any(len(row) != self.cols for row in rows):
                raise InputError("ragged matrix rows")
        self.data = tuple(rows)

    @classmethod
    def _of(cls, data, rows: int, cols: int) -> "ExactMatrix":
        """Trusted constructor for results computed here: data is already a
        tuple of `rows` tuples of `cols` Fractions, so nothing is coerced or
        checked.  Outside input goes through `ExactMatrix(data, shape)`."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    # -- constructors

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix._of(((_ZERO,) * c,) * r, r, c)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._of(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)),
            n,
            n,
        )

    @staticmethod
    def from_cols(cols, ambient: int) -> "ExactMatrix":
        cols = [tuple(rat(x) for x in c) for c in cols]
        if any(len(c) != ambient for c in cols):
            raise InputError("column length does not match ambient dimension")
        return ExactMatrix._of(
            tuple(tuple(c[i] for c in cols) for i in range(ambient)), ambient, len(cols)
        )

    @staticmethod
    def hstack(mats) -> "ExactMatrix":
        mats = list(mats)
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise PreconditionError("hstack: row counts differ")
        return ExactMatrix._of(
            tuple(tuple(x for m in mats for x in m.data[i]) for i in range(r)),
            r,
            sum(m.cols for m in mats),
        )

    @staticmethod
    def vstack(mats) -> "ExactMatrix":
        mats = list(mats)
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise PreconditionError("vstack: column counts differ")
        return ExactMatrix._of(
            tuple(row for m in mats for row in m.data), sum(m.rows for m in mats), c
        )

    @staticmethod
    def block(grid) -> "ExactMatrix":
        """Assemble from a 2-d grid of matrices with compatible shapes."""
        return ExactMatrix.vstack([ExactMatrix.hstack(row) for row in grid])

    # -- accessors

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def to_lists(self):
        return [list(row) for row in self.data]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    # -- arithmetic

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PreconditionError("matrix addition: shape mismatch")
        return ExactMatrix._of(
            tuple(
                tuple(a + b if a and b else a or b for a, b in zip(r1, r2))  # 0 + b is b
                for r1, r2 in zip(self.data, other.data)
            ),
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PreconditionError("matrix subtraction: shape mismatch")
        return ExactMatrix._of(
            tuple(
                tuple(a - b if b else a for a, b in zip(r1, r2))
                for r1, r2 in zip(self.data, other.data)
            ),
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, a) -> "ExactMatrix":
        a = rat(a)
        return ExactMatrix._of(
            tuple(tuple(a * x for x in row) for row in self.data), self.rows, self.cols
        )

    def __mul__(self, other):
        """Matrix product on integers.  Each left row and right column is
        cleared of denominators by their lcm; entry (i, j) is the integer
        product of row i and column j divided by the two lcms.  A sparse left
        row sums its multiples of the (column-scaled) right rows instead."""
        if not isinstance(other, ExactMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise PreconditionError("matrix product: inner dimensions differ")
        if not self.cols or not other.cols:
            return ExactMatrix.zeros(self.rows, other.cols)
        icols, dens = zip(*[_cleared(c) for c in zip(*other.data)])
        irows = list(zip(*icols))
        zero_row = (_ZERO,) * other.cols
        out = []
        for row in self.data:
            ints, da = _cleared(row)
            nz = [k for k, x in enumerate(ints) if x]
            if not nz:
                out.append(zero_row)
                continue
            if 2 * len(nz) > len(ints):
                sums = [sum(map(mul, ints, c)) for c in icols]
            else:
                k = nz[0]
                a = ints[k]
                sums = [a * y for y in irows[k]]
                for k in nz[1:]:
                    a = ints[k]
                    sums = [x + a * y for x, y in zip(sums, irows[k])]
            out.append(
                tuple(
                    _ZERO if not s else Fraction(s) if da * db == 1 else Fraction(s, da * db)
                    for s, db in zip(sums, dens)
                )
            )
        return ExactMatrix._of(tuple(out), self.rows, other.cols)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self) -> "ExactMatrix":
        if not self.rows:
            return ExactMatrix.zeros(self.cols, 0)
        return ExactMatrix._of(tuple(zip(*self.data)), self.cols, self.rows)

    def add_scaled_identity(self, a) -> "ExactMatrix":
        if not self.is_square:
            raise PreconditionError("shifted identity needs a square matrix")
        a = rat(a)
        return ExactMatrix._of(
            tuple(
                tuple(x + a if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(self.data)
            ),
            self.rows,
            self.cols,
        )

    def trace(self) -> Fraction:
        if not self.is_square:
            raise PreconditionError("trace needs a square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), _ZERO)

    # -- equality

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.data)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    # -- eliminations

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column indices).

        Fraction-free Gauss-Jordan: rows are cleared of denominators and
        kept primitive, a row is reduced as p·row − f·pivot_row, and the
        Fractions are made at the end by dividing each pivot row by its
        pivot.  The reduced form is unique, so it equals the one reached by
        elimination over Q."""
        nr, nc = self.rows, self.cols
        m = [_primitive(_cleared(row)[0]) for row in self.data]
        pivots = []
        r = 0
        for c in range(nc):
            pr = next((i for i in range(r, nr) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            prow = m[r]
            p = prow[c]
            for i in range(nr):
                f = m[i][c]
                if f and i != r:
                    g = int_gcd(p, f)
                    a, b = p // g, f // g
                    m[i] = _primitive([a * x - b * y for x, y in zip(m[i], prow)])
            pivots.append(c)
            r += 1
            if r == nr:
                break
        data = [
            tuple(_ZERO if not x else Fraction(x, p) for x in row)
            for row, p in ((m[k], m[k][c]) for k, c in enumerate(pivots))
        ]
        data += [(_ZERO,) * nc] * (nr - r)
        return ExactMatrix._of(tuple(data), nr, nc), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        """Determinant by fraction-free Bareiss elimination on the rows
        cleared of denominators, divided back by the row scales."""
        if not self.is_square:
            raise PreconditionError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return _ONE
        m = []
        num = den = 1
        for row in self.data:
            ints, d = _cleared(row)
            g = int_gcd(*ints)
            if not g:
                return _ZERO
            m.append([x // g for x in ints])
            num *= g
            den *= d
        sign = 1
        prev = 1
        for k in range(n - 1):
            if not m[k][k]:
                pr = next((i for i in range(k + 1, n) if m[i][k]), None)
                if pr is None:
                    return _ZERO
                m[k], m[pr] = m[pr], m[k]
                sign = -sign
            mk = m[k]
            p = mk[k]
            for i in range(k + 1, n):
                mi = m[i]
                f = mi[k]
                mi[k + 1:] = [(x * p - f * y) // prev for x, y in zip(mi[k + 1:], mk[k + 1:])]
                mi[k] = 0
            prev = p
        return Fraction(sign * m[n - 1][n - 1] * num, den)

    def is_invertible(self) -> bool:
        return self.is_square and self.det() != 0


def _cleared(row):
    """(integers, d): the row times the lcm d of its denominators."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // x.denominator) for x in row], d


def _primitive(ints):
    """The integer row divided by the gcd of its entries (a zero row as is)."""
    g = int_gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def solve_right(a: ExactMatrix, b: ExactMatrix):
    """Some X with a·X = b, or None when the system is inconsistent."""
    aug, pivots = ExactMatrix.hstack([a, b]).rref()
    if any(p >= a.cols for p in pivots):
        return None
    x = [[_ZERO] * b.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        for j in range(b.cols):
            x[p][j] = aug.data[r][a.cols + j]
    return ExactMatrix._of(tuple(map(tuple, x)), a.cols, b.cols)


def right_inverse(m: ExactMatrix) -> ExactMatrix:
    """A right inverse of a matrix with full row rank."""
    z = solve_right(m, ExactMatrix.identity(m.rows))
    if z is None:
        raise PreconditionError("right_inverse: matrix does not have full row rank")
    return z


def inverse(m: ExactMatrix) -> ExactMatrix:
    if not m.is_square:
        raise PreconditionError("inverse needs a square matrix")
    z = solve_right(m, ExactMatrix.identity(m.rows))
    if z is None:
        raise PreconditionError("matrix is singular")
    return z


# ---------------------------------------------------------------------------
# Canonical subspaces


class Subspace:
    """Column span in reduced column echelon form.

    The basis matrix is the unique representative of the span whose transpose
    is in reduced row echelon form, so `==` on Subspaces is span equality.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, columns=None, basis: ExactMatrix = None):
        self.ambient_dim = ambient_dim
        if basis is not None:
            mat = basis
        elif columns:
            mat = ExactMatrix.from_cols(columns, ambient_dim)
        else:
            mat = ExactMatrix.zeros(ambient_dim, 0)
        red, pivots = mat.transpose().rref()
        cols = [red.data[i] for i in range(len(pivots))]
        self.basis = ExactMatrix.from_cols(cols, ambient_dim)
        self.pivots = pivots

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, basis=ExactMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vec) -> bool:
        v = list(rat(x) for x in vec)
        if len(v) != self.ambient_dim:
            raise PreconditionError("vector length does not match ambient dimension")
        for j, p in enumerate(self.pivots):
            c = v[p]
            if c:
                for i in range(self.ambient_dim):
                    v[i] -= c * self.basis.data[i][j]
        return all(x == 0 for x in v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel(m: ExactMatrix) -> Subspace:
    """Canonical basis of the null space {v : m v = 0}."""
    red, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -red.data[r][f]
        cols.append(v)
    return Subspace(m.cols, columns=cols)


def quotient_map(ambient_dim: int, s: Subspace):
    """Projection onto the canonical complement of s (non-pivot coordinates).

    Returns (projection, quotient_dim) with projection·v = 0 iff v in s.
    """
    if s.ambient_dim != ambient_dim:
        raise PreconditionError("quotient_map: ambient dimension mismatch")
    pivot_set = set(s.pivots)
    nonpivot = [i for i in range(ambient_dim) if i not in pivot_set]
    rows = []
    for r in nonpivot:
        row = [_ZERO] * ambient_dim
        row[r] = _ONE
        for j, p in enumerate(s.pivots):
            row[p] = -s.basis.data[r][j]
        rows.append(row)
    return ExactMatrix._of(tuple(map(tuple, rows)), len(nonpivot), ambient_dim), len(nonpivot)


def subspace_meet(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of spans, via the kernel of the stacked constraints."""
    if s1.ambient_dim != s2.ambient_dim:
        raise PreconditionError("subspace_meet: ambient dimension mismatch")
    c1, _ = quotient_map(s1.ambient_dim, s1)
    c2, _ = quotient_map(s2.ambient_dim, s2)
    return kernel(ExactMatrix.vstack([c1, c2]))


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    if s1.ambient_dim != s2.ambient_dim:
        raise PreconditionError("subspace_sum: ambient dimension mismatch")
    return Subspace(s1.ambient_dim, basis=ExactMatrix.hstack([s1.basis, s2.basis]))


class InvarianceError(InternalInvariantError):
    """A subspace expected to be invariant was not; carries an exact witness."""

    def __init__(self, message, witness_vector=None, image=None, generator=None):
        parts = [message]
        if generator is not None:
            parts.append(f"generator {generator}")
        if witness_vector is not None:
            parts.append(f"witness v = ({', '.join(map(rat_str, witness_vector))})")
        if image is not None:
            parts.append(f"A·v = ({', '.join(map(rat_str, image))})")
        super().__init__("; ".join(parts))
        self.witness_vector = witness_vector
        self.image = image
        self.generator = generator


# ---------------------------------------------------------------------------
# Univariate polynomials over Q


class Poly:
    """Polynomial over Q, coefficients lowest degree first, trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, a) -> "Poly":
        a = rat(a)
        return Poly([a * c for c in self.coeffs])

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise PreconditionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = other.leading()
        for k in range(len(rem) - len(other.coeffs), -1, -1):
            f = rem[k + len(other.coeffs) - 1] / lead
            if f:
                q[k] = f
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= f * b
        return Poly(q), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InternalInvariantError("polynomial division was not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def eval(self, c) -> Fraction:
        c = rat(c)
        out = _ZERO
        for coeff in reversed(self.coeffs):
            out = out * c + coeff
        return out

    def rational_roots(self):
        """All rational roots, sorted, found without factoring an integer.

        Let h be the squarefree part of the polynomial with its factors x
        removed, cleared to integer coefficients with leading coefficient a.
        A rational root x of h has a·x ∈ Z, so the roots are y/a for the
        integer roots y of the monic integer G(y) = a^(n−1)·h(y/a); those are
        isolated by bisecting integer intervals with a Sturm chain."""
        if self.is_zero():
            raise PreconditionError("the zero polynomial has every root")
        cs = self.coeffs
        low = 0
        while cs[low] == 0:
            low += 1
        roots = [_ZERO] if low else []
        f = Poly(cs[low:])
        if f.degree < 1:
            return roots
        h = f.exact_div(f.gcd(f.derivative()))
        ints, _ = _cleared(h.coeffs)
        n, a = h.degree, ints[-1]
        if n == 1:
            roots.append(Fraction(-ints[0], a))
        else:
            g = [c * a ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
            bound = abs(a) + max(abs(c) for c in ints[:-1])  # |y| = |a·x|, Cauchy
            roots += [Fraction(y, a) for y in _integer_roots(g, bound)]
        return sorted(roots)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_str(c))
            elif i == 1:
                terms.append(f"{rat_str(c)}*c")
            else:
                terms.append(f"{rat_str(c)}*c^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _integer_roots(g, bound: int):
    """Integer roots in [−bound, bound] of a squarefree monic integer
    polynomial g (coefficients lowest degree first, degree at least 1).

    A Sturm chain counts the distinct real roots in (lo, hi] as V(lo) − V(hi),
    V the number of sign changes.  Intervals are halved until each holds one
    root, which is simple, so g changes sign across it and its interval is
    halved further on the sign of g alone.  A unit interval (k − 1, k] holds
    an integer root only at k."""
    chain = [Poly(g)]
    chain.append(chain[0].derivative())
    while chain[-1].degree > 0:
        chain.append(-chain[-2].divmod(chain[-1])[1])
    chain = [_cleared(p.coeffs)[0] for p in chain]  # positive scales keep signs

    def changes(x):
        signs = [s for s in (_horner(p, x) for p in chain) if s]
        return sum((u < 0) != (v < 0) for u, v in zip(signs, signs[1:]))

    roots = []
    todo = [(-bound - 1, bound, changes(-bound - 1), changes(bound))]
    while todo:
        lo, hi, vlo, vhi = todo.pop()
        if vlo - vhi > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = changes(mid)
            todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
        elif vlo != vhi:  # one root, or a unit interval
            ghi = _horner(g, hi)
            while hi - lo > 1 and ghi:
                mid = (lo + hi) // 2
                gmid = _horner(g, mid)
                if gmid and (gmid < 0) == (ghi < 0):
                    hi, ghi = mid, gmid
                elif gmid:
                    lo = mid
                else:
                    hi, ghi = mid, 0
            if not ghi:
                roots.append(hi)
    return roots


def _horner(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def charpoly(a: ExactMatrix) -> Poly:
    """Monic characteristic polynomial det(x·I − a), by Faddeev-LeVerrier."""
    if not a.is_square:
        raise PreconditionError("characteristic polynomial needs a square matrix")
    n = a.rows
    coeffs = [_ZERO] * (n + 1)
    coeffs[n] = _ONE
    m = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        m = a * m
        c = -m.trace() / k
        coeffs[n - k] = c
        if k < n:
            m = m.add_scaled_identity(c)
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# Polynomial matrices and pencils


class PolyMatrix:
    """Dense matrix with Poly entries in a single indeterminate."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, shape=None):
        rows = [tuple(e if isinstance(e, Poly) else Poly.constant(e) for e in row)
                for row in data]
        if shape is not None:
            self.rows, self.cols = shape
        else:
            self.rows = len(rows)
            self.cols = len(rows[0]) if rows else 0
        if len(rows) != self.rows or any(len(r) != self.cols for r in rows):
            raise InputError("polynomial matrix data does not match shape")
        self.data = tuple(rows)

    @staticmethod
    def from_pencil(a: ExactMatrix, shift: Poly) -> "PolyMatrix":
        """a + shift(c)·Id as a matrix over Q[c]."""
        if not a.is_square:
            raise PreconditionError("pencil needs a square matrix")
        return PolyMatrix(
            [
                [
                    Poly.constant(a.data[i][j]) + (shift if i == j else Poly.zero())
                    for j in range(a.cols)
                ]
                for i in range(a.rows)
            ],
            shape=(a.rows, a.cols),
        )

    @staticmethod
    def vstack(mats) -> "PolyMatrix":
        mats = list(mats)
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise PreconditionError("vstack: column counts differ")
        return PolyMatrix(
            [row for m in mats for row in m.data],
            shape=(sum(m.rows for m in mats), c),
        )

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            shape=(self.cols, self.rows),
        )

    def eval(self, c) -> ExactMatrix:
        if self.rows == 0 or self.cols == 0:
            return ExactMatrix([], shape=(self.rows, self.cols))
        return ExactMatrix(
            [[e.eval(c) for e in row] for row in self.data],
            shape=(self.rows, self.cols),
        )

    def submatrix_det(self, row_idx) -> Poly:
        """Determinant of the square submatrix on the given rows (all columns),
        by fraction-free Bareiss elimination over Q[c]."""
        k = self.cols
        if len(row_idx) != k:
            raise PreconditionError("submatrix_det: need exactly cols rows")
        if k == 0:
            return Poly.one()
        m = [[self.data[i][j] for j in range(k)] for i in row_idx]
        sign = 1
        prev = Poly.one()
        for p in range(k - 1):
            if m[p][p].is_zero():
                pr = next((i for i in range(p + 1, k) if not m[i][p].is_zero()), None)
                if pr is None:
                    return Poly.zero()
                m[p], m[pr] = m[pr], m[p]
                sign = -sign
            for i in range(p + 1, k):
                for j in range(p + 1, k):
                    m[i][j] = (m[i][j] * m[p][p] - m[i][p] * m[p][j]).exact_div(prev)
                m[i][p] = Poly.zero()
            prev = m[p][p]
        d = m[k - 1][k - 1]
        return -d if sign < 0 else d


def pencil_full_rank(m: PolyMatrix):
    """Decide full column rank of m(c) for every c (over any extension of Q).

    Returns (full_for_all_c, defect_poly): the monic gcd of all maximal
    minors.  Rank drops exactly at the roots of defect_poly; the pencil has
    full column rank for every c iff the gcd is a nonzero constant.  When all
    minors vanish identically the defect polynomial is 0.
    """
    if m.rows < m.cols:
        raise PreconditionError("pencil_full_rank expects rows >= cols")
    g = Poly.zero()
    for rows in itertools.combinations(range(m.rows), m.cols):
        g = g.gcd(m.submatrix_det(rows))
        if g.is_constant() and not g.is_zero():
            return True, g  # gcd can only shrink; constant means full rank
    if g.is_zero():
        return False, g
    g = g.monic()
    return g.is_constant(), g


def integer_spectrum_hits(a: ExactMatrix, shift) -> list:
    """All m in Z\\{0} that are eigenvalues of a + shift·Id.

    Candidates come from integer roots of the characteristic polynomial;
    each is verified by an exact rank drop.
    """
    if not a.is_square:
        raise PreconditionError("integer_spectrum_hits needs a square matrix")
    b = a.add_scaled_identity(shift)
    p = charpoly(b)
    hits = []
    for r in p.rational_roots():
        if r.denominator != 1 or r == 0:
            continue
        m = int(r)
        if b.add_scaled_identity(-m).rank() < b.rows:
            hits.append(m)
    return sorted(hits)


# ---------------------------------------------------------------------------
# JSON helpers shared by the higher modules


def matrix_to_json(m: ExactMatrix):
    return [[rat_str(x) for x in row] for row in m.data]


def int_from_json(value) -> int:
    """A JSON integer, or a string holding one; booleans and floats are
    rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"not an integer: {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise InputError(f"not an integer: {value!r}") from exc


def matrix_from_json(data, shape=None) -> ExactMatrix:
    if (
        not isinstance(data, list)
        or (not data and shape is None)
        or not all(isinstance(row, list) for row in data)
    ):
        raise InputError("matrix JSON must be a non-empty array of arrays")
    return ExactMatrix(data, shape=shape)
