"""Exact rational linear algebra: dense matrices over Q, canonical subspaces,
univariate polynomials, polynomial pencils and integer spectra.

Everything here is exact.  A matrix is stored as integer rows over one
positive denominator, in lowest terms, and every matrix operation computes
on those integers, the characteristic polynomial included.
`fractions.Fraction` appears only at the API edges: `rat`, entry access,
`data`, scalars and polynomial coefficients.  A rational is read one way:
`rat` reads a single value with `Fraction`, under guards that keep one
grammar on every Python version, and `rat_str` writes one as its `str`.
The JSON edge needs no Fraction: `matrix_from_json` reads a matrix of
plain "p" / "p/q" strings in one pass into integer rows with int()
(`_read_rows`, the one int() reader) and any other matrix entry by entry
with `rat`, and `matrix_to_json` writes the integer rows as reduced
strings.
Subspaces are kept in reduced column echelon form so that structural
equality coincides with equality of spans.

The Kronecker-packing layer (`_width`, `_pack`, `_slots`, `_unpack`,
`_packed_dot`, `_shifted`) is the one place that knows how an integer row
is packed into one integer and how wide its slots must be.  Every packed
product check uses it: `noncommuting_members`, `Subspace.holds`, the
mod-p span `_ModSpan`, and, outside this module, the Burnside span and its
closed-subspace test in `analysis` and the flat search in `arrangement`.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect
from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt
from math import lcm
from operator import add, lshift, mul, sub

from .errors import InputError, InternalInvariantError, PreconditionError

_ZERO = Fraction(0)
_ONE = Fraction(1)


# Python prints integers of at most 4300 digits by default; a decimal
# exponent beyond that would build a number no output could show
MAX_EXPONENT = 4300
# Python's own message for such an integer differs between versions
TOO_LARGE_TO_PRINT = "result too large to print: an integer has more digits than Python prints"


def _shown(x) -> str:
    """x as an error message shows it: a list or a dict only by its type,
    since it may hold a whole document."""
    return f"a {type(x).__name__}" if isinstance(x, (list, dict)) else repr(x)


def rat(x) -> Fraction:
    """Coerce ints, Fractions and strings like "-3/7", "5" or "1.5e-3" to
    Fraction; anything else, booleans included, is an InputError.  A string
    is read by Fraction, with "−" taken for "-", after guards that keep one
    grammar on every Python version: "_" and whitespace inside the number
    are refused, and so is a decimal exponent larger than MAX_EXPONENT in
    size."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if not isinstance(x, str):
        raise InputError(f"not a rational: {_shown(x)}")
    text = x.replace("−", "-").strip()
    # Fraction takes "1_000" from Python 3.11 on and "1 / 2" from 3.12 on
    if "_" in text or len(text.split()) > 1:
        raise InputError(f"not a rational: {x!r}")
    if "e" in text or "E" in text:
        try:
            exponent = abs(int(text.lower().partition("e")[2]))
        except ValueError:
            exponent = 0  # malformed: Fraction rejects it below
        if exponent > MAX_EXPONENT:
            raise InputError(f"exponent larger than {MAX_EXPONENT} in {x!r}")
    try:  # Fraction, like int(), refuses more than 4300 digits
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {x!r}") from exc


def rat_str(x) -> str:
    """A Fraction or int as "p/q" or "p": its str, since a Fraction is in
    lowest terms with a positive denominator.  A number with more digits
    than Python prints is a PreconditionError."""
    try:
        return str(x)
    except ValueError as exc:
        raise PreconditionError(TOO_LARGE_TO_PRINT) from exc


# ---------------------------------------------------------------------------
# Dense exact matrices


def _scaled(ints, f: int):
    return ints if f == 1 else tuple(tuple(f * x for x in row) for row in ints)


def _product_rows(left, right, cols: int) -> tuple:
    """The integer rows of left·right, for integer rows `left` and `right`
    (`cols` columns), with no gcd pass.  A left row with few nonzero
    entries against the right operand's nonzero rows sums its multiples of
    those rows instead of taking dot products with the right columns."""
    live = [k for k, row in enumerate(right) if any(row)]
    icols = tuple(zip(*right))
    zero_row = (0,) * cols
    out = []
    for row in left:
        nz = [k for k in live if row[k]]
        if not nz:
            out.append(zero_row)
        elif 2 * len(nz) > len(row):
            out.append(tuple(sum(map(mul, row, c)) for c in icols))
        else:
            k = nz[0]
            a = row[k]
            sums = [a * y for y in right[k]]
            for k in nz[1:]:
                a = row[k]
                sums = [x + a * y for x, y in zip(sums, right[k])]
            out.append(tuple(sums))
    return tuple(out)


def _sum_matrices(mats, rank: int) -> ExactMatrix:
    """The sum of rank×rank matrices in one pass over the lcm of their
    denominators."""
    if not mats:
        return ExactMatrix.zeros(rank, rank)
    den = lcm(*[m.den for m in mats])
    scaled = [_scaled(m.ints, den // m.den) for m in mats]
    ints = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*scaled))
    return ExactMatrix._of(ints, den, rank, rank)


# Kronecker substitution: a row (x_0, .., x_{n-1}) of integers packs into the
# one integer sum x_j 2^(w j).  Row i of a product A B packs as
# sum_k a_ik packed(B_k): one big-integer multiply-add per nonzero a_ik.
# The packing layer named in the module docstring follows.


def _bits(ints) -> int:
    """Bit length of the largest absolute entry of integer rows (0 when
    every entry is 0)."""
    return max(map(abs, itertools.chain.from_iterable(ints)), default=0).bit_length()


def _width(bits: int, terms: int) -> int:
    """The slot width at which packing is injective on rows whose entries
    are sums of at most `terms` products, each below 2^bits in absolute
    value (bits = the sum of the factors' bit lengths).

    Such an entry is below terms·2^bits < 2^(bits + bits(terms)) = 2^(w-1)
    in absolute value.  Balanced base-2^w digits are unique, so two rows
    whose entries all lie strictly between -2^(w-1) and 2^(w-1) are equal
    exactly when their packed integers are.  The rule has no bit to spare
    at terms = 2^k - 1 with k >= 2 and factors of at least 3 bits: there
    the extreme sum (2^k - 1)(2^b1 - 1)(2^b2 - 1) reaches 2^(w-2), so in
    slots one bit narrower it packs as the row with that entry less 2^(w-1)
    and a carry of 1 into the next slot."""
    return bits + terms.bit_length() + 1


# the longest row `_pack` and `_slots` take entry by entry (a quadratic
# cost, smaller than the recursion's overhead below about 32 entries)
_PACK_RUN = 32


def _pack(row, w: int) -> int:
    """The row (a sequence of any integers) as one integer, entry j in the
    slot of width w at bit w j.  A long row is packed by halves, so each
    level of the recursion adds numbers of the packed size once: summing
    the shifted entries one by one would redo the growing partial sum for
    every entry, quadratic in the length."""
    n = len(row)
    if n <= _PACK_RUN:
        return sum(map(lshift, row, range(0, w * n, w)))
    h = n // 2
    return _pack(row[:h], w) + (_pack(row[h:], w) << w * h)


def _slots(v: int, w: int, count: int) -> list:
    """The first `count` slots of width w of a nonnegative packed integer,
    as they stand: the entries of a packed row whose entries lie in
    [0, 2^w), read by halves as `_pack` packs."""
    if count > _PACK_RUN:
        h = count // 2
        return _slots(v & (1 << w * h) - 1, w, h) + _slots(v >> w * h, w, count - h)
    mask = (1 << w) - 1
    return [v >> s & mask for s in range(0, w * count, w)]


def _unpack(v: int, w: int, count: int) -> list:
    """The `count` entries of a packed row whose entries lie strictly
    between -2^(w-1) and 2^(w-1).  With 2^(w-1) added to every slot, each
    slot holds its entry plus 2^(w-1), in [0, 2^w), with no carry."""
    half = 1 << (w - 1)
    return [x - half for x in _slots(v + _pack([half] * count, w), w, count)]


def _packed_dot(row, packed) -> int:
    """sum_k row[k] packed[k]: row times the matrix whose packed rows are
    `packed`, itself packed.  A row with more zeros than nonzeros takes only
    its nonzero entries.  That branch pays on sparse residues: on the
    26-hyperplane `mc` wall of the ROADMAP (rank-1 residues, 24×24 after
    convolution) 96% of its 346,428 calls take it, and replaying those calls
    takes 0.49 s with it against 0.61 s without (Python 3.11, 2-core VM);
    on the bench workloads dropping it moved `batch_s` by −1.2 / +0.1 /
    −0.3% (arrangement / kz / tuple), inside their run-to-run spread."""
    if 2 * row.count(0) > len(row):
        return sum(map(mul, filter(None, row), itertools.compress(packed, row)))
    return sum(map(mul, row, packed))


def _shifted(packed, w: int) -> list:
    """The packed rows of a d×d matrix g (slots of width w), row k shifted
    to row block a at index a·d + k: the packed dot of the d^2 entries of a
    matrix m with them (`_packed_dot`) is m·g packed, with slot a·d + c
    the sum over k of m_ak g_kc."""
    d = len(packed)
    return [row << (w * d * a) for a in range(d) for row in packed]


def _transposed(ints, cols: int):
    return tuple(zip(*ints)) if ints else ((),) * cols


# The modulus of the rank certificates: a prime below 2^30, so a residue is
# a one-digit int, a product of two fits a machine word, and a `_ModSpan`
# slot that sums d^2 + d such products (d×d words) stays near 70 bits.
P = 1073741789


class _ModSpan:
    """Span of integer vectors mod a prime q (P unless given), kept as
    echelon rows with pivot entry 1 and entries in [0, q), each packed into
    one integer with slots of w bits (`_pack`).

    A vector enters packed, with nonnegative slots below terms·q^2.
    Reducing it at pivot p is a shift, a mask and % q to read slot p as f,
    then one multiply-add of (q − f) times the echelon row: that clears slot
    p mod q and adds less than q^2 to each slot, with no borrow.  The slots
    are sized for terms + width such steps, so no slot reaches the next and
    the packed integer stays exact; the slots are never negative, so this
    width is unsigned, not `_width`'s.  Only the reduced vector is read slot
    by slot (`_slots`): up to its pivot, and in full once when it becomes a
    row.

    The rank mod q of integer vectors is at most their rank over Q: a
    rational relation scaled to coprime integers stays a relation mod q.
    So `dim` never exceeds the exact span's, and reaching full width proves
    full rank over Q; a shorter span proves nothing."""

    __slots__ = ("width", "q", "w", "rows", "pivots")

    def __init__(self, width: int, terms: int = 1, q: int = P):
        self.width, self.q = width, q
        self.w = (terms + width).bit_length() + 2 * q.bit_length()  # 2^w > (terms + width)·q^2
        self.rows = []  # packed, entries in [0, q)
        self.pivots = []  # strictly increasing

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pack(self, vec) -> int:
        """An integer vector reduced mod q and packed."""
        return _pack([x % self.q for x in vec], self.w)

    def _reduce(self, v: int):
        """The packed vector reduced by every row, and the shift of its
        pivot slot, the first one not 0 mod q (None when there is none).
        The slots are read inline: this is the spin's inner loop."""
        q, w = self.q, self.w
        mask = (1 << w) - 1
        for row, p in zip(self.rows, self.pivots):
            f = (v >> p * w & mask) % q
            if f:
                v += (q - f) * row
        for shift in range(0, w * self.width, w):
            if (v >> shift & mask) % q:
                return v, shift
        return v, None

    def holds(self, vec) -> bool:
        """Whether an integer vector lies in the span mod q."""
        return self._reduce(self.pack(vec))[1] is None

    def add(self, vec) -> bool:
        """Insert an integer vector; True when it enlarges the span mod q."""
        return self.insert(self.pack(vec)) is not None

    def insert(self, v: int):
        """Reduce a packed vector and insert it when it is not in the span:
        returns its echelon row, unpacked, or None."""
        v, shift = self._reduce(v)
        if shift is None:
            return None
        q, w = self.q, self.w
        piv = shift // w
        slots = _slots(v, w, self.width)
        inv = pow(slots[piv] % q, -1, q)
        entries = [x * inv % q for x in slots]
        at = bisect(self.pivots, piv)
        self.rows.insert(at, _pack(entries, w))
        self.pivots.insert(at, piv)
        return entries

    def reduced(self) -> list:
        """The reduced echelon form mod q, unpacked: from the last row up,
        each row is cleared at every later pivot (at most `width` steps per
        row, so the slots hold), then read off mod q."""
        q, w = self.q, self.w
        mask = (1 << w) - 1
        rows = list(self.rows)
        out = [None] * len(rows)
        for k in reversed(range(len(rows))):
            out[k] = entries = [x % q for x in _slots(rows[k], w, self.width)]
            row, shift = _pack(entries, w), self.pivots[k] * w
            for j in range(k):
                f = (rows[j] >> shift & mask) % q
                if f:
                    rows[j] += (q - f) * row
        return out


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 7 and 61, which decide every n below
    4,759,123,141 (G. Jaeschke, Math. Comp. 61, 1993); so every n up to P."""
    if n < 62:
        return n in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    if not n % 2:
        return False
    odd, s = n - 1, 0
    while not odd % 2:
        odd, s = odd // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime_below(n: int) -> int:
    """The largest prime below n (n at most P); every irreducibility walk
    steps down the same primes from P, so each is found once per process."""
    n -= 1
    while not _is_prime(n):
        n -= 1
    return n


def _crt(a_rows, m: int, b_rows, q: int) -> list:
    """Entrywise the x mod m·q with x = a mod m and x = b mod q (q prime,
    not dividing m)."""
    u = pow(m, -1, q)
    return [[a + m * ((b - a) * u % q) for a, b in zip(ra, rb)] for ra, rb in zip(a_rows, b_rows)]


def _reconstruct(rows, m: int):
    """Rational reconstruction over one denominator (P. S. Wang, M. J. T.
    Guy, J. H. Davenport, SIGSAM Bull. 16, 1982): integer rows n and a
    denominator den with den·x = n mod m for every entry x of the rows and
    |n|·den < m/2^8; or None.

    An entry that den makes a residue of at most isqrt(m/2) in balanced
    form is read as that integer over den; any other is read as a fraction
    y/t with |y|, |t| <= isqrt(m/2) by the half-extended Euclidean
    algorithm, and den takes the factor |t|.  Both readings are unique at
    that size, so rows of fractions whose numerators and denominators over
    every divisor of their common denominator stay within isqrt(m/2) are
    read back exactly.  A residue of no such fraction may still read as
    one; the margin of 2^8 lets it through only rarely, and a false
    candidate costs one exact test."""
    bound, limit, half = isqrt(m // 2), m >> 8, m // 2
    den = 1
    for x in itertools.chain.from_iterable(rows):
        if abs((x * den + half) % m - half) > bound:
            r0, r1, t0, t1 = m, x * den % m, 0, 1
            while r1 > bound:
                k = r0 // r1
                r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
            den *= abs(t1)
            if den > bound:
                return None
    out = tuple(tuple((x * den + half) % m - half for x in row) for row in rows)
    if max(map(abs, itertools.chain.from_iterable(out)), default=0) * den >= limit:
        return None
    return out, den


class ExactMatrix:
    """Immutable dense matrix over Q, row-major: the integer rows `ints`
    over the denominator `den`, in canonical form (den > 0 and
    gcd(den, every entry) = 1, so a zero matrix has den 1).  Equal matrices
    have equal (rows, cols, den, ints)."""

    __slots__ = ("rows", "cols", "den", "ints", "_data")

    def __init__(self, data, shape=None):
        rows = [[x if type(x) is int else rat(x) for x in row] for row in data]
        if shape is not None:
            r, c = shape
            if len(rows) != r or any(len(row) != c for row in rows):
                raise InputError(f"matrix data does not match shape {shape}")
        else:
            r = len(rows)
            if r == 0:
                raise InputError("empty matrix needs an explicit shape")
            c = len(rows[0])
            if any(len(row) != c for row in rows):
                raise InputError("ragged matrix rows")
        den = lcm(*[x.denominator for row in rows for x in row])
        ints = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)
        m = ExactMatrix._of(ints, den, r, c)
        self.rows, self.cols, self.den, self.ints, self._data = r, c, m.den, m.ints, None

    @classmethod
    def _of(cls, ints, den: int, rows: int, cols: int) -> "ExactMatrix":
        """Trusted constructor for results computed here: `ints` is a tuple
        of `rows` tuples of `cols` ints over a positive `den`, which is
        brought to lowest terms and otherwise not checked.  Outside input
        goes through `ExactMatrix(data, shape)`."""
        if den != 1:
            g = int_gcd(den, *itertools.chain.from_iterable(ints))
            if g != 1:
                den //= g
                ints = tuple(tuple(x // g for x in row) for row in ints)
        return cls._canonical(ints, den, rows, cols)

    @classmethod
    def _canonical(cls, ints, den: int, rows: int, cols: int) -> "ExactMatrix":
        """`_of` for integer rows already in lowest terms over `den`: the
        entries of canonical matrices, rearranged or stacked (see
        `hstack`), which need no gcd pass."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.den, m.ints, m._data = rows, cols, den, ints, None
        return m

    # -- constructors

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix._of(((0,) * c,) * r, 1, r, c)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._of(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n, n
        )

    @staticmethod
    def hstack(mats) -> "ExactMatrix":
        """Side by side, over the lcm D of the denominators, each matrix
        scaled by D/den.  Canonical matrices stack to a canonical one, so
        there is no gcd pass: for a prime q dividing D, a matrix whose den
        holds the highest power of q has an entry prime to q (it is in
        lowest terms) and is scaled by a factor prime to q, so q divides
        neither that entry of the stack nor gcd(D, entries).  The same
        holds for `vstack` and `block`, and for `transpose` and negation,
        which keep the entries and den."""
        mats = list(mats)
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise PreconditionError("hstack: row counts differ")
        den = lcm(*[m.den for m in mats])
        parts = [_scaled(m.ints, den // m.den) for m in mats]
        return ExactMatrix._canonical(
            tuple(tuple(itertools.chain.from_iterable(rows)) for rows in zip(*parts)),
            den,
            r,
            sum(m.cols for m in mats),
        )

    @staticmethod
    def vstack(mats) -> "ExactMatrix":
        """One above the other, canonical without a gcd pass (see
        `hstack`)."""
        mats = list(mats)
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise PreconditionError("vstack: column counts differ")
        den = lcm(*[m.den for m in mats])
        return ExactMatrix._canonical(
            tuple(row for m in mats for row in _scaled(m.ints, den // m.den)),
            den,
            sum(m.rows for m in mats),
            c,
        )

    @staticmethod
    def block(grid) -> "ExactMatrix":
        """Assemble from a 2-d grid of matrices with compatible shapes: each
        output row is the blocks' integer rows over the lcm of all the
        denominators, written into one tuple, each block scaled once however
        often the grid repeats it (a grid of residues repeats one zero
        block), with no gcd pass (see `hstack`)."""
        grid = [list(row) for row in grid]
        if any(m.rows != row[0].rows for row in grid for m in row):
            raise PreconditionError("hstack: row counts differ")
        cols = sum(m.cols for m in grid[0])
        if any(sum(m.cols for m in row) != cols for row in grid):
            raise PreconditionError("vstack: column counts differ")
        den = lcm(*[m.den for row in grid for m in row])
        scaled = {}
        for m in itertools.chain.from_iterable(grid):
            if id(m) not in scaled:
                scaled[id(m)] = _scaled(m.ints, den // m.den)
        ints = tuple(
            tuple(itertools.chain.from_iterable(rows))
            for row in grid
            for rows in zip(*[scaled[id(m)] for m in row])
        )
        return ExactMatrix._canonical(ints, den, len(ints), cols)

    # -- accessors

    @property
    def data(self):
        """The entries as a tuple of row tuples of Fractions, built once."""
        if self._data is None:
            d = self.den
            self._data = tuple(
                tuple(Fraction(x, d) if x else _ZERO for x in row) for row in self.ints
            )
        return self._data

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        """The entries at the given rows and columns, in the given order."""
        col_idx = list(col_idx)
        ints = tuple(tuple(self.ints[i][j] for j in col_idx) for i in row_idx)
        return ExactMatrix._of(ints, self.den, len(ints), len(col_idx))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    # -- arithmetic

    def _combine(self, other: "ExactMatrix", op, what: str) -> "ExactMatrix":
        """op (add or sub) entrywise, over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PreconditionError(f"matrix {what}: shape mismatch")
        den = lcm(self.den, other.den)
        a, b = _scaled(self.ints, den // self.den), _scaled(other.ints, den // other.den)
        ints = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(a, b))
        return ExactMatrix._of(ints, den, self.rows, self.cols)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, add, "addition")

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, sub, "subtraction")

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._canonical(
            tuple(tuple(-x for x in row) for row in self.ints), self.den, self.rows, self.cols
        )

    def scale(self, a) -> "ExactMatrix":
        a = rat(a)
        if not a:
            return ExactMatrix.zeros(self.rows, self.cols)
        return ExactMatrix._of(
            _scaled(self.ints, a.numerator), self.den * a.denominator, self.rows, self.cols
        )

    def __mul__(self, other):
        """Matrix product of the integer rows (`_product_rows`) over the
        product of the denominators."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise PreconditionError("matrix product: inner dimensions differ")
        if not other.cols or other.is_zero():
            return ExactMatrix.zeros(self.rows, other.cols)
        out = _product_rows(self.ints, other.ints, other.cols)
        return ExactMatrix._of(out, self.den * other.den, self.rows, other.cols)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._canonical(
            _transposed(self.ints, self.cols), self.den, self.cols, self.rows
        )

    def add_scaled_identity(self, a) -> "ExactMatrix":
        if not self.is_square:
            raise PreconditionError("shifted identity needs a square matrix")
        a = rat(a)
        den = lcm(self.den, a.denominator)
        f, s = den // self.den, a.numerator * (den // a.denominator)
        return ExactMatrix._of(
            tuple(
                tuple(f * x + s if i == j else f * x for j, x in enumerate(row))
                for i, row in enumerate(self.ints)
            ),
            den,
            self.rows,
            self.cols,
        )

    # -- equality

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.ints))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.data)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    # -- eliminations

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column indices).

        Fraction-free Gauss-Jordan on the integer rows, kept primitive: a
        row is reduced as p·row − f·pivot_row.  Pivot row k, with pivot p_k,
        is then row·(D/p_k) over D = lcm(p_k).  The reduced form is unique,
        so it equals the one reached by elimination over Q."""
        nr, nc = self.rows, self.cols
        m = [_primitive(list(row)) for row in self.ints]
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
        ps = [m[k][c] for k, c in enumerate(pivots)]
        den = lcm(*ps)  # positive, and p divides it exactly, whatever p's sign
        ints = tuple(tuple(x * (den // p) for x in m[k]) for k, p in enumerate(ps))
        return ExactMatrix._of(ints + ((0,) * nc,) * (nr - r), den, nr, nc), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        """Determinant by fraction-free Bareiss elimination on the integer
        rows made primitive, divided back by the row scales."""
        if not self.is_square:
            raise PreconditionError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return _ONE
        m = []
        num = 1
        for row in self.ints:
            g = int_gcd(*row)
            if not g:
                return _ZERO
            m.append([x // g for x in row])
            num *= g
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
        return Fraction(sign * m[n - 1][n - 1] * num, self.den ** n)

    def is_invertible(self) -> bool:
        return self.is_square and self.det() != 0


def _rows_commute(a, packed_a, b, packed_b, rows) -> bool:
    """Whether rows `rows` of a·b and b·a agree, each packed as
    sum_k a_ik packed(b_k) and sum_k b_ik packed(a_k); b may be any
    mapping from those row indices to rows."""
    return all(_packed_dot(a[i], packed_b) == _packed_dot(b[i], packed_a) for i in rows)


def noncommuting_members(mats, families) -> list:
    """The members of each family that do not commute with the family sum,
    in family order, as (family, members) pairs for the families that have
    one.  A family is a tuple of keys of `mats`, which maps them to square
    matrices of one size.  No product matrix is built.

    A zero matrix commutes with everything, and a family with fewer than
    two nonzero (live) members has nothing to test.  Each live matrix is
    packed once per call, when a family first reads it, in slots of one
    width w: the largest that any family needs.  B is the bit length of
    the largest absolute entry of all the matrices.

    Two live members X = x/den_x, Y = y/den_y are one test, [X, Y] = 0,
    which both fail or neither: row i of x y, packed as
    sum_k x_ik packed(y_k), against row i of y x, packed as
    sum_k y_ik packed(x_k), on every row where x or y is nonzero.  It
    needs `_width(2B, rank)`.  For m >= 3 live members with sum T = t/D,
    D the lcm of their denominators and t = sum_h f_h x_h with every
    f_h = D/den_h below 2^s, each member but the last is tested against t
    on every row where some member is nonzero; packing is linear, so
    packed(t_k) = sum_h f_h packed(x_h)_k and t is never packed.  It needs
    `_width(2B + s + bits(m), rank)`.  The commutators with T sum to
    [T, T] = 0, so the last member is tested only after another has
    failed, and the list is the same as if every member had been tested.
    `holonomy.check_integrability` proves both widths."""
    nonzero = {}
    for key, m in mats.items():
        rows = frozenset(i for i, row in enumerate(m.ints) if any(row))
        if rows:
            nonzero[key] = rows
    plan, extra = [], 0
    for family in families:
        live = [key for key in family if key in nonzero]
        if len(live) < 2:
            continue
        scales = None
        if len(live) > 2:
            den = lcm(*[mats[key].den for key in live])
            scales = [den // mats[key].den for key in live]
            extra = max(extra, max(scales).bit_length() + len(live).bit_length())
        plan.append((family, live, scales))
    if not plan:
        return []
    bits = _bits(itertools.chain.from_iterable(m.ints for m in mats.values()))
    rank = mats[plan[0][1][0]].rows
    w = _width(2 * bits + extra, rank)
    packed = {}
    failures = []
    for family, live, scales in plan:
        for key in live:
            if key not in packed:
                ints, p = mats[key].ints, [0] * rank
                for i in nonzero[key]:
                    p[i] = _pack(ints[i], w)
                packed[key] = p
        if scales is None:
            a, b = live
            pair_commutes = _rows_commute(
                mats[a].ints, packed[a], mats[b].ints, packed[b], nonzero[a] | nonzero[b]
            )
            failing = [] if pair_commutes else live
        else:
            t_rows = {}  # row index -> row of t, wherever some member is nonzero
            packed_t = [0] * rank
            for key, f in zip(live, scales):
                ints, p = mats[key].ints, packed[key]
                for i in nonzero[key]:
                    row = ints[i] if f == 1 else tuple(map(f.__mul__, ints[i]))
                    t_rows[i] = tuple(map(add, t_rows[i], row)) if i in t_rows else row
                    packed_t[i] += f * p[i]

            def commutes(key):
                return _rows_commute(mats[key].ints, packed[key], t_rows, packed_t, t_rows)

            failing = [key for key in live[:-1] if not commutes(key)]
            # the commutators sum to [T, T] = 0: the last fails only with another
            if failing and not commutes(live[-1]):
                failing.append(live[-1])
        if failing:
            failures.append((family, failing))
    return failures


def _primitive(ints):
    """The integer row divided by the gcd of its entries (a zero row as is)."""
    g = int_gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


# ---------------------------------------------------------------------------
# Canonical subspaces


# the widest slot at which `Subspace.invariant_under` packs; above it an
# unpacked product and `holds` are faster (see its docstring)
_INVARIANCE_PACKED_MAX_WIDTH = 2000


class Subspace:
    """Column span in reduced column echelon form.

    The basis matrix is the unique representative of the span whose transpose
    is in reduced row echelon form, so `==` on Subspaces is span equality.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: ExactMatrix = None):
        self.ambient_dim = ambient_dim
        mat = ExactMatrix.zeros(ambient_dim, 0) if basis is None else basis
        red, pivots = mat.transpose().rref()
        r = len(pivots)
        self.basis = ExactMatrix._of(_transposed(red.ints[:r], ambient_dim), red.den, ambient_dim, r)
        self.pivots = pivots

    @classmethod
    def _of(cls, basis: ExactMatrix, pivots) -> "Subspace":
        """Trusted constructor for a basis computed here that is already in
        reduced column echelon form, with identity rows at `pivots`; it is
        not checked."""
        s = cls.__new__(cls)
        s.ambient_dim, s.basis, s.pivots = basis.rows, basis, tuple(pivots)
        return s

    @property
    def dim(self) -> int:
        return self.basis.cols

    def holds(self, m: ExactMatrix) -> bool:
        """Whether every column of m lies in the subspace.

        No product is built.  The basis has identity rows at its pivots, so
        the only candidate X with basis·X = m is the rows of m at the
        pivots.  With basis = b/den, basis·X = m exactly when row i of b
        times the integer rows of m at the pivots, packed as
        sum_k b_ik packed(m_(p_k)), is den·packed(m_i) for every row i off
        the pivots.  Every entry of either side sums at most dim products
        of an entry of b and one of m (den is an entry of b), so slots of
        width `_width(bits(b) + bits(m), dim)` make packing injective."""
        if m.rows != self.ambient_dim:
            raise PreconditionError("vector length does not match ambient dimension")
        if m.cols and self.dim < self.ambient_dim:
            b, ints, den = self.basis.ints, m.ints, self.basis.den
            w = _width(_bits(b) + _bits(ints), self.dim)
            packed = [_pack(ints[p], w) for p in self.pivots]
            pivot_set = set(self.pivots)
            for i, row in enumerate(b):
                if i not in pivot_set and _packed_dot(row, packed) != den * _pack(ints[i], w):
                    return False
        return True

    def coordinates(self, m: ExactMatrix):
        """The X with basis · X = m, or None when a column of m lies outside
        the span: the rows of m at the pivots, when `holds(m)`."""
        return m.submatrix(self.pivots, range(m.cols)) if self.holds(m) else None

    def contains(self, vec) -> bool:
        return self.holds(ExactMatrix([vec]).transpose())

    def invariant_under(self, mats) -> bool:
        """Whether every matrix of `mats` (square, of the ambient size) maps
        the subspace into itself, with no product matrix built up to a slot
        width of `_INVARIANCE_PACKED_MAX_WIDTH` bits.

        Let basis = b/den, with k columns and the rows den·e_t at the pivots
        p_t.  A matrix g/den_g maps the span into itself exactly when g·b
        meets `holds`'s identity: sum_t b_it (g b)_(p_t) = den (g b)_i for
        every row i off the pivots.  den_g cancels, so each matrix is taken
        by its own integer rows g.  Each nonzero row b_s is packed once per
        call, from its first nonzero slot f_s, and row r of g b packs as
        X_r = sum_s g_rs packed(b_s) 2^(w f_s); the identity is tested on
        the X_r as they stand.

        The width, with B_b and B_g the bit lengths of the largest entries
        of b and of all the g.  b is in reduced column echelon form, so its
        column j is nonzero only at p_j and off the pivots: at most
        n - k + 1 rows.  An entry of g b thus sums at most n - k + 1
        products g_rs b_sj, and an entry of the left side sums k of those
        times an entry of b: at most k(n - k + 1) products of three factors,
        each below 2^(2 B_b + B_g).  den is an entry of b, so the right side
        sums n - k + 1 such products.  `_width(2 B_b + B_g, k(n - k + 1))`
        puts both sides strictly between -2^(w-1) and 2^(w-1), where packing
        is injective, so the packed sides agree exactly when the rows do.
        The rule has no bit to spare: the two sides' difference can reach
        2^(w-1), and one bit narrower a planted difference (2^(w-1), -1)
        packs to 0.

        Wider than `_INVARIANCE_PACKED_MAX_WIDTH`, each matrix's integer
        product g b, over 1, goes to `holds` instead (its columns lie in the
        span exactly when those of the matrix times the basis do).  A slot
        pads each entry of b to about 2 B_b + B_g bits, so on big entries
        the packed sums multiply more digits than the product does.  On
        the K checks of `compose-check` on random tuples (Python 3.11,
        2-core VM), the packed check took 0.38-0.54 of the products' time
        at 68-623 bits, 0.70-0.95 at 1,081-1,954, 1.09-1.19 at 2,764-3,956
        and 1.69 at 6,900."""
        n, mats = self.ambient_dim, list(mats)
        if not self.dim or not mats:
            return True
        if any(m.cols != mats[0].cols for m in mats):
            raise PreconditionError("vstack: column counts differ")
        if mats[0].cols != n:
            raise PreconditionError("matrix product: inner dimensions differ")
        k = self.dim
        if k == n:
            return True
        b, den = self.basis.ints, self.basis.den
        gs = [m.ints for m in mats]
        w = _width(2 * _bits(b) + _bits(itertools.chain.from_iterable(gs)), k * (n - k + 1))
        if w > _INVARIANCE_PACKED_MAX_WIDTH:
            return all(
                self.holds(ExactMatrix._canonical(_product_rows(g, b, k), 1, n, k)) for g in gs
            )
        packed = []  # (s, packed b_s from its first nonzero slot f, w·f)
        for s, row in enumerate(b):
            f = next((j for j, x in enumerate(row) if x), k)
            if f < k:
                packed.append((s, _pack(row[f:], w), w * f))
        pivot_set = set(self.pivots)
        off = [(i, b[i]) for i in range(n) if i not in pivot_set]
        for g in gs:
            x = [sum(row[s] * v << shift for s, v, shift in packed if row[s]) for row in g]
            at_pivots = [x[p] for p in self.pivots]
            if any(_packed_dot(row, at_pivots) != den * x[i] for i, row in off):
                return False
        return True

    def restrict(self, m: ExactMatrix, which: str, generator=None) -> ExactMatrix:
        """The matrix X of m on the subspace, m · basis = basis · X.  When m
        does not leave the subspace invariant, an InvarianceError names
        `which` subspace, the generator, and the first basis vector whose
        image falls outside."""
        images = m * self.basis
        x = self.coordinates(images)
        if x is not None:
            return x
        j = next(j for j in range(self.dim) if not self.contains(images.col(j)))
        raise InvarianceError(
            f"{which} is not invariant", generator=generator,
            witness_vector=self.basis.col(j), image=images.col(j),
        )

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


def _null_rows(ech: ExactMatrix, pivots) -> ExactMatrix:
    """The null space of a reduced echelon matrix with the given pivot
    columns, one row per free column f: the denominator at f and minus the
    echelon entry of column f at each pivot."""
    pivot_set = set(pivots)
    rows = []
    for f in range(ech.cols):
        if f in pivot_set:
            continue
        v = [0] * ech.cols
        v[f] = ech.den
        for r, p in enumerate(pivots):
            v[p] = -ech.ints[r][f]
        rows.append(tuple(v))
    return ExactMatrix._of(tuple(rows), ech.den, len(rows), ech.cols)


def kernel(m: ExactMatrix) -> Subspace:
    """Canonical basis of the null space {v : m v = 0}, from one elimination.

    `rref` runs on m with its columns reversed.  The null vector of each
    free column f there has its last nonzero entry at f and its others at
    earlier pivot columns only.  Reversed back, each has its leading entry
    1 at its own free column and its other nonzeros at pivot columns,
    which no other vector leads at; sorted by free column, these vectors
    are the reduced column echelon basis, with the free columns as pivots."""
    n = m.cols
    reversed_m = ExactMatrix._canonical(tuple(row[::-1] for row in m.ints), m.den, m.rows, n)
    red, pivots = reversed_m.rref()
    null = _null_rows(red, pivots)
    taken = {n - 1 - p for p in pivots}
    return Subspace._of(
        ExactMatrix._canonical(_transposed(null.ints[::-1], n)[::-1], null.den, n, null.rows),
        [j for j in range(n) if j not in taken],
    )


def quotient_all(matrices, s: Subspace):
    """The projection onto the canonical complement of s, its section, and
    the matrices induced by s-invariant `matrices`.  The section is the
    list of s's non-pivot coordinates, where the projection is the
    identity; its inclusion is a right inverse of the projection, so each
    induced matrix is projection · (section columns).  When s = 0 the
    projection is the identity and the induced matrices are `matrices`."""
    if not s.pivots:
        return ExactMatrix.identity(s.ambient_dim), list(range(s.ambient_dim)), list(matrices)
    proj = _null_rows(s.basis.transpose(), s.pivots)
    pivot_set = set(s.pivots)
    section = [r for r in range(s.ambient_dim) if r not in pivot_set]
    induced = [proj * m.submatrix(range(m.rows), section) for m in matrices]
    return proj, section, induced


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """The span of s1 and s2, by one elimination of the two bases side by
    side.  When either is 0 the sum is the other operand, which is returned
    as it is: a Subspace is canonical already, so there is no elimination."""
    if s1.ambient_dim != s2.ambient_dim:
        raise PreconditionError("subspace_sum: ambient dimension mismatch")
    if not s2.dim:
        return s1
    if not s1.dim:
        return s2
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
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

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

    def _cleared(self):
        """(whether 0 is a root, f): f is the polynomial without its
        factors x, cleared of denominators once and made primitive, an
        integer row with the sign of the leading coefficient, lowest degree
        first."""
        if self.is_zero():
            raise PreconditionError("the zero polynomial has every root")
        cs = self.coeffs
        low = 0
        while cs[low] == 0:
            low += 1
        den = lcm(*(c.denominator for c in cs[low:]))
        return low > 0, _primitive([c.numerator * (den // c.denominator) for c in cs[low:]])

    def rational_roots(self):
        """All rational roots, sorted, found without factoring an integer.

        A nonzero constant has none.  With f from `_cleared` of degree n and
        leading coefficient a, a rational root x of f has a·x ∈ Z, so the
        roots are y/a for the integer roots y of the monic integer
        G(y) = a^(n−1)·f(y/a)."""
        if self.degree == 0:
            return []
        zero, f = self._cleared()
        n, a = len(f) - 1, f[-1]
        g = [c * a ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
        roots = [Fraction(y, a) for y in _integer_roots(g)]
        return sorted(roots + [_ZERO] if zero else roots)

    def integer_roots(self):
        """All integer roots, sorted: none for a nonzero constant, else
        those of `_cleared`'s row itself, searched in x, with no
        substitution that scales the range."""
        if self.degree == 0:
            return []
        zero, f = self._cleared()
        roots = _integer_roots(f)
        return sorted(roots + [0] if zero else roots)

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


def _integer_roots(f):
    """Integer roots of a primitive integer row f (lowest degree first,
    f ≠ 0), in no order.

    An integer root r lies within B = `_root_bound(f)` and is a root of f
    mod every prime p.  The primes 2, 3, 5, … are walked up to the first
    that decides (R. Loos, SIAM J. Comput. 12, 1983):
    - f has no root mod p: then f has no integer root;
    - every root mod p is simple (f′ ≢ 0 there): then r mod p is one of
      them, and Newton's step lifts each to the one root of f mod p^(2^k)
      above it.  The step mod m needs s = 1/f′(r) only mod √m, so s is
      lifted alongside, one modulus behind, as s·(2 − f′(r)·s).
      Once the modulus passes 2B the balanced residue is r, if there is
      one, and exact evaluation keeps it.  This holds when p divides the
      lead too.
    At a multiple root mod p, f becomes its squarefree part `_squarefree`:
    at once when B has at most 64 bits, and otherwise once every prime
    ≤ 101 has been tried, so that a polynomial with a huge bound is mostly
    decided without a pseudo-remainder chain.  A multiple root of a
    squarefree f mod p needs p | lead·disc ≠ 0, so the walk ends."""
    if len(f) < 3:  # a constant has no root, a linear f the one root −f₀/f₁
        q, r = divmod(-f[0], f[-1])
        return [q] if len(f) == 2 and not r else []
    bound, p, squarefree = _root_bound(f), 2, False
    while True:
        row = [c % p for c in f]
        found = [x for x in range(p) if not _horner(row, x) % p]
        if not found:
            return []
        slopes = [k * c for k, c in enumerate(row)][1:]
        if all(_horner(slopes, x) % p for x in found):
            break
        if not squarefree and (bound.bit_length() <= 64 or p > 101):
            f, squarefree = _squarefree(f), True
        else:
            p = next(q for q in itertools.count(p + 1) if _is_prime(q))
    df = [k * c for k, c in enumerate(f)][1:]
    roots = []
    for r in found:
        m, s = p, pow(_horner(df, r), -1, p)
        while m <= 2 * bound:
            s = s * (2 - _horner(df, r) % m * s) % m
            m *= m
            r = (r - _horner(f, r) % m * s) % m
        if 2 * r > m:
            r -= m
        if not _horner(f, r):
            roots.append(r)
    return roots


def _root_bound(g):
    """A power of two at least Fujiwara's bound 2·max_k |g_(n−k)/g_n|^(1/k)
    on the absolute values of the roots of an integer row g of degree ≥ 1
    (lowest degree first), taken from bit lengths."""
    top = g[-1].bit_length() - 1  # |g_n| ≥ 2^top and |c| < 2^bit_length(c)
    e = max([-((top - c.bit_length()) // k)
             for k, c in enumerate(reversed(g[:-1]), 1) if c] or [0])
    return 2 << max(e, 0)


def _sturm(g):
    """The Sturm chain of an integer polynomial g of degree >= 1 (lowest
    degree first): g, g′, then each pseudo-remainder negated, up to a
    constant or an exact division, whose divisor is then a multiple of
    gcd(g, g′).  The library reads only the last member, in `_squarefree`;
    the tests read the whole chain, in their Sturm root search.

    Each remainder is taken with the positive multiplier |lead b| at every
    step and divided by its positive content, so every member is a positive
    multiple of the chain's member over Q, and sign counts do not change."""
    chain = [list(g), [k * c for k, c in enumerate(g)][1:]]
    while len(chain[-1]) > 1:
        r, b = chain[-2], chain[-1]
        m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            c, k = s * r[-1], len(r) - len(b)
            r = [m * x for x in r[:k]] + [m * x - c * y for x, y in zip(r[k:-1], b)]
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    return chain


def _squarefree(f):
    """The squarefree part of a primitive integer row f of degree ≥ 1
    (lowest degree first), primitive with the sign of f's lead: f divided
    over Z by the last member of its Sturm chain (Euclid's algorithm, so a
    multiple of gcd(f, f′); a constant when f is squarefree) made
    primitive with a positive lead.  By Gauss's lemma that division is
    exact."""
    g = _primitive(_sturm(f)[-1])
    return _divide_exactly(f, g if g[-1] > 0 else [-c for c in g])


def _divide_exactly(a, b):
    """a / b for integer rows (lowest degree first) when b divides a over Z."""
    a, q = list(a), []
    for k in range(len(a) - len(b), -1, -1):
        c, r = divmod(a[k + len(b) - 1], b[-1])
        if r:
            raise InternalInvariantError("polynomial division was not exact")
        q.append(c)
        for j, y in enumerate(b):
            a[k + j] -= c * y
    if any(a):
        raise InternalInvariantError("polynomial division was not exact")
    return q[::-1]


def _horner(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def charpoly(a: ExactMatrix) -> Poly:
    """Monic characteristic polynomial det(x·I − a), by Berkowitz's
    division-free recurrence on the integer rows M = den·a, in O(n^4)
    integer operations (S. J. Berkowitz, Inform. Process. Lett. 18, 1984).

    Let χ_r be the characteristic polynomial of the leading r×r block B of
    M, coefficients highest degree first.  With ρ and γ the first r entries
    of row and column r of M and m = M[r][r], χ_(r+1) is the first r+2 terms
    of the product of t = (1, −m, −ρ·γ, −ρ·B·γ, …, −ρ·B^(r−1)·γ) with χ_r.
    The coefficient of x^(n−i) in χ_n, over den^i, is that of det(x·I − a)."""
    if not a.is_square:
        raise PreconditionError("characteristic polynomial needs a square matrix")
    ints = a.ints
    chi = [1]
    for r in range(a.rows):
        b = [row[:r] for row in ints[:r]]
        vs = [[row[r] for row in ints[:r]]]  # γ, B·γ, …, B^(r−1)·γ
        for _ in range(r - 1):
            vs.append([sum(map(mul, row, vs[-1])) for row in b])
        # map stops after r terms, so ints[r] stands for ρ
        t = [1, -ints[r][r]] + [-sum(map(mul, ints[r], v)) for v in vs[:r]]
        chi = [sum(map(mul, chi, t[i::-1])) for i in range(r + 2)]
    return Poly([Fraction(c, a.den ** i) for i, c in enumerate(chi)][::-1])


# ---------------------------------------------------------------------------
# Polynomial matrices and pencils


class PolyMatrix:
    """Dense matrix with Poly entries in a single indeterminate."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, shape=None):
        rows = [tuple(e if isinstance(e, Poly) else Poly([e]) for e in row)
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
                    Poly([a.data[i][j]]) + (shift if i == j else Poly())
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
            return Poly([1])
        m = [[self.data[i][j] for j in range(k)] for i in row_idx]
        sign = 1
        prev = Poly([1])
        for p in range(k - 1):
            if m[p][p].is_zero():
                pr = next((i for i in range(p + 1, k) if not m[i][p].is_zero()), None)
                if pr is None:
                    return Poly()
                m[p], m[pr] = m[pr], m[p]
                sign = -sign
            for i in range(p + 1, k):
                for j in range(p + 1, k):
                    m[i][j] = (m[i][j] * m[p][p] - m[i][p] * m[p][j]).exact_div(prev)
                m[i][p] = Poly()
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
    g = Poly()
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
    each is verified by an exact rank drop, and one without it is an
    internal invariant breach.
    """
    if not a.is_square:
        raise PreconditionError("integer_spectrum_hits needs a square matrix")
    b = a.add_scaled_identity(shift)
    hits = [m for m in charpoly(b).integer_roots() if m]
    for m in hits:
        if b.add_scaled_identity(-m).rank() == b.rows:
            raise InternalInvariantError(
                f"characteristic root {m} is not an eigenvalue: no rank drop"
            )
    return hits


# ---------------------------------------------------------------------------
# JSON helpers shared by the higher modules


def matrix_to_json(m: ExactMatrix):
    """The rows as reduced "p/q" or "p" strings; a number with more digits
    than Python prints is a PreconditionError."""
    d = m.den
    try:
        if d == 1:
            return [list(map(str, row)) for row in m.ints]
        return [
            [str(x // d) if (g := int_gcd(x, d)) == d else f"{x // g}/{d // g}" for x in row]
            for row in m.ints
        ]
    except ValueError as exc:
        raise PreconditionError(TOO_LARGE_TO_PRINT) from exc


def int_from_json(value) -> int:
    """A JSON integer, or a string holding one without "_"; booleans and
    floats are rejected rather than truncated."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, str))
        or isinstance(value, str) and "_" in value  # int() takes "1_000"
    ):
        raise InputError(f"not an integer: {_shown(value)}")
    try:
        return int(value)
    except ValueError as exc:
        raise InputError(f"not an integer: {value!r}") from exc


# what a plain "p" / "p/q" entry holds besides its digits, and the joiner
_SIGN_SLASH_COMMA = str.maketrans("", "", "-/,")


def _read_rows(rows, cols: int):
    """(ints, den): the entries of `rows` (lists of `cols` entries each) as
    integer row tuples over one positive denominator, not always in lowest
    terms, read in one pass; or None, and the caller reads entry by entry.

    This is the one int() reader of rationals.  Only exact ints, and ASCII
    strings "p" or "p/q" (q > 0), are read here: the joined entries are
    checked once for ASCII digits, "-", "/" and ",", each numerator is
    parsed with int() and each distinct denominator once.  Anything else
    ("1/", "1/-2", "--1", a part past 4300 digits, a bool, a float, a
    decimal) declines to `rat`, entry by entry, so every value and every
    error is `rat`'s."""
    if not cols or not rows or set(map(len, rows)) != {cols}:
        return None
    flat = list(itertools.chain.from_iterable(rows))
    kinds = set(map(type, flat))
    if kinds == {int}:
        return tuple(map(tuple, rows)), 1
    try:
        if kinds == {int, str}:
            flat = list(map(str, flat))  # str() refuses more than 4300 digits
        elif kinds != {str}:
            return None
        text = ",".join(flat)
        if not (text.isascii() and text.translate(_SIGN_SLASH_COMMA).isdigit()):
            return None
        if "/" not in text:  # integers, over den 1
            return tuple(zip(*[map(int, flat)] * cols)), 1
        if "/," in text or text[-1] == "/":  # "1/"
            return None
        nums, _, qs = zip(*map(str.partition, flat, itertools.repeat("/")))
        dens = {q: int(q) if q else 1 for q in set(qs)}
        if min(dens.values()) < 1:  # "1/0", "1/-2"
            return None
        den = lcm(*dens.values())
        scale = {q: den // v for q, v in dens.items()}
        ints = list(map(mul, map(int, nums), map(scale.__getitem__, qs)))
    except ValueError:  # "--1", "1-2", "1/2/3", a part past 4300 digits
        return None
    return tuple(zip(*[iter(ints)] * cols)), den


def matrix_from_json(data, shape=None) -> ExactMatrix:
    """The matrix of a JSON array of row arrays, with `shape` (rows, cols)
    when given.  Plain entries are read in one pass (`_read_rows`); every
    other input goes through `ExactMatrix(data, shape)`, entry by entry."""
    if (
        not isinstance(data, list)
        or (not data and shape is None)
        or not all(isinstance(row, list) for row in data)
    ):
        raise InputError("matrix JSON must be a non-empty array of arrays")
    r, c = shape if shape is not None else (len(data), len(data[0]))
    read = _read_rows(data, c) if len(data) == r else None
    if read is None:
        return ExactMatrix(data, shape=shape)
    return ExactMatrix._of(*read, r, c)
