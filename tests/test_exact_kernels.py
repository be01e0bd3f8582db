"""The integer kernels under ExactMatrix, its integer representation, the
Burnside span, the Berkowitz characteristic polynomial, the root finders
and the parser of rationals against plain Fraction algorithms, kept here as
reference implementations, on seeded random rational inputs."""

import json
import random
from bisect import bisect
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

from mcvlie import exactcore
from mcvlie.analysis import is_irreducible
from mcvlie.errors import InputError, PreconditionError
from mcvlie.exactcore import (
    MAX_EXPONENT,
    P,
    ExactMatrix,
    Poly,
    Subspace,
    charpoly,
    matrix_from_json,
    matrix_to_json,
    _ModSpan,
    _pack,
    _slots,
    kernel,
    rat,
)

import roots_oracle
from linalg_oracle import column_matrix, inverse

F = Fraction
_ZERO = F(0)


# -- reference implementations (exact, over Fractions) -----------------------


def ref_mul(a: ExactMatrix, b: ExactMatrix):
    cols = [b.col(j) for j in range(b.cols)]
    return [
        [sum((x * y for x, y in zip(row, c) if x and y), _ZERO) for c in cols]
        for row in a.data
    ]


def ref_rref(a: ExactMatrix):
    m = [list(row) for row in a.data]
    nr, nc = a.rows, a.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, tuple(pivots)


def ref_det(a: ExactMatrix):
    n = a.rows
    if n == 0:
        return F(1)
    m = [list(row) for row in a.data]
    sign, prev = 1, F(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pr is None:
                return F(0)
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = F(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def ref_charpoly(a: ExactMatrix):
    """Faddeev-LeVerrier: n Fraction matrix products, coefficients lowest
    degree first."""
    n = a.rows
    coeffs = [F(0)] * n + [F(1)]
    m = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = ref_mul(a, ExactMatrix(m, shape=(n, n)))
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def expected_rat(x):
    """What rat(x) must give, or InputError: Fraction(x) on ints and
    strings, except that U+2212 reads as "-", a decimal exponent over
    MAX_EXPONENT is refused, and so are "_" and whitespace inside the
    number, which Fraction takes only from Python 3.11 and 3.12 on;
    booleans, floats and other types are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        return InputError
    if isinstance(x, int):
        return F(x)
    text = x.replace("−", "-")
    if "_" in text or len(text.split()) > 1:
        return InputError
    try:
        value = F(text)
    except (ValueError, ZeroDivisionError):
        return InputError
    exponent = text.strip().lower().partition("e")[2]
    if exponent and abs(int(exponent)) > MAX_EXPONENT:
        return InputError
    return value


def assert_rat_parity(x):
    want = expected_rat(x)
    if want is InputError:
        with pytest.raises(InputError):
            rat(x)
    else:
        got = rat(x)
        assert type(got) is Fraction and got == want
        assert ExactMatrix([[x]]) == ExactMatrix([[want]])


class RefSpan:
    """Echelon rows over Q, each scaled to pivot 1."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def add(self, vec) -> bool:
        v = [F(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        v = [x / v[piv] for x in v]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True


def ref_is_irreducible(mats) -> bool:
    d = mats[0].rows
    if d == 1:
        return True
    span = RefSpan()
    frontier = [ExactMatrix.identity(d)]
    span.add([x for row in frontier[0].data for x in row])
    while frontier:
        nxt = []
        for m in frontier:
            for a in mats:
                p = ExactMatrix(ref_mul(m, a), shape=(d, d))
                if span.add([x for row in p.data for x in row]):
                    nxt.append(p)
        frontier = nxt
    return len(span.rows) == d * d


def ref_rational_roots(p: Poly):
    """Rational root theorem by trial division (small coefficients only)."""
    cs = list(p.coeffs)
    roots = set()
    low = 0
    while cs[low] == 0:
        low += 1
    if low:
        roots.add(F(0))
        cs = cs[low:]
    if len(cs) <= 1:
        return sorted(roots)
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for num in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (F(num, q), F(-num, q)):
                if p.eval(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


# -- random inputs -----------------------------------------------------------

COPRIME_DENS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)


def rand_entry(rng, style):
    if style == "small":
        return F(rng.randint(-4, 4), rng.randint(1, 3))
    if style == "coprime":  # negative and pairwise coprime denominators
        return F(rng.randint(-9, 9), rng.choice(COPRIME_DENS) * rng.choice((1, -1)))
    if style == "sparse":
        return F(rng.choice((0, 0, 0, 0, 1, 1, 2, -1)))
    if style == "big":  # 30-digit numerators and denominators
        return F(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
    raise ValueError(style)


STYLES = ("small", "coprime", "sparse", "big")


def rand_matrix(rng, r, c, style):
    rows = [[rand_entry(rng, style) for _ in range(c)] for _ in range(r)]
    if r and c and rng.random() < 0.3:  # a zero row or a zero column
        if rng.random() < 0.5:
            rows[rng.randrange(r)] = [F(0)] * c
        else:
            j = rng.randrange(c)
            for row in rows:
                row[j] = F(0)
    return ExactMatrix(rows, shape=(r, c))


def rand_low_rank(rng, r, c, style):
    """A product of two random factors, so that rank deficiency is common."""
    k = rng.randint(0, min(r, c))
    if k == 0:
        return ExactMatrix.zeros(r, c)
    left = rand_matrix(rng, r, k, style)
    right = rand_matrix(rng, k, c, style)
    return ExactMatrix(ref_mul(left, right), shape=(r, c))


def all_fractions(m: ExactMatrix) -> bool:
    return all(type(x) is Fraction for row in m.data for x in row)


def assert_canonical(m: ExactMatrix):
    """Integer rows of the right shape over a positive denominator that
    shares no factor with every entry."""
    assert type(m.den) is int and m.den > 0
    assert len(m.ints) == m.rows and all(len(row) == m.cols for row in m.ints)
    assert all(type(x) is int for row in m.ints for x in row)
    assert gcd(m.den, *[x for row in m.ints for x in row]) == 1


def assert_like_public(m: ExactMatrix):
    """Canonical, entries are Fractions, and the matrix is ==/hash-equal to
    the same data given to the public constructor."""
    assert_canonical(m)
    assert all_fractions(m)
    public = ExactMatrix([list(row) for row in m.data], shape=(m.rows, m.cols))
    assert m == public and hash(m) == hash(public)
    assert len(m.data) == m.rows and all(len(row) == m.cols for row in m.data)


def assert_matches(m: ExactMatrix, ref_rows):
    """`assert_like_public`, and the Fraction entries and the JSON are those
    of the reference rows: equal to them built publicly, printed by
    str(Fraction)."""
    assert_like_public(m)
    assert m.data == tuple(tuple(row) for row in ref_rows)
    assert matrix_to_json(m) == [[str(F(x)) for x in row] for row in ref_rows]
    public = ExactMatrix(ref_rows, shape=(m.rows, m.cols))
    assert m == public and hash(m) == hash(public)


# -- products ----------------------------------------------------------------


def test_product_matches_fraction_oracle():
    rng = random.Random(101)
    for t in range(240):
        style = STYLES[t % len(STYLES)]
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = rand_matrix(rng, r, k, style)
        b = rand_matrix(rng, k, c, rng.choice(STYLES))
        p = a * b
        assert (p.rows, p.cols) == (r, c)
        assert p == ExactMatrix(ref_mul(a, b), shape=(r, c))
        assert_matches(p, ref_mul(a, b))


def test_product_on_empty_and_zero_shapes():
    rng = random.Random(102)
    for r, k, c in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (0, 0, 3), (3, 0, 0)]:
        a = rand_matrix(rng, r, k, "small")
        b = rand_matrix(rng, k, c, "small")
        p = a * b
        assert p == ExactMatrix.zeros(r, c)
        assert_matches(p, [[F(0)] * c for _ in range(r)])


def test_sums_scales_and_transposes_are_like_public():
    rng = random.Random(103)
    for t in range(60):
        style = STYLES[t % len(STYLES)]
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        a, b = rand_matrix(rng, r, c, style), rand_matrix(rng, r, c, style)
        s = rand_entry(rng, style)
        expected_sum = [[x + y for x, y in zip(u, v)] for u, v in zip(a.data, b.data)]
        expected_diff = [[x - y for x, y in zip(u, v)] for u, v in zip(a.data, b.data)]
        for got, want in [
            (a + b, expected_sum),
            (a - b, expected_diff),
            (-a, [[-x for x in row] for row in a.data]),
            (a.scale(s), [[s * x for x in row] for row in a.data]),
            (a.transpose(), [list(a.col(j)) for j in range(c)]),
        ]:
            assert_like_public(got)
            assert got == ExactMatrix(want, shape=(got.rows, got.cols))
            assert_matches(got, want)
        assert a.transpose().transpose() == a
        assert_matches(ExactMatrix.hstack([a, b]), [u + v for u, v in zip(a.data, b.data)])
        assert_matches(ExactMatrix.vstack([a, b]), list(a.data) + list(b.data))
        if r == c:
            shifted = [[x + s if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(a.data)]
            assert_matches(a.add_scaled_identity(s), shifted)
            assert_matches(ExactMatrix.identity(r), [[F(int(i == j)) for j in range(r)]
                                                     for i in range(r)])


def test_sum_of_many_matrices_is_the_chain_of_additions():
    """`_sum_matrices`, the one sum of a list of square matrices, is the
    entrywise Fraction sum, in canonical form, and equals the chain of `+`
    (the zero matrix for an empty list)."""
    rng = random.Random(117)
    for t in range(60):
        style = STYLES[t % len(STYLES)]
        d = rng.randint(0, 4)
        mats = [rand_matrix(rng, d, d, style) for _ in range(rng.randint(0, 4))]
        got = exactcore._sum_matrices(mats, d)
        assert_matches(got, [[sum((m[i, j] for m in mats), _ZERO) for j in range(d)]
                             for i in range(d)])
        assert got == sum(mats, ExactMatrix.zeros(d, d))


# -- elimination -------------------------------------------------------------


def test_rref_matches_fraction_oracle():
    rng = random.Random(104)
    for t in range(240):
        style = STYLES[t % len(STYLES)]
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        a = rand_low_rank(rng, r, c, style) if t % 3 == 0 else rand_matrix(rng, r, c, style)
        red, pivots = a.rref()
        ref_red, ref_pivots = ref_rref(a)
        assert pivots == ref_pivots
        assert red == ExactMatrix(ref_red, shape=(r, c))
        assert_matches(red, ref_red)
        assert a.rank() == len(ref_pivots)


def test_rref_on_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        red, pivots = ExactMatrix.zeros(r, c).rref()
        assert pivots == () and red == ExactMatrix.zeros(r, c)


def ref_kernel(a: ExactMatrix):
    """The null space of a in reduced column echelon form, as its columns
    (each a list of Fractions), and their leading rows: one Fraction null
    vector per free column of `ref_rref`, stacked and reduced again."""
    red, pivots = ref_rref(a)
    vecs = []
    for f in range(a.cols):
        if f not in pivots:
            v = [_ZERO] * a.cols
            v[f] = F(1)
            for r, p in enumerate(pivots):
                v[p] = -red[r][f]
            vecs.append(v)
    if not vecs:
        return [], ()
    rows, leads = ref_rref(ExactMatrix(vecs, shape=(len(vecs), a.cols)))
    return rows[:len(leads)], leads


def test_kernel_is_the_reduced_null_space_from_one_elimination(monkeypatch):
    calls = []
    real = ExactMatrix.rref
    monkeypatch.setattr(ExactMatrix, "rref", lambda m: calls.append(m) or real(m))
    rng = random.Random(118)
    shapes = [(0, 0), (0, 3), (3, 0), (2, 5), (5, 2)]
    for t in range(200):
        style = STYLES[t % len(STYLES)]
        r, c = shapes[t] if t < len(shapes) else (rng.randint(0, 6), rng.randint(0, 6))
        a = rand_low_rank(rng, r, c, style) if t % 2 else rand_matrix(rng, r, c, style)
        calls.clear()
        s = kernel(a)
        assert len(calls) == 1
        columns, leads = ref_kernel(a)
        assert s.ambient_dim == c and s.dim == len(columns)
        assert s.pivots == leads
        assert_like_public(s.basis)
        assert (s.basis.rows, s.basis.cols) == (c, len(columns))
        assert s.basis.data == tuple(tuple(col[i] for col in columns) for i in range(c))
        assert a * s.basis == ExactMatrix.zeros(r, len(columns))
        assert s == Subspace(c, basis=s.basis)  # eliminating again changes nothing


# -- stacking, transposes, negation and products without a gcd pass ----------


def _rand_grid(rng, style):
    """A grid of blocks with random heights and widths (0 included), a
    third of them zero and some of them the same object."""
    heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    grid = []
    for h in heights:
        row = []
        for w in widths:
            pick = rng.random()
            if pick < 0.3:
                row.append(ExactMatrix.zeros(h, w))
            elif pick < 0.4 and row and row[-1].cols == w:
                row.append(row[-1])
            else:
                row.append(rand_matrix(rng, h, w, rng.choice((style, "coprime"))))
        grid.append(row)
    return grid


def test_stacks_transposes_and_negations_are_like_public():
    """Canonical inputs give canonical outputs equal to the same entries
    given to the public constructor, with zero blocks, pairwise coprime and
    repeated denominators, and parts with no rows or no columns."""
    rng = random.Random(119)
    for t in range(160):
        grid = _rand_grid(rng, STYLES[t % len(STYLES)])
        rows = [[x for m in row for x in m.data[i]] for row in grid for i in range(row[0].rows)]
        width = sum(m.cols for m in grid[0])
        got = ExactMatrix.block(grid)
        assert (got.rows, got.cols) == (len(rows), width)
        assert_matches(got, rows)
        for row in grid:
            assert_matches(ExactMatrix.hstack(row), [[x for m in row for x in m.data[i]]
                                                     for i in range(row[0].rows)])
        column = [row[0] for row in grid]
        assert_matches(ExactMatrix.vstack(column), [list(r) for m in column for r in m.data])
        assert_matches(got.transpose(), [list(got.col(j)) for j in range(got.cols)])
        assert_matches(-got, [[-x for x in row] for row in got.data])


def test_stacks_of_coprime_denominators_are_in_lowest_terms():
    """A stack over the lcm of its parts' denominators is canonical only
    when each part is scaled by lcm/den: the entry 1/4 beside 1/6 reads
    3/12 and 2/12, whose gcd with 12 is 1."""
    a, b = ExactMatrix([[F(1, 4)]]), ExactMatrix([[F(1, 6)], [F(5, 6)]])
    assert_matches(ExactMatrix.hstack([a, ExactMatrix([[F(1, 6)]])]), [[F(1, 4), F(1, 6)]])
    assert_matches(ExactMatrix.vstack([a, b]), [[F(1, 4)], [F(1, 6)], [F(5, 6)]])
    zero = ExactMatrix.zeros(1, 1)
    assert_matches(ExactMatrix.block([[a, zero], [zero, a.scale(F(2, 3))]]),
                   [[F(1, 4), 0], [0, F(1, 6)]])


def test_products_skip_the_right_operand_zero_rows():
    """Right operands with planted zero rows (most of them, or all), such as
    a convolved generator with one nonzero block row, against left rows
    dense and sparse."""
    rng = random.Random(120)
    for t in range(200):
        style = STYLES[t % len(STYLES)]
        r, k, c = rng.randint(0, 5), rng.randint(1, 8), rng.randint(0, 5)
        a = rand_matrix(rng, r, k, rng.choice(STYLES))
        rows = [list(row) for row in rand_matrix(rng, k, c, style).data]
        for i in rng.sample(range(k), rng.randint(1, k)):
            rows[i] = [_ZERO] * c
        b = ExactMatrix(rows, shape=(k, c))
        assert_matches(a * b, ref_mul(a, b))


def test_det_matches_fraction_oracle():
    rng = random.Random(105)
    for t in range(200):
        style = STYLES[t % len(STYLES)]
        n = rng.randint(0, 6)
        a = rand_low_rank(rng, n, n, style) if t % 4 == 0 else rand_matrix(rng, n, n, style)
        d = a.det()
        assert type(d) is Fraction
        assert d == ref_det(a)
        assert a.is_invertible() == (d != 0)


# -- Burnside span -----------------------------------------------------------


def test_subspace_coordinates_match_fraction_oracle():
    # membership in the exact span of integer vectors, which decides the
    # exact Burnside closure, against Fraction echelon rows
    rng = random.Random(106)
    for _ in range(60):
        width = rng.randint(1, 9)
        basis = [[rng.randint(-10**12, 10**12) for _ in range(width)]
                 for _ in range(rng.randint(1, width))]
        span, ref = Subspace(width, basis=column_matrix(basis, width)), RefSpan()
        for vec in basis:
            ref.add(vec)
        assert span.dim == len(ref.rows)
        vecs, inside = [], []
        for _ in range(2 * width):
            if rng.random() < 0.5:  # a combination of the basis: always inside
                coeffs = [rng.randint(-3, 3) for _ in basis]
                vec = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(width)]
            else:
                vec = [rng.choice((0, 0, 1, -2, 7)) for _ in range(width)]
            probe = RefSpan()
            probe.rows, probe.pivots = ref.rows[:], ref.pivots[:]
            col = column_matrix([vec], width)
            x = span.coordinates(col)
            assert (x is not None) == (not probe.add(vec)) == span.contains(vec)
            if x is not None:
                assert span.basis * x == col
            vecs.append(vec)
            inside.append(x is not None)
        batch = span.coordinates(column_matrix(vecs, width))
        assert (batch is not None) == all(inside)


def _echelon_rows(span):
    """The span's echelon rows, unpacked, each checked to hold its pivot
    entry 1 after zeros and only residues in [0, P)."""
    assert span.pivots == sorted(set(span.pivots))
    rows = [_slots(row, span.w, span.width) for row in span.rows]
    for row, p in zip(rows, span.pivots):
        assert row[:p] == [0] * p and row[p] == 1
        assert all(type(x) is int and 0 <= x < P for x in row)
    return rows


def test_mod_p_span_never_exceeds_the_exact_span():
    # vectors congruent mod P to earlier ones are independent over Q but
    # not mod P, so the modular span falls short; it never runs ahead
    rng = random.Random(108)
    short = 0
    for _ in range(60):
        width = rng.randint(1, 9)
        span, ref = _ModSpan(width), RefSpan()
        basis = [[rng.randint(-10**12, 10**12) for _ in range(width)]
                 for _ in range(rng.randint(1, width))]
        added = []
        for _ in range(2 * width):
            kind = rng.random()
            if kind < 0.4:  # a combination of the basis: often dependent
                coeffs = [rng.randint(-3, 3) for _ in basis]
                vec = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(width)]
            elif kind < 0.7 and added:  # an earlier vector plus a multiple of P
                vec = [x + P * rng.randint(-2, 2) for x in rng.choice(added)]
            else:
                vec = [rng.choice((0, 0, 1, -2, 7, P, -3 * P)) for _ in range(width)]
            span.add(vec)
            ref.add(vec)
            added.append(vec)
            assert span.dim <= len(ref.rows)
        short += span.dim < len(ref.rows)
        _echelon_rows(span)
    assert short > 10


class RefModSpan:
    """Echelon rows mod P as lists, each stored from its pivot on with
    pivot entry 1: the span before rows were packed."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def add(self, vec) -> bool:
        v = [x % P for x in vec]
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                v[p:] = [(x - f * y) % P for x, y in zip(v[p:], row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, P)
        at = bisect(self.pivots, piv)
        self.rows.insert(at, [x * inv % P for x in v[piv:]])
        self.pivots.insert(at, piv)
        return True

    def unpacked(self):
        return [[0] * p + row for row, p in zip(self.rows, self.pivots)]


def _assert_same_span(span, ref):
    assert span.pivots == ref.pivots
    assert _echelon_rows(span) == ref.unpacked()


def _staircase(width, count):
    """Rows e_k - (e_(k+1) + ... + e_(width-1)) for k < count, which the
    span stores as e_k with P - 1 in every later slot.  A vector whose slot
    k is 1 - k mod P reads 1 at each of their pivots as it is reduced, so
    each of the count reductions adds (P - 1)^2 to every later slot."""
    return [[0] * k + [1] + [-1] * (width - k - 1) for k in range(count)]


def test_packed_span_matches_the_list_span_at_slot_boundaries():
    for width in range(1, 10):
        # every entry P - 1 (or -1): the largest residue in every slot
        span, ref = _ModSpan(width), RefModSpan()
        for vec in ([P - 1] * width, [-1] * width, [P - 1] + [1] * (width - 1),
                    [2 * P - 1] * width, list(range(width))):
            assert span.add(vec) == ref.add(vec)
            _assert_same_span(span, ref)
        # the largest number of reductions a row can take: width - 1
        span, ref = _ModSpan(width), RefModSpan()
        for row in _staircase(width, width - 1):
            assert span.add(row) and ref.add(row)
        _assert_same_span(span, ref)
        vec = [(1 - k) % P for k in range(width - 1)] + [P - 1]
        assert span.holds(vec) == (not ref.add(vec)) == (width == 2)
        assert span.add(vec) == (width != 2)
        _assert_same_span(span, ref)


def _ref_reduced(rows):
    """The reduced echelon form mod P of echelon rows with pivot entry 1."""
    out = [row[:] for row in rows]
    for k in reversed(range(len(out))):
        p = next(j for j, x in enumerate(out[k]) if x)
        for j in range(k):
            f = out[j][p]
            out[j] = [(x - f * y) % P for x, y in zip(out[j], out[k])]
    return out


def test_long_rows_match_the_list_span():
    # rows longer than the 32 entries `_pack` sums one by one are packed by
    # halves; entries P - 1 (the largest residue), 2P - 1 (which reduces to
    # it) and negative ones, whose residues fill the slots
    rng = random.Random(577)
    for width in (33, 64, 577):
        span, ref = _ModSpan(width), RefModSpan()
        for vec in ([P - 1] * width, [2 * P - 1] * width, [-1] * width,
                    [-P - 1] + [1] * (width - 1), [0] * (width - 1) + [2 * P - 1]):
            assert span.add(vec) == ref.add(vec)
            _assert_same_span(span, ref)
        # a staircase with a vector that each of its rows reduces
        count = min(width - 1, 40)
        for row in _staircase(width, count):
            assert span.add(row) == ref.add(row)
        vec = [(1 - k) % P for k in range(count)] + [P - 1] * (width - count)
        assert span.add(vec) == ref.add(vec)
        _assert_same_span(span, ref)
        for _ in range(4):
            vec = [rng.choice((0, 1, -1, P - 1, 2 * P - 1, -P, 1 - 3 * P, -(10**12)))
                   for _ in range(width)]
            assert span.add(vec) == ref.add(vec)
        _assert_same_span(span, ref)
        # an integer combination of the rows read so far lies in the span
        mix = [sum(c * x for c, x in zip((3, -2, P + 1), col)) for col in zip(*ref.unpacked()[-3:])]
        assert span.holds(mix) and not span.add(mix) and not ref.add(mix)
        assert span.reduced() == _ref_reduced(ref.unpacked())


def test_a_slot_one_bit_narrower_would_carry_into_the_next():
    # a span of width 5 for products of two residues summed twice (terms
    # 2, as the spin's at d = 2) takes slots below 2P^2.  After the three
    # reductions of the staircase, slots 3 and 4 hold about 5P^2 > 2^62,
    # which fits the 63-bit slots; in 62-bit slots slot 3 carries into
    # slot 4, and the new echelon row comes out wrong.
    slots = [2 * P * P - P + (1 - k) % P for k in range(4)] + [2 * P * P - 1]
    ref = RefModSpan()
    for row in _staircase(5, 3):
        ref.add(row)
    ref.add(slots)
    rows = []
    for narrower in (0, 1):
        span = _ModSpan(5, 2)
        assert span.w == 63 and max(slots) < 2 * P * P
        span.w -= narrower
        for row in _staircase(5, 3):
            span.add(row)
        rows.append(span.insert(_pack(slots, span.w)))
    assert rows[0] == ref.unpacked()[3] == [0, 0, 0, 1, 2]
    assert rows[1] != rows[0]


def _block_triangular(rng, n, d, style):
    k = rng.randint(1, d - 1)
    mats = []
    for _ in range(n):
        m = [list(row) for row in rand_matrix(rng, d, d, style).data]
        for i in range(k, d):
            for j in range(k):
                m[i][j] = F(0)
        mats.append(ExactMatrix(m, shape=(d, d)))
    return mats


def test_is_irreducible_matches_fraction_oracle():
    rng = random.Random(107)
    for t in range(40):
        style = ("small", "coprime", "sparse")[t % 3]
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        if d > 1 and t % 2:
            mats = _block_triangular(rng, n, d, style)
        else:
            mats = [rand_matrix(rng, d, d, style) for _ in range(n)]
        assert is_irreducible(mats) == ref_is_irreducible(mats)
    # larger tuples, conjugated so that no coordinate flag is invariant:
    # dense ones are irreducible, block-triangular ones are not
    for d in (5, 6):
        for triangular in (False, True):
            n = 2
            if triangular:
                mats = _block_triangular(rng, n, d, "sparse")
            else:
                mats = [rand_matrix(rng, d, d, "sparse") for _ in range(n)]
            p = rand_matrix(rng, d, d, "small")
            while not p.is_invertible():
                p = rand_matrix(rng, d, d, "small")
            mats = [p * m * inverse(p) for m in mats]
            assert is_irreducible(mats) == ref_is_irreducible(mats) == (not triangular)


# -- rational roots ----------------------------------------------------------


def test_rational_roots_match_trial_division():
    rng = random.Random(108)
    for _ in range(300):
        p = Poly([rng.choice((1, -1, 2, F(1, 2)))])
        for _ in range(rng.randint(0, 4)):  # linear factors, repeats allowed
            p = p * Poly([F(rng.randint(-6, 6), rng.randint(1, 4)), rng.choice((1, -1, 2, 3))])
        if rng.random() < 0.5:  # an irreducible or real-rootless quadratic
            p = p * Poly([rng.choice((2, 3, -2, 1)), 0, 1])
        if rng.random() < 0.3:
            p = p * Poly([F(rng.randint(-3, 3), rng.randint(1, 3)), 1, 1])
        roots = p.rational_roots()
        assert roots == ref_rational_roots(p)
        assert all(type(x) is Fraction for x in roots)
        assert p.integer_roots() == integers_among(roots)


def test_rational_roots_of_big_planted_factors():
    rng = random.Random(109)
    for digits in (12, 20, 40, 60):
        for _ in range(5):
            planted = sorted({F(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**6))
                              for _ in range(rng.randint(1, 3))})
            p = Poly([rng.randint(1, 10**digits), 0, 1])  # no real roots
            for r in planted:
                p = p * Poly([-r, 1]) * Poly([-r, 1])  # a double root
            assert p.rational_roots() == planted
            assert p.integer_roots() == integers_among(planted)


def test_rational_roots_edge_cases():
    assert Poly([5]).rational_roots() == []
    assert Poly([0, 0, 3]).rational_roots() == [0]
    assert Poly([F(-3, 7), 1]).rational_roots() == [F(3, 7)]
    assert Poly([-2, 0, 1]).rational_roots() == []  # ±√2
    assert Poly([0, -1, 0, 1]).rational_roots() == [-1, 0, 1]
    # x³ − 2(10x − 1)²: two irrational roots inside (0, 1], near 1/10
    assert Poly([-2, 40, -200, 1]).rational_roots() == []
    assert (Poly([-2, 40, -200, 1]) * Poly([-1, 10])).rational_roots() == [F(1, 10)]
    assert Poly([5]).integer_roots() == []
    assert Poly([0, 0, 3]).integer_roots() == [0]
    assert Poly([F(-3, 7), 1]).integer_roots() == []
    assert Poly([-6, 2]).integer_roots() == [3]
    assert Poly([0, -1, 0, 1]).integer_roots() == [-1, 0, 1]
    assert (Poly([-2, 40, -200, 1]) * Poly([-1, 10])).integer_roots() == []


def test_squarefree_part_matches_the_gcd_over_q():
    rng = random.Random(112)
    for case in range(200):
        f = Poly([rng.choice((1, -1, -3, F(2, 3), F(-5, 7)))])
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:  # a quadratic, often without real roots
                factor = Poly([rng.randint(1, 5), rng.randint(-3, 3), rng.choice((1, -2))])
            else:
                factor = Poly([F(rng.randint(-9, 9), rng.randint(1, 5)), rng.choice((1, -1, 3))])
            for _ in range(rng.randint(1, 4) if case % 4 else 5):  # (x − a)^5 alone
                f = f * factor
            if not case % 4:
                break
        f = Poly([0] * rng.randint(0, 2) + list(f.coeffs))
        zero, row = f._cleared()
        h = exactcore._squarefree(row) if len(row) > 1 else row
        low = next(k for k, c in enumerate(f.coeffs) if c)
        g = Poly(f.coeffs[low:])
        dg = Poly([i * c for i, c in enumerate(g.coeffs)][1:])
        want = g.exact_div(g.gcd(dg))
        assert zero == (low > 0)
        for ints, poly in ((row, g), (h, want)):
            assert all(type(c) is int for c in ints) and gcd(*ints) == 1
            ratio = poly.leading() / ints[-1]
            assert ratio > 0 and Poly(ints).scale(ratio) == poly


# -- the prime walk: no root mod p, or Newton lifting -------------------------

# the alphabet of a few hundred bytes of JSON that built huge root bounds
WALL_ALPHABET = ("1e4300", "-1e4300", "1e-4300", "2e4299", "3", "-2", "1", "0")
PRIMES_TO_101 = [p for p in range(2, 102) if all(p % q for q in range(2, p))]
PRIMORIAL_101 = prod(PRIMES_TO_101)


def wall_matrices():
    """Three d×d matrices for each of d = 4, 6, 8, their entries drawn in
    turn from one seeded stream."""
    rng = random.Random(1)
    return {
        d: [[[rng.choice(WALL_ALPHABET) for _ in range(d)] for _ in range(d)] for _ in range(3)]
        for d in (4, 6, 8)
    }


def shifted(p: Poly, s) -> Poly:
    """p(x − s), so that charpoly(a + s) is shifted(charpoly(a), s)."""
    out = Poly()
    for c in reversed(p.coeffs):
        out = out * Poly([-s, 1]) + Poly([c])
    return out


def counting(monkeypatch, name):
    calls = []
    real = getattr(exactcore, name)
    monkeypatch.setattr(exactcore, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_sieve_decides_the_wall_polynomials_without_a_sturm_chain(monkeypatch):
    """The characteristic polynomials of a and a + 1/2 for the nine wall
    matrices have root bounds of thousands of bits; the prime walk decides
    each, by a prime with no root or with simple roots only, and no Sturm
    chain is built.  At d = 4 the Sturm search takes about a minute; that
    matrix is the residue of the `rh-check` golden on
    tests/data/wall_rank4.json."""
    data = json.loads((Path(__file__).parent / "data" / "wall_rank4.json").read_text())
    assert data["residues"]["H1"] == wall_matrices()[4][0]
    a = matrix_from_json(wall_matrices()[4][0])
    assert shifted(charpoly(a), F(1, 2)) == charpoly(a.add_scaled_identity(F(1, 2)))
    sturms = counting(monkeypatch, "_sturm")
    polys = 0
    for mats in wall_matrices().values():
        for m in mats:
            chi = charpoly(matrix_from_json(m))
            for p in (chi, shifted(chi, F(1, 2))):
                assert p.integer_roots() == p.rational_roots() == []
                polys += 1
    assert polys == 18 and not sturms


def test_integer_eigenvalue_wall_takes_a_few_hundred_evaluations(monkeypatch):
    """The residue of tests/data/wall_integer_eigenvalues.json is triangular
    with the integer eigenvalues 10^4299, −10^4299, 2·10^4298 and
    −3·10^4298: a root mod every prime, so no rootless prime decides it.  The
    walk lifts its simple roots mod 11; the Sturm search bisected a range
    of about 14,000 bits with tens of thousands of evaluations."""
    data = json.loads((Path(__file__).parent / "data" / "wall_integer_eigenvalues.json").read_text())
    a = matrix_from_json(data["residues"]["H1"])
    chis = [charpoly(a), charpoly(a.add_scaled_identity(F(1, 2)))]
    horners = counting(monkeypatch, "_horner")
    sturms = counting(monkeypatch, "_sturm")
    assert chis[0].integer_roots() == sorted(a[i, i] for i in range(4))
    assert chis[1].integer_roots() == []
    assert len(horners) <= 300 and not sturms


def planted(rng, q):
    """A polynomial with 1-3 planted rational roots, each with q in its
    denominator, one of them double, times a quadratic with no root mod q
    and a constant term of about 140 bits: the root bound passes 2^64, and
    q divides the leading coefficient."""
    roots = []
    while len(roots) < rng.randint(1, 3):
        r = F(rng.choice((1, -1)) * rng.randint(1, 10**12), q * rng.randint(1, 5))
        if r.denominator % q == 0 and r not in roots:
            roots.append(r)
    big = rng.randint(2**139, 2**140)
    # x² + x + odd has no root mod 2, and −1, −2, −1 are not squares mod 3, 5, 7
    cofactor = {2: [2 * big + 1, 1, 1], 3: [3 * big + 1, 0, 1],
                5: [5 * big + 2, 0, 1], 7: [7 * big + 1, 0, 1]}[q]
    p = Poly(cofactor) * Poly([-roots[0], 1])
    for r in roots:
        p = p * Poly([-r.numerator, r.denominator])
    return p, sorted(roots)


def test_sieve_answers_as_the_sturm_search_does(monkeypatch):
    """Root bounds above 2^64: planted rational roots whose denominators
    share a prime with the leading coefficient, integer roots, polynomials
    without rational roots, leads that every prime ≤ 101 divides, and two
    polynomials with a double root mod every prime ≤ 101, one of them with
    a double root over Q.  The prime walk answers as the Sturm search of
    tests/roots_oracle.py does."""
    rng = random.Random(114)
    polys = []
    for q in (2, 3, 5, 7):
        for _ in range(5):
            p, roots = planted(rng, q)
            assert p.rational_roots() == roots
            polys.append(p)
    for _ in range(10):
        big = [rng.randint(2**140, 2**160) for _ in range(2)]
        p = Poly([big[0], 0, 1]) * Poly([big[1], rng.randint(-9, 9), rng.choice((1, 6, 35))])
        if rng.random() < 0.5:
            p = p * Poly([rng.randint(-2**80, 2**80), rng.choice((1, -1))])
        polys.append(p * Poly([0, 1]) if rng.random() < 0.3 else p)
    for _ in range(10):  # every prime ≤ 101 divides the lead
        p = Poly([rng.randint(2**400, 2**420), rng.randint(-9, 9), 0, PRIMORIAL_101])
        if rng.random() < 0.5:
            p = p * Poly([rng.randint(-2**80, 2**80), rng.choice((1, -1, 30))])
        polys.append(p)
    one, far = Poly([-1, 1]), Poly([-1 - PRIMORIAL_101, 1])  # 1 ≡ 1 + 2·3·…·101
    walked_past_101 = [one * far * Poly([1, 0, 1]), one * one * far]
    for p in walked_past_101:
        horners = counting(monkeypatch, "_horner")
        assert p.integer_roots() == [1, 1 + PRIMORIAL_101]
        assert len(horners) > sum(PRIMES_TO_101)
        monkeypatch.undo()
    polys += walked_past_101
    got = [(p.rational_roots(), p.integer_roots()) for p in polys]
    assert got == [(roots_oracle.rational_roots(p), roots_oracle.integer_roots(p)) for p in polys]


def test_integer_roots_sieve_on_primes_that_divide_the_lead(monkeypatch):
    """An integer root r is a root mod every p, whatever the lead, so the
    integer search may stop at a prime that divides the lead: here p = 2,
    after two evaluations.  The rational search walks the monic
    a²·f(y/a), which is y³ mod every prime that divides a, past all of
    them; neither builds a Sturm chain."""
    p = Poly([2**401 + 1, 2, 0, PRIMORIAL_101])  # odd at 0 and at 1
    horners = counting(monkeypatch, "_horner")
    sturms = counting(monkeypatch, "_sturm")
    assert p.integer_roots() == [] and len(horners) == 2
    assert p.rational_roots() == [] and len(horners) > sum(PRIMES_TO_101)
    assert not sturms


def test_sieve_runs_only_above_a_64_bit_root_bound(monkeypatch):
    """x² + 2^123 has the double root 0 mod 2.  With a root bound of 2^63
    (64 bits) the walk takes the squarefree part there, which builds one
    Sturm chain; with x² + 2^125, a bound of 2^64 (65 bits), it walks on
    and p = 3 decides with no chain."""
    sturms = counting(monkeypatch, "_sturm")
    assert Poly([2**123, 0, 1]).rational_roots() == []
    assert len(sturms) == 1
    assert Poly([2**125, 0, 1]).rational_roots() == []
    assert len(sturms) == 1


def integers_among(roots):
    return [int(r) for r in roots if r.denominator == 1]


def test_integer_roots_search_in_x(monkeypatch):
    """Roots {−5, 3} next to two rational roots with 500-bit denominators:
    the cleared leading coefficient has about 1000 bits.  Searching through
    y = a·x would walk a polynomial with coefficients of thousands of bits;
    in x the walk lifts small roots."""
    rng = random.Random(111)
    p = Poly([5, 1]) * Poly([-3, 1])
    for _ in range(2):
        p = p * Poly([F(-rng.randint(1, 2**500), rng.randint(2**499, 2**500)), 1])
    assert ExactMatrix([p.coeffs]).ints[0][-1].bit_length() > 990
    calls = []
    real = exactcore._horner
    monkeypatch.setattr(exactcore, "_horner", lambda c, x: calls.append(x) or real(c, x))
    assert p.integer_roots() == [-5, 3]
    assert len(calls) < 500


def test_integer_roots_builds_one_sturm_chain_when_squarefree(monkeypatch):
    """At most one Sturm chain per search: the squarefree part, taken at
    the first multiple root mod p of a polynomial with a small root bound,
    is taken once.  Both polynomials here have the triple root 1 mod 2."""
    sturms = counting(monkeypatch, "_sturm")
    squarefree = Poly([5, 1]) * Poly([-3, 1]) * Poly([F(1, 3), 1])
    assert squarefree.integer_roots() == [-5, 3]
    assert len(sturms) == 1
    sturms.clear()
    repeated = squarefree * Poly([-3, 1]) * Poly([F(-7, 2), 1])
    assert repeated.integer_roots() == [-5, 3]
    assert len(sturms) == 1


def test_linear_polynomials_build_no_sturm_chain(monkeypatch):
    """The one root of a linear polynomial is −g₀/g₁: neither root search
    walks a prime (no evaluation at all) or builds a Sturm chain for it,
    with or without factors x."""
    rng = random.Random(116)
    sturms = counting(monkeypatch, "_sturm")
    horners = counting(monkeypatch, "_horner")
    for case in range(60):
        size = rng.choice((10, 10**6, 10**40))
        root = F(rng.randint(-size, size), 1 if case % 2 else rng.randint(1, size))
        lead = F(rng.choice((1, -1)) * rng.randint(1, size), rng.randint(1, 9))
        zeros = rng.randint(0, 2)
        p = Poly([0] * zeros + [-root * lead, lead])
        roots = sorted({root, _ZERO} if zeros else {root})
        assert p.rational_roots() == roots
        assert p.integer_roots() == integers_among(roots)
    assert not sturms and not horners


def test_constant_polynomials_have_no_roots_without_a_search(monkeypatch):
    """A nonzero constant, such as the defect of a generic star condition,
    has no root and reaches no root search; the zero polynomial, which has
    every root, is a PreconditionError."""
    searches = counting(monkeypatch, "_integer_roots")
    for c in (1, -7, F(3, 5), F(-10**40, 3)):
        assert Poly([c]).rational_roots() == [] and Poly([c]).integer_roots() == []
    assert not searches
    for search in (Poly().rational_roots, Poly([0]).integer_roots):
        with pytest.raises(PreconditionError, match="every root"):
            search()


# -- characteristic polynomial -----------------------------------------------


def _nilpotent(rng, n, style):
    """A strictly upper triangular matrix conjugated by an invertible one."""
    u = [[rand_entry(rng, style) if j > i else F(0) for j in range(n)] for i in range(n)]
    while True:
        p = rand_matrix(rng, n, n, "small")
        if p.is_invertible():
            return p * ExactMatrix(u, shape=(n, n)) * inverse(p)


def test_charpoly_matches_faddeev_leverrier():
    rng = random.Random(110)
    cases = [ExactMatrix.zeros(0, 0), ExactMatrix([[F(-7, 3)]]), ExactMatrix([[0]])]
    for t in range(160):
        style = STYLES[t % len(STYLES)]
        n = rng.randint(1, 7)
        if t % 5 == 0:
            cases.append(_nilpotent(rng, n, style))
        elif t % 5 == 1:
            cases.append(rand_low_rank(rng, n, n, style))
        elif t % 5 == 2:  # a zero block under the diagonal
            cases.append(ExactMatrix(_block_triangular(rng, 1, n + 1, style)[0].data))
        else:
            cases.append(rand_matrix(rng, n, n, style))
    for a in cases:
        p = charpoly(a)
        assert p == Poly(ref_charpoly(a))
        assert p.degree == a.rows and p.leading() == 1
        assert all(type(c) is Fraction for c in p.coeffs)
    for a in cases[3::5]:  # the nilpotent ones
        assert charpoly(a) == Poly([0] * a.rows + [1])
    for n in (8, 9, 10):  # larger sizes, once per style
        for style in STYLES:
            a = rand_matrix(rng, n, n, style)
            assert charpoly(a) == Poly(ref_charpoly(a))


def test_charpoly_reads_only_the_integer_rows(monkeypatch):
    rng = random.Random(112)
    mats = [rand_matrix(rng, n, n, style) for n in (0, 1, 5) for style in STYLES]
    want = [Poly(ref_charpoly(a)) for a in mats]

    def no_data(self):
        raise AssertionError("charpoly read ExactMatrix.data")

    monkeypatch.setattr(ExactMatrix, "data", property(no_data))
    assert [charpoly(a) for a in mats] == want


# -- parsing rationals -------------------------------------------------------

RAT_CORPUS = [
    "3/", "/3", "-", "3/-7", "1/0", "-0", "+3", " 5 ", "1_000", "٣", "²",
    "−3/7", "1e3", "1e99999", "7" * 4301, "1/" + "7" * 4301,
    "7" * 4301 + "/" + "3" * 4301, True, 1.5, None,
    "0", "-12/8", "007/0010", "3/7", "-3/7", "1.5", "2e-3", "", " ", "1 / 2", 12, -10**40,
]


def test_rat_matches_fraction_on_the_corpus():
    for x in RAT_CORPUS:
        assert_rat_parity(x)
    refused = [x for x in RAT_CORPUS if expected_rat(x) is InputError]
    assert RAT_CORPUS[:5] + ["1_000", "²", "1e99999"] + RAT_CORPUS[14:20] == refused[:14]
    assert refused[14:] == ["", " ", "1 / 2"]
    assert [rat(x) for x in ("-0", "+3", " 5 ", "٣", "−3/7", "1e3")] == [
        0, 3, 5, 3, F(-3, 7), 1000]
