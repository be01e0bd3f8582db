"""The exact core against sympy, an independent implementation, on seeded
random rational inputs: rref, rank, kernel, determinant, characteristic
polynomial and rational roots; and the closed-form echelon forms of the
arrangement module (codimension-2 flats, Y-closure additions) against
sympy's rref."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from mcvlie.arrangement import (  # noqa: E402
    Arrangement,
    Line,
    _flat_from_pair,
    canonicalize,
    codim2_flats,
    y_closure,
)
from mcvlie.exactcore import ExactMatrix, Poly, Subspace, charpoly, kernel  # noqa: E402

from linalg_oracle import column_matrix  # noqa: E402

F = Fraction
X = sympy.Symbol("x")


def rand_entry(rng):
    kind = rng.random()
    if kind < 0.3:
        return F(0)
    if kind < 0.9:
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, -11)))
    return F(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))


def rand_matrix(rng, r, c):
    if r and c and rng.random() < 0.3:  # rank deficient: a product of factors
        k = rng.randint(1, min(r, c))
        a = ExactMatrix([[rand_entry(rng) for _ in range(k)] for _ in range(r)])
        b = ExactMatrix([[rand_entry(rng) for _ in range(c)] for _ in range(k)])
        return a * b
    return ExactMatrix([[rand_entry(rng) for _ in range(c)] for _ in range(r)], shape=(r, c))


def to_sympy(m: ExactMatrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.data for x in row])


def frac(x) -> Fraction:
    x = sympy.Rational(x)
    return F(int(x.p), int(x.q))


def test_rref_rank_kernel_det_match_sympy():
    rng = random.Random(201)
    for _ in range(80):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, r, c)
        s = to_sympy(m)
        red, pivots = m.rref()
        s_red, s_pivots = s.rref()
        assert pivots == tuple(s_pivots)
        assert [list(row) for row in red.data] == [
            [frac(s_red[i, j]) for j in range(c)] for i in range(r)
        ]
        assert m.rank() == s.rank()
        null = [[frac(x) for x in v] for v in s.nullspace()]
        assert kernel(m) == Subspace(c, basis=column_matrix(null, c))
        if r == c:
            assert m.det() == frac(s.det())


def test_charpoly_and_rational_roots_match_sympy():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = rand_matrix(rng, n, n)
        if rng.random() < 0.5:  # plant rational eigenvalues
            m = ExactMatrix(
                [[rand_entry(rng) if j >= i else F(0) for j in range(n)] for i in range(n)]
            )
        p = charpoly(m)
        s_coeffs = [frac(x) for x in to_sympy(m).charpoly(X).all_coeffs()]
        assert list(reversed(p.coeffs)) == s_coeffs
        roots = p.rational_roots()
        assert roots == _sympy_rational_roots(p)
        assert p.integer_roots() == [r for r in roots if r.denominator == 1]


def test_rational_roots_match_sympy_on_random_polynomials():
    rng = random.Random(203)
    for _ in range(150):
        p = Poly([rng.choice((1, -3, F(2, 5)))])
        for _ in range(rng.randint(0, 5)):
            p = p * Poly([F(rng.randint(-10**15, 10**15), rng.randint(1, 10**6)),
                          rng.randint(1, 9)])
        if rng.random() < 0.5:
            p = p * Poly([rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(1, 9)])
        roots = p.rational_roots()
        assert roots == _sympy_rational_roots(p)
        assert p.integer_roots() == [r for r in roots if r.denominator == 1]


def _sympy_rational_roots(p: Poly):
    sp = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X
    )
    _, factors = sp.factor_list()
    roots = set()
    for f, _ in factors:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            roots.add(-frac(b) / frac(a))
    return sorted(roots)


def _sympy_rref(rows):
    red, pivots = sympy.Matrix(rows).rref()
    return tuple(tuple(frac(x) for x in red.row(i)) for i in range(red.rows)), pivots


def _random_planes(rng, dim):
    """Raw (normal…, offset) rows of distinct planes, distinct by sympy's
    rref; some pass through the flat of the two before them."""
    rows, forms = [], set()
    for _ in range(rng.randint(3, 7)):
        if len(rows) >= 2 and rng.random() < 0.3:
            s, t = rng.randint(1, 3), F(rng.randint(-3, -1), rng.randint(1, 2))
            row = [s * x + t * y for x, y in zip(rows[-1], rows[-2])]
        else:
            row = [F(rng.randint(-3, 3)) for _ in range(dim)]
            row.append(F(rng.randint(-4, 4), rng.randint(1, 3)))
        if not any(row[:-1]):
            continue
        form, _ = _sympy_rref([row])
        if form not in forms:
            forms.add(form)
            rows.append(row)
    return rows


def test_flats_and_closure_match_sympy_rref():
    rng = random.Random(204)
    added = 0
    for k in range(60):
        dim = 2 + k % 4
        rows = _random_planes(rng, dim)
        arr = Arrangement(dim, [canonicalize(f"H{i}", r[:-1], r[-1]) for i, r in enumerate(rows)])
        base = {_sympy_rref([r])[0] for r in rows}
        flats = []
        for i, r1 in enumerate(rows):
            for r2 in rows[i + 1:]:
                eqs, pivots = _sympy_rref([r1, r2])
                if len(pivots) == 2 and pivots[-1] < dim and eqs not in flats:
                    flats.append(eqs)
        planes = {h.id: h for h in arr}
        assert [_flat_from_pair(planes[a], planes[b]).data for a, b, *_ in codim2_flats(arr)] == flats

        direction = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim)]
        if not any(direction):
            direction[0] = F(1)
        expected = []
        for eqs in flats:
            m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                              for row in eqs])
            v = m[:, :dim] * sympy.Matrix(direction)
            if v.is_zero_matrix:
                continue  # the line lies in the flat
            (c,) = v.T.nullspace()
            form, _ = _sympy_rref([list(c.T * m)])
            if form not in base and form not in expected:
                expected.append(form)
        closed = y_closure(arr, Line.of(direction))
        assert [h.form.data for h in closed.hyperplanes[len(arr):]] == expected
        added += len(expected)
    assert added > 20
