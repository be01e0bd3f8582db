"""The exact core against sympy, an independent implementation, on seeded
random rational inputs: rref, rank, kernel, determinant, characteristic
polynomial and rational roots."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from mcvlie.exactcore import ExactMatrix, Poly, Subspace, charpoly, kernel  # noqa: E402

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
        assert kernel(m) == Subspace(c, columns=null)
        if r == c:
            assert m.det() == frac(s.det())


def test_charpoly_and_rational_roots_match_sympy():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        if rng.random() < 0.5:  # plant rational eigenvalues
            m = ExactMatrix(
                [[rand_entry(rng) if j >= i else F(0) for j in range(n)] for i in range(n)]
            )
        p = charpoly(m)
        s_coeffs = [frac(x) for x in to_sympy(m).charpoly(X).all_coeffs()]
        assert list(reversed(p.coeffs)) == s_coeffs
        assert p.rational_roots() == _sympy_rational_roots(p)


def test_rational_roots_match_sympy_on_random_polynomials():
    rng = random.Random(203)
    for _ in range(150):
        p = Poly([rng.choice((1, -3, F(2, 5)))])
        for _ in range(rng.randint(0, 5)):
            p = p * Poly([F(rng.randint(-10**15, 10**15), rng.randint(1, 10**6)),
                          rng.randint(1, 9)])
        if rng.random() < 0.5:
            p = p * Poly([rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(1, 9)])
        assert p.rational_roots() == _sympy_rational_roots(p)


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
