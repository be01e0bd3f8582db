"""Reference isomorphism search for generator tuples, used by the tests as an
oracle beside the explicit intertwiner certificates of the library.

An invertible intertwiner is searched in the exact solution space of
A_i X = X B_i.  For spaces of dimension at most 3 the determinant of a
generic combination decides the question completely; otherwise a bounded
seeded random search may end in "unknown"."""

import itertools
import random
from fractions import Fraction

from mcvlie.analysis import IsoResult
from mcvlie.errors import InternalInvariantError, PreconditionError
from mcvlie.exactcore import ExactMatrix, kernel

DEFAULT_SEED = 20201


def intertwiner_space(mats1, mats2) -> list:
    """Basis of {X : A_i X = X B_i for all i}, as matrices."""
    d1, d2 = mats1[0].rows, mats2[0].rows
    blocks = []
    ident1, ident2 = ExactMatrix.identity(d1), ExactMatrix.identity(d2)
    for a, b in zip(mats1, mats2):
        blocks.append(_kron(a, ident2) - _kron(ident1, b.transpose()))
    ker = kernel(ExactMatrix.vstack(blocks))
    out = []
    for j in range(ker.dim):
        col = ker.basis.col(j)
        out.append(
            ExactMatrix(
                [[col[r * d2 + c] for c in range(d2)] for r in range(d1)],
                shape=(d1, d2),
            )
        )
    return out


def _kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    rows = []
    for i in range(a.rows):
        for k in range(b.rows):
            rows.append(
                [a.data[i][j] * b.data[k][l] for j in range(a.cols) for l in range(b.cols)]
            )
    return ExactMatrix(rows, shape=(a.rows * b.rows, a.cols * b.cols))


def _verify_intertwiner(x: ExactMatrix, mats1, mats2) -> bool:
    return x.is_invertible() and all(a * x == x * b for a, b in zip(mats1, mats2))


def are_isomorphic(mats1, mats2, seed: int = DEFAULT_SEED) -> IsoResult:
    """Exact tri-state isomorphism test for two generator tuples indexed the
    same way: "isomorphic" with an intertwiner, "not_isomorphic", or
    "unknown" when the intertwiner space has dimension above 3 and the
    random search finds no invertible element."""
    mats1, mats2 = [m for m in mats1], [m for m in mats2]
    if len(mats1) != len(mats2):
        raise PreconditionError("generator index sets differ")
    if mats1[0].rows != mats2[0].rows:
        return IsoResult("not_isomorphic")
    space = intertwiner_space(mats1, mats2)
    if not space:
        return IsoResult("not_isomorphic")
    for x in space:
        if _verify_intertwiner(x, mats1, mats2):
            return IsoResult("isomorphic", x)
    rng = random.Random(seed)
    for _ in range(32):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in space]
        cand = space[0].scale(coeffs[0])
        for c, x in zip(coeffs[1:], space[1:]):
            cand = cand + x.scale(c)
        if _verify_intertwiner(cand, mats1, mats2):
            return IsoResult("isomorphic", cand)
    if len(space) <= 3:
        # determinant of a generic combination: identically zero on a full
        # grid of degree-many points iff zero as a polynomial, and then no
        # invertible intertwiner exists over any extension field
        d = mats1[0].rows
        for pt in itertools.product(range(d + 1), repeat=len(space)):
            cand = space[0].scale(pt[0])
            for c, x in zip(pt[1:], space[1:]):
                cand = cand + x.scale(c)
            if cand.is_invertible():
                if _verify_intertwiner(cand, mats1, mats2):
                    return IsoResult("isomorphic", cand)
                raise InternalInvariantError(
                    "intertwiner space element failed to intertwine"
                )
        return IsoResult("not_isomorphic")
    return IsoResult("unknown")
