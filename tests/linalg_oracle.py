"""Linear algebra that only the tests need: some X with a·X = b by one
elimination of [a | b], the inverse of a square matrix as the solution of
m·X = I, and the matrix with given columns.  The library reads induced maps
at a quotient's section and has no general solver; the tests use these to
build conjugators and subspaces and to check the section against an
independent right inverse."""

from mcvlie.errors import PreconditionError
from mcvlie.exactcore import ExactMatrix


def solve_right(a: ExactMatrix, b: ExactMatrix):
    """Some X with a·X = b, or None when the system is inconsistent."""
    aug, pivots = ExactMatrix.hstack([a, b]).rref()
    if any(p >= a.cols for p in pivots):
        return None
    x = [(0,) * b.cols] * a.cols
    for r, p in enumerate(pivots):
        x[p] = aug.ints[r][a.cols:]
    return ExactMatrix._of(tuple(x), aug.den, a.cols, b.cols)


def inverse(m: ExactMatrix) -> ExactMatrix:
    if not m.is_square:
        raise PreconditionError("inverse needs a square matrix")
    z = solve_right(m, ExactMatrix.identity(m.rows))
    if z is None:
        raise PreconditionError("matrix is singular")
    return z


def column_matrix(cols, n: int) -> ExactMatrix:
    """The n-row matrix whose columns are `cols` (n×0 when there are none)."""
    return ExactMatrix(cols, shape=(len(cols), n)).transpose()
