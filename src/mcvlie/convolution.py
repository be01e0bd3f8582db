"""Additive convolution and middle convolution of a Pfaffian system along a
line, which enlarges the system to its Y-closure.  A matrix tuple A_1, ...,
A_n is the system on the n points x = 0, ..., n - 1 of Q^1, the
Dettweiler–Reiter case.  The transverse block rows of the convolution are
the one-variable tuple construction, and every middle convolution is one
quotient of a `ConvolvedSystem`, by the kernel-block subspace and the joint
kernel of the convolved transverse matrices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arrangement import Arrangement, Line, canonicalize, codim2_flats, split_parallel, y_closure
from .errors import InternalInvariantError, PreconditionError
from .exactcore import (
    ExactMatrix,
    Subspace,
    _sum_matrices,
    kernel,
    matrix_to_json,
    quotient_all,
    rat,
    rat_str,
    subspace_sum,
)
from .holonomy import PfaffianSystem, check_integrability


def _square_tuple(mats) -> list:
    """The tuple as a list, after the shape checks of every tuple
    function: at least one matrix, every matrix square, all of one size.
    The messages are those of the pencils the star defects stand for,
    which `analyze` and `compose-check` report."""
    mats = list(mats)
    if not mats:
        raise PreconditionError("need at least one matrix")
    if not all(m.is_square for m in mats):
        raise PreconditionError("pencil needs a square matrix")
    if any(m.rows != mats[0].rows for m in mats):
        raise PreconditionError("vstack: column counts differ")
    return mats


def dr_convolution(mats, lam) -> list:
    """Convolved generator matrices: the i-th output has block row i equal to
    (A_1, ..., A_i + lam·Id, ..., A_n) and every other block row zero, its
    integer rows written between zero rows (canonical, as `hstack`)."""
    mats = _square_tuple(mats)
    n, d = len(mats), mats[0].rows
    lam = rat(lam)
    zero = ((0,) * (n * d),)
    out = []
    for i in range(n):
        row = ExactMatrix.hstack(
            [m.add_scaled_identity(lam) if j == i else m for j, m in enumerate(mats)]
        )
        ints = zero * (i * d) + row.ints + zero * ((n - 1 - i) * d)
        out.append(ExactMatrix._canonical(ints, row.den, n * d, n * d))
    return out


def dr_k_l(mats, lam):
    """The two canonical subspaces of the convolved space, in closed form:
    k is the direct sum of the kernels ker A_i, and l, the joint kernel of
    the convolved generators, is the diagonal copy {(v, ..., v) :
    (sum A_j + lam)v = 0} for lam != 0 and the relation space
    {(v_i) : sum A_i v_i = 0} at lam = 0.  The block diagonal of canonical
    kernel bases, and a stack of copies of one, are already in reduced
    column echelon form, with the blocks' pivots, so neither is eliminated
    again."""
    mats = _square_tuple(mats)
    n, d = len(mats), mats[0].rows
    lam = rat(lam)
    kers = [kernel(a) for a in mats]
    blocks = [[s.basis if i == j else ExactMatrix.zeros(d, t.dim) for j, t in enumerate(kers)]
              for i, s in enumerate(kers)]
    pivots = [i * d + p for i, s in enumerate(kers) for p in s.pivots]
    k = Subspace._of(ExactMatrix.block(blocks), pivots)
    if lam == 0:
        return k, kernel(ExactMatrix.hstack(mats))
    ker = kernel(_sum_matrices(mats, d).add_scaled_identity(lam))
    return k, Subspace._of(ExactMatrix.vstack([ker.basis] * n), ker.pivots)


class ConvolvedSystem(NamedTuple):
    """Convolution of a Pfaffian system along a line: one matrix of size
    n·d per hyperplane of the Y-closure, block order fixed by the transverse
    hyperplanes in arrangement order."""

    base: PfaffianSystem
    lam: Fraction
    order: list
    closure: Arrangement
    matrices: dict

    @property
    def dim(self) -> int:
        return len(self.order) * self.base.rank

    def system(self) -> PfaffianSystem:
        return PfaffianSystem(self.closure, self.dim, self.matrices)

    def to_json(self):
        return {
            "closure": self.closure.to_json(),
            "lambda": rat_str(self.lam),
            "dim": self.dim,
            "block_order": list(self.order),
            "matrices": {h: matrix_to_json(m) for h, m in self.matrices.items()},
        }


class MiddleConvolvedSystem(NamedTuple):
    """Quotient of a convolution by k + l, with the induced matrix of each id.
    The projection is the identity at the section's coordinates (see
    `quotient_all`)."""

    conv: ConvolvedSystem
    k_space: Subspace
    l_space: Subspace
    projection: ExactMatrix
    section: list
    matrices: dict
    direct_sum: bool

    @property
    def dim(self) -> int:
        return len(self.section)

    def to_json(self):
        return {
            "closure": self.conv.closure.to_json(),
            "lambda": rat_str(self.conv.lam),
            "dim": self.dim,
            "k_dim": self.k_space.dim,
            "l_dim": self.l_space.dim,
            "direct_sum": self.direct_sum,
            "block_order": list(self.conv.order),
            "matrices": {h: matrix_to_json(m) for h, m in self.matrices.items()},
        }


def _middle(conv: ConvolvedSystem) -> MiddleConvolvedSystem:
    """Quotient of a convolution by K + L (see `dr_k_l`, on the transverse
    residues, whose kernels make up K), after verifying that every convolved
    matrix leaves K and L invariant; a failure names the matrix by its
    hyperplane id.  At lam = 0 the relation space is cross-checked against
    the joint kernel of the convolved transverse matrices."""
    k, l = dr_k_l([conv.base.residue(h) for h in conv.order], conv.lam)
    if conv.lam == 0 and l != kernel(ExactMatrix.vstack([conv.matrices[h] for h in conv.order])):
        raise InternalInvariantError("joint kernel at lam = 0 disagrees with the relation space")
    ids = conv.closure.ids()
    generators = [conv.matrices[h] for h in ids]
    if not (k.invariant_under(generators) and l.invariant_under(generators)):
        for h, m in zip(ids, generators):  # the first failure, with its witness
            k.restrict(m, "kernel-block space K", h)
            l.restrict(m, "joint kernel L", h)
        raise InternalInvariantError("the invariance checks of K and L disagree")
    w = subspace_sum(k, l)
    proj, section, induced = quotient_all(generators, w)
    return MiddleConvolvedSystem(
        conv=conv,
        k_space=k,
        l_space=l,
        projection=proj,
        section=section,
        matrices=dict(zip(ids, induced)),
        direct_sum=k.dim + l.dim == w.dim,
    )


def dr_middle_convolution(mats, lam) -> MiddleConvolvedSystem:
    """Middle convolution of a matrix tuple A_1, ..., A_n: the system with
    residue A_i at the point x = i - 1 of Q^1, id "i", convolved along Q^1.
    A line has no codimension-2 flats, so the Y-closure is the input, both
    integrability certificates of `haraoka_convolution` are empty, and the
    convolution is `dr_convolution` in id order."""
    mats = _square_tuple(mats)
    lam = rat(lam)
    points = Arrangement(1, [canonicalize(str(i + 1), (1,), -i) for i in range(len(mats))])
    ids = points.ids()
    system = PfaffianSystem(points, mats[0].rows, dict(zip(ids, mats)))
    conv = dict(zip(ids, dr_convolution(mats, lam)))
    return _middle(ConvolvedSystem(base=system, lam=lam, order=ids, closure=points, matrices=conv))


# ---------------------------------------------------------------------------
# Convolution along a line


def haraoka_convolution(system: PfaffianSystem, line: Line, lam) -> ConvolvedSystem:
    """Convolution along a line: one block matrix per hyperplane of the
    Y-closure.  The closure keeps the input's hyperplanes, ids and order as
    its prefix, and every hyperplane it appends contains the line's
    direction.  So the transverse residues are the input's, and a parallel
    hyperplane's residue is the input's under its id (zero if appended).

    Transverse hyperplanes get the one-variable block-row form.  A parallel
    h meets each transverse H_j in exactly one codimension-2 flat; in column
    j the flat's other transverse members get -A_j, and H_j gets A_h plus
    their residues.  These members, over the flats through h, number n.

    Integrability is certified twice: on the input (a PreconditionError if
    it fails) and on the output over the closure (the runtime certificate
    that convolution preserves integrability).
    """
    lam = rat(lam)
    if check_integrability(system):
        raise PreconditionError("input system is not integrable")
    closure = y_closure(system.arrangement, line)
    parallel, transverse = split_parallel(closure, line)
    order = transverse.ids()
    n = len(order)
    if n == 0:
        raise PreconditionError("no hyperplane is transverse to the line")
    zero = ExactMatrix.zeros(system.rank, system.rank)
    pos = {hid: i for i, hid in enumerate(order)}
    res = [system.residue(hid) for hid in order]
    matrices = dict(zip(order, dr_convolution(res, lam)))

    neg = [-a for a in res]
    families = {h.id: [] for h in parallel}  # transverse positions per flat through h
    for family in codim2_flats(closure):
        fam = [pos[m] for m in family if m in pos]
        for m in families.keys() & family:
            families[m].append(fam)
    for h in parallel:
        grid = [[zero] * n for _ in range(n)]
        a_h = system.residues.get(h.id, zero)
        for fam in families[h.id]:
            for j in fam:
                for m in fam:
                    grid[m][j] = neg[j]
                grid[j][j] = _sum_matrices([a_h] + [res[m] for m in fam if m != j], system.rank)
        if sum(map(len, families[h.id])) != n:
            raise InternalInvariantError(
                f"the flats through {h.id!r} do not meet each transverse hyperplane once"
            )
        matrices[h.id] = ExactMatrix.block(grid)

    out = ConvolvedSystem(
        base=system, lam=lam, order=order, closure=closure, matrices=matrices
    )
    if check_integrability(out.system()):
        raise InternalInvariantError(
            "convolution output violates integrability over the closure"
        )
    return out


def haraoka_middle_convolution(system: PfaffianSystem, line: Line, lam) -> MiddleConvolvedSystem:
    """Middle convolution along a line: the quotient of the convolution by
    K + L, after `_middle` has verified that every convolved matrix leaves
    them invariant (a failure carries an exact witness)."""
    return _middle(haraoka_convolution(system, line, lam))


# ---------------------------------------------------------------------------
# Comparison maps


def phi_zero(conv: ConvolvedSystem) -> ExactMatrix:
    """The block map (v_1, ..., v_n) -> sum A_i v_i from the convolved space
    to the base space, A_i the transverse residues in block order; at
    lam = 0 it intertwines the convolved transverse matrices with the
    residues and induces the map from the middle convolution at 0 back to
    the input."""
    return ExactMatrix.hstack([conv.base.residue(h) for h in conv.order])


def phi_compose(conv: ConvolvedSystem) -> ExactMatrix:
    """The comparison map from the doubly convolved space (inner level mu,
    the level of `conv`, and outer level lam) to the convolved space at
    lam + mu: outer block i with inner vector w is sent to C_i^(mu)·w, with
    C_i^(mu) the convolved matrix of the i-th transverse hyperplane,
    whatever lam is.

    The inner level is the right one: with P_k the row-block-k projector,
    C_k^(mu) - C_k^(lam+mu) = -lam·P_k and P_k·C_i^(mu) = delta_ki·C_i^(mu),
    so this map intertwines the doubly convolved generators with the
    (lam+mu)-convolved ones exactly, and descends to the isomorphism of
    middle convolutions under the genericity conditions."""
    return ExactMatrix.hstack([conv.matrices[h] for h in conv.order])


def induce_on_quotients(image: ExactMatrix, projection: ExactMatrix, section) -> ExactMatrix:
    """The map out with out·projection = image, for the projection and the
    section of a canonical quotient (see `quotient_all`); image is a map
    composed with a projection of its target, and out is the map induced
    on the quotients when that map descends.

    The section's inclusion R is a right inverse of the projection, and
    I - R·projection maps onto its kernel, so out = image·R, the columns
    of image at the section, satisfies the defining identity exactly when
    the map descends."""
    out = image.submatrix(range(image.rows), section)
    if out * projection != image:
        raise InternalInvariantError("map does not descend to the quotients")
    return out
