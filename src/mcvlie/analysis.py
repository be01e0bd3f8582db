"""Structural predicates on residue tuples and Pfaffian systems: the
genericity conditions behind the composition law, absolute irreducibility,
exact module-isomorphism search, the composition-law harness, and the
integer-eigenvalue hypotheses of the Riemann-Hilbert comparison."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .arrangement import Line, split_parallel
from .convolution import (
    dr_convolution,
    dr_middle_convolution,
    induce_on_quotients,
    phi_compose,
    phi_zero,
)
from .errors import InternalInvariantError, PreconditionError
from .exactcore import (
    ExactMatrix,
    Poly,
    PolyMatrix,
    _cleared,
    integer_spectrum_hits,
    kernel,
    pencil_full_rank,
    rat,
    rat_str,
)
from .holonomy import PfaffianSystem, residue_sum

DEFAULT_SEED = 20201


# ---------------------------------------------------------------------------
# Genericity conditions


@dataclass(frozen=True)
class StarWitness:
    generator: int
    c: Fraction
    vector: tuple


@dataclass(frozen=True)
class StarReport:
    holds_star: bool
    holds_dstar: bool
    star_defects: tuple  # one Poly per generator
    dstar_defects: tuple
    star_witnesses: tuple  # rational failures with kernel vectors, if any

    @property
    def holds(self) -> bool:
        return self.holds_star and self.holds_dstar

    def to_json(self):
        return {
            "holds_star": self.holds_star,
            "holds_dstar": self.holds_dstar,
            "star_defects": [_poly_json(p) for p in self.star_defects],
            "dstar_defects": [_poly_json(p) for p in self.dstar_defects],
            "star_witnesses": [
                {
                    "generator": w.generator,
                    "c": rat_str(w.c),
                    "vector": [rat_str(x) for x in w.vector],
                }
                for w in self.star_witnesses
            ],
        }


def _poly_json(p: Poly):
    return [rat_str(c) for c in p.coeffs]


def _star_pencil(mats, i: int) -> PolyMatrix:
    """Stacked pencil whose kernel at c is the common kernel of A_i - c and
    the other generators."""
    blocks = [PolyMatrix.from_pencil(mats[i], Poly([0, -1]))]
    blocks += [
        PolyMatrix.from_pencil(a, Poly.zero()) for j, a in enumerate(mats) if j != i
    ]
    return PolyMatrix.vstack(blocks)


def check_star_conditions(mats) -> StarReport:
    """Decide the two genericity conditions for every shift c at once.

    The kernel condition for generator i is full column rank of the
    vertically stacked pencil [A_i - c·Id; A_j (j != i)]; the image
    condition is full row rank of the horizontal stack, decided on the
    transpose.  Rank can only drop at roots of the defect polynomial, so
    the quantifier over all complex c is eliminated exactly.
    """
    mats = [m for m in mats]
    if not mats:
        raise PreconditionError("need at least one matrix")
    star_defects, dstar_defects, witnesses = [], [], []
    for i in range(len(mats)):
        pencil = _star_pencil(mats, i)
        full, defect = pencil_full_rank(pencil)
        star_defects.append(defect)
        if not full:
            for c in defect.rational_roots() if not defect.is_zero() else [Fraction(0)]:
                ker = kernel(pencil.eval(c))
                if ker.dim:
                    witnesses.append(
                        StarWitness(generator=i, c=c, vector=ker.basis.col(0))
                    )
                    break
        _, defect_t = pencil_full_rank(
            PolyMatrix.vstack(
                [
                    PolyMatrix.from_pencil(mats[i], Poly([0, -1])).transpose()
                    if j == i
                    else PolyMatrix.from_pencil(mats[j], Poly.zero()).transpose()
                    for j in range(len(mats))
                ]
            )
        )
        dstar_defects.append(defect_t)
    holds_star = all(
        d.is_constant() and not d.is_zero() for d in star_defects
    )
    holds_dstar = all(
        d.is_constant() and not d.is_zero() for d in dstar_defects
    )
    return StarReport(
        holds_star=holds_star,
        holds_dstar=holds_dstar,
        star_defects=tuple(star_defects),
        dstar_defects=tuple(dstar_defects),
        star_witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# Irreducibility


def is_irreducible(mats) -> bool:
    """Absolute irreducibility: the unital algebra generated by the tuple
    has full dimension d^2 (Burnside), computed by closing a spanning set
    under right multiplication by the generators.

    Each generator is scaled to an integer matrix first: a word in the
    scaled generators is a nonzero multiple of the same word in the
    originals, so the span, and every membership answer, is unchanged."""
    mats = [m for m in mats]
    if not mats:
        raise PreconditionError("need at least one matrix")
    d = mats[0].rows
    if d == 1:
        return True
    gens = [tuple(zip(*_integer_rows(a))) for a in mats]  # columns
    span = _IncrementalSpan(d * d)
    frontier = [tuple(tuple(int(i == j) for j in range(d)) for i in range(d))]
    span.add(_vec(frontier[0]))
    while frontier:
        nxt = []
        for m in frontier:
            for cols in gens:
                p = tuple(tuple(sum(map(mul, row, c)) for c in cols) for row in m)
                if span.add(_vec(p)):
                    nxt.append(p)
                    if span.dim == d * d:
                        return True
        frontier = nxt
    return span.dim == d * d


def _integer_rows(a: ExactMatrix):
    """The rows of c·a as integer tuples, c the lcm of a's denominators."""
    ints, _ = _cleared(_vec(a.data))
    return [tuple(ints[i:i + a.cols]) for i in range(0, len(ints), a.cols)]


def _vec(m):
    return [x for row in m for x in row]


class _IncrementalSpan:
    """Span of integer vectors, kept as primitive integer rows in echelon
    form for cheap membership inserts."""

    def __init__(self, width: int):
        self.width = width
        self.rows = []  # echelon rows, pivot columns strictly increasing
        self.pivots = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Insert an integer vector; True when it enlarges the span."""
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                a = row[p]
                g = gcd(a, f)
                a, f = a // g, f // g
                v = [a * x - f * y for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        g = gcd(*v)
        if g > 1:
            v = [x // g for x in v]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True


# ---------------------------------------------------------------------------
# Isomorphism of generator tuples


@dataclass(frozen=True)
class IsoResult:
    verdict: str  # "isomorphic" | "not_isomorphic" | "unknown"
    intertwiner: ExactMatrix = None

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.intertwiner is not None:
            from .exactcore import matrix_to_json

            out["intertwiner"] = matrix_to_json(self.intertwiner)
        return out


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
    same way.  An invertible intertwiner is searched in the exact solution
    space; for spaces of dimension at most 3 the determinant of a generic
    combination decides the question completely, otherwise a bounded seeded
    random search may end in "unknown"."""
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
        grid = range(d + 1)
        points = [(a,) for a in grid] if len(space) == 1 else (
            [(a, b) for a in grid for b in grid]
            if len(space) == 2
            else [(a, b, c) for a in grid for b in grid for c in grid]
        )
        for pt in points:
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


# ---------------------------------------------------------------------------
# Riemann-Hilbert hypotheses


def rh_hypotheses(system: PfaffianSystem, line: Line, lam):
    """The two eigenvalue conditions for a nonzero parameter: no transverse
    residue has a nonzero-integer eigenvalue, and neither does the sum of
    the transverse residues shifted by the parameter.  Returns (pass,
    offenders) with offenders naming the hyperplane (or "sum") and the
    integer found."""
    lam = rat(lam)
    if lam == 0:
        raise PreconditionError("the parameter must be nonzero")
    _, transverse = split_parallel(system.arrangement, line)
    offenders = []
    for h in transverse:
        for m in integer_spectrum_hits(system.residue(h.id), 0):
            offenders.append((h.id, m))
    total = residue_sum(system, transverse.ids())
    for m in integer_spectrum_hits(total, lam):
        offenders.append(("sum", m))
    return not offenders, offenders


# ---------------------------------------------------------------------------
# Composition-law harness


@dataclass
class CompositionReport:
    applicable: bool
    stars: StarReport
    lam: Fraction = None
    mu: Fraction = None
    dims: tuple = None  # (mc_mu, mc_lam(mc_mu), mc_(lam+mu))
    compose_iso: IsoResult = None
    identity_iso: IsoResult = None  # only when lam + mu = 0: composite vs input
    message: str = ""

    def to_json(self):
        out = {
            "applicable": self.applicable,
            "stars": self.stars.to_json(),
            "message": self.message,
        }
        if self.lam is not None:
            out["lambda"] = rat_str(self.lam)
            out["mu"] = rat_str(self.mu)
        if self.dims is not None:
            out["dims"] = list(self.dims)
        if self.compose_iso is not None:
            out["isomorphic"] = self.compose_iso.verdict == "isomorphic"
            out["compose_iso"] = self.compose_iso.to_json()
        if self.identity_iso is not None:
            out["identity_iso"] = self.identity_iso.to_json()
        return out


def _block_diag(m: ExactMatrix, copies: int) -> ExactMatrix:
    z = ExactMatrix.zeros(m.rows, m.cols)
    return ExactMatrix.block(
        [[m if i == j else z for j in range(copies)] for i in range(copies)]
    )


def composition_harness(mats, lam, mu, seed: int = DEFAULT_SEED) -> CompositionReport:
    """Certify the composition law on one input tuple: check the genericity
    conditions, run the three middle convolutions, push the comparison map
    to the quotients and verify it is an isomorphism intertwining the
    induced generator tuples.  When lam + mu = 0 the composite is further
    compared against the input itself through the map induced at level 0."""
    mats = [m for m in mats]
    lam, mu = rat(lam), rat(mu)
    stars = check_star_conditions(mats)
    if not stars.holds:
        bad = next(
            (p for p in stars.star_defects + stars.dstar_defects
             if p.is_zero() or not p.is_constant()),
            None,
        )
        return CompositionReport(
            applicable=False,
            stars=stars,
            message=f"not applicable: genericity fails with defect {bad!r}",
        )
    n = len(mats)
    mid_mu = dr_middle_convolution(mats, mu)
    mid_lm = dr_middle_convolution(mid_mu.matrices, lam)
    mid_sum = dr_middle_convolution(mats, lam + mu)
    phi = phi_compose(mats, lam, mu)
    src_proj = mid_lm.projection * _block_diag(mid_mu.projection, n)
    phibar = induce_on_quotients(phi, src_proj, mid_sum.projection)
    if phibar.rows != phibar.cols or not phibar.is_invertible():
        compose_iso = IsoResult("not_isomorphic")
    else:
        ok = all(
            phibar * b == c * phibar
            for b, c in zip(mid_lm.matrices, mid_sum.matrices)
        )
        compose_iso = (
            IsoResult("isomorphic", phibar) if ok else IsoResult("not_isomorphic")
        )
    identity_iso = None
    if lam + mu == 0 and compose_iso.verdict == "isomorphic":
        # the level-0 comparison map takes the middle convolution at 0 back
        # to the input; chain it with the composite isomorphism
        psi = induce_on_quotients(
            phi_zero(mats), mid_sum.projection, ExactMatrix.identity(mats[0].rows)
        )
        chained = psi * phibar
        if chained.is_invertible() and all(
            chained * b == a * chained for b, a in zip(mid_lm.matrices, mats)
        ):
            identity_iso = IsoResult("isomorphic", chained)
        else:
            identity_iso = IsoResult("not_isomorphic")
    return CompositionReport(
        applicable=True,
        stars=stars,
        lam=lam,
        mu=mu,
        dims=(mid_mu.dim, mid_lm.dim, mid_sum.dim),
        compose_iso=compose_iso,
        identity_iso=identity_iso,
        message="composition law certified"
        if compose_iso.verdict == "isomorphic"
        else "composition map is not an isomorphism",
    )
