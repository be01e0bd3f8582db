"""Structural predicates on residue tuples and Pfaffian systems: the
genericity conditions behind the composition law, absolute irreducibility,
the composition-law harness with its explicit intertwiner certificates, and
the integer-eigenvalue hypotheses of the Riemann-Hilbert comparison."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arrangement import Line, split_parallel
from .convolution import (
    _square_tuple,
    dr_middle_convolution,
    induce_on_quotients,
    phi_compose,
    phi_zero,
)
from .errors import InternalInvariantError, PreconditionError
from .exactcore import (
    P,
    ExactMatrix,
    Poly,
    Subspace,
    charpoly,
    integer_spectrum_hits,
    kernel,
    matrix_to_json,
    rat,
    rat_str,
    _bits,
    _crt,
    _ModSpan,
    _pack,
    _packed_dot,
    _prime_below,
    _reconstruct,
    _shifted,
    _transposed,
    _unpack,
    _width,
)
from .holonomy import PfaffianSystem, residue_sum


# ---------------------------------------------------------------------------
# Genericity conditions


class StarWitness(NamedTuple):
    generator: int
    c: Fraction
    vector: tuple


class StarReport(NamedTuple):
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


def _star_defect(mats, i: int, full_rank=None) -> Poly:
    """Gcd of the maximal minors of the pencil [A_i - c; A_j (j != i)], by
    the Hautus reduction: the characteristic polynomial of A_i restricted
    to N = ker [C; C·A_i; ...; C·A_i^(d-1)], C the stack of the other
    generators (Hautus, Indag. Math. 31, 1969).  N is the largest
    A_i-invariant subspace of ker C; the pencil loses rank at c exactly
    when A_i - c has a kernel vector in N.

    The kernels N_k of the partial stacks [C; ...; C·A_i^k] shrink until
    N_k = N_(k+1); then A_i·N_k lies in N_k, so N_k is N and the remaining
    blocks are not built.

    Before any kernel, the integer rows of C are reduced mod P: rank d mod P
    proves rank d over Q (`_ModSpan`), so N = 0 and the defect is 1.  A
    shorter rank mod P decides nothing, and the exact iteration runs; the
    matrix of A_i on N comes from `Subspace.restrict`, which also checks
    that N is invariant.  `full_rank`, when given, is that answer for C,
    known from elsewhere."""
    a = mats[i]
    others = [m for j, m in enumerate(mats) if j != i]
    if full_rank is None:
        full_rank = _full_rank_mod_p((row for m in others for row in m.ints), a.rows)
    if full_rank:
        return Poly([1])
    if others:
        block = stack = ExactMatrix.vstack(others)
        n_space = kernel(stack)
        while n_space.dim:
            block = block * a
            stack = ExactMatrix.vstack([stack, block])
            smaller = kernel(stack)
            if smaller == n_space:
                break
            n_space = smaller
    else:
        n_space = Subspace(a.rows, basis=ExactMatrix.identity(a.rows))
    if not n_space.dim:
        return Poly([1])
    return charpoly(n_space.restrict(a, "Hautus space N", i + 1))


def check_star_conditions(mats) -> StarReport:
    """Decide the two genericity conditions for every shift c at once.

    The kernel condition for generator i is full column rank of the
    vertically stacked pencil [A_i - c·Id; A_j (j != i)]; the image
    condition is full row rank of the horizontal stack, decided on the
    transposes.  Rank drops exactly at the roots of the defect polynomial
    (`_star_defect`), so the quantifier over all complex c is eliminated
    exactly.

    With two generators, C is the other generator for the kernel condition
    and its transpose for the image condition.  A square matrix has the
    rank of its transpose, so one rank test mod P serves both.
    """
    mats = _square_tuple(mats)
    transposes = [m.transpose() for m in mats]
    star_defects, dstar_defects, witnesses = [], [], []
    for i, a in enumerate(mats):
        full_rank = _full_rank_mod_p(mats[1 - i].ints, a.rows) if len(mats) == 2 else None
        defect = _star_defect(mats, i, full_rank)
        star_defects.append(defect)
        roots = defect.rational_roots()
        if roots:
            c = roots[0]
            others = [m for j, m in enumerate(mats) if j != i]
            ker = kernel(ExactMatrix.vstack([a.add_scaled_identity(-c)] + others))
            if not ker.dim:
                raise InternalInvariantError(
                    f"star defect root c = {rat_str(c)} of generator {i + 1}"
                    " leaves the stacked pencil with a zero kernel"
                )
            witnesses.append(StarWitness(generator=i, c=c, vector=ker.basis.col(0)))
        dstar_defects.append(_star_defect(transposes, i, full_rank))
    return StarReport(
        holds_star=all(d.is_constant() for d in star_defects),
        holds_dstar=all(d.is_constant() for d in dstar_defects),
        star_defects=tuple(star_defects),
        dstar_defects=tuple(dstar_defects),
        star_witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# Irreducibility


def is_irreducible(mats) -> bool:
    """Absolute irreducibility: the unital algebra A generated by the tuple
    has full dimension d^2 (Burnside).  A 1×1 tuple is irreducible; the zero
    module (d = 0) is not, by the usual convention.

    Each generator is scaled to an integer matrix first: a word in the
    scaled generators is a nonzero multiple of the same word in the
    originals, so the span, and every membership answer, is unchanged.

    One walk over the primes p = P, `_prime_below(P)`, ... decides:

    - True is proven mod p: the identity closed under right multiplication
      by the generators mod p (`_spin`) reaches dimension d^2.  Words are
      integer matrices, so words independent mod p are independent over Q.
    - False is proven by a proper subspace S of Q^(d^2) that holds the
      identity and is closed under right multiplication by every
      generator, checked exactly (`_closed_subspace`): S then holds every
      word, so dim A <= dim S < d^2.  S is read by rational reconstruction
      (`_reconstruct`) from the reduced echelon forms of the short spins,
      combined (`_crt`) over the primes of the least key (-dim, pivots)
      seen: a smaller key starts afresh, a larger one is left out.

    The key.  Let r = dim A, R its reduced echelon form with pivots J, and
    W a basis of A made of words found breadth first over Q.  A spin mod p
    spans integer points of A reduced mod p, so its rank on the first j
    coordinates is at most A's for every j: no key is below (-r, J).  At
    key (-r, J) the spin is all of (A ∩ Z^(d^2)) mod p, whose columns J
    are invertible mod p, so its reduced form is R mod p and the combined
    rows are R mod M, M the product of the primes of that key.  A prime
    not dividing det W_J keeps W independent, so it has key (-r, J) (and
    reaches d^2 when r = d^2).  The primes of other keys thus multiply to
    at most |det W_J| <= B^(1/2) by Hadamard: word i has length at most i,
    so squared Frobenius norm at most d·G2^i, G2 the largest squared norm
    of the integer generators (at least 1), and B = d^(d^2)·G2^(d^2(d^2-1)/2).

    The bound.  R = N/D, the entries of N and D minors of W, so at most
    B^(1/2), and D prime to M.  Over any divisor of D an entry of R is a
    fraction whose numerator and denominator are at most B^(1/2), so once
    M > 2^8·B, below (M/2)^(1/2), `_reconstruct` reads R exactly
    (Wang-Guy-Davenport), and |N|·D <= B passes its check.  The walk stops
    once walked^2 > 2^18·B^3 (walked the product of the primes spun,
    compared on bit lengths), when M >= walked/B^(1/2) > 2^9·B.  Exhausting
    the bound would contradict this; it raises InternalInvariantError and
    returns no verdict."""
    mats = _square_tuple(mats)
    d = mats[0].rows
    if d < 2:
        return d == 1
    gens = [a.ints for a in mats]
    g2 = max(1, max(sum(x * x for row in g for x in row) for g in gens))
    b_bits = d * d * d.bit_length() + d * d * (d * d - 1) // 2 * g2.bit_length()  # B < 2^b_bits
    p, walked, primes = P, 1, 0
    key = rows = m = tested = None
    while 2 * (walked.bit_length() - 1) <= 18 + 3 * b_bits:
        span = _spin(gens, p)
        if span.dim == d * d:
            return True
        new = (-span.dim, span.pivots)
        if key is None or new < key:
            key, rows, m = new, span.reduced(), p
        elif new == key:
            rows, m = _crt(rows, m, span.reduced(), p), m * p
        if new == key:  # this prime restarted or joined the combination
            lifted = _reconstruct(rows, m)
            if lifted is not None and lifted != tested:
                tested = lifted
                if _closed_subspace(*lifted, gens) is not None:
                    return False
        walked, primes = walked * p, primes + 1
        p = _prime_below(p)
    raise InternalInvariantError(
        f"is_irreducible: no verdict at d = {d} after {primes} primes, past"
        " the bound on the unlucky ones: no lifted subspace was closed"
    )


def _spin(gens, p: int):
    """The span mod the prime p of the identity closed under right
    multiplication by the generators (integer rows), found breadth first,
    up to d^2 words.

    A word is multiplied through its echelon row: that row is the word over
    a nonzero scalar plus a combination of earlier words, whose products
    with every generator are in the span already (breadth first), so the
    row's product enlarges the span exactly when the word's would."""
    d = len(gens[0])
    span = _ModSpan(d * d, d, p)
    shifted = [_shifted([span.pack(row) for row in g], span.w) for g in gens]
    rows = [span.insert(span.pack(_identity(d)))]
    for row in rows:  # breadth first: the loop reaches the rows it appends
        for g in shifted:
            new = span.insert(_packed_dot(row, g))
            if new is not None:
                rows.append(new)
                if span.dim == span.width:
                    return span
    return span


def _closed_subspace(rows, den, gens):
    """The span S of the matrices given by the flat integer rows of a
    reduced echelon form over den, when it holds the identity and b·g lies
    in S for every basis matrix b of S and every generator g (one
    `Subspace.holds` batch); else None."""
    d = len(gens[0])
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    s = Subspace._of(ExactMatrix._of(_transposed(rows, d * d), den, d * d, len(rows)), pivots)
    w = _width(_bits(rows) + max(map(_bits, gens)), d)  # (b·g)_ac sums d products
    tests = [_identity(d)]
    for g in gens:
        shifted = _shifted([_pack(row, w) for row in g], w)
        tests += [_unpack(_packed_dot(b, shifted), w, d * d) for b in rows]
    batch = ExactMatrix._of(tuple(zip(*tests)), 1, d * d, len(tests))
    return s if s.holds(batch) else None


def _identity(d: int) -> list:
    """The d×d identity, flat."""
    return [int(k % (d + 1) == 0) for k in range(d * d)]


def _full_rank_mod_p(rows, width: int) -> bool:
    """Whether the integer rows have rank `width` mod P, reading no more of
    them than it takes; True proves rank `width` over Q.  A row that would
    fill the span is only tested, not inserted."""
    span = _ModSpan(width)
    for row in rows:
        if span.dim < width - 1:
            span.add(row)
        elif not span.holds(row):
            return True
    return span.dim == width


# ---------------------------------------------------------------------------
# Isomorphism of generator tuples


class IsoResult(NamedTuple):
    verdict: str  # "isomorphic" | "not_isomorphic"
    intertwiner: ExactMatrix = None

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.intertwiner is not None:
            out["intertwiner"] = matrix_to_json(self.intertwiner)
        return out


# ---------------------------------------------------------------------------
# Riemann-Hilbert hypotheses


def rh_hypotheses(system: PfaffianSystem, line: Line, lam):
    """The two eigenvalue conditions for a nonzero parameter: no transverse
    residue has a nonzero-integer eigenvalue, and neither does the sum of
    the transverse residues shifted by the parameter.  Returns (pass,
    offenders) with offenders naming the hyperplane (or "sum") and the
    integer found.  Like the convolution, it needs a transverse hyperplane."""
    lam = rat(lam)
    if lam == 0:
        raise PreconditionError("the parameter must be nonzero")
    _, transverse = split_parallel(system.arrangement, line)
    if not len(transverse):
        raise PreconditionError("no hyperplane is transverse to the line")
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


class CompositionReport(NamedTuple):
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


def _iso(x: ExactMatrix, src, dst) -> IsoResult:
    """The verdict of the candidate x: an isomorphism when x is invertible
    and x·S_i = D_i·x for every pair of generators."""
    if x.is_invertible() and all(x * s == d * x for s, d in zip(src, dst)):
        return IsoResult("isomorphic", x)
    return IsoResult("not_isomorphic")


def composition_harness(mats, lam, mu) -> CompositionReport:
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
             if not p.is_constant()),
            None,
        )
        return CompositionReport(
            applicable=False,
            stars=stars,
            message=f"not applicable: genericity fails with defect {bad!r}",
        )
    n = len(mats)
    mid_mu = dr_middle_convolution(mats, mu)
    mid_lm = dr_middle_convolution(mid_mu.matrices.values(), lam)
    mid_sum = dr_middle_convolution(mats, lam + mu)
    # phibar·P_lm·blockdiag(P_mu) = P_sum·phi, solved through mid_mu one
    # outer block of n·d columns at a time, then through mid_lm
    image = mid_sum.projection * phi_compose(mid_mu.conv)
    nd, rows = mid_mu.conv.dim, range(image.rows)
    blocks = [image.submatrix(rows, range(i * nd, (i + 1) * nd)) for i in range(n)]
    inner = [induce_on_quotients(b, mid_mu.projection, mid_mu.section) for b in blocks]
    phibar = induce_on_quotients(ExactMatrix.hstack(inner), mid_lm.projection, mid_lm.section)
    compose_iso = _iso(phibar, mid_lm.matrices.values(), mid_sum.matrices.values())
    identity_iso = None
    if lam + mu == 0 and compose_iso.verdict == "isomorphic":
        # the level-0 comparison map takes the middle convolution at 0 back
        # to the input; chain it with the composite isomorphism
        psi = induce_on_quotients(phi_zero(mid_sum.conv), mid_sum.projection, mid_sum.section)
        identity_iso = _iso(psi * phibar, mid_lm.matrices.values(), mats)
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
