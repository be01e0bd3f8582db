import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mcvlie import analysis, cli
from mcvlie.analysis import (
    P,
    StarReport,
    StarWitness,
    _closed_subspace,
    _full_rank_mod_p,
    _spin,
    _star_defect,
    check_star_conditions,
    composition_harness,
    is_irreducible,
    rh_hypotheses,
)
from mcvlie.arrangement import Arrangement, Line, canonicalize
from mcvlie.convolution import dr_convolution, dr_middle_convolution
from mcvlie.errors import InternalInvariantError, PreconditionError
from mcvlie.exactcore import (
    ExactMatrix,
    Poly,
    PolyMatrix,
    _bits,
    _prime_below,
    _reconstruct,
    kernel,
    matrix_from_json,
    matrix_to_json,
    pencil_full_rank,
)
from mcvlie.holonomy import PfaffianSystem

from iso_oracle import are_isomorphic, intertwiner_space
from linalg_oracle import inverse
from test_exact_kernels import ref_is_irreducible

F = Fraction
DATA = Path(__file__).parent / "data"


def scalars(*values):
    return [ExactMatrix([[F(v) if not isinstance(v, F) else v]]) for v in values]


def rand_matrix(rng, d, den=2):
    return ExactMatrix(
        [[F(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(d)] for _ in range(d)]
    )


# -- star conditions ------------------------------------------------------------


def test_stars_hold_for_nonzero_scalars():
    report = check_star_conditions(scalars(2, 3))
    assert report.holds_star and report.holds_dstar


def test_stars_fail_for_zero_scalars():
    report = check_star_conditions(scalars(0, 0))
    assert not report.holds_star
    w = report.star_witnesses[0]
    assert w.c == 0


def test_stars_fail_with_nilpotent_and_zero():
    a1 = ExactMatrix([[0, 1], [0, 0]])
    a2 = ExactMatrix.zeros(2, 2)
    report = check_star_conditions([a1, a2])
    assert not report.holds_star
    w = next(w for w in report.star_witnesses if w.c == 0)
    # e1 spans the common kernel at c = 0
    assert w.vector in ((F(1), F(0)), (F(-1), F(0)))


def _stars_sampling_oracle(mats, report, rng):
    n, d = len(mats), mats[0].rows
    cs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(25)]
    for p in report.star_defects + report.dstar_defects:
        if not p.is_zero():
            cs += p.rational_roots()
    for i in range(n):
        for c in cs:
            stacked = ExactMatrix.vstack(
                [m.add_scaled_identity(-c) if j == i else m for j, m in enumerate(mats)]
            )
            drop = stacked.rank() < d
            defect = report.star_defects[i]
            assert drop == (defect.is_zero() or defect.eval(c) == 0)
            hstacked = ExactMatrix.hstack(
                [m.add_scaled_identity(-c) if j == i else m for j, m in enumerate(mats)]
            )
            rdrop = hstacked.rank() < d
            ddefect = report.dstar_defects[i]
            assert rdrop == (ddefect.is_zero() or ddefect.eval(c) == 0)


def test_star_decision_matches_sampling_oracle():
    rng = random.Random(21)
    for _ in range(15):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        report = check_star_conditions(mats)
        _stars_sampling_oracle(mats, report, rng)


def _minors_star_conditions(mats) -> StarReport:
    """Reference decision of the genericity conditions: the defect is the
    monic gcd of all maximal minors of the stacked polynomial pencil
    [A_i - c; A_j (j != i)], and of the stacked transposes for the image
    condition; a witness is a kernel vector at the first rational root."""
    star_defects, dstar_defects, witnesses = [], [], []
    for i in range(len(mats)):
        blocks = [
            PolyMatrix.from_pencil(a, Poly([0, -1]) if j == i else Poly())
            for j, a in enumerate(mats)
        ]
        pencil = PolyMatrix.vstack([blocks[i]] + blocks[:i] + blocks[i + 1:])
        full, defect = pencil_full_rank(pencil)
        star_defects.append(defect)
        if not full:
            for c in defect.rational_roots() if not defect.is_zero() else [F(0)]:
                ker = kernel(pencil.eval(c))
                if ker.dim:
                    witnesses.append(StarWitness(generator=i, c=c, vector=ker.basis.col(0)))
                    break
        _, defect_t = pencil_full_rank(PolyMatrix.vstack([b.transpose() for b in blocks]))
        dstar_defects.append(defect_t)
    return StarReport(
        holds_star=all(d.is_constant() and not d.is_zero() for d in star_defects),
        holds_dstar=all(d.is_constant() and not d.is_zero() for d in dstar_defects),
        star_defects=tuple(star_defects),
        dstar_defects=tuple(dstar_defects),
        star_witnesses=tuple(witnesses),
    )


def _invertible(rng, d):
    p = rand_matrix(rng, d)
    while not p.is_invertible():
        p = rand_matrix(rng, d)
    return p


def _planted(rng, n, d, i):
    """A tuple whose generators other than i share a kernel vector that is
    an eigenvector of generator i: a conjugate of matrices whose first
    column is c·e1 for generator i and zero for the others."""
    p = _invertible(rng, d)
    out = []
    for j in range(n):
        m = [list(row) for row in rand_matrix(rng, d).data]
        for r in range(d):
            m[r][0] = F(0)
        if j == i:
            m[0][0] = F(rng.randint(-3, 3), rng.randint(1, 2))
        out.append(p * ExactMatrix(m) * inverse(p))
    return out


def _star_tuples(rng, count):
    """Seeded tuples of every shape the defect must handle: dense, zero,
    rank-1, planted common eigenvectors (of the tuple or of the
    transposes), a single generator, and 1x1 entries."""
    for t in range(count):
        kind = t % 7
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        if kind == 0:
            mats = [rand_matrix(rng, d) for _ in range(n)]
        elif kind == 1:  # zero tuples, and zero generators beside others
            mats = [ExactMatrix.zeros(d, d) if t % 2 or rng.random() < 0.5
                    else rand_matrix(rng, d) for _ in range(n)]
        elif kind == 2:
            mats = []
            for _ in range(n):
                u, v = rand_matrix(rng, d).col(0), rand_matrix(rng, d).col(0)
                mats.append(ExactMatrix([[x * y for y in v] for x in u]))
        elif kind in (3, 4):
            mats = _planted(rng, n, d, rng.randrange(n))
            if kind == 4:
                mats = [m.transpose() for m in mats]
        elif kind == 5:
            mats = [rand_matrix(rng, d)]
        else:
            mats = [ExactMatrix([[F(rng.randint(-2, 2), rng.randint(1, 3))]])
                    for _ in range(n)]
        yield mats


def test_star_conditions_match_minors_oracle():
    rng = random.Random(41)
    nonconstant = witnessed = 0
    for mats in _star_tuples(rng, 560):
        report = check_star_conditions(mats)
        assert report == _minors_star_conditions(mats)
        nonconstant += sum(
            not p.is_constant() for p in report.star_defects + report.dstar_defects
        )
        witnessed += len(report.star_witnesses)
    # the planted and degenerate kinds reach failing defects and witnesses
    assert nonconstant > 300 and witnessed > 150


def test_two_generator_star_conditions_test_each_rank_once(monkeypatch):
    # with two generators C is the other generator, and its transpose for
    # the image condition; both have one rank mod P, tested once
    calls = _spy(monkeypatch, "_full_rank_mod_p")
    rng = random.Random(2104)
    singular = ExactMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    for mats, tests in (
        ([rand_matrix(rng, 3), rand_matrix(rng, 3)], 2),
        ([rand_matrix(rng, 3), singular], 2),  # rank 2: the exact iteration runs
        ([rand_matrix(rng, 2), rand_matrix(rng, 2), rand_matrix(rng, 2)], 6),
    ):
        calls.clear()
        assert check_star_conditions(mats) == _minors_star_conditions(mats)
        assert len(calls) == tests


# -- modular rank certificates ------------------------------------------------------


def test_modulus_is_a_fixed_prime_below_2_to_30():
    assert type(P) is int and 2 < P < 2**30
    assert all(P % q for q in range(2, math.isqrt(P) + 1))


def test_reconstruct_reads_small_fractions_back_exactly():
    # an integer reading is taken only up to isqrt(m/2), where it is unique:
    # 48/271 mod P is 3962147·271 mod P, and 3962147 < P/2^8
    assert _reconstruct([[48 * pow(271, -1, P) % P]], P) == (((48,),), 271)
    for a in range(1, 60, 5):
        for b in range(257, 2000, 7):
            if math.gcd(a, b) == 1:
                n, den = _reconstruct([[a * pow(b, -1, P) % P]], P)
                assert F(n[0][0], den) == F(a, b)
    q = _prime_below(P)
    m = P * q
    row = [F(1, 3), F(5, 7), F(-2), F(0), F(-(10**8), 9)]
    residues = [[x.numerator * pow(x.denominator, -1, m) % m for x in row]]
    n, den = _reconstruct(residues, m)
    assert den == 63 and [F(x, den) for x in n[0]] == row


def _mod_p_spin_dim(mats):
    return _spin([a.ints for a in mats], P).dim


def _conjugate(rng, mats):
    p = _invertible(rng, mats[0].rows)
    return [p * m * inverse(p) for m in mats]


def _spy(monkeypatch, name):
    """Record the calls of the analysis function `name`, which still runs."""
    calls = []
    real = getattr(analysis, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, name, spy)
    return calls


E12 = ExactMatrix([[0, 1], [0, 0]])
SHIFT3 = ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def _spin_primes(spins):
    """The primes of the recorded `_spin` calls, in order."""
    return [args[1] for args in spins]


def test_unlucky_prime_irreducible_tuple_reaches_the_exact_path(monkeypatch):
    # P·E21 vanishes mod P: the span mod P is that of I and E12 alone, and
    # its lift is not closed under P·E21; the next prime decides
    spins = _spy(monkeypatch, "_spin")
    mats = [E12, ExactMatrix([[0, 0], [P, 0]])]
    assert _mod_p_spin_dim(mats) == 2
    spins.clear()
    assert is_irreducible(mats)
    assert _spin_primes(spins) == [P, _prime_below(P)]


def test_unlucky_prime_reducible_tuple_is_decided_at_the_second_prime(monkeypatch):
    # E12 and P·E21, padded with zeros to 3×3, span M_2 + Q·E33 (dimension
    # 5) over Q but only I and E12 mod P: the lift of those two words is not
    # closed under P·E21, and the next prime finds and lifts all five
    spins = _spy(monkeypatch, "_spin")
    a = ExactMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    b = ExactMatrix([[0, 0, 0], [P, 0, 0], [0, 0, 0]])
    gens = [a.ints, b.ints]
    assert _spin(gens, P).dim == 2
    assert _spin(gens, _prime_below(P)).dim == 5
    spins.clear()
    assert not is_irreducible([a, b])
    assert not ref_is_irreducible([a, b])
    assert _spin_primes(spins) == [P, _prime_below(P)]


def test_unlucky_prime_conjugated_3x3_tuples_reach_the_exact_path(monkeypatch):
    # the shift with P·E31 is irreducible, with P·E13 it fixes the line of
    # e1; mod P both are the shift alone, even after a rational conjugation.
    # P·E13 is P times the shift squared, so there the words found mod P
    # span the algebra and their lift proves "reducible" at P; with P·E31
    # the lift is not closed and the next prime decides.
    spins = _spy(monkeypatch, "_spin")
    rng = random.Random(71)
    for corner, irreducible in (((2, 0), True), ((0, 2), False)):
        b = [[0] * 3 for _ in range(3)]
        b[corner[0]][corner[1]] = P
        for mats in ([SHIFT3, ExactMatrix(b)], _conjugate(rng, [SHIFT3, ExactMatrix(b)])):
            assert _mod_p_spin_dim(mats) == 3
            spins.clear()
            assert is_irreducible(mats) == ref_is_irreducible(mats) == irreducible
            assert _spin_primes(spins) == [P, _prime_below(P)][: 1 + irreducible]


def _reducible(rng, n, d, k, conjugator):
    """n generators with the first k coordinates invariant (block upper
    triangular, diagonal shifted by 6), conjugated by `conjugator`."""
    mats = []
    for _ in range(n):
        m = [[F(rng.randint(-2, 2) + 6 * (i == j)) for j in range(d)] for i in range(d)]
        for i in range(k, d):
            for j in range(k):
                m[i][j] = F(0)
        mats.append(conjugator * ExactMatrix(m) * inverse(conjugator))
    return mats


def _unit_lu(rng, d, den, spread):
    """A unit lower triangular matrix (entries up to `spread` over `den`)
    times an upper triangular one with diagonal entries ±1 or 2."""
    lower = ExactMatrix([[F(int(i == j)) if i <= j else F(rng.randint(-spread, spread), rng.randint(1, den))
                          for j in range(d)] for i in range(d)])
    upper = ExactMatrix([[F(rng.choice((1, -1, 2))) if i == j else F(rng.randint(-1, 1)) * (i < j)
                          for j in range(d)] for i in range(d)])
    return lower * upper


def test_reducible_tuples_lift_at_the_first_prime(monkeypatch):
    # the shapes of the benchmark's reducible tuples: the reduced echelon
    # form of their algebra has small entries, so the first prime lifts it
    crts = _spy(monkeypatch, "_crt")
    spins = _spy(monkeypatch, "_spin")
    rng = random.Random(81)
    for n, d in ((2, 3), (3, 4), (2, 5), (3, 2), (2, 6), (4, 3), (2, 7)):
        mats = _reducible(rng, n, d, d // 2, _unit_lu(rng, d, 2, 2))
        spins.clear()
        assert not is_irreducible(mats)
        assert _spin_primes(spins) == [P]
        if d <= 4:
            assert not ref_is_irreducible(mats)
    assert crts == []


def test_large_conjugator_needs_a_second_prime(monkeypatch):
    # a conjugator with entries up to 1000 and determinant near 10^12 puts
    # large numerators and denominators into the reduced echelon form, past
    # what one prime reconstructs: further primes are spun and combined
    crts = _spy(monkeypatch, "_crt")
    spins = _spy(monkeypatch, "_spin")
    rng = random.Random(83)
    p = ExactMatrix([[rng.randint(-1000, 1000) for _ in range(4)] for _ in range(4)])
    assert abs(p.det()) > 10**9
    mats = _reducible(rng, 2, 4, 2, p)
    assert not is_irreducible(mats)
    assert not ref_is_irreducible(mats)
    assert len(spins) > 1 and _spin_primes(spins)[0] == P
    assert len(crts) >= 1


def test_a_prime_with_other_pivots_is_skipped(monkeypatch):
    # q is the first prime below P.  With the first generator times q,
    # every word through it vanishes mod q; with [[0, q], [1, 5]] the word
    # keeps its rank mod q but moves its pivot.  Either way q is spun but
    # must not enter the reconstruction, and the lift completes with the
    # primes after it.
    q = _prime_below(P)
    rng = random.Random(83)
    p = ExactMatrix([[rng.randint(-1000, 1000) for _ in range(4)] for _ in range(4)])
    a, b = _reducible(rng, 2, 4, 2, p)
    for mats in ([a.scale(q), b], [ExactMatrix([[0, q], [1, 5]])]):
        with monkeypatch.context() as patch:
            crts = _spy(patch, "_crt")
            spins = _spy(patch, "_spin")
            assert not is_irreducible(mats)
            assert not ref_is_irreducible(mats)
        assert _spin_primes(spins)[:2] == [P, q]
        assert crts and all(m % q and r != q for _, m, _, r in crts)


def test_closure_test_needs_the_identity_and_every_generator():
    # E12 and E21 generate M_2.  The matrices with a zero second row form a
    # right ideal: closed under both generators, but without the identity.
    # The span of I and E12 holds the identity and is closed under E12
    # alone.
    gens = [E12.ints, ExactMatrix([[0, 0], [1, 0]]).ints]
    first_row = ((1, 0, 0, 0), (0, 1, 0, 0))
    assert _closed_subspace(first_row, 1, gens) is None
    assert _closed_subspace(first_row, 1, gens[::-1]) is None
    upper = ((1, 0, 0, 1), (0, 1, 0, 0))
    assert _closed_subspace(upper, 1, gens) is None
    assert _closed_subspace(upper, 1, gens[::-1]) is None
    assert _closed_subspace(upper, 1, gens[:1]).dim == 2
    assert _closed_subspace(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)), 1, gens[:1]).dim == 3


def _flat(m):
    return [x for row in m.data for x in row]


def _in_span(span_rows, vecs) -> bool:
    rank = ExactMatrix(span_rows).rank()
    return all(ExactMatrix(span_rows + [v]).rank() == rank for v in vecs)


def _word_algebra(gens, d):
    """The reduced echelon form of the span of all words in the generators,
    found over Fractions by ranks."""
    words = frontier = [ExactMatrix.identity(d)]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                w = m * g
                if not _in_span([_flat(u) for u in words], [_flat(w)]):
                    words, new = words + [w], new + [w]
        frontier = new
    return ExactMatrix([_flat(w) for w in words]).rref()[0]


def test_closed_subspace_at_extreme_entries():
    # generators with entries +-(2^b - 1) and a zero lower-left block,
    # plain or conjugated by a unimodular matrix: the algebra of their words
    # is closed, and without one of its rows it is closed only by chance;
    # every verdict is checked by ranks over Fractions
    rng = random.Random(17)
    verdicts = set()
    for t in range(16):
        d, b = 2 + t % 2, rng.choice((1, 5, 31, 64))
        k, top = rng.randint(1, d - 1), 2**b - 1
        gens = [ExactMatrix([[0 if i >= k > j else rng.choice((top, -top, top, 1, -1, 0))
                              for j in range(d)] for i in range(d)]) for _ in range(2)]
        if t % 4 > 1:
            c = ExactMatrix([[int(i == j) + (i == 0 < j) * top for j in range(d)] for i in range(d)])
            gens = [c * g * inverse(c) for g in gens]
        algebra = _word_algebra(gens, d)
        for drop in [None, *range(algebra.rows)]:
            sub = [row for i, row in enumerate(algebra.data) if i != drop]
            products = [_flat(ExactMatrix([row[a * d:a * d + d] for a in range(d)]) * g)
                        for row in sub for g in gens]
            want = _in_span(sub, [_flat(ExactMatrix.identity(d))] + products)
            m = ExactMatrix(sub)
            assert (_closed_subspace(m.ints, m.den, [g.ints for g in gens]) is not None) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_closed_subspace_needs_every_bit_of_its_width():
    # S = span(I, g, g^2) is closed under g (Cayley-Hamilton).  Its echelon
    # rows are below 2^9 and g's entries below 2^3, so an entry of b·g sums
    # d = 3 products below 2^12 and the width is 12 + bits(3) + 1 = 15.
    # One entry reaches 2^13: one bit narrower it unpacks as that entry
    # less 2^14, a matrix outside S, and S would fail its closure test.
    g = ExactMatrix([[-1, 2, 7], [3, 6, -7], [7, -7, 7]])
    s = ExactMatrix([_flat(w) for w in (ExactMatrix.identity(3), g, g * g)]).rref()[0]
    assert (_bits(s.ints), _bits(g.ints)) == (9, 3)
    products = [ExactMatrix([row[a * 3:a * 3 + 3] for a in range(3)]) * g for row in s.ints]
    assert max(abs(x) for p in products for x in _flat(p)) >= 2**13
    closed = _closed_subspace(s.ints, s.den, [g.ints])
    assert closed is not None and closed.dim == 3


def test_conjugated_block_triangular_12x12_pair_is_decided_by_the_lift(monkeypatch):
    # the reduced echelon form of this algebra has small entries, yet too
    # large for P alone: the spins at P and at the next prime, combined,
    # lift to the algebra and prove "reducible"
    spins = _spy(monkeypatch, "_spin")
    rng = random.Random(12)
    mats = _reducible(rng, 2, 12, 6, _unit_lu(rng, 12, 2, 2))
    assert not is_irreducible(mats)
    assert _spin_primes(spins) == [P, _prime_below(P)]


def _analyze(capsys, tmp_path, mats):
    """Exit code and stdout of `mcvlie analyze` on the tuple; stdout must
    be exactly one JSON document."""
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"matrices": [matrix_to_json(m) for m in mats]}))
    code = cli.main(["analyze", "--input", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_generator_a_multiple_of_p_costs_one_more_spin(monkeypatch, capsys, tmp_path):
    # [A, P·B] at d = 12 is A alone mod P, whose powers' reduced echelon
    # form mod P does not reconstruct: nothing is tested for closure, and
    # the next prime spans M_12
    rng = random.Random(12)
    mats = [ExactMatrix([[c * rng.randint(-3, 3) for _ in range(12)] for _ in range(12)])
            for c in (1, P)]
    spins = _spy(monkeypatch, "_spin")
    closed = _spy(monkeypatch, "_closed_subspace")
    code, doc = _analyze(capsys, tmp_path, mats)
    assert code == 0 and doc["irreducible"] is True
    assert _spin_primes(spins) == [P, _prime_below(P)]
    assert closed == []


def test_reducible_pair_with_a_multiple_of_p_is_lifted_at_the_second_prime(monkeypatch):
    # mod P the span is that of a alone, whose lift is tested and is not
    # closed under P·b; the next prime's larger span restarts the
    # combination, and its lift is closed
    rng = random.Random(6)
    a, b = _reducible(rng, 2, 6, 3, _unit_lu(rng, 6, 2, 2))
    mats = [a, b.scale(P)]
    spins = _spy(monkeypatch, "_spin")
    closed = _spy(monkeypatch, "_closed_subspace")
    assert not is_irreducible(mats)
    assert not ref_is_irreducible(mats)
    assert _spin_primes(spins) == [P, _prime_below(P)]
    assert len(closed) == 1


def test_a_closure_test_that_never_passes_exhausts_the_bound(monkeypatch, capsys, tmp_path):
    # a mutation: with the exact closure test made to fail, a reducible
    # tuple has no proof at any prime.  The walk stops once the square of
    # the product of its primes passes 2^18·B^3, B the Hadamard bound
    # d^(d^2)·G2^(d^2(d^2 - 1)/2), compared on bit lengths, and names no
    # verdict
    rng = random.Random(3)
    mats = _reducible(rng, 2, 3, 1, _unit_lu(rng, 3, 2, 2))
    g2 = max(sum(x * x for row in m.ints for x in row) for m in mats)
    b_bits = 9 * (3).bit_length() + 36 * g2.bit_length()
    walked, expected, p = 1, 0, P
    while 2 * (walked.bit_length() - 1) <= 18 + 3 * b_bits:
        walked, expected, p = walked * p, expected + 1, _prime_below(p)
    monkeypatch.setattr(analysis, "_closed_subspace", lambda *args: None)
    spins = _spy(monkeypatch, "_spin")
    with pytest.raises(InternalInvariantError, match=f"d = 3 after {expected} primes"):
        is_irreducible(mats)
    assert len(spins) == expected <= 40
    code, doc = _analyze(capsys, tmp_path, mats)
    assert code == 3 and "no verdict" in doc["error"]


def test_unlucky_prime_star_pencils_reach_the_exact_path():
    # the other generator is P·I (or a conjugate of P·diag(1, 2, 3)): rank 0
    # mod P, full rank over Q, so the defect is 1 from the exact iteration
    rng = random.Random(73)
    pi2 = ExactMatrix.identity(2).scale(P)
    pd3 = ExactMatrix([[P, 0, 0], [0, 2 * P, 0], [0, 0, 3 * P]])
    for mats in ([E12, pi2], [SHIFT3, pd3], _conjugate(rng, [SHIFT3, pd3])):
        d = mats[0].rows
        assert not _full_rank_mod_p(mats[1].ints, d)
        assert _star_defect(mats, 0) == Poly([1])
        assert not _star_defect(mats, 1).is_constant()
        assert check_star_conditions(mats) == _minors_star_conditions(mats)


# -- irreducibility --------------------------------------------------------------


def test_is_irreducible_checks_shapes_like_the_star_conditions():
    cases = (
        ([ExactMatrix([[1, 2]])], "pencil needs a square matrix"),
        ([ExactMatrix.identity(2), ExactMatrix.identity(3)], "vstack: column counts differ"),
        ([], "need at least one matrix"),
    )
    for mats, message in cases:
        for decide in (is_irreducible, check_star_conditions):
            with pytest.raises(PreconditionError, match=message):
                decide(mats)


def test_rank_one_always_irreducible():
    assert is_irreducible(scalars(0))
    assert is_irreducible(scalars(5, -2))


def test_commuting_diagonals_reducible():
    a1 = ExactMatrix([[1, 0], [0, 2]])
    a2 = ExactMatrix([[3, 0], [0, 4]])
    assert not is_irreducible([a1, a2])


def test_matrix_units_irreducible():
    e12 = ExactMatrix([[0, 1], [0, 0]])
    e21 = ExactMatrix([[0, 0], [1, 0]])
    assert is_irreducible([e12, e21])


def test_irreducible_implies_stars():
    rng = random.Random(23)
    found = 0
    while found < 10:
        n, d = rng.randint(2, 3), rng.randint(2, 3)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        if not is_irreducible(mats):
            continue
        assert check_star_conditions(mats).holds
        found += 1


def test_irreducibility_preserved_by_middle_convolution():
    rng = random.Random(25)
    lams = [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(1, 5)]
    found = 0
    while found < 8:
        n, d = rng.randint(2, 3), rng.randint(1, 3)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        if not is_irreducible(mats):
            continue
        lam = rng.choice(lams)
        mid = dr_middle_convolution(mats, lam)
        assert mid.dim >= 1
        assert is_irreducible(mid.matrices.values())
        found += 1


# -- isomorphism -----------------------------------------------------------------


def test_isomorphic_to_itself():
    mats = [rand_matrix(random.Random(1), 2) for _ in range(2)]
    res = are_isomorphic(mats, mats)
    assert res.verdict == "isomorphic"


def test_isomorphic_after_conjugation():
    rng = random.Random(27)
    for _ in range(10):
        d = rng.randint(1, 3)
        mats = [rand_matrix(rng, d) for _ in range(rng.randint(1, 3))]
        p = rand_matrix(rng, d)
        while not p.is_invertible():
            p = rand_matrix(rng, d)
        conj = [inverse(p) * m * p for m in mats]
        res = are_isomorphic(mats, conj)
        assert res.verdict == "isomorphic"
        x = res.intertwiner
        assert x.is_invertible()
        assert all(a * x == x * b for a, b in zip(mats, conj))


def test_dimension_mismatch_not_isomorphic():
    res = are_isomorphic(scalars(1), [ExactMatrix.identity(2)])
    assert res.verdict == "not_isomorphic"


def test_distinct_scalars_not_isomorphic():
    res = are_isomorphic(scalars(1), scalars(2))
    assert res.verdict == "not_isomorphic"


def test_intertwiner_space_schur():
    # for an absolutely irreducible tuple against itself the space is the line
    # through the identity
    e12 = ExactMatrix([[0, 1], [0, 0]])
    e21 = ExactMatrix([[0, 0], [1, 0]])
    space = intertwiner_space([e12, e21], [e12, e21])
    assert len(space) == 1


def test_reducible_but_decided_by_det_polynomial():
    # direct sums of distinct scalar pairs: intertwiner space is 2-d diagonal,
    # generic combination invertible -> isomorphic
    a = ExactMatrix([[1, 0], [0, 2]])
    b = ExactMatrix([[5, 0], [0, 7]])
    res = are_isomorphic([a, b], [a, b])
    assert res.verdict == "isomorphic"


# -- Riemann-Hilbert hypotheses ----------------------------------------------------


THREE_LINES = Arrangement(
    2,
    [
        canonicalize("H1", (1, 0), 0),
        canonicalize("H2", (0, 1), 0),
        canonicalize("H3", (1, -1), 0),
    ],
)


def scalar_system(values):
    return PfaffianSystem(
        THREE_LINES, 1, {h: ExactMatrix([[F(v)]]) for h, v in values.items()}
    )


def test_rh_passes_on_generic_scalars():
    sys1 = scalar_system({"H1": F(1, 7), "H2": F(1, 2), "H3": F(1, 3)})
    ok, offenders = rh_hypotheses(sys1, Line.of((0, 1)), F(1, 5))
    assert ok and offenders == []


def test_rh_detects_integer_eigenvalue():
    sys1 = scalar_system({"H1": F(1, 7), "H2": 2, "H3": F(1, 3)})
    ok, offenders = rh_hypotheses(sys1, Line.of((0, 1)), F(1, 5))
    assert not ok
    assert ("H2", 2) in offenders


def test_rh_detects_sum_offender():
    # transverse residues 1/2 and 1/2, lam = 1 -> sum + lam = 2
    sys1 = scalar_system({"H1": F(1, 7), "H2": F(1, 2), "H3": F(1, 2)})
    ok, offenders = rh_hypotheses(sys1, Line.of((0, 1)), 1)
    assert not ok
    assert ("sum", 2) in offenders


def test_rh_zero_residues_pass():
    sys1 = scalar_system({"H1": 0, "H2": 0, "H3": 0})
    ok, offenders = rh_hypotheses(sys1, Line.of((0, 1)), F(1, 2))
    assert ok


def test_rh_requires_nonzero_parameter():
    sys1 = scalar_system({"H1": 0, "H2": 0, "H3": 0})
    with pytest.raises(PreconditionError):
        rh_hypotheses(sys1, Line.of((0, 1)), 0)


def test_rh_invariant_under_conjugation():
    rng = random.Random(31)
    arr = THREE_LINES
    base = rand_matrix(rng, 2)
    residues = {
        h.id: base.scale(F(rng.randint(-2, 2))).add_scaled_identity(F(rng.randint(-2, 2)))
        for h in arr
    }
    sys1 = PfaffianSystem(arr, 2, residues)
    p = rand_matrix(rng, 2)
    while not p.is_invertible():
        p = rand_matrix(rng, 2)
    conj = {h: inverse(p) * m * p for h, m in residues.items()}
    sys2 = PfaffianSystem(arr, 2, conj)
    lam = F(1, 3)
    assert rh_hypotheses(sys1, Line.of((0, 1)), lam)[0] == rh_hypotheses(
        sys2, Line.of((0, 1)), lam
    )[0]


# -- composition harness ------------------------------------------------------------


def test_harness_rank_one_example():
    report = composition_harness(scalars(2, 3), F(1, 2), F(1, 3))
    assert report.applicable
    assert report.dims == (2, 2, 2)
    assert report.compose_iso.verdict == "isomorphic"


def test_harness_inverse_pair_recovers_input():
    report = composition_harness(scalars(2, 3), F(-1, 2), F(1, 2))
    assert report.applicable
    assert report.compose_iso.verdict == "isomorphic"
    assert report.identity_iso is not None
    assert report.identity_iso.verdict == "isomorphic"


def test_harness_both_parameters_zero():
    # doubly convolving at 0 and comparing with the single convolution at 0:
    # one-dimensional quotients connected by a nonzero induced map
    report = composition_harness(scalars(2, 3), 0, 0)
    assert report.applicable
    assert report.dims == (1, 1, 1)
    assert report.compose_iso.verdict == "isomorphic"
    assert not report.compose_iso.intertwiner.is_zero()


def test_harness_not_applicable_for_zero_residues():
    report = composition_harness(scalars(0, 0), F(1, 2), F(1, 3))
    assert not report.applicable
    assert "not applicable" in report.message


def test_harness_random_irreducible():
    rng = random.Random(33)
    lams = [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(1, 5)]
    found = 0
    while found < 5:
        n, d = rng.randint(2, 4), rng.randint(1, 3)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        if not is_irreducible(mats):
            continue
        lam, mu = rng.choice(lams), rng.choice(lams)
        report = composition_harness(mats, lam, mu)
        assert report.applicable
        assert report.compose_iso.verdict == "isomorphic"
        found += 1


def test_harness_certificates_agree_with_the_oracle():
    # the isomorphism search of iso_oracle, run on the induced tuples the
    # harness compares, must give the verdict of the explicit certificates
    # (phibar, and psi·phibar when lam + mu = 0) wherever it decides
    rng = random.Random(61)
    lams = [F(1, 2), F(-1, 2), F(1, 3), F(-2, 3), F(3, 5), F(0)]
    decided = {False: 0, True: 0}  # keyed by lam + mu == 0
    unknown = 0
    for _ in range(40):
        n, d = rng.randint(2, 3), rng.randint(1, 3)
        if rng.random() < 0.4:  # commuting diagonals: reducible, larger spaces
            mats = [
                ExactMatrix([[rng.choice([-2, -1, 1, 2, 3]) if i == j else 0
                              for j in range(d)] for i in range(d)])
                for _ in range(n)
            ]
        else:
            mats = [rand_matrix(rng, d) for _ in range(n)]
        lam = rng.choice(lams)
        mu = -lam if rng.random() < 0.4 else rng.choice(lams)
        report = composition_harness(mats, lam, mu)
        if not report.applicable:
            continue
        mid_lm = dr_middle_convolution(dr_middle_convolution(mats, mu).matrices.values(), lam)
        mid_sum = dr_middle_convolution(mats, lam + mu)
        induced_lm = mid_lm.matrices.values()
        pairs = [(are_isomorphic(induced_lm, mid_sum.matrices.values()), report.compose_iso)]
        if lam + mu == 0:
            pairs.append((are_isomorphic(induced_lm, mats), report.identity_iso))
        for oracle, certificate in pairs:
            if oracle.verdict == "unknown":
                unknown += 1
                continue
            assert oracle.verdict == certificate.verdict
            decided[lam + mu == 0] += 1
    assert decided[False] >= 10 and decided[True] >= 20, (decided, unknown)


@pytest.mark.parametrize("lam, mu", [(F(1, 2), F(1, 3)), (F(1, 2), F(-1, 2))])
def test_harness_rejects_the_comparison_map_at_the_wrong_level(monkeypatch, lam, mu):
    # the block map read at level lam + mu, not at the inner level mu, does
    # not intertwine (see phi_compose) and must not descend
    def wrong_level(conv):
        residues = [conv.base.residue(h) for h in conv.order]
        return ExactMatrix.hstack(dr_convolution(residues, lam + mu))

    doc = json.loads((DATA / "compose_generic.json").read_text(encoding="utf-8"))
    mats = [matrix_from_json(m) for m in doc["matrices"]]
    assert composition_harness(mats, lam, mu).compose_iso.verdict == "isomorphic"
    monkeypatch.setattr(analysis, "phi_compose", wrong_level)
    with pytest.raises(InternalInvariantError, match="^map does not descend to the quotients$"):
        composition_harness(mats, lam, mu)
