import itertools
import random
import time
from fractions import Fraction
from operator import mul

import pytest

from mcvlie import exactcore
from mcvlie.errors import PreconditionError
from mcvlie.exactcore import (
    ExactMatrix,
    _bits,
    _pack,
    _packed_dot,
    _width,
    InvarianceError,
    Poly,
    PolyMatrix,
    Subspace,
    charpoly,
    integer_spectrum_hits,
    kernel,
    noncommuting_members,
    pencil_full_rank,
    quotient_all,
    rat,
    subspace_sum,
)

from linalg_oracle import column_matrix, ref_invariant_under

F = Fraction


def rand_fraction(rng, lo=-4, hi=4, den=3):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def rand_matrix(rng, r, c, lo=-4, hi=4, den=3):
    return ExactMatrix([[rand_fraction(rng, lo, hi, den) for _ in range(c)] for _ in range(r)])


def rand_span(rng, amb):
    """The span of up to amb random columns in Q^amb."""
    cols = [rand_matrix(rng, amb, 1).col(0) for _ in range(rng.randint(0, amb))]
    return Subspace(amb, basis=column_matrix(cols, amb))


# -- packed rows (Kronecker substitution) -------------------------------------


def _unpack(n, w, length):
    """The balanced base-2^w digits of n, lowest first: the inverse of _pack
    on rows whose entries lie strictly between -2^(w-1) and 2^(w-1)."""
    row = []
    for _ in range(length):
        x = n & ((1 << w) - 1)
        if x >= 1 << (w - 1):
            x -= 1 << w
        row.append(x)
        n = (n - x) >> w
    assert n == 0
    return tuple(row)


def test_bits_of_integer_rows():
    assert _bits(()) == 0
    assert _bits(((0, 0), (0, 0))) == 0
    assert _bits(((0, -8), (7, 0))) == 4
    assert _bits([(1,), (-(2**100),)]) == 101


def test_pack_is_injective_up_to_the_slot_bound():
    # every row of three entries in (-2^(w-1), 2^(w-1)): the entries at the
    # bound +-(2^(w-1) - 1) and the negative ones that borrow from the next
    # slot up included
    w = 3
    inside = range(-(2 ** (w - 1)) + 1, 2 ** (w - 1))
    packs = {_pack(row, w): row for row in itertools.product(inside, repeat=3)}
    assert len(packs) == len(inside) ** 3
    assert all(_unpack(n, w, 3) == row for n, row in packs.items())
    assert _pack((-1, 0, 1), w) == 2 ** (2 * w) - 1


def test_pack_collides_past_the_slot_bound():
    # 2^(w-1) is one past the bound: it equals -2^(w-1) plus a carry
    w = 5
    half = 2 ** (w - 1)
    assert _pack((half, 0), w) == _pack((-half, 1), w)
    assert _pack((half - 1, 0), w) != _pack((-(half - 1), 1), w)


def _extreme_sum(b1, b2, terms):
    """The largest sum of `terms` products of a b1-bit and a b2-bit factor."""
    return terms * (2**b1 - 1) * (2**b2 - 1)


def test_width_holds_the_extreme_signed_sums():
    # rows of +-top, the largest sums the rule admits, next to small
    # negative entries that borrow from the slot above, round-trip
    for b1, b2 in ((1, 1), (3, 5), (20, 7), (64, 64)):
        for terms in (1, 2, 3, 4, 7, 8, 15, 100):
            top = _extreme_sum(b1, b2, terms)
            w = _width(b1 + b2, terms)
            assert top < 2 ** (w - 1)
            for row in itertools.product((-top, -1, 0, 1, top), repeat=3):
                packed = _pack(row, w)
                assert exactcore._unpack(packed, w, 3) == list(row) == list(_unpack(packed, w, 3))


def test_width_one_bit_narrower_collides_at_the_tight_terms():
    # at terms = 2^k - 1 (k >= 2, factors of 3 bits or more) the extreme sum
    # reaches 2^(w-2): in slots one bit narrower it packs as the row with
    # that entry less 2^(w-1) and a carry of 1, also a row of such sums
    for b1, b2 in ((3, 3), (4, 9), (30, 31)):
        for k in (2, 3, 5, 8):
            top = _extreme_sum(b1, b2, 2**k - 1)
            w = _width(b1 + b2, 2**k - 1)
            narrow = w - 1
            other = (top - 2**narrow, 1)
            assert top >= 2 ** (narrow - 1) and abs(other[0]) <= top
            assert _pack((top, 0), narrow) == _pack(other, narrow)
            assert _pack((-top, 0), narrow) == _pack((-other[0], -1), narrow)
            assert _pack((top, 0), w) != _pack(other, w)
            assert exactcore._unpack(_pack((top, 0), w), w, 2) == [top, 0]


def test_pack_tells_rows_apart_in_the_top_slot():
    rng = random.Random(12)
    w = 9
    bound = 2 ** (w - 1) - 1
    for length in range(1, 7):
        for _ in range(30):
            row = [rng.choice((-bound, bound, rng.randint(-bound, bound))) for _ in range(length)]
            other = row[:-1] + [rng.choice([x for x in (-bound, 0, bound) if x != row[-1]])]
            assert _pack(row, w) != _pack(other, w)
            assert _pack(row, w) - _pack(other, w) == (row[-1] - other[-1]) << (w * (length - 1))


def test_pack_by_halves_is_the_sum_of_shifted_entries():
    # the rows around the length where packing turns to halves, and long
    # ones, with negative entries, entries at the slot bound and past it
    rng = random.Random(14)
    for length in (1, 2, 31, 32, 33, 64, 65, 577):
        for w in (1, 3, 17, 64):
            bound = 2 ** (w - 1) - 1
            for _ in range(4):
                row = [
                    rng.choice((-bound, bound, -bound - 1, 2**w - 1, rng.randint(-(2**w), 2**w)))
                    for _ in range(length)
                ]
                want = sum(x << (w * j) for j, x in enumerate(row))
                assert _pack(row, w) == _pack(tuple(row), w) == want


def test_slots_by_halves_are_the_flat_read():
    # around the count where reading turns to halves, and long rows; the
    # first and last slots are all ones, so a read past a half's boundary
    # or one slot short shows
    rng = random.Random(15)
    for count in (31, 32, 33, 576):
        for w in (1, 7, 70):
            top = 2**w - 1
            for _ in range(3):
                row = [top] + [rng.choice((0, top, rng.randrange(2**w))) for _ in range(count - 2)]
                row.append(top)
                v = _pack(row, w)
                flat = [v >> s & top for s in range(0, w * count, w)]
                assert exactcore._slots(v, w, count) == flat == row
                # slots past `count` are not read
                assert exactcore._slots(v + (top << w * count), w, count) == row


def test_packed_dot_is_the_row_times_matrix():
    rng = random.Random(13)
    for _ in range(300):
        k, c = rng.randint(1, 6), rng.randint(1, 6)
        size = rng.choice((2, 2**20, 10**40))

        def entry():
            return rng.randint(-size, size) if rng.random() < 0.5 else 0

        row = tuple(entry() for _ in range(k))
        rows = [tuple(entry() for _ in range(c)) for _ in range(k)]
        want = tuple(sum(x * r[j] for x, r in zip(row, rows)) for j in range(c))
        w = _bits([row]) + _bits(rows) + k.bit_length() + 1
        got = _packed_dot(row, [_pack(r, w) for r in rows])
        assert _unpack(got, w, c) == want



def _commuting_verdicts(mats):
    """Whether each matrix commutes with the sum of all of them, read off
    `noncommuting_members` on the one family of all of them."""
    failures = noncommuting_members(dict(enumerate(mats)), [tuple(range(len(mats)))])
    failing = {key for _, members in failures for key in members}
    return [i not in failing for i in range(len(mats))]


def test_noncommuting_members_matches_the_products():
    # sparse and dense members, with and without a common denominator, and
    # families where some members commute with the sum and others do not
    rng = random.Random(14)
    verdicts = set()
    for _ in range(200):
        d, n = rng.randint(1, 4), rng.randint(1, 4)
        base = rand_matrix(rng, d, d, den=rng.choice((1, 5)))
        mats = []
        for _ in range(n):
            if rng.random() < 0.5:  # a polynomial in base: commutes with it
                m = base.scale(rng.randint(-3, 3)).add_scaled_identity(F(rng.randint(-3, 3), 7))
            else:
                m = rand_matrix(rng, d, d, den=rng.choice((1, 3)))
                m = ExactMatrix([[x if rng.random() < 0.6 else 0 for x in row] for row in m.data])
            mats.append(m)
        total = mats[0]
        for m in mats[1:]:
            total = total + m
        want = [m * total == total * m for m in mats]
        assert _commuting_verdicts(mats) == want
        verdicts.update(want)
    assert verdicts == {True, False}


def _extreme_matrix(rng, r, c, b):
    """Entries +-(2^b - 1), 0 and +-1, the extremes most often."""
    top = 2**b - 1
    return ExactMatrix([[rng.choice((top, -top, top, -top, 0, 1, -1)) for _ in range(c)]
                        for _ in range(r)])


def test_noncommuting_members_at_extreme_entries():
    # members with entries +-(2^b - 1), whose products reach the bound of
    # the slot width with either sign, checked against the products
    rng = random.Random(15)
    verdicts = set()
    for _ in range(150):
        d, n, b = rng.randint(2, 4), rng.randint(1, 3), rng.choice((1, 4, 31, 64))
        base = _extreme_matrix(rng, d, d, b)
        mats = [base.scale(rng.choice((1, -1))) if rng.random() < 0.4
                else _extreme_matrix(rng, d, d, b) for _ in range(n)]
        total = mats[0]
        for m in mats[1:]:
            total = total + m
        want = [m * total == total * m for m in mats]
        assert _commuting_verdicts(mats) == want
        verdicts.update(want)
    assert verdicts == {True, False}


def test_noncommuting_members_past_the_old_rule_s_collision():
    # three members and their sum t, all with entries below 2^3.  The old
    # rule, bits(max|a|) + bits(max|t|) + bits(3) + 1 = 9, had no bit to
    # spare here: row 0 of a t - t a is (0, 256, -1), and 256 = 2^8 carries
    # into the next slot at width 8, where it cancels the -1, so one bit
    # narrower a would pass for commuting with t.  a is block upper
    # triangular and the lower block of t is 2 - a's, so rows 1 and 2 of
    # the commutator vanish.  The rule of `noncommuting_members` gives
    # 2·3 + s + bits(3) over the denominator 1 (s = 1), and rank 3: 12.
    a = ExactMatrix([[5, 7, -7], [0, -5, -1], [0, 7, 6]])
    b = ExactMatrix([[-6, -1, 0], [0, 6, 1], [0, -7, -5]])
    c = ExactMatrix([[-6, 0, 0], [0, 6, 1], [0, -7, -5]])
    t = a + b + c
    assert a * t - t * a == ExactMatrix([[0, 256, -1], [0, 0, 0], [0, 0, 0]])
    w = _width(max(_bits(m.ints) for m in (a, b, c)) + _bits(t.ints), 3)
    assert w == 9
    at, ta = (a * t).ints[0], (t * a).ints[0]
    assert _pack(at, w - 1) == _pack(ta, w - 1) and _pack(at, w) != _pack(ta, w)
    assert _width(2 * 3 + 1 + 2, 3) == 12
    assert _commuting_verdicts([a, b, c]) == [False, False, False]


def test_pair_width_has_no_bit_to_spare(monkeypatch):
    # a and b are block upper triangular with commuting lower blocks, so
    # [a, b] is zero outside row 0, which is (0, 1024, -1).  Entries are
    # below 2^4 and the rank is 3, so a pair takes _width(2·4, 3) = 11 bits;
    # at 10 the 1024 = 2^10 carries into the next slot and cancels the -1,
    # and the pair passes for commuting.
    a = ExactMatrix([[-15, -15, -13], [0, 15, 0], [0, -6, 15]])
    b = ExactMatrix([[8, -15, 10], [0, -15, 0], [0, -13, -15]])
    assert a * b - b * a == ExactMatrix([[0, 1024, -1], [0, 0, 0], [0, 0, 0]])
    rule = exactcore._width
    assert rule(2 * 4, 3) == 11
    mats, families = {"a": a, "b": b}, [("a", "b")]
    assert noncommuting_members(mats, families) == [(("a", "b"), ["a", "b"])]
    monkeypatch.setattr(exactcore, "_width", lambda bits, terms: rule(bits, terms) - 1)
    assert noncommuting_members(mats, families) == []


def test_family_width_has_no_bit_to_spare(monkeypatch):
    # seven rank-3 members: a over D = 254·255, three over 254 and three
    # over 255, so the D/den_h are 1, 255 and 254 and s = 8.  All are block
    # upper triangular with lower blocks [[p, 0], [q, p]], which commute, so
    # [a, t] is zero outside row 0, which is (0, 2^29, -1).  Entries are
    # below 2^8, so the family takes _width(2·8 + 8 + bits(7), 3) = 30 bits;
    # at 29 the 2^29 carries into the next slot and cancels the -1, and a
    # passes for commuting with the sum, though the others still fail.
    a = ExactMatrix([[255, 255, 251], [0, -255, 0], [0, 255, -255]]).scale(F(1, 254 * 255))
    rest = [
        ([[-255, 235, -209], [0, 255, 0], [0, 255, 255]], 254),
        ([[-255, 235, -209], [0, 255, 0], [0, 255, 255]], 254),
        ([[-255, 235, -210], [0, 254, 0], [0, 255, 254]], 254),
        ([[-201, 252, -240], [0, 202, 0], [0, 173, 202]], 255),
        ([[-202, 252, -240], [0, 202, 0], [0, 173, 202]], 255),
        ([[-202, 251, -241], [0, 202, 0], [0, 172, 202]], 255),
    ]
    mats = {"a": a}
    for k, (rows, den) in enumerate(rest):
        mats[f"b{k}"] = ExactMatrix(rows).scale(F(1, den))
    assert a.den == 254 * 255 and [m.den for m in mats.values()][1:] == [254] * 3 + [255] * 3
    assert max(_bits(m.ints) for m in mats.values()) == 8
    family = tuple(mats)
    total = mats["a"]
    for key in family[1:]:
        total = total + mats[key]
    comm = (a * total - total * a).scale((254 * 255) ** 2)  # [a, t] over D^2
    assert comm == ExactMatrix([[0, 2**29, -1], [0, 0, 0], [0, 0, 0]])
    want = [key for key in family if mats[key] * total != total * mats[key]]
    assert want[0] == "a" and len(want) > 1
    rule = exactcore._width
    assert rule(2 * 8 + 8 + 3, 3) == 30
    assert noncommuting_members(mats, [family]) == [(family, want)]
    monkeypatch.setattr(exactcore, "_width", lambda bits, terms: rule(bits, terms) - 1)
    assert noncommuting_members(mats, [family]) == [(family, want[1:])]


def test_invariance_width_has_no_bit_to_spare(monkeypatch):
    # b, the basis's integer rows over 255, is (255, 0), (0, 255),
    # (247, -254), (255, 255): k = 2 of n = 4, so a column has at most
    # n - k + 1 = 3 nonzeros, and with entries of b and g below 2^8 the
    # width is _width(2·8 + 8, 2·3) = 28.  Row 3 of g is the sum of rows 0
    # and 1, so the identity holds at row 3; at row 2 its sides differ by
    # (2^27, -1).  At 27 bits the 2^27 carries into the next slot and
    # cancels the -1, and g passes for keeping the span.
    span = Subspace(4, basis=column_matrix([[1, 0, F(247, 255), 1], [0, 1, F(-254, 255), 1]], 4))
    assert span.basis.ints == ((255, 0), (0, 255), (247, -254), (255, 255))
    assert span.basis.den == 255 and span.pivots == (0, 1)
    g = ExactMatrix([[250, 221, 224, 255], [-120, 27, -249, -255],
                     [-249, 226, -255, -255], [130, 248, -25, 0]])
    x = (g * ExactMatrix(span.basis.ints)).ints  # the rows of g·b
    left = [247 * a - 254 * b for a, b in zip(x[0], x[1])]
    assert [u - 255 * v for u, v in zip(left, x[2])] == [2**27, -1]
    assert [255 * (a + b) for a, b in zip(x[0], x[1])] == [255 * v for v in x[3]]
    rule = exactcore._width
    assert rule(2 * 8 + 8, 2 * 3) == 28
    assert not span.invariant_under([g]) and not ref_invariant_under(span, [g])
    with pytest.raises(InvarianceError):
        span.restrict(g, "S")
    monkeypatch.setattr(exactcore, "_width", lambda bits, terms: rule(bits, terms) - 1)
    assert span.invariant_under([g])


def test_invariance_keeps_the_shape_checks():
    """A generator whose size is not the ambient dimension, and generators
    of different sizes, raise the messages of the product and the stacking
    that the check once built; a zero space and the whole space keep every
    matrix, but the whole space still checks the sizes."""
    span = Subspace(3, basis=column_matrix([[1, 2, 0]], 3))
    two, three = ExactMatrix.identity(2), ExactMatrix.identity(3)
    with pytest.raises(PreconditionError, match="^matrix product: inner dimensions differ$"):
        span.invariant_under([two])
    with pytest.raises(PreconditionError, match="^matrix product: inner dimensions differ$"):
        Subspace(3, basis=three).invariant_under([two, two])
    for mats in ([three, two], [two, three]):
        with pytest.raises(PreconditionError, match="^vstack: column counts differ$"):
            span.invariant_under(mats)
    assert Subspace(3).invariant_under([two, three])
    assert Subspace(3, basis=three).invariant_under([three, three])
    assert span.invariant_under([]) and span.invariant_under([three, ExactMatrix.zeros(3, 3)])


def test_coordinates_at_the_first_width_that_collides():
    # the basis (5, 7)/5 and m = [[7, 2], [-3, 3]], entries below 2^3, so
    # the width is 3 + 3 + bits(1) + 1 = 8.  Row 1 of 5·(basis·X - m) is
    # (7·7 + 5·3, 7·2 - 5·3) = (64, -1), and 64 = 2^6 carries into the next
    # slot at width 6, where it cancels the -1: two bits narrower, m would
    # lie in the span.  One bit narrower is still exact: each side sums at
    # most dim + 1 products below 2^(w-2), so their difference stays below
    # 2^(w-1) and packs to 0 only when it is 0.
    span = Subspace(2, basis=column_matrix([[5, 7]], 2))
    assert span.basis.ints == ((5,), (7,)) and span.basis.den == 5
    m = ExactMatrix([[7, 2], [-3, 3]])
    w = _width(_bits(span.basis.ints) + _bits(m.ints), span.dim)
    assert w == 8
    assert _pack((7 * 7, 7 * 2), w - 2) == _pack((5 * -3, 5 * 3), w - 2)
    assert _pack((7 * 7, 7 * 2), w) != _pack((5 * -3, 5 * 3), w)
    assert span.coordinates(m) is None
    assert not span.contains([7, -3]) and not span.contains([2, 3])


def test_coordinates_at_extreme_entries():
    # a basis and vectors with entries +-(2^b - 1): sums of basis columns
    # lie in the span, others mostly do not, checked against the rank
    rng = random.Random(16)
    verdicts = set()
    for _ in range(150):
        n, b = rng.randint(2, 5), rng.choice((1, 4, 31, 64))
        cols = _extreme_matrix(rng, rng.randint(1, n - 1), n, b).ints
        span = Subspace(n, basis=column_matrix(cols, n))
        for _ in range(3):
            if rng.random() < 0.5:
                signs = [rng.choice((1, -1)) for _ in cols]
                vec = [sum(map(mul, signs, row)) for row in zip(*cols)]
            else:
                vec = _extreme_matrix(rng, 1, n, b).data[0]
            col = column_matrix([vec], n)
            x = span.coordinates(col)
            inside = ExactMatrix.hstack([span.basis, col]).rank() == span.dim
            assert (x is not None) == inside
            if inside:
                assert span.basis * x == col
            verdicts.add(inside)
    assert verdicts == {True, False}


# -- rationals ---------------------------------------------------------------


def test_rat_parsing_forms():
    assert rat("-3/7") == F(-3, 7)
    assert rat("5") == F(5)
    assert rat(7) == F(7)
    assert rat("−3/7") == F(-3, 7)  # unicode minus


def test_rational_exactness_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_fraction(rng, -50, 50, 40)
        b = rand_fraction(rng, -50, 50, 40)
        assert a + b - b == a
        assert a.denominator > 0


# -- kernel ------------------------------------------------------------------


def test_kernel_zero_matrix_is_full_space():
    s = kernel(ExactMatrix.zeros(2, 2))
    assert s.dim == 2
    assert s.basis == ExactMatrix.identity(2)


def test_kernel_identity_is_zero_space():
    assert kernel(ExactMatrix.identity(3)).dim == 0


def test_kernel_rank_one():
    # [[1,2],[2,4]] -> span{(-2,1)}: row-reduce by hand, x1 = -2 x2
    s = kernel(ExactMatrix([[1, 2], [2, 4]]))
    assert s.dim == 1
    assert s.contains([-2, 1])
    assert not s.contains([1, 0])


def test_rank_nullity_on_random_matrices():
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, r, c)
        assert kernel(m).dim + m.rank() == c


# -- subspaces ---------------------------------------------------------------


def test_subspace_canonical_form_is_span_invariant():
    rng = random.Random(7)
    for _ in range(40):
        amb = rng.randint(1, 5)
        k = rng.randint(0, amb)
        base = rand_matrix(rng, amb, k) if k else None
        cols1 = [base.col(j) for j in range(k)] if base else []
        s1 = Subspace(amb, basis=column_matrix(cols1, amb))
        # random invertible recombination of the same columns
        if k:
            coeffs = rand_matrix(rng, k, k)
            while not coeffs.is_invertible():
                coeffs = rand_matrix(rng, k, k)
            recomb = base * coeffs
            cols2 = [recomb.col(j) for j in range(k)]
        else:
            cols2 = []
        s2 = Subspace(amb, basis=column_matrix(cols2, amb))
        assert s1 == s2
        assert hash(s1) == hash(s2)


def test_meet_and_sum_examples():
    e1 = Subspace(2, basis=column_matrix([[1, 0]], 2))
    e1e2 = Subspace(2, basis=column_matrix([[1, 1]], 2))
    e2 = Subspace(2, basis=column_matrix([[0, 1]], 2))
    assert subspace_sum(e1, e1) == e1
    assert subspace_sum(e1, e2) == Subspace(2, basis=ExactMatrix.identity(2))
    assert subspace_sum(e1, e1e2) == Subspace(2, basis=ExactMatrix.identity(2))


def test_sum_requires_matching_ambient():
    with pytest.raises(PreconditionError):
        subspace_sum(Subspace(2), Subspace(3))


def test_modular_dimension_law_random():
    rng = random.Random(13)
    for _ in range(40):
        amb = rng.randint(1, 5)
        s1 = rand_span(rng, amb)
        s2 = rand_span(rng, amb)
        stacked = ExactMatrix.vstack([s1.basis.transpose(), s2.basis.transpose()])
        assert subspace_sum(s1, s2).dim == stacked.rank()


# -- quotients ---------------------------------------------------------------


def test_quotient_of_zero_space_is_identity():
    proj, section, _ = quotient_all([], Subspace(3))
    assert len(section) == 3
    assert proj == ExactMatrix.identity(3)
    # the induced matrices are the generators, as projection · (all columns)
    rng = random.Random(8)
    mats = [rand_matrix(rng, 3, 3, den=rng.choice((1, 4))) for _ in range(3)]
    proj, section, induced = quotient_all(mats, Subspace(3))
    assert section == [0, 1, 2]
    assert induced == mats == [proj * m.submatrix(range(3), section) for m in mats]


def test_quotient_of_full_space_is_empty():
    proj, section, _ = quotient_all([], Subspace(2, basis=ExactMatrix.identity(2)))
    assert len(section) == 0
    assert proj.rows == 0 and proj.cols == 2


def test_quotient_of_line_keeps_nonpivot_coordinate():
    proj, section, _ = quotient_all([], Subspace(2, basis=column_matrix([[1, 0]], 2)))
    assert len(section) == 1
    assert proj == ExactMatrix([[0, 1]])


def times(m, v):
    """m·v as the product with a one-column matrix."""
    return (m * column_matrix([v], m.cols)).col(0)


def test_quotient_kills_exactly_the_subspace():
    rng = random.Random(17)
    for _ in range(30):
        amb = rng.randint(1, 5)
        s = rand_span(rng, amb)
        proj, section, _ = quotient_all([], s)
        assert proj.rank() == len(section) == amb - s.dim
        for j in range(s.dim):
            assert all(x == 0 for x in times(proj, s.basis.col(j)))
        v = rand_matrix(rng, amb, 1).col(0)
        assert (all(x == 0 for x in times(proj, v))) == s.contains(v)
        # the projection's rows span the null space of the transposed basis
        assert kernel(s.basis.transpose()) == Subspace(amb, basis=proj.transpose())


def _induced(a, s):
    """The map induced by a on the canonical complement of s, through the
    invariance check and the quotient that middle convolution runs."""
    s.restrict(a, "subspace")
    _, _, (abar,) = quotient_all([a], s)
    return abar


def test_induced_on_quotient_examples():
    a = ExactMatrix([[1, 1], [0, 2]])
    assert _induced(a, Subspace(2)) == a
    # invariant line e1: the induced action on the e2 coordinate is [2]
    assert _induced(a, Subspace(2, basis=column_matrix([[1, 0]], 2))) == ExactMatrix([[2]])


def test_induced_on_quotient_reports_witness():
    a = ExactMatrix([[0, 1], [0, 0]])
    with pytest.raises(InvarianceError) as err:
        _induced(a, Subspace(2, basis=column_matrix([[0, 1]], 2)))
    assert err.value.witness_vector == (F(0), F(1))
    assert err.value.image == (F(1), F(0))
    assert str(err.value) == (
        "subspace is not invariant; witness v = (0, 1); A·v = (1, 0)"
    )


def test_induced_intertwines_projection():
    rng = random.Random(23)
    done = 0
    while done < 25:
        amb = rng.randint(1, 4)
        a = rand_matrix(rng, amb, amb)
        # build an invariant subspace: span of a few iterated images
        v = rand_matrix(rng, amb, 1).col(0)
        cols, w = [], v
        for _ in range(amb):
            cols.append(w)
            w = times(a, w)
        s = Subspace(amb, basis=column_matrix(cols, amb))
        if not all(s.contains(times(a, s.basis.col(j))) for j in range(s.dim)):
            continue
        proj, _, _ = quotient_all([], s)
        abar = _induced(a, s)
        assert proj * a == abar * proj
        done += 1


# -- polynomials -------------------------------------------------------------


def test_poly_basic_algebra():
    x = Poly([0, 1])
    p = (x - Poly([1])) * (x + Poly([1]))
    assert p == Poly([-1, 0, 1])
    q, r = p.divmod(x - Poly([1]))
    assert r.is_zero() and q == Poly([1, 1])
    assert p.gcd(x - Poly([1])) == Poly([-1, 1])
    assert p.eval(3) == 8


def test_star_is_only_a_product_of_two_matrices_or_two_polys():
    m, p = ExactMatrix([[1, 2], [3, 4]]), Poly([1, 1])
    for a in (m, p):
        for c in (2, F(1, 2)):
            with pytest.raises(TypeError):
                a * c
            with pytest.raises(TypeError):
                c * a
    with pytest.raises(TypeError):
        m * p
    with pytest.raises(TypeError):
        p * m


def test_poly_rational_roots():
    # 6x^2 - 5x + 1 = (2x-1)(3x-1)
    assert Poly([1, -5, 6]).rational_roots() == [F(1, 3), F(1, 2)]
    assert Poly([0, 1]).rational_roots() == [0]
    assert Poly([1, 0, 1]).rational_roots() == []


def test_charpoly_small_cases():
    a = ExactMatrix([[3, 0], [0, F(1, 2)]])
    assert charpoly(a) == Poly([F(3, 2), -F(7, 2), 1])  # (x-3)(x-1/2)
    b = ExactMatrix([[0, 1], [-1, 0]])
    assert charpoly(b) == Poly([1, 0, 1])


def test_charpoly_matches_bareiss_det():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        p = charpoly(a)
        for c in (F(0), F(1), F(-2), F(1, 3)):
            assert p.eval(c) == a.scale(-1).add_scaled_identity(c).det()
    # 16×16, 30-digit numerators over denominators up to 10^4: the common
    # denominator has hundreds of digits
    a = rand_matrix(rng, 16, 16, -10**30, 10**30, 10**4)
    start = time.perf_counter()
    p = charpoly(a)
    elapsed = time.perf_counter() - start
    for c in (F(0), F(1), F(-7, 2)):
        assert p.eval(c) == a.scale(-1).add_scaled_identity(c).det()
    assert elapsed < 5, f"charpoly took {elapsed:.1f} s"


# -- pencils -----------------------------------------------------------------


def test_pencil_constant_is_full_rank():
    full, defect = pencil_full_rank(PolyMatrix([[Poly([1])]]))
    assert full and defect == Poly([1])


def test_pencil_single_variable_entry():
    full, defect = pencil_full_rank(PolyMatrix([[Poly([0, 1])]]))
    assert not full
    assert defect == Poly([0, 1])
    assert defect.rational_roots() == [0]


def test_pencil_two_by_two():
    m = PolyMatrix([[Poly([0, 1]), Poly([1])], [Poly([1]), Poly([0, 1])]])
    full, defect = pencil_full_rank(m)
    assert not full
    assert defect == Poly([-1, 0, 1])  # c^2 - 1


def test_pencil_all_minors_zero():
    m = PolyMatrix([[Poly()], [Poly()]], shape=(2, 1))
    full, defect = pencil_full_rank(m)
    assert not full and defect.is_zero()


def test_pencil_agrees_with_sampling_oracle():
    rng = random.Random(31)
    for _ in range(25):
        r = rng.randint(1, 4)
        c = rng.randint(1, r)
        entries = [
            [
                Poly([rand_fraction(rng), rand_fraction(rng, -2, 2)])
                for _ in range(c)
            ]
            for _ in range(r)
        ]
        m = PolyMatrix(entries, shape=(r, c))
        full, defect = pencil_full_rank(m)
        samples = [rand_fraction(rng, -6, 6, 4) for _ in range(20)]
        if not defect.is_zero():
            samples += defect.rational_roots()
        for cv in samples:
            drop = m.eval(cv).rank() < c
            if defect.is_zero():
                assert drop
            else:
                assert drop == (defect.eval(cv) == 0)
        assert full == (defect.is_constant() and not defect.is_zero())


# -- integer spectra ---------------------------------------------------------


def test_integer_spectrum_examples():
    assert integer_spectrum_hits(ExactMatrix.zeros(3, 3), 0) == []
    assert integer_spectrum_hits(ExactMatrix([[3, 0], [0, F(1, 2)]]), 0) == [3]
    assert integer_spectrum_hits(ExactMatrix([[0, 1], [-1, 0]]), 0) == []


def test_integer_spectrum_brute_force_oracle():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, -3, 3, 2)
        shift = rand_fraction(rng, -2, 2, 2)
        b = a.add_scaled_identity(shift)
        bound = 1 + sum(abs(x) for row in b.data for x in row)
        expected = [
            m
            for m in range(-int(bound) - 1, int(bound) + 2)
            if m != 0 and b.add_scaled_identity(-m).rank() < n
        ]
        assert integer_spectrum_hits(a, shift) == expected
