import random
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add

import pytest

from mcvlie import exactcore
from mcvlie.arrangement import (
    Arrangement,
    Line,
    braid_arrangement,
    canonicalize,
    codim2_flats,
    split_parallel,
    y_closure,
)
from mcvlie.convolution import haraoka_convolution
from mcvlie.errors import InputError, PreconditionError
from mcvlie.exactcore import ExactMatrix, _bits, _pack, _packed_dot
from mcvlie.holonomy import (
    PfaffianSystem,
    _sum_matrices,
    check_integrability,
    presentation,
    residue_sum,
    zero_extend,
)

from linalg_oracle import inverse

F = Fraction


def kz_residues(strands: int, local_dim: int = 2):
    """Transposition operators on (Q^m)^{⊗k}: residue for H_{ij} swaps the
    i-th and j-th tensor slots."""
    arr = braid_arrangement(strands)
    dim = local_dim**strands
    residues = {}
    for i in range(strands):
        for j in range(i + 1, strands):
            rows = []
            for idx in product(range(local_dim), repeat=strands):
                swapped = list(idx)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                row = [F(0)] * dim
                pos = 0
                for t in swapped:
                    pos = pos * local_dim + t
                row[pos] = F(1)
                rows.append(row)
            # rows[src][dst]: permutation matrices are self-transpose-safe here
            residues[f"H{i + 1}{j + 1}"] = ExactMatrix(rows).transpose()
    return PfaffianSystem(arr, dim, residues)


def scalar_system(arr, values):
    residues = {hid: ExactMatrix([[v]]) for hid, v in values.items()}
    return PfaffianSystem(arr, 1, residues)


THREE_LINES = Arrangement(
    2,
    [
        canonicalize("H1", (1, 0), 0),
        canonicalize("H2", (0, 1), 0),
        canonicalize("H3", (1, -1), 0),
    ],
)


TWO_AXES = Arrangement(2, [canonicalize("H1", (1, 0), 0), canonicalize("H2", (0, 1), 0)])


# -- presentation -------------------------------------------------------------


def test_presentation_braid3():
    pres = presentation(braid_arrangement(3))
    assert pres.generators == ("H12", "H13", "H23")
    assert pres.relation_families == (("H12", "H13", "H23"),)


def test_presentation_single_hyperplane():
    arr = Arrangement(2, [canonicalize("H", (1, 0), 0)])
    assert presentation(arr).relation_families == ()


def test_presentation_two_generic_lines():
    arr = Arrangement(2, [canonicalize("H1", (1, 0), 0), canonicalize("H2", (0, 1), 0)])
    pres = presentation(arr)
    assert pres.relation_families == (("H1", "H2"),)


def test_presentation_braid4_is_pure_braid_relation_scheme():
    pres = presentation(braid_arrangement(4))
    fams = set(pres.relation_families)
    assert ("H12", "H34") in fams
    assert ("H13", "H24") in fams
    assert ("H14", "H23") in fams
    assert ("H12", "H13", "H23") in fams
    assert len(fams) == 7


# -- integrability ------------------------------------------------------------


def test_zero_residues_are_integrable():
    sys0 = PfaffianSystem(
        braid_arrangement(3),
        2,
        {hid: ExactMatrix.zeros(2, 2) for hid in braid_arrangement(3).ids()},
    )
    assert not check_integrability(sys0)


def test_scalar_residues_are_integrable():
    arr = braid_arrangement(3)
    sysc = PfaffianSystem(
        arr,
        2,
        {hid: ExactMatrix.identity(2).scale(F(k + 1, 3)) for k, hid in enumerate(arr.ids())},
    )
    assert not check_integrability(sysc)


def test_violation_carries_commutator():
    arr = braid_arrangement(3)
    e12 = ExactMatrix([[0, 1], [0, 0]])
    e21 = ExactMatrix([[0, 0], [1, 0]])
    sysv = PfaffianSystem(arr, 2, {"H12": e12, "H13": e21, "H23": ExactMatrix.zeros(2, 2)})
    violations = check_integrability(sysv)
    assert violations
    v12 = next(v for v in violations if v.member == "H12")
    assert v12.family == ("H12", "H13", "H23")
    assert v12.commutator == ExactMatrix([[1, 0], [0, -1]])


def test_kz_residues_integrable_braid3_and_braid4():
    assert not check_integrability(kz_residues(3))
    assert not check_integrability(kz_residues(4))


def _all_members_violations(system):
    """Reference check: the commutator of every family member with the
    family sum, each computed, in flat and family order."""
    out = []
    for family in codim2_flats(system.arrangement):
        total = residue_sum(system, family)
        for hid in family:
            a = system.residue(hid)
            comm = a * total - total * a
            if not comm.is_zero():
                out.append((family, hid, comm))
    return out


def _violation_tuples(system):
    return [(v.family, v.member, v.commutator) for v in check_integrability(system)]


def _broken_braid(strands, rng):
    """Rank-2 residues on braid(strands): commuting (a polynomial in one
    matrix) except for a few perturbed ones, some of them zeroed so that a
    family's last commutator can vanish while earlier ones do not."""
    arr = braid_arrangement(strands)
    m = ExactMatrix([[1, 2], [0, -1]])
    residues = {
        hid: m.scale(F(rng.randint(-2, 2))).add_scaled_identity(F(rng.randint(-2, 2)))
        for hid in arr.ids()
    }
    for hid in rng.sample(arr.ids(), 2):
        residues[hid] = ExactMatrix([[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
    residues[rng.choice(arr.ids())] = ExactMatrix.zeros(2, 2)
    return PfaffianSystem(arr, 2, residues)


def _conjugated(system, rng, diagonal):
    """The system conjugated by D L U: L unit lower and U upper triangular
    with small entries (so every residue comes out dense), D diagonal with
    entries drawn from `diagonal` (which sets the size of the rationals)."""
    d = system.rank
    lower = ExactMatrix(
        [[1 if i == j else F(rng.randint(-2, 2), rng.randint(1, 3)) * (i > j) for j in range(d)]
         for i in range(d)]
    )
    upper = ExactMatrix(
        [[rng.choice((1, -1, 2)) if i == j else rng.randint(-1, 1) * (i < j) for j in range(d)]
         for i in range(d)]
    )
    diag = ExactMatrix([[diagonal() if i == j else 0 for j in range(d)] for i in range(d)])
    p = diag * lower * upper
    p_inv = inverse(p)
    residues = {hid: p * m * p_inv for hid, m in system.residues.items()}
    return PfaffianSystem(system.arrangement, d, residues)


def _broken_braids():
    """Twelve broken braid(4) and twelve broken braid(5) systems."""
    rng = random.Random(77)
    return [_broken_braid(strands, rng) for strands in (4, 5) for _ in range(12)]


RECIPE_LINE = Line.of((1, 2, 3, 5))


def _recipe_system(n):
    """n hyperplanes of Q^4 with 1×1 residues, drawn from one
    `random.Random(5)` stream: per hyperplane a normal in [-3, 3]^4 and an
    offset in [-5, 5] (a zero normal or a repeat up to scale is drawn
    again), then its residue p/q with p in 1..9 and q in 2..9."""
    rng = random.Random(5)
    planes, residues = {}, {}
    while len(planes) < n:
        normal = [rng.randint(-3, 3) for _ in range(4)]
        offset = rng.randint(-5, 5)
        if not any(normal):
            continue
        h = canonicalize(f"H{len(planes)}", normal, offset)
        if h.form in planes:
            continue
        planes[h.form] = h
        residues[h.id] = ExactMatrix([[F(rng.randint(1, 9), rng.randint(2, 9))]])
    return PfaffianSystem(Arrangement(4, list(planes.values())), 1, residues)


def _convolved_recipe(n):
    """The Haraoka convolution of `_recipe_system(n)` along (1, 2, 3, 5) at
    λ = 1/3, over its Y-closure: rank n - 1, and most flats are pairs."""
    return haraoka_convolution(_recipe_system(n), RECIPE_LINE, F(1, 3)).system()


def _bumped(system, hid, i, j, by=1):
    rows = [list(row) for row in system.residue(hid).data]
    rows[i][j] += by
    residues = dict(system.residues)
    residues[hid] = ExactMatrix(rows)
    return PfaffianSystem(system.arrangement, system.rank, residues)


def _coprime_pairs():
    """Rank-2 and rank-3 systems on braid(4) whose nonzero residues are the
    two of one pair family {H12, H34}, {H13, H24} or {H14, H23}, over
    coprime denominators: one a polynomial in the other (they commute) or
    drawn at random (they mostly do not)."""
    rng = random.Random(23)
    arr = braid_arrangement(4)
    systems = []
    for k in range(12):
        rank = 2 + k % 2
        first, second = (("H12", "H34"), ("H13", "H24"), ("H14", "H23"))[k % 3]
        den_a, den_b = ((3, 5), (4, 9), (7, 10), (11, 6))[k % 4]
        a = ExactMatrix([[F(rng.randint(-9, 9), den_a) for _ in range(rank)] for _ in range(rank)])
        if k % 4 < 2:
            b = (a * a).scale(F(rng.randint(1, 5), den_b)).add_scaled_identity(F(1, den_b))
        else:
            b = ExactMatrix([[F(rng.randint(-9, 9), den_b) for _ in range(rank)] for _ in range(rank)])
        residues = {hid: ExactMatrix.zeros(rank, rank) for hid in arr.ids()}
        residues[first], residues[second] = a, b
        systems.append(PfaffianSystem(arr, rank, residues))
    return systems


def _oracle_corpus():
    """The broken braids; braid(4) pairs over coprime denominators; KZ3 with
    one entry bumped; the convolved recipe systems for 8-12 hyperplanes,
    intact and with one entry of a parallel hyperplane's residue bumped;
    and a dense rank-16 conjugate of KZ4 with rationals of about 30 digits,
    intact and with one entry bumped by such a rational."""
    systems = _broken_braids() + _coprime_pairs()
    kz = kz_residues(3)
    systems.extend(_bumped(kz, hid, 0, 1) for hid in kz.arrangement.ids())
    rng = random.Random(29)
    for n in range(8, 13):
        convolved = _convolved_recipe(n)
        systems.append(convolved)
        parallel, _ = split_parallel(convolved.arrangement, RECIPE_LINE)
        hid = rng.choice(parallel.ids())
        i, j = rng.randrange(convolved.rank), rng.randrange(convolved.rank)
        systems.append(_bumped(convolved, hid, i, j))
    rng = random.Random(41)

    def digits():
        return F(rng.randint(10**6, 10**7), rng.randint(10**6, 10**7))

    big = _conjugated(kz_residues(4), rng, digits)
    systems.append(big)
    for hid in ("H12", "H34"):
        systems.append(_bumped(big, hid, 3, 5, digits() ** 2))
    return systems


def test_violations_match_all_members_oracle():
    systems = _oracle_corpus()
    failing = last_failing = last_passing = 0
    for system in systems:
        expected = _all_members_violations(system)
        assert _violation_tuples(system) == expected
        failing += bool(expected)
        for family in codim2_flats(system.arrangement):
            hits = [v[1] for v in expected if v[0] == family]
            if hits:
                last_failing += hits[-1] == family[-1]
                last_passing += hits[-1] != family[-1]
    # both outcomes of the last member's commutator after an earlier failure
    assert failing >= 20 and last_failing >= 5 and last_passing >= 1


def test_rank_at_most_one_skips_the_flats(monkeypatch):
    """1×1 residues commute, so a rank-0 or rank-1 system is integrable
    without a call to `codim2_flats`; the all-members loop agrees on seeded
    systems with concurrent planes and large rationals."""
    rng = random.Random(53)
    systems = []
    for _ in range(20):
        dim = rng.randint(2, 4)
        planes, count = {}, rng.randint(3, 9)
        while len(planes) < count:
            normal = [rng.randint(-2, 2) for _ in range(dim)]
            if any(normal):
                h = canonicalize(f"H{len(planes) + 1}", normal, rng.randint(-1, 1))
                planes.setdefault(h.key, h)
        arr = Arrangement(dim, list(planes.values()))
        values = {
            hid: F(rng.randint(-(10**20), 10**20), rng.randint(1, 10**9)) for hid in arr.ids()
        }
        systems.append(scalar_system(arr, values))
        zero = ExactMatrix.zeros(0, 0)
        systems.append(PfaffianSystem(arr, 0, {hid: zero for hid in arr.ids()}))
    assert any(len(f) > 2 for s in systems for f in codim2_flats(s.arrangement))
    expected = [_all_members_violations(s) for s in systems]
    calls = []
    monkeypatch.setattr(
        "mcvlie.holonomy.codim2_flats", lambda arr: calls.append(arr) or codim2_flats(arr)
    )
    assert [_violation_tuples(s) for s in systems] == expected == [[]] * len(systems)
    assert calls == []
    assert check_integrability(_broken_braids()[0])
    assert len(calls) == 1  # rank 2 still reads the flats


# -- the packed-row certificate ------------------------------------------------


@pytest.fixture
def products(monkeypatch):
    """A list that grows by one for every ExactMatrix product."""
    made = []
    original = ExactMatrix.__mul__

    def counting(self, other):
        made.append(1)
        return original(self, other)

    monkeypatch.setattr(ExactMatrix, "__mul__", counting)
    return made


def _integrable_corpus():
    rng = random.Random(5)
    kz3, kz4 = kz_residues(3), kz_residues(4)
    yield kz3
    yield kz4
    yield _conjugated(kz3, rng, lambda: F(rng.randint(1, 9), rng.randint(1, 9)))
    bigger = Arrangement(3, list(kz3.arrangement.hyperplanes) + [canonicalize("X", (1, 0, 0), -1)])
    yield zero_extend(kz3, bigger)
    scalars = scalar_system(TWO_AXES, {"H1": F(2, 3), "H2": F(5, 7)})
    yield zero_extend(scalars, y_closure(TWO_AXES, Line.of((1, 1))))
    for system, direction, lam in (
        (kz3, (0, 0, 1), F(1, 2)),
        (kz3, (1, 2, 0), F(-1, 3)),
        (scalars, (1, 1), F(1, 2)),
        (scalar_system(THREE_LINES, {"H1": F(1, 5), "H2": F(1, 2), "H3": F(1, 3)}), (1, 2), F(2, 7)),
    ):
        yield haraoka_convolution(system, Line.of(direction), lam).system()
    yield _convolved_recipe(10)


def test_integrable_systems_make_no_products(products):
    checked = 0
    for system in _integrable_corpus():
        products.clear()
        assert check_integrability(system) == []
        assert products == []
        checked += 1
    assert checked == 10


def test_each_nonzero_residue_row_is_packed_at_most_once(monkeypatch):
    """A pair-heavy system: 675 of the 795 flats of the convolved recipe
    for 10 hyperplanes are pairs.  One check packs each nonzero row of each
    residue at most once, whatever the number of families the residue is
    in, and packs nothing else (the family sums are never packed)."""
    system = _convolved_recipe(10)
    flats = codim2_flats(system.arrangement)
    assert (len(flats), sum(len(f) == 2 for f in flats)) == (795, 675)
    holders = Counter(id(row) for m in system.residues.values() for row in m.ints if any(row))
    packed = Counter()
    original = exactcore._pack
    monkeypatch.setattr(
        exactcore, "_pack", lambda row, w: packed.update((id(row),)) or original(row, w)
    )
    assert check_integrability(system) == []
    assert packed and all(count <= holders[key] for key, count in packed.items())
    assert sum(packed.values()) <= sum(holders.values())


def test_each_violation_costs_two_products(products):
    violations = 0
    for system in _broken_braids():
        products.clear()
        found = check_integrability(system)
        assert len(products) == 2 * len(found)
        violations += len(found)
    assert violations >= 40


def _two_lines(rank, a, b):
    residues = {"H1": ExactMatrix(a, shape=(rank, rank)), "H2": ExactMatrix(b, shape=(rank, rank))}
    return PfaffianSystem(TWO_AXES, rank, residues)


def test_width_needs_the_rank_term():
    # Row 0 of a t - t a is (0, 128, -1), and 128 = 2^7 carries into the
    # next slot at width 7 = bits(7) + bits(7) + 1, where it cancels the -1:
    # without bits(rank) the packed rows agree although a and t do not
    # commute.  The family is a pair, decided by one test of [a, b] = [a, t]
    # that reports both members.
    a = ((7, 7, 6), (0, 0, 0), (0, 0, 0))
    b = ((-7, 0, -6), (0, 7, -1), (0, 5, 1))
    t = tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(a, b))
    narrow = max(_bits(a), _bits(b)) + _bits(t) + 1
    assert narrow == 7
    packed_t = [_pack(row, narrow) for row in t]
    packed_a = [_pack(row, narrow) for row in a]
    assert all(_packed_dot(r1, packed_t) == _packed_dot(r2, packed_a) for r1, r2 in zip(a, t))
    system = _two_lines(3, a, b)
    comm = ExactMatrix([[0, 128, -1], [0, 0, 0], [0, 0, 0]])
    assert _violation_tuples(system) == [
        (("H1", "H2"), "H1", comm),
        (("H1", "H2"), "H2", -comm),
    ]
    assert _violation_tuples(system) == _all_members_violations(system)


def test_rows_that_differ_only_in_the_top_slot():
    # row 0 of a t is (5, 15, 20) and row 0 of t a is (5, 15, 16): the packed
    # rows differ in the top slot only, and every other row agrees
    a = ((5, 0, 1), (0, 5, 0), (0, 0, 5))
    b = ((-4, 3, 2), (0, 0, 0), (0, 0, 0))
    system = _two_lines(3, a, b)
    comm = ExactMatrix([[0, 0, 4], [0, 0, 0], [0, 0, 0]])
    assert _violation_tuples(system) == [
        (("H1", "H2"), "H1", comm),
        (("H1", "H2"), "H2", -comm),
    ]


def test_rows_where_the_member_or_the_sum_is_zero_are_compared():
    # a vanishes in rows 1 and 2, yet row 2 of t a is nonzero
    system = _two_lines(3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[2, 1, 1], [0, 2, 0], [3, 1, 1]])
    comm = ExactMatrix([[0, 0, 0], [0, 0, 0], [0, -3, 0]])
    assert _violation_tuples(system) == [
        (("H1", "H2"), "H1", comm),
        (("H1", "H2"), "H2", -comm),
    ]
    # row 0 of t = [[0, 0], [0, 2]] cancels, yet row 0 of a t is nonzero
    system = _two_lines(2, [[1, 1], [0, 1]], [[-1, -1], [0, 1]])
    comm = ExactMatrix([[0, 2], [0, 0]])
    assert _violation_tuples(system) == [
        (("H1", "H2"), "H1", comm),
        (("H1", "H2"), "H2", -comm),
    ]


def test_integers_too_long_to_print(products):
    # rank 1 always commutes; rank 2 does not, and the witness is exact
    huge = 7**6000  # 5,071 digits
    rank1 = scalar_system(THREE_LINES, {"H1": F(huge, 3), "H2": F(-huge - 1, huge + 2), "H3": F(1, huge)})
    assert check_integrability(rank1) == []
    assert products == []
    system = _two_lines(2, [[huge, 1], [0, 0]], [[0, 0], [F(1, huge), -huge]])
    assert _violation_tuples(system) == _all_members_violations(system)
    assert len(check_integrability(system)) == 2


# -- zero extension -----------------------------------------------------------


def test_zero_extend_identity():
    sys1 = scalar_system(THREE_LINES, {"H1": F(1, 5), "H2": F(1, 2), "H3": F(1, 3)})
    out = zero_extend(sys1, THREE_LINES)
    assert out.residues == sys1.residues


def test_zero_extend_two_axes_to_closure():
    two = Arrangement(2, [canonicalize("H1", (1, 0), 0), canonicalize("H2", (0, 1), 0)])
    sys1 = scalar_system(two, {"H1": F(2, 3), "H2": F(5, 7)})
    closed = y_closure(two, Line.of((1, 1)))
    out = zero_extend(sys1, closed)
    added = [h.id for h in closed if h.id not in ("H1", "H2")]
    assert len(added) == 1
    assert out.residue(added[0]).is_zero()
    assert not check_integrability(out)


def test_zero_extend_kz_to_superset():
    sys1 = kz_residues(3)
    extra = canonicalize("X", (1, 0, 0), -1)
    bigger = Arrangement(3, list(sys1.arrangement.hyperplanes) + [extra])
    out = zero_extend(sys1, bigger)
    assert out.residue("X").is_zero()
    assert not check_integrability(out)


def test_zero_extend_requires_containment():
    sys1 = scalar_system(THREE_LINES, {"H1": F(1), "H2": F(2), "H3": F(3)})
    two = Arrangement(2, [canonicalize("A", (1, 0), 0), canonicalize("B", (0, 1), 0)])
    with pytest.raises(PreconditionError):
        zero_extend(sys1, two)


def test_zero_extend_rejects_non_integrable_input():
    arr = braid_arrangement(3)
    bad = PfaffianSystem(
        arr,
        2,
        {
            "H12": ExactMatrix([[0, 1], [0, 0]]),
            "H13": ExactMatrix([[0, 0], [1, 0]]),
            "H23": ExactMatrix.zeros(2, 2),
        },
    )
    bigger = Arrangement(3, list(arr.hyperplanes) + [canonicalize("X", (1, 0, 0), -1)])
    with pytest.raises(PreconditionError, match="requires an integrable system"):
        zero_extend(bad, bigger)


def test_zero_extend_never_breaks_integrability_random():
    rng = random.Random(19)
    for _ in range(15):
        dim = rng.randint(2, 3)
        planes = []
        seen = set()
        for k in range(rng.randint(2, 5)):
            normal = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if all(x == 0 for x in normal):
                continue
            h = canonicalize(f"H{k}", normal, F(rng.randint(-1, 1)))
            if h.key in seen:
                continue
            seen.add(h.key)
            planes.append(h)
        if not planes:
            continue
        arr = Arrangement(dim, planes)
        # commuting residues: polynomials in one fixed matrix are integrable
        # over any arrangement
        m = ExactMatrix([[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
        residues = {}
        for h in arr:
            a, b = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
            residues[h.id] = m.scale(a).add_scaled_identity(b)
        sys1 = PfaffianSystem(arr, 2, residues)
        assert not check_integrability(sys1)
        d = [F(rng.randint(-1, 1)) for _ in range(dim)]
        if all(x == 0 for x in d):
            d[0] = F(1)
        closed = y_closure(arr, Line.of(d))
        assert not check_integrability(zero_extend(sys1, closed))


# -- residue sums -------------------------------------------------------------


def test_residue_sum_empty_subset_is_zero():
    sys1 = scalar_system(THREE_LINES, {"H1": F(1), "H2": F(2), "H3": F(3)})
    assert residue_sum(sys1, []) == ExactMatrix.zeros(1, 1)


def test_residue_sum_all_scalars():
    sys1 = scalar_system(THREE_LINES, {"H1": F(1, 5), "H2": F(1, 2), "H3": F(1, 3)})
    assert residue_sum(sys1, ["H1", "H2", "H3"]) == ExactMatrix([[F(31, 30)]])


def test_residue_sum_subset_and_unknown_id():
    sys1 = scalar_system(THREE_LINES, {"H1": F(1), "H2": F(2), "H3": F(3)})
    assert residue_sum(sys1, ["H1", "H3"]) == ExactMatrix([[4]])
    with pytest.raises(InputError):
        residue_sum(sys1, ["H9"])


def test_sum_matrices_matches_iterated_addition():
    rng = random.Random(31)

    def entry():
        if rng.random() < 0.3:
            return 0
        return F(rng.randint(-(10**20), 10**20), rng.choice((1, 2, 3, 7, 10**9 + 7)))

    for k in range(120):
        rank = rng.randint(0, 4)
        mats = [
            ExactMatrix([[entry() for _ in range(rank)] for _ in range(rank)], shape=(rank, rank))
            for _ in range(k % 6)
        ]
        total = ExactMatrix.zeros(rank, rank)
        for m in mats:
            total = total + m
        assert _sum_matrices(mats, rank) == total
        if rank:
            arr = Arrangement(1, [canonicalize(f"P{i}", (1,), i) for i in range(len(mats))])
            system = PfaffianSystem(arr, rank, dict(zip(arr.ids(), mats)))
            assert residue_sum(system, arr.ids()) == total
            assert residue_sum(system, arr.ids()[::-1]) == total
