import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from mcvlie import arrangement
from mcvlie.arrangement import (
    Arrangement,
    Line,
    _flat_from_pair,
    _row_form,
    _transverse_families,
    braid_arrangement,
    canonicalize,
    codim2_flats,
    is_y_closed,
    split_parallel,
    y_closure,
)
from mcvlie import exactcore
from mcvlie.errors import InputError, InternalInvariantError, PreconditionError
from mcvlie.exactcore import P, ExactMatrix, matrix_to_json

F = Fraction
DATA_DIR = Path(__file__).parent / "data"


def arr2(*planes):
    return Arrangement(2, [canonicalize(f"H{i + 1}", n, o) for i, (n, o) in enumerate(planes)])


TWO_AXES = arr2(((1, 0), 0), ((0, 1), 0))
THREE_LINES = arr2(((1, 0), 0), ((0, 1), 0), ((1, -1), 0))


# -- canonical forms ----------------------------------------------------------


def test_canonicalize_examples():
    h = canonicalize("a", (2, 0), 4)
    assert h.form.data[0] == (F(1), F(0), F(2))
    h = canonicalize("b", (1, -1), 0)
    assert h.form.data[0] == (F(1), F(-1), F(0))
    h = canonicalize("c", (0, -3), 6)
    assert h.form.data[0] == (F(0), F(1), F(-2))


def test_canonicalize_rejects_zero_normal():
    with pytest.raises(InputError):
        canonicalize("z", (0, 0), 1)


def test_geometric_equality_ignores_ids():
    assert canonicalize("a", (2, 0), 4) == canonicalize("b", (1, 0), 2)
    assert hash(canonicalize("a", (2, 0), 4)) == hash(canonicalize("b", (1, 0), 2))


def test_arrangement_rejects_duplicates():
    with pytest.raises(InputError):
        Arrangement(2, [canonicalize("a", (1, 0), 0), canonicalize("b", (3, 0), 0)])
    with pytest.raises(InputError):
        Arrangement(2, [canonicalize("a", (1, 0), 0), canonicalize("a", (0, 1), 0)])


# -- codim-2 flats ------------------------------------------------------------


def test_single_hyperplane_has_no_flats():
    assert codim2_flats(Arrangement(2, [canonicalize("H", (1, 0), 0)])) == []


def test_braid3_has_one_triple_flat():
    flats = codim2_flats(braid_arrangement(3))
    assert len(flats) == 1
    assert flats[0] == ("H12", "H13", "H23")


def test_parallel_lines_give_no_flat():
    parallel = arr2(((1, 0), 0), ((1, 0), -1))  # x=0 and x=1
    assert codim2_flats(parallel) == []


def test_braid4_families():
    flats = codim2_flats(braid_arrangement(4))
    triples = sorted(f for f in flats if len(f) == 3)
    pairs = sorted(f for f in flats if len(f) == 2)
    assert len(flats) == 7
    assert triples == [
        ("H12", "H13", "H23"),
        ("H12", "H14", "H24"),
        ("H13", "H14", "H34"),
        ("H23", "H24", "H34"),
    ]
    assert pairs == [("H12", "H34"), ("H13", "H24"), ("H14", "H23")]


def test_every_intersecting_pair_lands_in_one_family():
    rng = random.Random(3)
    for _ in range(20):
        arr = _random_arrangement(rng, dim=rng.randint(2, 4), max_planes=6)
        flats = codim2_flats(arr)
        assert all(len(f) >= 2 for f in flats)
        for i, h1 in enumerate(arr.hyperplanes):
            for h2 in arr.hyperplanes[i + 1 :]:
                hits = [
                    f
                    for f in flats
                    if h1.id in f and h2.id in f
                ]
                expected = 0 if _flat_from_pair(h1, h2) is None else 1
                assert len(hits) == expected


def _probe_flats(arr):
    """Reference construction: (equations, family) pairs, the equations
    from every intersecting pair in first-occurrence order, each family
    found by a rank probe of every hyperplane against the equations."""
    order = []
    for i, h1 in enumerate(arr.hyperplanes):
        for h2 in arr.hyperplanes[i + 1 :]:
            eqs = _flat_from_pair(h1, h2)
            if eqs is not None and eqs not in order:
                order.append(eqs)
    return [(eqs, tuple(h.id for h in arr.hyperplanes if h.contains_flat(eqs))) for eqs in order]


def _found_flats(arr):
    """The families of `codim2_flats` as (equations, family) pairs, the
    equations those of the family's first two members."""
    planes = {h.id: h for h in arr}
    return [(_flat_from_pair(planes[f[0]], planes[f[1]]), f) for f in codim2_flats(arr)]


def _oracle_arrangement(rng, dim, raw=None):
    """Random planes with small integer normals, rational offsets, and
    deliberate parallel copies and concurrent triples.  The (normal, offset)
    input of each plane is appended to `raw` when it is a list."""
    planes, seen = [], set()

    def add(normal, offset):
        if all(x == 0 for x in normal):
            return
        h = canonicalize(f"H{len(planes) + 1}", normal, offset)
        if h.key not in seen:
            seen.add(h.key)
            planes.append(h)
            if raw is not None:
                raw.append((normal, offset))

    for _ in range(rng.randint(2, 5)):
        normal = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        add(normal, F(rng.randint(-3, 3), rng.randint(1, 3)))
        if planes and rng.random() < 0.3:  # a parallel copy
            *normal, offset = planes[-1].form.data[0]
            add(tuple(normal), offset + F(rng.randint(1, 3), 2))
        if len(planes) >= 2 and rng.random() < 0.3:  # through the last flat
            a, b = planes[-1].form.data[0], planes[-2].form.data[0]
            s, t = F(rng.randint(1, 3)), F(rng.randint(-3, -1), rng.randint(1, 2))
            add(
                tuple(s * x + t * y for x, y in zip(a[:-1], b[:-1])),
                s * a[-1] + t * b[-1],
            )
    return Arrangement(dim, planes)


def test_flats_match_probe_oracle_random():
    rng = random.Random(2024)
    multi = 0
    for k in range(180):
        arr = _oracle_arrangement(rng, dim=2 + k % 3)
        flats = _found_flats(arr)
        assert flats == _probe_flats(arr)
        multi += sum(len(f) > 2 for _, f in flats)
    assert multi > 50  # the sample does exercise families beyond pairs


def test_flats_match_probe_oracle_braid():
    for n in range(3, 8):
        arr = braid_arrangement(n)
        assert _found_flats(arr) == _probe_flats(arr)


def test_a_family_is_its_flat():
    """Every pair of members of a family cuts the same flat, and distinct
    families cut distinct flats: with each intersecting pair in exactly one
    family, families and flats are in bijection."""
    rng = random.Random(2024)
    corpus = [_oracle_arrangement(rng, dim=2 + k % 3) for k in range(180)]
    corpus += [braid_arrangement(n) for n in range(3, 6)]
    pairs = multi = 0
    for arr in corpus:
        planes = {h.id: h for h in arr}
        flats = []
        for family in codim2_flats(arr):
            found = {_flat_from_pair(planes[a], planes[b]) for a, b in combinations(family, 2)}
            assert len(found) == 1 and None not in found
            flats += found
            pairs += len(family) * (len(family) - 1) // 2
            multi += len(family) > 2
        assert len(set(flats)) == len(flats)
    assert multi > 50 and pairs > 1000


def _integer_arrangement(rng, dim, size):
    """Planes with integer rows of entries up to `size` (a third of them
    0), parallel copies, and planes through the flat of the last two."""
    rows = []
    for _ in range(rng.randint(3, 6)):
        rows.append([rng.choice((0, rng.randint(-size, size), size)) for _ in range(dim + 1)])
        if rng.random() < 0.3:
            rows.append(rows[-1][:-1] + [rows[-1][-1] + rng.randint(1, size)])
        if len(rows) >= 2 and rng.random() < 0.5:
            s, t = rng.randint(1, 3), rng.randint(-3, -1)
            rows.append([s * x + t * y for x, y in zip(rows[-1], rows[-2])])
    planes = {}
    for row in rows:
        if any(row[:-1]):
            h = canonicalize(f"H{len(planes) + 1}", row[:-1], row[-1])
            planes.setdefault(h.key, h)
    return Arrangement(dim, list(planes.values()))


# x = 0 meets P·y + 1 = 0 and x + P·y + 1 = 0 in one point, and 2P·y + 1 = 0
# and P·x + 2P·y + 1 = 0 in another: restricted to x = 0, the four rows have
# leads that are multiples of P, and share one bucket
MULTIPLE_OF_P = Arrangement(2, [
    canonicalize("X", (1, 0), 0),
    canonicalize("PY", (0, P), 1),
    canonicalize("D", (1, 1), 5),
    canonicalize("XPY", (1, P), 1),
    canonicalize("TWO", (0, 2 * P), 1),
    canonicalize("E", (P, 2 * P), 1),
])


def _flat_search_corpus():
    rng = random.Random(62)
    corpus = [MULTIPLE_OF_P, braid_arrangement(5)]
    for k in range(120):
        dim = 1 + k % 4
        corpus.append(_integer_arrangement(rng, dim, rng.choice((3, 2**62, 2**64 + 13))))
        corpus.append(_oracle_arrangement(rng, dim))
    return corpus


def test_flat_search_matches_probe_oracle_on_large_and_multiple_of_p_entries():
    corpus = _flat_search_corpus()
    sizes = [max((abs(x) for h in arr for x in h.form.ints[0]), default=0) for arr in corpus]
    assert sum(size >= 2**62 for size in sizes) >= 30
    multi = 0
    for arr in corpus:
        flats = _found_flats(arr)
        assert flats == _probe_flats(arr)
        if arr.dim == 1:
            assert flats == []
        multi += sum(len(f) > 2 for _, f in flats)
    assert multi > 40
    assert codim2_flats(MULTIPLE_OF_P) == [
        ("X", "PY", "XPY"), ("X", "D"), ("X", "TWO", "E"), ("PY", "D"), ("PY", "E"),
        ("D", "XPY"), ("D", "TWO"), ("D", "E"), ("XPY", "TWO"), ("XPY", "E"),
    ]


def test_flat_search_at_extreme_entries_and_any_wider_slots(monkeypatch):
    # rows with entries +-(2^b - 1), 0 and +-1, so restrictions and their
    # multiples by a lead reach the slot bound with either sign; the
    # families are the probe oracle's at the width rule's slots and at
    # wider ones, since the width only changes the bucket keys
    rng = random.Random(63)
    corpus = []
    for k in range(60):
        dim, top = 2 + k % 3, 2 ** rng.choice((1, 7, 31, 62)) - 1
        rows = [[rng.choice((top, -top, top, -top, 0, 1, -1)) for _ in range(dim + 1)]
                for _ in range(rng.randint(3, 6))]
        rows.append([x - y for x, y in zip(rows[-1], rows[-2])])  # through their flat
        planes = {}
        for row in rows:
            if any(row[:-1]):
                h = canonicalize(f"H{len(planes) + 1}", row[:-1], row[-1])
                planes.setdefault(h.key, h)
        corpus.append(Arrangement(dim, list(planes.values())))
    expected = [_probe_flats(arr) for arr in corpus]
    assert sum(len(f) > 2 for flats in expected for _, f in flats) > 20
    for extra in (0, 1, 5):
        monkeypatch.setattr(
            "mcvlie.arrangement._width",
            lambda bits, terms, extra=extra: exactcore._width(bits, terms) + extra,
        )
        for arr, flats in zip(corpus, expected):
            assert _found_flats(Arrangement(arr.dim, arr.hyperplanes)) == flats


def test_flat_search_at_the_first_width_that_collides(monkeypatch):
    # With a = H1's row and c = 0, the restrictions R2, R3 of H2, H3 to H1
    # have leads l2, l3 in slot 1, and l3·R2 - l2·R3 = -a_0·(0, 0, F_2, F_3)
    # where F_q is the minor of the three rows on columns 0, 1, q
    # (Sylvester's identity).  Here F = (-256, 1) up to sign: at width 8 the
    # 256 carries into slot 3 and cancels the 1, and the two flats through
    # H1 merge.  The minors are below 6·2^(3m) while the rule gives 4m + 4
    # bits (16 for m = 3), so no width one bit, or a few bits, below the
    # rule can merge two flats, and every width from 9 up is exact here.
    rows = ((6, -6, 2, -5), (1, 7, 3, 3), (4, 5, -1, 1))
    arr = Arrangement(3, [canonicalize(f"H{i}", r[:3], r[3]) for i, r in enumerate(rows, 1)])
    assert [h.form.ints[0] for h in arr] == list(rows)
    minor = ExactMatrix([r[:3] for r in rows]).det()
    offset_minor = ExactMatrix([r[:2] + r[3:] for r in rows]).det()
    assert minor == -256 * offset_minor and abs(offset_minor) == 1
    want = _probe_flats(arr)
    assert [f for _, f in want] == [("H1", "H2"), ("H1", "H3"), ("H2", "H3")]
    assert _found_flats(Arrangement(3, arr.hyperplanes)) == want
    assert exactcore._width(4 * 3 + 2, 1) == 16
    for w in range(8, 17):
        monkeypatch.setattr("mcvlie.arrangement._width", lambda bits, terms, w=w: w)
        got = codim2_flats(Arrangement(3, arr.hyperplanes))
        assert got == ([("H1", "H2", "H3")] if w == 8 else [f for _, f in want])


def test_flat_search_does_not_trust_colliding_keys(monkeypatch):
    """With the bucket modulus 2 almost every key collides, and a lead is
    even half of the time: the exact comparison alone separates the flats."""
    corpus = _flat_search_corpus()
    expected = [_probe_flats(arr) for arr in corpus]
    monkeypatch.setattr("mcvlie.arrangement.P", 2)
    for arr, flats in zip(corpus, expected):
        assert _found_flats(Arrangement(arr.dim, arr.hyperplanes)) == flats


def test_found_flats_build_equations_only_when_read(monkeypatch):
    import mcvlie.arrangement as arrangement

    calls = []

    def counted(h1, h2):
        calls.append((h1.id, h2.id))
        return _flat_from_pair(h1, h2)

    monkeypatch.setattr(arrangement, "_flat_from_pair", counted)
    arr = _oracle_arrangement(random.Random(8), dim=3)
    flats = codim2_flats(arr)
    assert len(flats) > 3 and calls == []
    assert all(type(f) is tuple and len(f) >= 2 for f in flats)
    # the closure builds the equations of the flats that add a hyperplane only
    calls.clear()
    line = Line.of((1, 2, -1))
    closed = y_closure(Arrangement(arr.dim, arr.hyperplanes), line)
    assert 0 < len(calls) == len(closed) - len(arr)
    # each from the first two members of a family
    assert set(calls) <= {f[:2] for f in flats}


def _commuting_system(rng, planes, dim):
    """A rank-2 system on `planes` random planes in Q^dim, every residue a
    polynomial in one matrix, as CLI JSON."""
    found = {}
    while len(found) < planes:
        normal = [rng.randint(-2, 2) for _ in range(dim)]
        if any(normal):
            h = canonicalize(f"H{len(found) + 1}", normal, rng.randint(-2, 2))
            found.setdefault(h.key, h)
    arr = Arrangement(dim, list(found.values()))
    residues = {
        hid: [[str(a), str(2 * b)], ["0", str(a - b)]]
        for hid, a, b in ((hid, rng.randint(-3, 3), rng.randint(-3, 3)) for hid in arr.ids())
    }
    return {"arrangement": arr.to_json(), "rank": 2, "residues": residues}


def test_check_on_thirty_planes_builds_no_equations(monkeypatch, tmp_path):
    import mcvlie.arrangement as arrangement
    from mcvlie.cli import main

    calls, flats = [], []
    monkeypatch.setattr(arrangement, "_flat_from_pair", lambda *pair: calls.append(pair))
    monkeypatch.setattr(
        "mcvlie.holonomy.codim2_flats", lambda arr: flats.extend(codim2_flats(arr)) or flats
    )
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_commuting_system(random.Random(30), 30, 3)))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["check", "--input", str(path)]) == 0
    assert json.loads(out.getvalue()) == {"ok": True, "violations": []}
    assert len(flats) > 100 and any(len(f) > 2 for f in flats)
    assert calls == []


# -- Fraction reference for the echelon storage --------------------------------
# Rows (normal…, offset) of Fractions scaled to a first nonzero entry 1 and
# reduced by hand: the construction the module used before it kept echelon
# ExactMatrix forms.


def ref_canon_scale(vec):
    lead = next((x for x in vec if x != 0), None)
    return None if lead is None else tuple(x / lead for x in vec)


def _lead(row):
    return next(c for c, x in enumerate(row) if x != 0)


def ref_flat_from_pair(r1, r2):
    """The reduced echelon pair of two distinct canonical rows, or None when
    the planes do not meet in a codimension-2 flat."""
    if _lead(r2) < _lead(r1):
        r1, r2 = r2, r1
    if _lead(r2) == _lead(r1):
        r2 = tuple(b - a for a, b in zip(r1, r2))  # both leading entries are 1
    r2 = ref_canon_scale(r2)
    if r2 is None or _lead(r2) == len(r2) - 1:
        return None  # proportional normals
    f = r1[_lead(r2)]
    return tuple(a - f * b for a, b in zip(r1, r2)), r2


def ref_flat_plus_line(eqs, direction):
    r1, r2 = eqs
    d1 = sum(a * b for a, b in zip(r1, direction))
    d2 = sum(a * b for a, b in zip(r2, direction))
    if d1 == 0 and d2 == 0:
        return None
    return ref_canon_scale(tuple(-d2 * a + d1 * b for a, b in zip(r1, r2)))


def ref_flat_key(eqs):
    return "|".join(",".join(str(x) for x in row) for row in eqs)


def ref_plane_json(hid, row):
    return {"id": hid, "normal": [str(x) for x in row[:-1]], "offset": str(row[-1])}


def ref_flats(rows):
    """Echelon pairs of the intersecting pairs, in first-occurrence order."""
    flats = []
    for i, r1 in enumerate(rows):
        for r2 in rows[i + 1 :]:
            eqs = ref_flat_from_pair(r1, r2)
            if eqs is not None and eqs not in flats:
                flats.append(eqs)
    return flats


def ref_closure_additions(ids, rows, direction):
    """JSON of the hyperplanes one closure pass appends, ids included."""
    added, seen, taken = [], set(rows), set(ids)
    for eqs in ref_flats(rows):
        row = ref_flat_plus_line(eqs, direction)
        if row is None or row in seen:
            continue
        seen.add(row)
        hid = "cl:" + ref_flat_key(eqs)
        while hid in taken:
            hid += "'"
        taken.add(hid)
        added.append(ref_plane_json(hid, row))
    return added


def test_echelon_storage_matches_fraction_reference():
    rng, line_rng = random.Random(2024), random.Random(77)
    for k in range(180):
        raw = []
        arr = _oracle_arrangement(rng, dim=2 + k % 3, raw=raw)
        rows = [ref_canon_scale(tuple(map(F, n)) + (F(o),)) for n, o in raw]
        assert arr.to_json() == {
            "dim": arr.dim,
            "hyperplanes": [ref_plane_json(h.id, row) for h, row in zip(arr, rows)],
        }
        keys = ["|".join(map(",".join, matrix_to_json(eqs))) for eqs, _ in _found_flats(arr)]
        assert keys == list(map(ref_flat_key, ref_flats(rows)))
        direction = [F(line_rng.randint(-3, 3), line_rng.randint(1, 4)) for _ in range(arr.dim)]
        if k % 2 or not any(direction):
            direction[0] = -F(line_rng.randint(1, 3), line_rng.randint(2, 5))
        closed = y_closure(arr, Line.of(direction))
        assert closed.to_json()["hyperplanes"][len(arr) :] == ref_closure_additions(
            arr.ids(), rows, direction
        )


# -- general elimination as the reference for the closed forms ----------------


def ref_rref_flat_from_pair(h1, h2):
    """The construction `_flat_from_pair` had before its closed form: the
    reduced echelon form of the two stacked forms by Gauss-Jordan, None for
    proportional forms or an inconsistent pair."""
    eqs, pivots = ExactMatrix.vstack([h1.form, h2.form]).rref()
    if len(pivots) < 2:
        return None  # proportional forms: distinct canonical planes are parallel
    if pivots[-1] == eqs.cols - 1:
        return None  # inconsistent system: empty intersection
    return eqs


def _pair_results(planes):
    """The reference result of every pair, after checking `_flat_from_pair`
    against it in both orders."""
    results = []
    for h1, h2 in combinations(planes, 2):
        expected = ref_rref_flat_from_pair(h1, h2)
        assert _flat_from_pair(h1, h2) == expected
        assert _flat_from_pair(h2, h1) == expected
        results.append(expected)
    return results


def test_closed_form_flats_match_rref_on_oracle_and_braid():
    rng = random.Random(2024)
    results = []
    for k in range(180):
        results += _pair_results(_oracle_arrangement(rng, dim=2 + k % 3).hyperplanes)
    for n in range(3, 8):
        results += _pair_results(braid_arrangement(n).hyperplanes)
    parallel = results.count(None)
    assert len(results) - parallel > 1000 and parallel > 100  # both branches run


def test_closed_form_flats_match_rref_on_planted_pairs():
    big = 10**30
    cases = [
        # proportional normals, different offsets: parallel
        [((1, 2, 3), 1), ((2, 4, 6), 5), ((-1, -2, -3), F(7, 3))],
        # the same planes as input rescaled or negated, and their partners
        [((2, -4, 6), 8), ((-3, 6, -9), -12), ((0, 5, 1), -1), ((0, -10, -2), 2)],
        # a shared first pivot column, then a zero column before the second
        [((1, 1, 0, 0), 0), ((1, 1, 0, 1), 0), ((1, 1, 2, 0), 3), ((2, 2, 7, 1), 1)],
        # the first nonzero column belongs to one plane only
        [((0, 1, 0, 2), 0), ((1, 0, 0, 3), 1), ((0, 0, 0, 1), -1)],
        # entries of 10**30 and Fraction offsets
        [((big, big + 1, 1), F(1, 3)), ((big - 1, -big, 2), F(-7, 5)),
         ((1, big, -big), F(big, big + 7)), ((big, big + 1, 1), F(2, 9))],
        # dim = 1: points on the line, never a codimension-2 flat
        [((1,), 0), ((1,), 1), ((-3,), F(1, 2))],
    ]
    results = []
    for planes in cases:
        results += _pair_results([canonicalize(f"H{k}", n, o) for k, (n, o) in enumerate(planes)])
    assert None in results and any(r is not None for r in results)
    # rescaling or negating an input equation does not move the flat
    h = [canonicalize("a", (2, -4, 6), 8), canonicalize("b", (0, 5, 1), -1)]
    g = [canonicalize("a", (-3, 6, -9), -12), canonicalize("b", (0, -10, -2), 2)]
    assert _flat_from_pair(*h) == _flat_from_pair(*g) is not None
    dim1 = Arrangement(1, [canonicalize(f"P{k}", (k + 1,), k) for k in range(3)])
    assert codim2_flats(dim1) == []


def test_row_form_matches_rref():
    rng = random.Random(17)

    def entry():
        kind = rng.random()
        if kind < 0.35:
            return 0
        if kind < 0.75:
            return F(rng.randint(-9, 9), rng.randint(1, 7))
        return rng.randint(-(10**40), 10**40)

    for k in range(400):
        row = [entry() for _ in range(rng.randint(0, 6))]
        if row and k % 3 == 0:
            row[rng.randrange(len(row))] = -F(rng.randint(1, 10**30), rng.randint(1, 9))
        m = ExactMatrix([row], shape=(1, len(row)))
        red, pivots = m.rref()
        found = _row_form(m.ints[0])
        if not pivots:
            assert found is None
        else:
            assert found == (red, pivots[0])


def test_arrangement_path_runs_no_elimination(monkeypatch):
    """Loading, flats, the Y-closure with its certifying pass, and lines
    make no call to the general Gauss-Jordan `rref`."""
    calls = []
    rref = ExactMatrix.rref

    def counted(self):
        calls.append((self.rows, self.cols))
        return rref(self)

    monkeypatch.setattr(ExactMatrix, "rref", counted)
    affine = _oracle_arrangement(random.Random(5), dim=4)
    for arr, direction in (
        (braid_arrangement(6), (1, 1, 0, 0, 0, 0)),
        (affine, (1, F(-2, 3), 0, 5)),
    ):
        loaded = Arrangement.from_json(arr.to_json())
        line = Line.of(direction)
        assert codim2_flats(loaded)
        closed = y_closure(loaded, line)
        assert len(closed) > len(loaded)  # so the certifying pass sees new planes
    assert calls == []


def test_flats_cached_result_is_not_shared():
    arr = braid_arrangement(4)
    first = codim2_flats(arr)
    expected = list(first)
    first.clear()
    assert codim2_flats(arr) == expected
    again = codim2_flats(arr)
    again.append(None)
    assert codim2_flats(arr) == expected


def test_hyperplanes_are_immutable():
    arr = braid_arrangement(3)
    assert isinstance(arr.hyperplanes, tuple)
    assert arr.has_key(arr.hyperplanes[0].key)
    assert not arr.has_key(canonicalize("X", (1, 0, 0), 0).key)


# -- parallel split -----------------------------------------------------------


def test_split_parallel_braid3():
    par, tra = split_parallel(braid_arrangement(3), Line.of((0, 0, 1)))
    assert par.ids() == ["H12"]
    assert tra.ids() == ["H13", "H23"]


def test_split_parallel_two_axes_diagonal():
    par, tra = split_parallel(TWO_AXES, Line.of((1, 1)))
    assert par.ids() == []
    assert tra.ids() == ["H1", "H2"]


def test_split_parallel_three_lines():
    par, tra = split_parallel(THREE_LINES, Line.of((0, 1)))
    assert par.ids() == ["H1"]  # x = 0
    assert tra.ids() == ["H2", "H3"]


def test_split_partitions():
    rng = random.Random(9)
    for _ in range(20):
        arr = _random_arrangement(rng, dim=rng.randint(2, 4), max_planes=6)
        line = _random_line(rng, arr.dim)
        par, tra = split_parallel(arr, line)
        assert par.ids() + tra.ids() == sorted(
            arr.ids(), key=lambda i: (arr.ids().index(i),)
        ) or set(par.ids()) | set(tra.ids()) == set(arr.ids())
        assert not (set(par.ids()) & set(tra.ids()))
        merged = sorted(par.ids() + tra.ids(), key=arr.ids().index)
        assert merged == arr.ids()


# -- Y-closedness and closure -------------------------------------------------


def test_single_hyperplane_always_closed():
    arr = Arrangement(2, [canonicalize("H", (1, -2), 3)])
    assert is_y_closed(arr, Line.of((1, 1)))


def test_braid3_closed_along_axis():
    assert is_y_closed(braid_arrangement(3), Line.of((0, 0, 1)))


def test_braid4_closed_along_axis():
    assert is_y_closed(braid_arrangement(4), Line.of((0, 0, 0, 1)))


def test_two_axes_not_closed_along_diagonal():
    assert not is_y_closed(TWO_AXES, Line.of((1, 1)))


def test_closure_of_two_axes_adds_diagonal():
    closed = y_closure(TWO_AXES, Line.of((1, 1)))
    assert len(closed) == 3
    added = closed.hyperplanes[2]
    assert added.form.data[0] == (F(1), F(-1), F(0))
    assert added.id.startswith("cl:")
    assert is_y_closed(closed, Line.of((1, 1)))


def test_closure_fixpoint_when_already_closed():
    line = Line.of((0, 0, 1))
    arr = braid_arrangement(3)
    assert y_closure(arr, line) == arr


def _random_arrangement(rng, dim, max_planes):
    planes = []
    seen = set()
    for k in range(rng.randint(1, max_planes)):
        normal = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if all(x == 0 for x in normal):
            normal = tuple(F(1) if i == 0 else F(0) for i in range(dim))
        offset = F(rng.randint(-2, 2), rng.randint(1, 2))
        h = canonicalize(f"H{k + 1}", normal, offset)
        if h.key in seen:
            continue
        seen.add(h.key)
        planes.append(h)
    return Arrangement(dim, planes)


def _random_line(rng, dim):
    d = [F(rng.randint(-2, 2)) for _ in range(dim)]
    if all(x == 0 for x in d):
        d[rng.randrange(dim)] = F(1)
    return Line.of(d)


def test_arrangement_json_roundtrip():
    data = THREE_LINES.to_json()
    assert data["hyperplanes"][2]["normal"] == ["1", "-1"]
    assert Arrangement.from_json(data) == THREE_LINES


def test_closure_random_properties():
    rng = random.Random(41)
    for _ in range(60):
        dim = rng.randint(2, 4)
        arr = _random_arrangement(rng, dim, max_planes=6)
        line = _random_line(rng, dim)
        closed = y_closure(arr, line)
        assert is_y_closed(closed, line)
        # idempotence
        assert y_closure(closed, line) == closed
        # minimality: every added hyperplane is X + Y for some codim-2 flat X
        base_keys = {h.key for h in arr.hyperplanes}
        from mcvlie.arrangement import _flat_plus_line

        candidates = {
            _flat_plus_line(eqs.ints, line)
            for eqs, _ in _found_flats(arr)
        }
        for h in closed.hyperplanes:
            if h.key not in base_keys:
                assert h.key in candidates


def test_closure_keeps_the_input_as_an_id_prefix():
    # the Haraoka convolution reads the input's residues by these ids
    rng = random.Random(43)
    grew = 0
    for _ in range(60):
        dim = rng.randint(2, 4)
        arr = _random_arrangement(rng, dim, max_planes=6)
        line = _random_line(rng, dim)
        closed = y_closure(arr, line)
        head = closed.hyperplanes[: len(arr)]
        assert [(h.id, h.key) for h in head] == [(h.id, h.key) for h in arr]
        added = closed.hyperplanes[len(arr):]
        assert all(h.id.startswith("cl:") for h in added)
        assert all(h.id not in arr.ids() for h in added)
        assert split_parallel(Arrangement(dim, added), line)[1].hyperplanes == ()
        grew += bool(added)
    assert grew >= 20


# -- the parallel-member criterion against the X + Y reference -----------------


def _ref_adds(arr, family, direction):
    """Whether the Fraction reference finds X + Y, for the flat X of
    `family`, to be a hyperplane missing from arr."""
    rows = {h.id: h.form.data[0] for h in arr}
    row = ref_flat_plus_line(ref_flat_from_pair(rows[family[0]], rows[family[1]]), direction)
    return row is not None and row not in rows.values()


def ref_is_y_closed(arr, direction):
    """Terao's criterion on the reference flat of every intersecting pair:
    X + Y is X or a plane."""
    rows = [h.form.data[0] for h in arr]
    present = {None, *rows}
    flats = (ref_flat_from_pair(r1, r2) for r1, r2 in combinations(rows, 2))
    return all(ref_flat_plus_line(eqs, direction) in present for eqs in flats if eqs is not None)


def _parallel_to(direction, normal):
    """`normal` less its component along `direction`, scaled to integers."""
    dd = sum(x * x for x in direction)
    nd = sum(a * b for a, b in zip(normal, direction))
    return [dd * a - nd * b for a, b in zip(normal, direction)]


def _lemma_corpus():
    """(arrangement, line) pairs: seeded random planes in Q^2-Q^5 along
    random lines, with about half the planes parallel to the line in every
    third case, so that lines lie in flats (two parallel planes with
    independent normals, dim >= 3) and in several planes; then braid(3..6)
    along random lines, coordinate axes and the all-ones line, which lies
    in every plane."""
    rng = random.Random(2037)
    for k in range(300):
        dim = 2 + k % 4
        direction = [rng.randint(-2, 2) for _ in range(dim)]
        if not any(direction):
            direction[rng.randrange(dim)] = 1
        planes, seen = [], set()
        for _ in range(rng.randint(2, 8)):
            normal = [rng.randint(-2, 2) for _ in range(dim)]
            if k % 3 == 1 and rng.random() < 0.5:
                normal = _parallel_to(direction, normal)
            if not any(normal):
                continue
            h = canonicalize(f"H{len(planes) + 1}", normal, F(rng.randint(-2, 2), rng.randint(1, 2)))
            if h.form not in seen:
                seen.add(h.form)
                planes.append(h)
        yield Arrangement(dim, planes), Line.of(direction)
    for n in range(3, 7):
        lines = [[int(i == j) for i in range(n)] for j in (0, n - 1)] + [[1] * n]
        lines += [[rng.randint(-2, 2) for _ in range(n)] for _ in range(4)]
        for direction in lines:
            if any(direction):
                yield braid_arrangement(n), Line.of(direction)


def test_parallel_member_criterion_agrees_with_the_reference():
    # family by family, a family has no member parallel to the line exactly
    # when the reference's X + Y is a missing hyperplane; is_y_closed agrees
    # with Terao's criterion on the reference flats; both on the inputs and
    # on their closures
    kinds = {"transverse": 0, "some parallel": 0, "all parallel": 0}
    for arr, line in _lemma_corpus():
        closed = y_closure(arr, line)
        for a in (arr, closed):
            transverse = list(_transverse_families(a, line))
            assert transverse == [f for f in codim2_flats(a) if _ref_adds(a, f, line.direction)]
            assert is_y_closed(a, line) == ref_is_y_closed(a, line.direction)
            parallel = set(split_parallel(a, line)[0].ids())
            for f in codim2_flats(a):
                kinds[["transverse", "some parallel", "all parallel"][
                    (len(parallel & set(f)) > 0) + (set(f) <= parallel)]] += 1
        assert is_y_closed(closed, line)
    assert min(kinds.values()) >= 300, kinds


def _seed_one_jobs():
    from test_bench_digests import WORKLOADS

    for workload in ("arrangement-sweep", "kz-highrank"):
        for job in WORKLOADS.build(workload, WORKLOADS.DEFAULT_SEED):
            if job["argv"][0] in ("closure", "convolve", "mc"):
                yield workload, job


def _flat_plus_line_counts(monkeypatch):
    """Run the seed-1 closure, convolve and mc jobs through the CLI, with
    every `_closure_pass` recorded as (workload, arrangement, line, the
    `_flat_plus_line` calls it made); returns the records and the number of
    `_flat_plus_line` calls made outside any first pass, per workload."""
    from test_bench_digests import _stdout

    calls, passes, outside = [0], [], {}
    real_plus, real_pass = arrangement._flat_plus_line, arrangement._closure_pass
    workload = None

    def counted(rows, line):
        calls[0] += 1
        return real_plus(rows, line)

    def recorded(arr, line):
        before = calls[0]
        out = real_pass(arr, line)
        passes.append((workload, arr, line, calls[0] - before))
        return out

    monkeypatch.setattr(arrangement, "_flat_plus_line", counted)
    monkeypatch.setattr(arrangement, "_closure_pass", recorded)
    for workload, job in _seed_one_jobs():
        before, first = calls[0], len(passes)
        _stdout(job)
        inside = sum(n for *_, n in passes[first:])
        outside[workload] = outside.get(workload, 0) + calls[0] - before - inside
    return passes, outside


def test_sum_is_built_once_per_transverse_family_and_never_in_the_certificate(monkeypatch):
    # 145 calls on arrangement-sweep and none on kz-highrank, against 999
    # and 29 when every family built X + Y in both passes
    passes, outside = _flat_plus_line_counts(monkeypatch)
    built = {"arrangement-sweep": 0, "kz-highrank": 0}
    for workload, arr, line, n in passes:
        assert n == sum(_ref_adds(arr, f, line.direction) for f in codim2_flats(arr))
        built[workload] += n
    assert outside == {"arrangement-sweep": 0, "kz-highrank": 0}
    assert built == {"arrangement-sweep": 145, "kz-highrank": 0}


def test_a_transverse_family_whose_sum_is_present_raises(monkeypatch):
    # with the parallel test dropped, the family's X + Y is the parallel
    # member (two axes along an axis) or X itself (braid(3) along (1,1,1))
    monkeypatch.setattr(arrangement, "_is_parallel", lambda h, line: False)
    with pytest.raises(InternalInvariantError, match=r"\('H1', 'H2'\) .* in the arrangement"):
        y_closure(TWO_AXES, Line.of((1, 0)))
    with pytest.raises(InternalInvariantError, match=r"\('H12', 'H13', 'H23'\) .* X \+ Y is X"):
        y_closure(braid_arrangement(3), Line.of((1, 1, 1)))


def test_closure_that_loses_an_addition_fails_its_certificate(monkeypatch):
    real = arrangement._closure_pass
    monkeypatch.setattr(arrangement, "_closure_pass", lambda arr, line: real(arr, line)[:-1])
    arr = Arrangement.from_json(json.loads((DATA_DIR / "closure_branches.json").read_text()))
    with pytest.raises(InternalInvariantError, match=r"one pass: the family \('H4', 'H5'\) "):
        y_closure(arr, Line.of((0, 0, 1)))


def test_each_closure_mutant_fails_a_test(monkeypatch):
    real = arrangement._transverse_families

    def inverted(arr, line):
        transverse = set(real(arr, line))
        return (f for f in codim2_flats(arr) if f not in transverse)

    for name, mutant, check in (
        ("_transverse_families", inverted, test_parallel_member_criterion_agrees_with_the_reference),
        ("_is_parallel", lambda h, line: False,
         lambda: test_sum_is_built_once_per_transverse_family_and_never_in_the_certificate(m)),
    ):
        with monkeypatch.context() as m:
            m.setattr(arrangement, name, mutant)
            with pytest.raises((AssertionError, InternalInvariantError)):
                check()
