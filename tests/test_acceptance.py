"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic; the only tolerances are the stated
wall-clock budgets on the larger randomized batches.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

from mcvlie.analysis import (
    check_star_conditions,
    composition_harness,
    is_irreducible,
)
from mcvlie.arrangement import (
    Arrangement,
    Line,
    braid_arrangement,
    canonicalize,
    codim2_flats,
    is_y_closed,
    split_parallel,
    y_closure,
)
from mcvlie.convolution import (
    dr_convolution,
    dr_middle_convolution,
    haraoka_convolution,
    induce_on_quotients,
    phi_zero,
)
from mcvlie.exactcore import ExactMatrix
from mcvlie.freelie import (
    DKWord,
    adjoint_witness,
    bracket,
    LieElement,
    lyndon_basis,
    theta_of_dkword,
    verify_braid_relations,
)
from mcvlie.holonomy import PfaffianSystem, check_integrability, residue_sum

F = Fraction
DATA = Path(__file__).parent / "data"


def _report(num, desc, ok, elapsed=None, budget=None):
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s / {budget:.0f}s budget]"
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} - {desc}{timing}")
    assert ok, f"criterion {num} failed: {desc}"


def _rand_fraction(rng, lo=-4, hi=4, den=3):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _rand_matrix(rng, d, lo=-4, hi=4, den=3):
    return ExactMatrix([[_rand_fraction(rng, lo, hi, den) for _ in range(d)] for _ in range(d)])


# -- 1: dimension law ---------------------------------------------------------


def test_criterion_01_dimension_law():
    budget = 5.0
    rng = random.Random(101)
    t0 = time.monotonic()
    ok = True
    for _ in range(200):
        n, d = rng.randint(1, 5), rng.randint(1, 4)
        mats = [_rand_matrix(rng, d) for _ in range(n)]
        lam = _rand_fraction(rng)
        conv = dr_convolution(mats, lam)
        ok = ok and len(conv) == n and all(c.rows == c.cols == n * d for c in conv)
        # entrywise check against the block formula (A_j + lam*delta_ij) at (i, j)
        for i in range(n):
            c = conv[i]
            for bi in range(n):
                for bj in range(n):
                    for r in range(d):
                        for s in range(d):
                            expect = F(0)
                            if bi == i:
                                expect = mats[bj][(r, s)] + (
                                    lam if (bj == i and r == s) else 0
                                )
                            if c[(bi * d + r, bj * d + s)] != expect:
                                ok = False
    elapsed = time.monotonic() - t0
    _report(1, "convolution dimension law and block structure (200 random)", ok and elapsed < budget, elapsed, budget)


# -- 2: integrability preservation ---------------------------------------------


def _kz_system(strands):
    arr = braid_arrangement(strands)
    dim = 2**strands
    residues = {}
    for i in range(strands):
        for j in range(i + 1, strands):
            rows = []
            for idx in product(range(2), repeat=strands):
                swapped = list(idx)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                row = [F(0)] * dim
                pos = 0
                for t in swapped:
                    pos = pos * 2 + t
                row[pos] = F(1)
                rows.append(row)
            residues[f"H{i + 1}{j + 1}"] = ExactMatrix(rows).transpose()
    return PfaffianSystem(arr, dim, residues)


def _rand_closed_system(rng):
    dim = rng.randint(2, 3)
    planes, seen = [], set()
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
        planes = [canonicalize("H0", tuple([F(1)] + [F(0)] * (dim - 1)), F(0))]
    d = [F(rng.randint(-1, 1)) for _ in range(dim)]
    if all(x == 0 for x in d):
        d[-1] = F(1)
    line = Line.of(d)
    arr = y_closure(Arrangement(dim, planes), line)
    if not split_parallel(arr, line)[1].hyperplanes:
        return None
    rank = rng.randint(1, 2)
    if rank == 1:
        residues = {h.id: ExactMatrix([[_rand_fraction(rng)]]) for h in arr}
    else:
        base = _rand_matrix(rng, 2, -2, 2, 1)
        residues = {
            h.id: base.scale(F(rng.randint(-2, 2))).add_scaled_identity(
                F(rng.randint(-2, 2))
            )
            for h in arr
        }
    return PfaffianSystem(arr, rank, residues), line


def test_criterion_02_integrability_preservation():
    budget = 30.0
    rng = random.Random(202)
    t0 = time.monotonic()
    cases = []
    kz = _kz_system(3)
    axis = Line.of((0, 0, 1))
    for lam in (F(1, 2), F(1, 3), F(-1, 2), F(2)):
        cases.append((kz, axis, lam))
    while len(cases) < 50:
        got = _rand_closed_system(rng)
        if got is None:
            continue
        system, line = got
        cases.append((system, line, _rand_fraction(rng, -2, 2)))
    ok = True
    for system, line, lam in cases:
        assert is_y_closed(system.arrangement, line)
        conv = haraoka_convolution(system, line, lam)
        ok = ok and not check_integrability(conv.system())
    elapsed = time.monotonic() - t0
    _report(2, "convolution preserves integrability (50 Y-closed systems incl. KZ)", ok and elapsed < budget, elapsed, budget)


# -- 3: one-variable consistency -------------------------------------------------


def test_criterion_03_dr_haraoka_consistency():
    rng = random.Random(303)
    ok = True
    for _ in range(20):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        planes = [canonicalize(f"P{k}", (1,), -F(k)) for k in range(n)]
        arr = Arrangement(1, planes)
        residues = {h.id: _rand_matrix(rng, d) for h in arr}
        system = PfaffianSystem(arr, d, residues)
        lam = _rand_fraction(rng)
        conv = haraoka_convolution(system, Line.of((1,)), lam)
        ok = ok and conv.closure == arr
        drc = dr_convolution([residues[h.id] for h in arr], lam)
        for i, h in enumerate(arr):
            ok = ok and conv.matrices[h.id] == drc[i]
    _report(3, "point arrangements: line convolution equals the one-variable one bit-exactly", ok)


# -- 4: identity at parameter zero ------------------------------------------------


def test_criterion_04_mc0_identity():
    rng = random.Random(404)
    ok = True
    found = 0
    while found < 50:
        n, d = rng.randint(2, 4), rng.randint(1, 3)
        mats = [_rand_matrix(rng, d) for _ in range(n)]
        if not check_star_conditions(mats).holds:
            continue
        found += 1
        mid = dr_middle_convolution(mats, 0)
        ind = induce_on_quotients(phi_zero(mid.conv), mid.projection, mid.section)
        ok = ok and mid.dim == d and ind.is_invertible()
        ok = ok and all(ind * b == a * ind for b, a in zip(mid.matrices.values(), mats))
    _report(4, "middle convolution at 0 is the identity on generic inputs (50 random)", ok)


# -- 5 and 6: composition law and irreducibility preservation ----------------------


def _irreducible_instances(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, d = rng.randint(2, 4), rng.randint(1, 3)
        mats = [_rand_matrix(rng, d) for _ in range(n)]
        if not is_irreducible(mats):
            continue
        if not check_star_conditions(mats).holds:
            continue
        out.append(mats)
    return out


PARAMS = [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(1, 5)]


def test_criterion_05_composition_law():
    budget = 60.0
    rng = random.Random(505)
    instances = _irreducible_instances(30, seed=5050)
    t0 = time.monotonic()
    ok = True
    for mats in instances:
        lam, mu = rng.choice(PARAMS), rng.choice(PARAMS)
        report = composition_harness(mats, lam, mu)
        ok = ok and report.applicable and report.compose_iso.verdict == "isomorphic"
        inv = composition_harness(mats, -lam, lam)
        ok = ok and inv.applicable and inv.compose_iso.verdict == "isomorphic"
        ok = ok and inv.identity_iso is not None
        ok = ok and inv.identity_iso.verdict == "isomorphic"
    elapsed = time.monotonic() - t0
    _report(5, "composition law certified with explicit intertwiners (30 irreducible)", ok and elapsed < budget, elapsed, budget)


def test_criterion_06_irreducibility_preserved():
    rng = random.Random(606)
    instances = _irreducible_instances(30, seed=5050)
    ok = True
    for mats in instances:
        lam = rng.choice(PARAMS)
        mid = dr_middle_convolution(mats, lam)
        ok = ok and mid.dim >= 1 and is_irreducible(mid.matrices.values())
    _report(6, "middle convolution preserves irreducibility (same instance set)", ok)


# -- 7: holonomy presentation -------------------------------------------------------


def test_criterion_07_presentation():
    from mcvlie.holonomy import presentation

    p3 = presentation(braid_arrangement(3))
    ok = p3.generators == ("H12", "H13", "H23")
    ok = ok and p3.relation_families == (("H12", "H13", "H23"),)
    p4 = presentation(braid_arrangement(4))
    fams = set(p4.relation_families)
    triples = {
        ("H12", "H13", "H23"),
        ("H12", "H14", "H24"),
        ("H13", "H14", "H34"),
        ("H23", "H24", "H34"),
    }
    pairs = {("H12", "H34"), ("H13", "H24"), ("H14", "H23")}
    ok = ok and fams == triples | pairs
    # every family relation expands to a pure-braid style relation: the
    # triple families give [A_ij, A_ik + A_jk] = 0, the pair families the
    # disjoint commutation [A_12, A_34] = 0 (dropping the self-commutator)
    ok = ok and all(len(f) in (2, 3) for f in fams)
    _report(7, "holonomy presentation reproduces the pure-braid relation schemes", ok)


# -- 8: closure ----------------------------------------------------------------------


def test_criterion_08_closure():
    rng = random.Random(808)
    from mcvlie.arrangement import _flat_plus_line

    ok = True
    for _ in range(100):
        dim = rng.randint(2, 4)
        planes, seen = [], set()
        for k in range(rng.randint(1, 8)):
            normal = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if all(x == 0 for x in normal):
                continue
            h = canonicalize(f"H{k}", normal, F(rng.randint(-2, 2), rng.randint(1, 2)))
            if h.key in seen:
                continue
            seen.add(h.key)
            planes.append(h)
        if not planes:
            planes = [canonicalize("H0", tuple([F(1)] + [F(0)] * (dim - 1)), F(0))]
        arr = Arrangement(dim, planes)
        d = [F(rng.randint(-2, 2)) for _ in range(dim)]
        if all(x == 0 for x in d):
            d[0] = F(1)
        line = Line.of(d)
        closed = y_closure(arr, line)  # raises if a second pass is productive
        ok = ok and is_y_closed(closed, line)
        base_keys = {h.key for h in arr}
        rows = {h.id: h.form.ints[0] for h in arr}
        candidates = {_flat_plus_line((rows[a], rows[b]), line) for a, b, *_ in codim2_flats(arr)}
        for h in closed:
            if h.key not in base_keys:
                ok = ok and h.key in candidates
    _report(8, "Y-closure: closed, minimal, single-pass fixpoint (100 random)", ok)


# -- 9: free Lie suite ----------------------------------------------------------------


def _enumerate_lyndon(n, d):
    count = 0
    for word in product(range(1, n + 1), repeat=d):
        if d == 1 or all(word < word[k:] + word[:k] for k in range(1, d)):
            count += 1
    return count


def _rand_dkword(rng, n, height):
    def build(h):
        if h == 0 or rng.random() < 0.35:
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            while j == i:
                j = rng.randint(1, n)
            return DKWord.gen(i, j)
        return DKWord.of(build(h - 1), build(h - 1))

    while True:
        w = build(height)
        if w.leaves() <= 4:
            return w


def test_criterion_09_free_lie_suite():
    budget = 30.0
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        ok = ok and verify_braid_relations(n) == []
    for n in range(1, 5):
        for d in range(1, 7):
            ok = ok and len(lyndon_basis(n, d)) == _enumerate_lyndon(n, d)
    rng = random.Random(909)
    for _ in range(50):
        n = rng.randint(2, 4)
        word = _rand_dkword(rng, n, height=3)
        i = rng.randint(1, n)
        v = adjoint_witness(word, i, n)
        xi = LieElement.generator(n, i)
        ok = ok and bracket(xi, v) == theta_of_dkword(word, n).apply(xi)
    elapsed = time.monotonic() - t0
    _report(9, "free Lie relations, Lyndon dimensions, adjoint witnesses", ok and elapsed < budget, elapsed, budget)


# -- 10: genericity decision procedure --------------------------------------------------


def test_criterion_10_star_decision_vs_sampling():
    rng = random.Random(1010)
    ok = True
    for _ in range(100):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        mats = [_rand_matrix(rng, d, -2, 2, 2) for _ in range(n)]
        report = check_star_conditions(mats)
        cs = [_rand_fraction(rng, -6, 6, 4) for _ in range(25)]
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
                ok = ok and drop == (defect.is_zero() or defect.eval(c) == 0)
                hstacked = ExactMatrix.hstack(
                    [m.add_scaled_identity(-c) if j == i else m for j, m in enumerate(mats)]
                )
                rdrop = hstacked.rank() < d
                ddefect = report.dstar_defects[i]
                ok = ok and rdrop == (ddefect.is_zero() or ddefect.eval(c) == 0)
    _report(10, "genericity decision matches the sampling oracle (100 random)", ok)


# -- 11: worked example -----------------------------------------------------------------


def test_criterion_11_worked_example_golden():
    from mcvlie.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(
            [
                "mc",
                "--lambda",
                "1/7",
                "--line",
                "0,1",
                "--input",
                str(DATA / "threelines.json"),
            ]
        )
    golden = (DATA / "golden_mc_threelines.json").read_text(encoding="utf-8")
    ok = code == 0 and out.getvalue() == golden
    payload = json.loads(out.getvalue())
    alpha, beta, gamma, lam = F(1, 2), F(1, 3), F(1, 5), F(1, 7)
    ok = ok and payload["dim"] == 2 and payload["k_dim"] == 0 and payload["l_dim"] == 0
    ok = ok and payload["matrices"]["H2"] == [["9/14", "1/3"], ["0", "0"]]
    ok = ok and payload["matrices"]["H3"] == [["0", "0"], ["1/2", "10/21"]]
    ok = ok and payload["matrices"]["H1"] == [["8/15", "-1/3"], ["-1/2", "7/10"]]
    # residue sum of the convolution is (alpha+beta+gamma+lam)·Id
    system = PfaffianSystem.from_json(json.loads((DATA / "threelines.json").read_text()))
    conv = haraoka_convolution(system, Line.of((0, 1)), lam)
    total = residue_sum(conv.system(), conv.closure.ids())
    s = alpha + beta + gamma + lam
    ok = ok and total == ExactMatrix([[s, 0], [0, s]])
    _report(11, "three-line worked example matches the golden file", ok)
