"""Seeded job lists for the three benchmark workloads.

A job is one `mcvlie` CLI invocation: an argv (reading its JSON input from
stdin) plus the outcome its construction fixes.  Inputs are built with exact
rationals and without calling into mcvlie, so the expected verdicts are known
independently of the program under test.

Two random streams build a job list.  The template stream does not depend on
the seed: it fixes the arrangements, matrix tuples and parameters, and so the
amount of work.  The seed stream then moves every template by a symmetry that
leaves the work unchanged (coordinate sign flips and a rescaling of each
hyperplane's equation, conjugation of residues and tuples by a diagonal sign
matrix, a small offset on big integers), so different seeds give different
inputs with the same verdicts and nearly the same cost.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("arrangement-sweep", "kz-highrank", "tuple-certify")
DEFAULT_SEED = 1


# ---------------------------------------------------------------------------
# tiny exact helpers (independent of mcvlie)


def _s(x) -> str:
    return str(F(x))


def _mat_json(m):
    return [[_s(x) for x in row] for row in m]


def _identity(d):
    return [[F(int(i == j)) for j in range(d)] for i in range(d)]


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in bt] for row in a]


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _scale(a, c):
    return [[x * c for x in row] for row in a]


def _commutes(a, b) -> bool:
    return _matmul(a, b) == _matmul(b, a)


def _inverse(m):
    d = len(m)
    aug = [list(row) + e for row, e in zip(m, _identity(d))]
    for c in range(d):
        p = next(r for r in range(c, d) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]


def _rank(m) -> int:
    m = [list(row) for row in m]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _sign_flips(rng, d):
    return [rng.choice((1, -1)) for _ in range(d)]


def _flipped(rng, mats):
    """Conjugate by one seeded diagonal sign matrix D = D^-1: every entry
    keeps its magnitude and position, so the work is the same; only signs
    differ from seed to seed."""
    s = _sign_flips(rng, len(mats[0]))
    return [[[x * s[i] * s[j] for j, x in enumerate(row)] for i, row in enumerate(m)] for m in mats]


def _conjugator(rng, d, den):
    """A random invertible rational matrix (unit lower times upper triangle)."""
    lower = [[F(1) if i == j else (F(rng.randint(-2, 2), rng.randint(1, den)) if i > j else F(0))
              for j in range(d)] for i in range(d)]
    upper = [[F(rng.choice((1, -1, 2))) if i == j else (F(rng.randint(-1, 1)) if i < j else F(0))
              for j in range(d)] for i in range(d)]
    return _matmul(lower, upper)


def _conjugate(mats, p):
    pinv = _inverse(p)
    return [_matmul(_matmul(p, a), pinv) for a in mats]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _job(kind, argv, payload, code=0, **expect):
    argv = list(argv)
    if payload is not None:
        argv += ["--input", "-"]
    return {
        "kind": kind,
        "argv": argv,
        "input": None if payload is None else _dump(payload),
        "expect": dict(expect, code=code),
    }


# ---------------------------------------------------------------------------
# arrangements and Pfaffian systems


def _canon(normal, offset):
    lead = next(x for x in normal if x != 0)
    return tuple(F(x) / lead for x in normal), F(offset) / lead


def _plane_json(hid, normal, offset):
    return {"id": hid, "normal": [_s(x) for x in normal], "offset": _s(offset)}


def _random_planes(rng, dim, count):
    planes, seen = [], set()
    while len(planes) < count:
        normal = [F(rng.randint(-2, 2)) for _ in range(dim)]
        if not any(normal):
            continue
        offset = F(rng.randint(-2, 2), rng.randint(1, 2))
        key = _canon(normal, offset)
        if key in seen:
            continue
        seen.add(key)
        planes.append((normal, offset))
    return planes


def _random_direction(rng, planes, dim):
    """A direction transverse to at least one of the planes."""
    while True:
        line = [F(rng.randint(-2, 2)) for _ in range(dim)]
        if any(sum(a * b for a, b in zip(n, line)) != 0 for n, _ in planes):
            return line


def _moved(rng, dim, planes, line):
    """The arrangement and line under the coordinate sign flips x -> D·x,
    each equation also multiplied by a seeded nonzero factor.  The canonical
    planes have the same magnitudes, so flats, families, the closure and the
    arithmetic on them keep their size."""
    s = _sign_flips(rng, dim)
    out = []
    for k, (n, o) in enumerate(planes):
        c = F(rng.choice((1, -1, 2, -2, 3, -3)))
        out.append(_plane_json(f"H{k + 1}", [c * s[i] * x for i, x in enumerate(n)], c * o))
    return {"dim": dim, "hyperplanes": out}, [int(s[i] * x) for i, x in enumerate(line)]


def _braid(n):
    planes = []
    for i in range(n):
        for j in range(i + 1, n):
            normal = [0] * n
            normal[i], normal[j] = 1, -1
            planes.append(_plane_json(f"H{i + 1}{j + 1}", normal, 0))
    return {"dim": n, "hyperplanes": planes}


def _line_arg(d):
    return ",".join(str(x) for x in d)


def _transverse(arr, d):
    return [h["id"] for h in arr["hyperplanes"]
            if sum(F(a) * b for a, b in zip(h["normal"], d)) != 0]


def _commuting_residues(fixed, moves, ids, rank):
    """Residues that pairwise commute, so every relation holds: scalars in
    rank 1, s·B + t·Id for one base matrix B in rank 2 (B conjugated by the
    seed's sign flips)."""
    if rank == 1:
        return {h: [[F(fixed.randint(-4, 4), fixed.randint(1, 3))]] for h in ids}
    while True:
        base = [[F(fixed.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        if base[0][1] or base[1][0] or base[0][0] != base[1][1]:
            break  # not a scalar matrix
    base = _flipped(moves, [base])[0]
    return {
        h: _add(_scale(base, F(fixed.randint(-2, 2))), _scale(_identity(2), F(fixed.randint(-2, 2))))
        for h in ids
    }


def _system(arr, rank, residues):
    return {
        "arrangement": arr,
        "rank": rank,
        "residues": {h: _mat_json(m) for h, m in residues.items()},
    }


def _rh_expect(residues, transverse, lam):
    """Exact rh-check offenders for a rank-1 system: a 1x1 residue is its own
    eigenvalue."""
    offenders = []
    for h in transverse:
        a = residues[h][0][0]
        if a.denominator == 1 and a != 0:
            offenders.append([h, int(a)])
    total = sum((residues[h][0][0] for h in transverse), F(0)) + lam
    if total.denominator == 1 and total != 0:
        offenders.append(["sum", int(total)])
    return offenders


# (dim, planes) of the closure inputs and of the systems
_CLOSURE_SHAPES = [(2, 8), (3, 6), (3, 7), (4, 6), (2, 7), (4, 5)]
_CHECK_SHAPES = [(2, 5), (3, 5), (4, 5), (2, 6), (3, 6), (4, 6), (3, 7), (4, 4)] * 6
_SYSTEM_SHAPES = [(2, 4), (3, 4), (4, 4), (2, 5), (3, 4), (4, 4)]
_LAMBDAS = [F(1, 2), F(-1, 3), F(2, 5), F(3, 7), F(-5, 4)]


def _arrangement_sweep(fixed, moves):
    jobs = []
    # Y-closure inputs in the style of criterion 08, with more planes, plus
    # an integrability check on each
    for k, (dim, count) in enumerate(_CLOSURE_SHAPES):
        planes = _random_planes(fixed, dim, count)
        arr, line = _moved(moves, dim, planes, _random_direction(fixed, planes, dim))
        jobs.append(_job("closure", ["closure", "--line=" + _line_arg(line)], arr,
                         planes=arr["hyperplanes"]))
        rank = 1 + k % 2
        residues = _commuting_residues(fixed, moves, [h["id"] for h in arr["hyperplanes"]], rank)
        jobs.append(_job("check", ["check"], _system(arr, rank, residues), ok=True))
    # integrability checks alone (flats and commutators), and the rank-1
    # eigenvalue hypotheses, without a convolution
    for k, (dim, count) in enumerate(_CHECK_SHAPES):
        planes = _random_planes(fixed, dim, count)
        arr, line = _moved(moves, dim, planes, _random_direction(fixed, planes, dim))
        rank = 1 + k % 2
        residues = _commuting_residues(fixed, moves, [h["id"] for h in arr["hyperplanes"]], rank)
        jobs.append(_job("check", ["check"], _system(arr, rank, residues), ok=True))
        if rank == 1 and k % 4 == 0:
            lam = fixed.choice(_LAMBDAS)
            jobs.append(_job("rh-check", ["rh-check", "--lambda=" + _s(lam), "--line=" + _line_arg(line)],
                             _system(arr, rank, residues),
                             offenders=_rh_expect(residues, _transverse(arr, line), lam)))
    # integrable systems of rank 1-2: check, convolve, mc and rh-check
    for k, (dim, count) in enumerate(_SYSTEM_SHAPES):
        planes = _random_planes(fixed, dim, count)
        arr, line = _moved(moves, dim, planes, _random_direction(fixed, planes, dim))
        rank = 1 + k % 2
        residues = _commuting_residues(fixed, moves, [h["id"] for h in arr["hyperplanes"]], rank)
        system = _system(arr, rank, residues)
        lam = fixed.choice(_LAMBDAS)
        along = ["--lambda=" + _s(lam), "--line=" + _line_arg(line)]
        jobs.append(_job("check", ["check"], system, ok=True))
        for cmd in ("convolve", "mc"):
            jobs.append(_job(cmd, [cmd] + along, system, planes=arr["hyperplanes"], rank=rank))
        if rank == 1:
            jobs.append(_job("rh-check", ["rh-check"] + along, system,
                             offenders=_rh_expect(residues, _transverse(arr, line), lam)))
    # braid arrangements: many planes, triple and pair families
    jobs.append(_job("closure", ["closure", "--line=1,2,0,0,0"], _braid(5),
                     planes=_braid(5)["hyperplanes"]))
    for n in (5, 6, 7):
        arr = _braid(n)
        ids = [h["id"] for h in arr["hyperplanes"]]
        jobs.append(_job("check", ["check"], _system(arr, 1, _commuting_residues(fixed, moves, ids, 1)),
                         ok=True))
    # deliberately broken copies: one rank-2 residue that does not commute
    # with the others inside a triple family, so check must exit 2
    for n in (4, 5):
        jobs.append(_job("check", ["check"], _broken_braid_system(fixed, moves, _braid(n)),
                         code=2, ok=False))
    # the worked example of the test suite, byte for byte against its golden file
    jobs.append(dict(_job("mc", ["mc", "--lambda=1/7", "--line=0,1"],
                          json.loads((ROOT / "tests/data/threelines.json").read_text())),
                     golden="tests/data/golden_mc_threelines.json"))
    return jobs


def _broken_braid_system(fixed, moves, arr):
    while True:
        base = [[F(fixed.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        bad = [[F(fixed.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        if not _commutes(base, bad):
            break
    base, bad = _flipped(moves, [base, bad])
    residues = {h["id"]: base for h in arr["hyperplanes"]}
    # family {H12, H13, H23}: [bad, bad + 2·base] = 2·[bad, base] != 0
    residues["H12"] = bad
    return _system(arr, 2, residues)


# ---------------------------------------------------------------------------
# KZ systems on braid arrangements


def _kz_residues(strands):
    dim = 2 ** strands
    out = {}
    for i in range(strands):
        for j in range(i + 1, strands):
            m = [[F(0)] * dim for _ in range(dim)]
            for col, idx in enumerate(product(range(2), repeat=strands)):
                swapped = list(idx)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                row = 0
                for t in swapped:
                    row = row * 2 + t
                m[row][col] = F(1)
            out[f"H{i + 1}{j + 1}"] = m
    return out


def _int_eigenvalues(m, lo, hi):
    d = len(m)
    return [e for e in range(lo, hi + 1)
            if _rank(_add(m, _scale(_identity(d), F(-e)))) < d]


# strands, whether the plain system runs, how many conjugates run, whether
# they share one conjugator (then only the seed's sign flips tell them apart
# and their costs match, which keeps p90 inside this group), and the steps
# run on each system
_KZ_PLAN = [
    (3, True, 1, False, ("check", "mc", "mc-l", "convolve", "convolve-l", "rh", "rh-l")),
    (3, False, 72, False, ("check",)),
    (3, False, 7, True, ("mc", "mc-l")),
    (4, True, 1, False, ("check", "mc-l", "rh")),
]


def _kz_highrank(fixed, moves):
    jobs = []
    for strands, with_plain, conjugations, shared, plan in _KZ_PLAN:
        arr = _braid(strands)
        ids = [h["id"] for h in arr["hyperplanes"]]
        dim = 2 ** strands
        axis = [0] * (strands - 1) + [1]
        tr = _transverse(arr, axis)
        base = _kz_residues(strands)
        total = base[tr[0]]
        for h in tr[1:]:
            total = _add(total, base[h])
        eig = _int_eigenvalues(total, -strands, strands)
        # plain 0/1 residues (the same for every seed), then dense rational
        # conjugates; a conjugation keeps every relation and every spectrum
        variants = [("plain", [base[h] for h in ids])] if with_plain else []
        conj = None
        for _ in range(conjugations):
            if conj is None or not shared:
                p = _conjugator(fixed, dim, 3 if strands == 3 else 2)
                conj = _conjugate([base[h] for h in ids], p)
            variants.append(("conj", _flipped(moves, conj)))
        for label, mats in variants:
            system = _system(arr, dim, dict(zip(ids, mats)))
            # at lambda = -e for an eigenvalue e of the transverse sum, L != 0;
            # rh-check trial-divides a constant term growing like den(lam)^dim,
            # so rank 16 keeps to lambda = 1/2
            lam_l = F(-fixed.choice([e for e in eig if e != 0]))
            lam_g = F(1, 2) if strands == 4 else F(fixed.choice((1, -1, 3, -3, 5)), fixed.choice((2, 3, 5, 7)))
            for step in plan:
                if label == "conj" and strands == 4 and step != "check":
                    continue  # mc takes about 12 s here, rh-check 1.5 s: too heavy
                lam = lam_l if step.endswith("-l") else lam_g
                along = ["--lambda=" + _s(lam), "--line=" + _line_arg(axis)]
                if step == "check":
                    jobs.append(_job("check", ["check"], system, ok=True))
                elif step.startswith(("mc", "convolve")):
                    cmd = step.split("-")[0]
                    jobs.append(_job(cmd, [cmd] + along, system, planes=arr["hyperplanes"], rank=dim,
                                     l_positive=step == "mc-l"))
                else:
                    hits = sorted({int(e + lam) for e in eig if (e + lam).denominator == 1 and e + lam != 0})
                    jobs.append(_job("rh-check", ["rh-check"] + along, system,
                                     offenders=[[h, m] for h in tr for m in (-1, 1)]
                                     + [["sum", m] for m in hits]))
        if strands == 3 and with_plain:
            broken = {h: m for h, m in zip(ids, variants[0][1])}
            bump = [row[:] for row in broken["H12"]]
            bump[0][1] += F(fixed.randint(1, 3), fixed.randint(1, 3))
            if _commutes(bump, _add(_add(bump, broken["H13"]), broken["H23"])):
                raise AssertionError("perturbation left the KZ system integrable")
            broken["H12"] = bump
            jobs.append(_job("check", ["check"], _system(arr, dim, broken), code=2, ok=False))
    return jobs


# ---------------------------------------------------------------------------
# matrix tuples


def _rand_int_matrix(rng, d, lo=-3, hi=3):
    return [[F(rng.randint(lo, hi)) for _ in range(d)] for _ in range(d)]


def _irreducible_tuple(rng, n, d):
    """Diagonal matrix with distinct eigenvalues plus one matrix whose
    off-diagonal entries are all nonzero, conjugated: the only subspaces the
    first preserves are coordinate ones and the second breaks all of them.
    For d >= 2 irreducibility implies both genericity conditions."""
    eigs = rng.sample(range(-6, 7), d)
    diag = [[F(eigs[i]) if i == j else F(0) for j in range(d)] for i in range(d)]
    full = [[F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)) if i != j else F(rng.randint(-2, 2))
             for j in range(d)] for i in range(d)]
    mats = [diag, full] + [_rand_int_matrix(rng, d) for _ in range(n - 2)]
    rng.shuffle(mats)
    return _conjugate(mats, _conjugator(rng, d, 2))


def _reducible_tuple(rng, n, d):
    """Block upper triangular: the first d/2 coordinates span an invariant
    subspace.  The diagonal is shifted by 6 to keep the generators away from
    singular, so the genericity search ends early and the work stays in the
    Burnside span."""
    k = d // 2
    mats = []
    for _ in range(n):
        m = _rand_int_matrix(rng, d, -2, 2)
        for i in range(d):
            m[i][i] += 6
            for j in range(k):
                if i >= k:
                    m[i][j] = F(0)
        mats.append(m)
    return _conjugate(mats, _conjugator(rng, d, 2))


def _nongeneric_tuple(rng, n, d):
    """A common eigenvector e_1, killed by every generator but one (which
    scales it by c): the kernel condition fails for that generator at c."""
    c = F(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2, 3)))
    target = rng.randrange(n)
    mats = []
    for i in range(n):
        m = _rand_int_matrix(rng, d)
        for r in range(d):
            m[r][0] = F(0)
        if i == target:
            m[0][0] = c
        mats.append(m)
    return mats, target, c


def _tuple_job(moves, kind, argv, mats, **expect):
    return _job(kind, argv, {"matrices": [_mat_json(m) for m in _flipped(moves, mats)]}, **expect)


_IRREDUCIBLE_SHAPES = [(2, 4), (3, 3), (2, 5), (4, 2), (3, 4), (2, 6), (3, 5), (2, 3), (2, 8)] + [
    (2, 2), (3, 2), (2, 3), (4, 2)] * 11
_REDUCIBLE_SHAPES = [(2, 3), (3, 4), (2, 5), (3, 2), (2, 6), (4, 3), (2, 7)]
_NONGENERIC_SHAPES = [(2, 3), (3, 3), (2, 4), (3, 2), (4, 2), (2, 2)] * 2
_COMPOSE_SHAPES = [(2, 2), (3, 2)]
_SHARED_COMPOSE = (3, 3, 12)  # n, d, copies
_PARAMS = [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(1, 5), F(2, 3)]


def _tuple_certify(fixed, moves):
    jobs = []
    for n, d in _IRREDUCIBLE_SHAPES:
        jobs.append(_tuple_job(moves, "analyze", ["analyze"], _irreducible_tuple(fixed, n, d),
                               irreducible=True, generic=True))
    for n, d in _REDUCIBLE_SHAPES:
        jobs.append(_tuple_job(moves, "analyze", ["analyze"], _reducible_tuple(fixed, n, d),
                               irreducible=False))
    for n, d in _NONGENERIC_SHAPES:
        mats, target, c = _nongeneric_tuple(fixed, n, d)
        jobs.append(_tuple_job(moves, "analyze", ["analyze"], mats,
                               irreducible=False, star_fails=target, star_root=_s(c)))
    # 10-12 digit entries: trial division in rational_roots runs to sqrt(N)
    for digits in (10, 11, 12, 10, 11, 12):
        big = fixed.randrange(10 ** (digits - 1), 10 ** digits) + moves.randrange(1000)
        jobs.append(_job("analyze", ["analyze"], {"matrices": [[[str(big)]]]},
                         irreducible=True, star_fails=0, star_root=str(big)))
    for _ in range(3):
        big = fixed.randrange(10 ** 9, 10 ** 10) + moves.randrange(1000)
        small = fixed.randint(2, 9)
        jobs.append(_job("analyze", ["analyze"], {"matrices": [[[str(big), "0"], ["1", str(small)]]]},
                         irreducible=False, star_fails=0, star_root=str(small)))
    # composition law on irreducible generic tuples, lambda + mu != 0 and = 0
    for n, d in _COMPOSE_SHAPES:
        mats = _irreducible_tuple(fixed, n, d)
        lam, mu = fixed.sample(_PARAMS, 2)
        if lam + mu == 0:
            mu = -mu / 2
        jobs.append(_tuple_job(moves, "compose-check",
                               ["compose-check", "--lambda=" + _s(lam), "--mu=" + _s(mu)], mats,
                               isomorphic=True))
        jobs.append(_tuple_job(moves, "compose-check",
                               ["compose-check", "--lambda=" + _s(-lam), "--mu=" + _s(lam)], mats,
                               isomorphic=True, identity=True))
    # copies of one tuple that differ only by the seed's sign flips: equal
    # costs, so p90 lands inside this group rather than on a gap between jobs
    n, d, copies = _SHARED_COMPOSE
    mats = _irreducible_tuple(fixed, n, d)
    for _ in range(copies):
        jobs.append(_tuple_job(moves, "compose-check", ["compose-check", "--lambda=1/2", "--mu=1/3"],
                               mats, isomorphic=True))
    for n, degree in [(3, 5), (3, 6), (4, 5)]:
        jobs.append(_job("freelie", ["freelie", "verify", "--n", str(n), "--degree", str(degree)],
                         None, ok=True))
    return jobs


_BUILDERS = {
    "arrangement-sweep": _arrangement_sweep,
    "kz-highrank": _kz_highrank,
    "tuple-certify": _tuple_certify,
}


def build(workload: str, seed: int) -> list:
    """The workload's fixed job list for this seed, in run order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    fixed = random.Random(f"{workload}:templates")
    moves = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](fixed, moves)
