import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from mcvlie import convolution
from mcvlie.analysis import composition_harness
from mcvlie.arrangement import (
    Arrangement,
    Line,
    canonicalize,
    codim2_flats,
    split_parallel,
    y_closure,
)
from mcvlie.cli import main
from mcvlie.convolution import (
    ConvolvedSystem,
    dr_convolution,
    dr_k_l,
    dr_middle_convolution,
    haraoka_convolution,
    haraoka_middle_convolution,
    induce_on_quotients,
    phi_compose,
    phi_zero,
)
from mcvlie.errors import InternalInvariantError, PreconditionError
from mcvlie.exactcore import (
    ExactMatrix,
    InvarianceError,
    Subspace,
    kernel,
    quotient_all,
    subspace_sum,
)
from mcvlie.holonomy import PfaffianSystem, check_integrability, residue_sum, zero_extend

from iso_oracle import are_isomorphic
from linalg_oracle import column_matrix, inverse, solve_right

F = Fraction


def scalars(*values):
    return [ExactMatrix([[F(v) if not isinstance(v, F) else v]]) for v in values]


def times(m, v):
    """m·v as the product with a one-column matrix."""
    return (m * column_matrix([v], m.cols)).col(0)


def rand_matrix(rng, d):
    return ExactMatrix([[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)] for _ in range(d)])


THREE_LINES = Arrangement(
    2,
    [
        canonicalize("H1", (1, 0), 0),   # x = 0
        canonicalize("H2", (0, 1), 0),   # y = 0
        canonicalize("H3", (1, -1), 0),  # x - y = 0
    ],
)


def three_line_system(alpha, beta, gamma):
    return PfaffianSystem(
        THREE_LINES,
        1,
        {
            "H1": ExactMatrix([[gamma]]),
            "H2": ExactMatrix([[alpha]]),
            "H3": ExactMatrix([[beta]]),
        },
    )


# -- one-variable convolution ---------------------------------------------------


def test_dr_convolution_block_shape_n2():
    a1, a2 = rand_matrix(random.Random(0), 2), rand_matrix(random.Random(1), 2)
    lam = F(1, 2)
    c1, c2 = dr_convolution([a1, a2], lam)
    z = ExactMatrix.zeros(2, 2)
    assert c1 == ExactMatrix.block([[a1.add_scaled_identity(lam), a2], [z, z]])
    assert c2 == ExactMatrix.block([[z, z], [a1, a2.add_scaled_identity(lam)]])


def test_dr_convolution_matches_the_block_grid():
    rng = random.Random(12)
    for _ in range(20):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        lam = F(rng.randint(-2, 2), rng.randint(1, 3))
        z = ExactMatrix.zeros(d, d)
        for i, c in enumerate(dr_convolution(mats, lam)):
            row = [m.add_scaled_identity(lam) if j == i else m for j, m in enumerate(mats)]
            assert c == ExactMatrix.block([row if r == i else [z] * n for r in range(n)])


def test_dr_convolution_trivial_n1():
    (c,) = dr_convolution(scalars(5), 0)
    assert c == ExactMatrix([[5]])


def test_dr_convolution_scalar_example():
    c1, c2 = dr_convolution(scalars(2, 3), 1)
    assert c1 == ExactMatrix([[3, 3], [0, 0]])
    assert c2 == ExactMatrix([[0, 0], [2, 4]])


def test_dr_formula_shadow_blockwise():
    rng = random.Random(2)
    for _ in range(10):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        lam = F(rng.randint(-2, 2), rng.randint(1, 3))
        conv = dr_convolution(mats, lam)
        for i in range(n):
            for j in range(n):
                v = [F(rng.randint(-2, 2)) for _ in range(d)]
                vec = [F(0)] * (n * d)
                vec[j * d : (j + 1) * d] = v
                out = times(conv[i], vec)
                expect = times(mats[j].add_scaled_identity(lam if i == j else 0), v)
                for r in range(n * d):
                    blk, off = divmod(r, d)
                    assert out[r] == (expect[off] if blk == i else 0)


def test_dimension_law_random():
    rng = random.Random(3)
    for _ in range(20):
        n, d = rng.randint(1, 5), rng.randint(1, 4)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        conv = dr_convolution(mats, F(rng.randint(-2, 2)))
        assert len(conv) == n
        assert all(c.rows == c.cols == n * d for c in conv)


def test_exactness_shadow_direct_sums():
    rng = random.Random(4)
    for _ in range(8):
        n = rng.randint(1, 3)
        da, db = rng.randint(1, 2), rng.randint(1, 2)
        amats = [rand_matrix(rng, da) for _ in range(n)]
        bmats = [rand_matrix(rng, db) for _ in range(n)]
        lam = F(rng.randint(-2, 2), rng.randint(1, 2))
        summed = [
            ExactMatrix.block(
                [[a, ExactMatrix.zeros(da, db)], [ExactMatrix.zeros(db, da), b]]
            )
            for a, b in zip(amats, bmats)
        ]
        big = dr_convolution(summed, lam)
        ca = dr_convolution(amats, lam)
        cb = dr_convolution(bmats, lam)
        # permutation regrouping (block i, a/b part) -> a-blocks then b-blocks
        size = n * (da + db)
        perm = [list(row) for row in ExactMatrix.zeros(size, size).data]
        for i in range(n):
            for p in range(da + db):
                src = i * (da + db) + p
                dst = i * da + p if p < da else n * da + i * db + (p - da)
                perm[dst][src] = F(1)
        perm = ExactMatrix(perm)
        z_ab = ExactMatrix.zeros(n * da, n * db)
        z_ba = ExactMatrix.zeros(n * db, n * da)
        for i in range(n):
            direct = ExactMatrix.block([[ca[i], z_ab], [z_ba, cb[i]]])
            assert perm * big[i] == direct * perm


# -- k and l ---------------------------------------------------------------------


def test_k_l_scalar_generic():
    k, l = dr_k_l(scalars(2, 3), F(1, 7))
    assert k.dim == 0 and l.dim == 0


def test_k_l_all_zero_lam_zero():
    k, l = dr_k_l(scalars(0, 0), 0)
    assert k.dim == 2 and l.dim == 2


def test_k_trivial_for_invertible_inputs():
    rng = random.Random(5)
    mats = []
    while len(mats) < 3:
        m = rand_matrix(rng, 2)
        if m.is_invertible():
            mats.append(m)
    k, _ = dr_k_l(mats, F(1, 3))
    assert k.dim == 0


def _sum_with_eigenvalue(rng, n, d, lam):
    """n matrices whose sum has -lam as an eigenvalue of geometric
    multiplicity at least one (two when d >= 2, half of the time)."""
    mats = [rand_matrix(rng, d) for _ in range(n - 1)]
    target = [list(row) for row in rand_matrix(rng, d).data]
    planted = 2 if d >= 2 and rng.random() < 0.5 else 1
    for r in range(d):
        for c in range(d):
            if c < planted or r > c:
                target[r][c] = -lam if r == c else F(0)
    p = rand_matrix(rng, d)
    while not p.is_invertible():
        p = rand_matrix(rng, d)
    rest = p * ExactMatrix(target) * inverse(p)
    for m in mats:
        rest = rest - m
    return mats + [rest]


def test_l_closed_form_matches_joint_kernel():
    rng = random.Random(43)
    lams = [F(1), F(-2), F(1, 2), F(-1, 3), F(5, 7)]
    nontrivial = 0
    for t in range(120):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        lam = rng.choice(lams)
        if t % 2:
            mats = _sum_with_eigenvalue(rng, n, d, lam)
        else:
            mats = [rand_matrix(rng, d) for _ in range(n)]
        _, l = dr_k_l(mats, lam)
        assert l == kernel(ExactMatrix.vstack(dr_convolution(mats, lam)))
        nontrivial += l.dim > 0
    assert nontrivial >= 60


def _rank_deficient(rng, d):
    """A d x d product of random d x r and r x d factors, r < d when d > 0."""
    r = rng.randint(0, max(d - 1, 0))
    return rand_rect(rng, d, r) * rand_rect(rng, r, d)


def test_k_l_closed_forms_are_canonical():
    # K and L are assembled from canonical kernel bases without a second
    # elimination; eliminating their bases again changes neither basis nor
    # pivots
    rng = random.Random(2525)
    lams = [F(0), F(1, 2), F(-1, 3), F(2)]
    seen = {"k": 0, "l": 0}
    for t in range(240):
        n, d, lam = rng.randint(1, 4), rng.randint(0, 4), lams[t % 4]
        if lam and d and t % 8 > 3:
            mats = _sum_with_eigenvalue(rng, n, d, lam)
        else:
            mats = [_rank_deficient(rng, d) for _ in range(n)]
        for name, s in zip("kl", dr_k_l(mats, lam)):
            ref = Subspace(n * d, basis=s.basis)
            assert (s.ambient_dim, s.basis, s.pivots) == (ref.ambient_dim, ref.basis, ref.pivots)
            seen[name] += 0 < s.dim < n * d
    assert min(seen.values()) >= 40, seen


def test_one_convolution_per_middle_convolution(monkeypatch):
    # the lam = 0 cross-check and the comparison maps read the convolutions
    # the middle convolutions hold
    levels = []
    real = convolution.dr_convolution

    def counting(mats, lam):
        levels.append(lam)
        return real(mats, lam)

    monkeypatch.setattr(convolution, "dr_convolution", counting)
    assert dr_middle_convolution(scalars(2, 3), 0).dim == 1
    assert levels == [0]
    levels.clear()
    report = composition_harness(scalars(2, 3), F(1, 2), F(-1, 2))
    assert report.identity_iso.verdict == "isomorphic"
    assert levels == [F(-1, 2), F(1, 2), 0]


# -- middle convolution -----------------------------------------------------------


def test_mc_rank_one_generic_dims():
    mid = dr_middle_convolution(scalars(F(2), F(3)), F(1, 2))
    assert mid.dim == 2
    assert mid.direct_sum
    assert len(mid.matrices) == 2
    assert all(m.rows == 2 for m in mid.matrices.values())


def test_mc_lambda_zero_recovers_input():
    mats = scalars(2, 3)
    mid = dr_middle_convolution(mats, 0)
    assert mid.dim == 1
    phi = phi_zero(mid.conv)
    induced = induce_on_quotients(phi, mid.projection, mid.section)
    assert induced.is_invertible()
    # the induced map intertwines the quotient matrices with the originals
    for mbar, a in zip(mid.matrices.values(), mats):
        assert induced * mbar == a * induced


def induce_by_kernel_loop(phi, src_proj, dst_proj):
    """Reference: descent checked on every kernel vector of src_proj before
    the defining identity, as induced maps were checked before the identity
    alone decided it, with a right inverse of src_proj found by
    elimination."""
    ker = kernel(src_proj)
    for j in range(ker.dim):
        v = ker.basis.col(j)
        if any(x != 0 for x in times(dst_proj, times(phi, v))):
            raise InternalInvariantError("map does not descend to the quotients")
    out = dst_proj * phi * solve_right(src_proj, ExactMatrix.identity(src_proj.rows))
    if out * src_proj != dst_proj * phi:
        raise InternalInvariantError("induced map failed its defining identity")
    return out


def rand_rect(rng, r, c):
    return ExactMatrix(
        [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(c)] for _ in range(r)],
        shape=(r, c),
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InternalInvariantError as exc:
        return str(exc)


def _rand_subspace(rng, ambient):
    return Subspace(ambient, basis=rand_rect(rng, ambient, rng.randint(0, ambient)))


def test_induce_on_quotients_matches_the_kernel_loop():
    # canonical quotients of seeded random subspaces, as every projection
    # the harness reads comes from `quotient_all`
    rng = random.Random(2468)
    compared = raised = 0
    for t in range(1200):
        m, p = rng.randint(1, 4), rng.randint(1, 4)
        src_proj, section, _ = quotient_all([], _rand_subspace(rng, m))
        dst = _rand_subspace(rng, p)
        dst_proj, _, _ = quotient_all([], dst)
        phi = rand_rect(rng, p, m)
        if t % 2:
            # phi = X src_proj + (a map into ker dst_proj) descends
            phi = rand_rect(rng, p, src_proj.rows) * src_proj
            if dst.dim:
                phi = phi + dst.basis * rand_rect(rng, dst.dim, m)
        want = _outcome(induce_by_kernel_loop, phi, src_proj, dst_proj)
        assert _outcome(induce_on_quotients, dst_proj * phi, src_proj, section) == want
        compared += 1
        raised += isinstance(want, str)
    assert compared > 1000 and raised > 200


def test_mc_everything_killed():
    mid = dr_middle_convolution(scalars(0, 0), F(1, 2))
    assert mid.k_space.dim == 2
    assert mid.dim == 0


def test_phi_zero_examples():
    assert phi_zero(dr_middle_convolution(scalars(0, 0), 0).conv) == ExactMatrix.zeros(1, 2)
    assert phi_zero(dr_middle_convolution(scalars(2, 3), 0).conv) == ExactMatrix([[2, 3]])


def test_phi_zero_intertwines():
    rng = random.Random(7)
    for _ in range(10):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        conv = dr_middle_convolution(mats, 0).conv
        phi = phi_zero(conv)
        for i, h in enumerate(conv.order):
            assert phi * conv.matrices[h] == mats[i] * phi
        # kernel of phi is the joint kernel at 0, image kills nothing extra
        _, l = dr_k_l(mats, 0)
        assert kernel(phi) == l


def test_phi_compose_intertwines():
    rng = random.Random(8)
    for _ in range(8):
        n, d = rng.randint(1, 3), rng.randint(1, 2)
        mats = [rand_matrix(rng, d) for _ in range(n)]
        lam, mu = F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 3)
        inner = dr_convolution(mats, mu)
        outer = dr_convolution(inner, lam)
        target = dr_convolution(mats, lam + mu)
        phi = phi_compose(dr_middle_convolution(mats, mu).conv)
        assert phi.rows == n * d and phi.cols == n * n * d
        for kidx in range(n):
            assert phi * outer[kidx] == target[kidx] * phi


def test_phi_compose_level_is_forced():
    # the (lam+mu)-level block map does not intertwine; the mu-level one does
    mats = scalars(2, 3)
    lam, mu = F(1, 2), F(1, 3)
    outer = dr_convolution(dr_convolution(mats, mu), lam)
    target = dr_convolution(mats, lam + mu)
    wrong = ExactMatrix.hstack(dr_convolution(mats, lam + mu))
    assert any(wrong * outer[k] != target[k] * wrong for k in range(2))


# -- convolution along a line -----------------------------------------------------


def _points(mats):
    """The tuple as the system on the points x = 0, ..., n - 1 of Q^1,
    with ids "1"..."n"."""
    arr = Arrangement(1, [canonicalize(str(k + 1), (1,), -k) for k in range(len(mats))])
    return PfaffianSystem(arr, mats[0].rows, dict(zip(arr.ids(), mats)))


def test_haraoka_matches_dr_in_one_variable():
    # points on a line: l = 1, every hyperplane transverse, closure = input;
    # a line has no codimension-2 flats, so any residues are integrable, and
    # both the convolutions and the middle convolutions must agree
    rng = random.Random(9)
    noncommuting = 0
    for _ in range(8):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        residues = [rand_matrix(rng, d) for _ in range(n)]
        noncommuting += any(a * b != b * a for a in residues for b in residues)
        system = _points(residues)
        arr = system.arrangement
        lam = F(rng.randint(-2, 2), rng.randint(1, 3))
        conv = haraoka_convolution(system, Line.of((1,)), lam)
        assert conv.closure == arr
        assert conv.order == arr.ids()
        drc = dr_convolution(residues, lam)
        for i, h in enumerate(arr):
            assert conv.matrices[h.id] == drc[i]
        mid_dr = dr_middle_convolution(residues, lam)
        assert conv.closure == mid_dr.conv.closure
        assert conv.order == mid_dr.conv.order
        assert list(conv.matrices.items()) == list(mid_dr.conv.matrices.items())
        mid = haraoka_middle_convolution(system, Line.of((1,)), lam)
        assert (mid.dim, mid.k_space.dim, mid.l_space.dim) == (
            mid_dr.dim, mid_dr.k_space.dim, mid_dr.l_space.dim
        )
        assert mid.projection == mid_dr.projection
        assert list(mid.matrices.items()) == list(mid_dr.matrices.items())
        assert mid.to_json() == mid_dr.to_json()
    assert noncommuting >= 4


def _listed_middle(mats, lam):
    """Reference: the quotient of the tuple convolution by K + L, computed on
    the list of convolved generators and labelled by 1-based position."""
    conv = dr_convolution(mats, lam)
    k, l = dr_k_l(mats, lam)
    for i, m in enumerate(conv, 1):
        k.restrict(m, "kernel-block space K", i)
        l.restrict(m, "joint kernel L", i)
    w = subspace_sum(k, l)
    proj, section, induced = quotient_all(conv, w)
    return len(section), k.dim, l.dim, k.dim + l.dim == w.dim, proj, induced


def test_tuple_middle_convolution_is_the_listed_quotient():
    rng = random.Random(2424)
    lams = [F(0), F(0), F(1, 2), F(-1, 3), F(2), F(-2, 5)]
    proper = 0
    for t in range(80):
        n, d = 1 + t % 4, rng.randint(0, 3)
        if rng.random() < 0.3:  # diagonal entries: kernels and sums that are singular
            mats = [ExactMatrix([[rng.choice((-1, 0, 0, 1)) if i == j else 0 for j in range(d)]
                                 for i in range(d)], shape=(d, d)) for _ in range(n)]
        else:
            mats = [ExactMatrix([[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]
                                 for _ in range(d)], shape=(d, d)) for _ in range(n)]
        lam = rng.choice(lams)
        mid = dr_middle_convolution(mats, lam)
        qdim, k_dim, l_dim, direct, proj, induced = _listed_middle(mats, lam)
        assert (mid.dim, mid.k_space.dim, mid.l_space.dim) == (qdim, k_dim, l_dim)
        assert mid.direct_sum == direct
        assert mid.projection == proj
        assert list(mid.matrices) == [str(i) for i in range(1, n + 1)]
        assert list(mid.matrices.values()) == induced
        proper += 0 < mid.dim < n * d
    assert proper >= 20


def test_tuple_path_enters_no_arrangement_or_holonomy_code(monkeypatch):
    # a tuple is a system on points of Q^1, where the flat search, the
    # Y-closure and the integrability certificate have nothing to do: the
    # tuple commands must not run them, wherever they are imported
    import mcvlie
    from mcvlie import analysis, arrangement, cli, convolution, holonomy
    from mcvlie.analysis import composition_harness

    def refuse(*args, **kwargs):
        raise AssertionError("the tuple path entered arrangement or holonomy code")

    names = ("y_closure", "codim2_flats", "check_integrability", "zero_extend")
    patched = 0
    for module in (mcvlie, analysis, arrangement, cli, convolution, holonomy):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
                patched += 1
    monkeypatch.setattr(arrangement.Hyperplane, "contains_flat", refuse)
    assert patched >= 9
    rng = random.Random(31)
    for n, d in ((1, 2), (2, 1), (3, 2), (4, 1)):
        mats = [rand_matrix(rng, d) for _ in range(n)]
        assert dr_middle_convolution(mats, F(1, 2)).dim >= 0
    mats = [ExactMatrix([[F(a, 2), 1], [0, F(b, 3)]]) for a, b in ((1, 1), (3, 2), (1, 4))]
    report = composition_harness(mats, F(1, 2), F(-1, 2))
    assert report.applicable and report.identity_iso is not None
    assert composition_harness(mats, F(1, 2), F(1, 3)).applicable


def test_non_invariant_k_names_its_generator_once(monkeypatch):
    mats = scalars(F(1, 2), F(1, 3))
    _, l_space = dr_k_l(mats, F(1, 5))
    fake_k = Subspace(2, basis=column_matrix([[0, 1]], 2))  # C_1·e2 = (1/3, 0) leaves it
    monkeypatch.setattr("mcvlie.convolution.dr_k_l", lambda mats, lam: (fake_k, l_space))
    with pytest.raises(InvarianceError) as err:
        dr_middle_convolution(mats, F(1, 5))
    assert err.value.generator == "1"
    assert str(err.value) == (
        "kernel-block space K is not invariant; generator 1; "
        "witness v = (0, 1); A·v = (1/3, 0)"
    )


def _first_restrict_failure(k, l, generators):
    """The error of the per-generator check, K then L under each generator
    in id order, or None."""
    try:
        for h, m in generators.items():
            k.restrict(m, "kernel-block space K", h)
            l.restrict(m, "joint kernel L", h)
    except InvarianceError as exc:
        return exc
    return None


@pytest.mark.parametrize("k_basis, l_basis, expected", [
    # K fails only under the later generator: C_1·e1 = (7/10, 0) stays in it
    ([[1, 0]], [], "kernel-block space K is not invariant; generator 2; "
                   "witness v = (1, 0); A·v = (0, 1/2)"),
    # L fails under the first generator
    ([], [[0, 1]], "joint kernel L is not invariant; generator 1; "
                   "witness v = (0, 1); A·v = (1/3, 0)"),
    # K fails under generator 2, L already under generator 1
    ([[1, 0]], [[0, 1]], "joint kernel L is not invariant; generator 1; "
                         "witness v = (0, 1); A·v = (1/3, 0)"),
])
def test_batched_invariance_reports_the_per_generator_failure(monkeypatch, k_basis, l_basis,
                                                               expected):
    """The one-product check of K and L falls back to per-generator
    `restrict`, so the first failure in id order is reported, with its
    message, generator and witness."""
    mats = scalars(F(1, 2), F(1, 3))
    k, l = (Subspace(2, basis=column_matrix(b, 2)) for b in (k_basis, l_basis))
    monkeypatch.setattr("mcvlie.convolution.dr_k_l", lambda mats, lam: (k, l))
    with pytest.raises(InvarianceError) as err:
        dr_middle_convolution(mats, F(1, 5))
    want = _first_restrict_failure(k, l, dict(zip("12", dr_convolution(mats, F(1, 5)))))
    assert str(err.value) == str(want) == expected
    assert err.value.generator == want.generator
    assert err.value.witness_vector == want.witness_vector
    assert err.value.image == want.image


def test_invariant_under_agrees_with_restrict():
    """Block upper triangular matrices over mixed denominators leave the
    first coordinates invariant, in a random basis of them; one entry below
    the diagonal blocks breaks it under that generator only."""
    rng = random.Random(35)
    for t in range(40):
        d, n = rng.randint(2, 5), rng.randint(1, 4)
        r = rng.randint(1, d - 1)
        mats = []
        for _ in range(n):
            rows = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3, 5, 7))) for _ in range(d)]
                    for _ in range(d)]
            for i in range(r, d):
                rows[i][:r] = [F(0)] * r
            mats.append(ExactMatrix(rows))
        coeffs = [[rng.randint(-2, 2) for _ in range(r)] + [0] * (d - r) for _ in range(r)]
        s = Subspace(d, basis=column_matrix(coeffs, d))
        if s.dim < r:
            continue
        assert s.invariant_under(mats)
        bad = rng.randrange(n)
        rows = [list(row) for row in mats[bad].data]
        rows[rng.randrange(r, d)][rng.randrange(r)] = F(1, rng.choice((1, 2, 3)))
        mats[bad] = ExactMatrix(rows)
        assert not s.invariant_under(mats)
        failing = []
        for i, m in enumerate(mats):
            try:
                s.restrict(m, "S", i)
            except InvarianceError:
                failing.append(i)
        assert failing == [bad]


def test_three_line_worked_example():
    alpha, beta, gamma, lam = F(1, 2), F(1, 3), F(1, 5), F(1, 7)
    system = three_line_system(alpha, beta, gamma)
    conv = haraoka_convolution(system, Line.of((0, 1)), lam)
    assert conv.order == ["H2", "H3"]
    assert conv.closure == THREE_LINES
    assert conv.matrices["H2"] == ExactMatrix([[alpha + lam, beta], [0, 0]])
    assert conv.matrices["H3"] == ExactMatrix([[0, 0], [alpha, beta + lam]])
    assert conv.matrices["H1"] == ExactMatrix(
        [[gamma + beta, -beta], [-alpha, gamma + alpha]]
    )
    total = residue_sum(conv.system(), conv.closure.ids())
    s = alpha + beta + gamma + lam
    assert total == ExactMatrix([[s, 0], [0, s]])


def test_three_line_semidirect_action_blocks():
    # the parallel-hyperplane matrix acts per column through the family of
    # the flat cut by that column's transverse hyperplane
    alpha, beta, gamma, lam = F(1, 2), F(1, 3), F(1, 5), F(1, 7)
    system = three_line_system(alpha, beta, gamma)
    conv = haraoka_convolution(system, Line.of((0, 1)), lam)
    m = conv.matrices["H1"]
    # column of H2: diagonal gamma + beta, drain -alpha onto H3's row
    assert (m[(0, 0)], m[(1, 0)]) == (gamma + beta, -alpha)
    # column of H3: diagonal gamma + alpha, drain -beta onto H2's row
    assert (m[(1, 1)], m[(0, 1)]) == (gamma + alpha, -beta)


def test_three_line_middle_convolution_generic():
    alpha, beta, gamma, lam = F(1, 2), F(1, 3), F(1, 5), F(1, 7)
    system = three_line_system(alpha, beta, gamma)
    mid = haraoka_middle_convolution(system, Line.of((0, 1)), lam)
    assert mid.k_space.dim == 0 and mid.l_space.dim == 0
    assert mid.dim == 2
    assert mid.matrices["H2"] == mid.conv.matrices["H2"]


def test_three_line_mc_at_zero_recovers_system():
    # at parameter 0 the middle convolution is isomorphic to the
    # zero-extension of the input over the closure (here the input itself)
    alpha, beta, gamma = F(1, 2), F(1, 3), F(1, 5)
    system = three_line_system(alpha, beta, gamma)
    mid = haraoka_middle_convolution(system, Line.of((0, 1)), 0)
    assert mid.dim == 1
    ids = mid.conv.closure.ids()
    res = are_isomorphic(
        [mid.matrices[h] for h in ids], [system.residue(h) for h in ids]
    )
    assert res.verdict == "isomorphic"


def test_haraoka_middle_invariance_never_fires_on_integrable_inputs():
    rng = random.Random(14)
    done = 0
    while done < 8:
        dim = 2
        planes, seen = [], set()
        for k in range(rng.randint(2, 4)):
            normal = tuple(F(rng.randint(-1, 1)) for _ in range(dim))
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
        base = rand_matrix(rng, 2)
        system = PfaffianSystem(
            arr,
            2,
            {
                h.id: base.scale(F(rng.randint(-1, 1))).add_scaled_identity(
                    F(rng.randint(-1, 1))
                )
                for h in arr
            },
        )
        line = Line.of((0, 1))
        from mcvlie.arrangement import split_parallel

        if not split_parallel(arr, line)[1].hyperplanes:
            continue
        # must not raise an invariance error, and the quotient accounts
        # for exactly the span of K and L
        mid = haraoka_middle_convolution(system, line, F(rng.randint(-2, 2), 2))
        assert mid.dim == mid.conv.dim - subspace_sum(mid.k_space, mid.l_space).dim
        done += 1


def test_three_line_alpha_zero_kernel_block():
    system = three_line_system(F(0), F(1, 3), F(1, 5))
    mid = haraoka_middle_convolution(system, Line.of((0, 1)), F(1, 7))
    assert mid.k_space.dim == 1
    # the kernel block sits in the coordinates of the transverse plane y = 0
    assert mid.k_space.contains([1, 0])
    assert mid.dim == 1


def test_haraoka_parallel_hyperplane_with_several_flats():
    # x = 0 meets y = 0 and y = 1 in two different codim-2 flats, so its
    # matrix acts per column: each column only sees its own flat's family.
    arr = Arrangement(
        2,
        [
            canonicalize("X", (1, 0), 0),
            canonicalize("Y0", (0, 1), 0),
            canonicalize("Y1", (0, 1), -1),
        ],
    )
    gam = F(2, 3)
    e12 = ExactMatrix([[0, 1], [0, 0]])
    e21 = ExactMatrix([[0, 0], [1, 0]])
    scalar = ExactMatrix.identity(2).scale(gam)
    # the only integrability constraints here are [X, Y0] = [X, Y1] = 0,
    # so a central residue on X allows non-commuting Y0, Y1
    system = PfaffianSystem(arr, 2, {"X": scalar, "Y0": e12, "Y1": e21})
    lam = F(1, 2)
    conv = haraoka_convolution(system, Line.of((0, 1)), lam)
    assert conv.order == ["Y0", "Y1"]
    assert conv.closure == arr
    z = ExactMatrix.zeros(2, 2)
    assert conv.matrices["X"] == ExactMatrix.block([[scalar, z], [z, scalar]])
    assert conv.matrices["Y0"] == ExactMatrix.block(
        [[e12.add_scaled_identity(lam), e21], [z, z]]
    )
    mid = haraoka_middle_convolution(system, Line.of((0, 1)), lam)
    assert mid.dim == 4 - mid.k_space.dim - mid.l_space.dim


def test_haraoka_zero_residues_zero_output():
    system = PfaffianSystem(
        THREE_LINES, 1, {h: ExactMatrix.zeros(1, 1) for h in THREE_LINES.ids()}
    )
    conv = haraoka_convolution(system, Line.of((0, 1)), 0)
    assert all(m.is_zero() for m in conv.matrices.values())


def test_haraoka_rejects_non_integrable_input():
    from mcvlie.arrangement import braid_arrangement

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
    with pytest.raises(PreconditionError, match="^input system is not integrable$"):
        haraoka_convolution(bad, Line.of((0, 0, 1)), F(1, 2))


def test_haraoka_checks_integrability_twice(monkeypatch):
    import mcvlie.convolution
    import mcvlie.holonomy

    seen = []
    original = mcvlie.holonomy.check_integrability

    def counting(system):
        seen.append(system.arrangement)
        return original(system)

    for module in (mcvlie.convolution, mcvlie.holonomy):
        monkeypatch.setattr(module, "check_integrability", counting)
    two_axes = Arrangement(2, [canonicalize("H1", (1, 0), 0), canonicalize("H2", (0, 1), 0)])
    system = PfaffianSystem(two_axes, 1, {"H1": ExactMatrix([[F(1, 3)]]), "H2": ExactMatrix([[F(2, 5)]])})
    conv = haraoka_convolution(system, Line.of((1, 1)), F(1, 2))
    assert len(conv.closure) == 3
    assert seen == [two_axes, conv.closure]


def test_haraoka_rejects_all_parallel():
    arr = Arrangement(2, [canonicalize("H", (1, 0), 0)])
    system = PfaffianSystem(arr, 1, {"H": ExactMatrix([[1]])})
    with pytest.raises(PreconditionError):
        haraoka_convolution(system, Line.of((0, 1)), F(1, 2))


def test_haraoka_integrability_preserved_random():
    rng = random.Random(12)
    done = 0
    while done < 10:
        dim = rng.randint(2, 3)
        planes = []
        seen = set()
        for k in range(rng.randint(2, 4)):
            normal = tuple(F(rng.randint(-1, 1)) for _ in range(dim))
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
        base = rand_matrix(rng, 2)
        residues = {
            h.id: base.scale(F(rng.randint(-1, 1))).add_scaled_identity(
                F(rng.randint(-1, 1))
            )
            for h in arr
        }
        system = PfaffianSystem(arr, 2, residues)
        d = [F(rng.randint(-1, 1)) for _ in range(dim)]
        if all(x == 0 for x in d):
            d[0] = F(1)
        line = Line.of(d)
        from mcvlie.arrangement import split_parallel

        if len(split_parallel(arr, line)[1]) == 0:
            continue
        conv = haraoka_convolution(system, line, F(1, 2))
        # the constructor already asserts integrability; re-check explicitly
        assert not check_integrability(conv.system())
        done += 1


# -- Haraoka convolution against the zero-extension construction -----------------


def extended_convolution(system, line, lam):
    """The reference construction: zero-extend the system to the Y-closure,
    then find the flat of each (parallel, transverse) pair by a search."""
    lam = F(lam)
    closure = y_closure(system.arrangement, line)
    parallel, transverse = split_parallel(closure, line)
    order = transverse.ids()
    ext = zero_extend(system, closure)
    zero = ExactMatrix.zeros(system.rank, system.rank)
    pos = {hid: i for i, hid in enumerate(order)}
    matrices = dict(zip(order, dr_convolution([ext.residue(h) for h in order], lam)))
    flats = codim2_flats(closure)
    for h in parallel:
        grid = [[zero] * len(order) for _ in order]
        for j, tid in enumerate(order):
            family = next(f for f in flats if h.id in f and tid in f)
            diag = ext.residue(h.id)
            for m in family:
                if m in pos and m != tid:
                    diag = diag + ext.residue(m)
                    grid[pos[m]][j] = -ext.residue(tid)
            grid[j][j] = diag
        matrices[h.id] = ExactMatrix.block(grid)
    return ConvolvedSystem(base=system, lam=lam, order=order, closure=closure, matrices=matrices)


def assert_same_convolution(system, line, lam):
    conv, want = haraoka_convolution(system, line, lam), extended_convolution(system, line, lam)
    assert [(h.id, h.key) for h in conv.closure] == [(h.id, h.key) for h in want.closure]
    assert conv.order == want.order
    assert list(conv.matrices.items()) == list(want.matrices.items())
    assert json.dumps(conv.to_json()) == json.dumps(want.to_json())
    return conv


def test_haraoka_matches_the_zero_extension_on_growing_closures():
    # rank 1 is always integrable; rank 2 uses polynomials in one matrix
    rng = random.Random(16)
    done = {1: 0, 2: 0}
    while min(done.values()) < 6:
        dim = rng.randint(2, 4)
        planes, seen = [], set()
        for k in range(rng.randint(2, 5)):
            normal = tuple(F(rng.randint(-1, 1)) for _ in range(dim))
            if any(normal):
                h = canonicalize(f"H{k}", normal, F(rng.randint(-1, 1)))
                if h.key not in seen:
                    seen.add(h.key)
                    planes.append(h)
        arr = Arrangement(dim, planes)
        line = Line.of([F(rng.randint(-1, 1)) for _ in range(dim - 1)] + [F(1)])
        if len(y_closure(arr, line)) == len(arr) or not split_parallel(arr, line)[1].hyperplanes:
            continue
        rank = 1 if done[1] <= done[2] else 2
        base = rand_matrix(rng, rank)
        residues = {
            h.id: base.scale(F(rng.randint(-2, 2))).add_scaled_identity(F(rng.randint(-2, 2), 3))
            for h in arr
        }
        assert_same_convolution(PfaffianSystem(arr, rank, residues), line, F(rng.randint(-3, 3), 2))
        done[rank] += 1


def test_haraoka_matches_the_zero_extension_on_kz():
    from test_holonomy import kz_residues

    assert_same_convolution(kz_residues(3), Line.of((0, 0, 1)), F(1, 2))
    assert_same_convolution(kz_residues(3), Line.of((1, 2, 0)), F(-1, 3))
    assert_same_convolution(kz_residues(4), Line.of((0, 0, 0, 1)), F(1, 3))


def test_haraoka_reads_a_residue_under_a_taken_closure_id():
    # the input already holds a parallel hyperplane under the id the closure
    # generates for x - y = 0, so the closure appends that id primed
    two_axes = Arrangement(2, [canonicalize("H1", (1, 0), 0), canonicalize("H2", (0, 1), 0)])
    line = Line.of((1, 1))
    taken = y_closure(two_axes, line).hyperplanes[2].id
    assert taken.startswith("cl:")
    arr = Arrangement(2, list(two_axes) + [canonicalize(taken, (1, -1), -1)])
    a_taken = F(2, 7)
    values = {"H1": F(1, 3), "H2": F(2, 5), taken: a_taken}
    system = PfaffianSystem(arr, 1, {hid: ExactMatrix([[v]]) for hid, v in values.items()})
    conv = assert_same_convolution(system, line, F(1, 2))
    assert conv.closure.ids() == ["H1", "H2", taken, taken + "'"]
    # x - y = 1 meets x = 0 and y = 0 in two flats of one transverse member each
    assert conv.matrices[taken] == ExactMatrix.identity(2).scale(a_taken)
    assert conv.matrices[taken + "'"] == ExactMatrix([[F(2, 5), F(-2, 5)], [F(-1, 3), F(1, 3)]])


@pytest.mark.parametrize(
    "change",
    [lambda flats: [f for f in flats if "H1" not in f], lambda flats: flats + flats[:1]],
    ids=["dropped", "repeated"],
)
def test_haraoka_coverage_invariant_under_a_wrong_flat_list(monkeypatch, change):
    # on the three lines along x = 0, the one flat holds H1 and both
    # transverse lines; without it, or with it twice, H1 is not covered once
    # (the integrability checks keep the true flats)
    monkeypatch.setattr("mcvlie.convolution.codim2_flats", lambda arr: change(codim2_flats(arr)))
    system = three_line_system(F(1, 2), F(1, 3), F(1, 5))
    with pytest.raises(InternalInvariantError, match="'H1'"):
        haraoka_convolution(system, Line.of((0, 1)), F(1, 7))
    out, err = io.StringIO(), io.StringIO()
    data = Path(__file__).parent / "data" / "threelines.json"
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["convolve", "--lambda", "1/7", "--line", "0,1", "--input", str(data)])
    assert code == 3
    doc = json.loads(out.getvalue())  # exactly one JSON document
    assert "'H1'" in doc["error"] and err.getvalue().startswith("mcvlie: internal invariant")
