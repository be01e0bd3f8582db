import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from mcvlie import freelie
from mcvlie.arrangement import braid_arrangement
from mcvlie.cli import main
from mcvlie.errors import InputError
from mcvlie.exactcore import ExactMatrix
from mcvlie.freelie import (
    DegreeCapError,
    Derivation,
    DKWord,
    LieElement,
    RelationViolation,
    adjoint_witness,
    bracket,
    is_lyndon,
    lyndon_basis,
    standard_factorization,
    theta,
    theta_of_dkword,
    verify_braid_relations,
)
from mcvlie.holonomy import presentation

from linalg_oracle import column_matrix, solve_right
from test_acceptance import _rand_dkword as criterion_09_dkword

F = Fraction


def enumerate_lyndon_oracle(n, d):
    """Brute force: all words, filtered by the rotation-minimality test."""
    out = []

    def rec(prefix):
        if len(prefix) == d:
            w = tuple(prefix)
            rots = [w[k:] + w[:k] for k in range(1, d)]
            if all(w < r for r in rots) or (d == 1):
                out.append(w)
            return
        for letter in range(1, n + 1):
            rec(prefix + [letter])

    rec([])
    return out


def gen(n, i):
    return LieElement.generator(n, i)


def rand_element(rng, n, max_deg=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(1, max_deg)
        words = lyndon_basis(n, d)
        terms[rng.choice(words)] = F(rng.randint(-3, 3))
    return LieElement(n, terms)


# -- Lyndon words -------------------------------------------------------------


def test_lyndon_basis_degree_one():
    for n in (1, 2, 4):
        assert lyndon_basis(n, 1) == [(i,) for i in range(1, n + 1)]


def test_lyndon_basis_examples():
    assert lyndon_basis(2, 3) == [(1, 1, 2), (1, 2, 2)]
    assert lyndon_basis(3, 2) == [(1, 2), (1, 3), (2, 3)]


def test_lyndon_basis_matches_enumeration_oracle():
    for n in range(1, 5):
        for d in range(1, 7):
            assert lyndon_basis(n, d) == enumerate_lyndon_oracle(n, d)


def test_degree_caps_are_enforced():
    with pytest.raises(DegreeCapError):
        lyndon_basis(7, 2)
    with pytest.raises(DegreeCapError):
        lyndon_basis(2, 9)


def test_standard_factorization():
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
    assert standard_factorization((1, 2)) == ((1,), (2,))


# -- brackets -----------------------------------------------------------------


def test_bracket_antisymmetry_on_generator():
    x1 = gen(2, 1)
    assert bracket(x1, x1).is_zero()


def test_bracket_of_generators_is_basis_atom():
    out = bracket(gen(2, 1), gen(2, 2))
    assert out == LieElement(2, {(1, 2): 1})


def test_bracket_nested_example():
    # [[x1,x2], x1] = -[x1,[x1,x2]] = -(112)
    out = bracket(bracket(gen(2, 1), gen(2, 2)), gen(2, 1))
    assert out == LieElement(2, {(1, 1, 2): -1})


def test_bracket_bilinear_and_antisymmetric_random():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 3)
        a, b = rand_element(rng, n), rand_element(rng, n)
        assert bracket(a, b) == bracket(b, a).scale(-1)
        c = F(rng.randint(-3, 3))
        assert bracket(a.scale(c), b) == bracket(a, b).scale(c)
        assert bracket(a.scale(F(5, 2)), b) == bracket(a, b).scale(F(5, 2))


def test_integer_coefficients_stay_ints():
    # JSON and every other input outside int still go through `rat`
    ab = bracket(gen(2, 1), gen(2, 2))
    assert ab.terms == {(1, 2): 1} and type(ab.terms[1, 2]) is int
    assert ab.scale(F(5, 2)).terms == {(1, 2): F(5, 2)}
    assert ab.scale(F(4, 2)) == ab.scale(2) == LieElement(2, {(1, 2): "2"})
    with pytest.raises(InputError):
        LieElement(2, {(1, 2): True})
    with pytest.raises(InputError):
        ab.scale(True)


def test_jacobi_identity_random():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(2, 3)
        a = rand_element(rng, n, max_deg=2, nterms=2)
        b = rand_element(rng, n, max_deg=2, nterms=2)
        c = rand_element(rng, n, max_deg=2, nterms=2)
        total = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert total.is_zero()


# -- the derivation action ----------------------------------------------------


def test_theta_on_own_generator():
    d = theta(1, 2, 3)
    assert d.apply(gen(3, 1)) == LieElement(3, {(1, 2): 1})


def test_theta_on_other_generator_is_zero():
    d = theta(1, 2, 3)
    assert d.apply(gen(3, 3)).is_zero()


def test_theta_on_second_index():
    d = theta(1, 2, 3)
    assert d.apply(gen(3, 2)) == LieElement(3, {(1, 2): -1})


def test_theta_second_image_is_the_reversed_bracket():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert theta(i, j, n).image(j) == bracket(gen(n, j), gen(n, i))


def test_theta_leibniz_example():
    # theta(A_12)([x1,x3]) = [[x1,x2],x3]
    d = theta(1, 2, 3)
    lhs = d.apply(bracket(gen(3, 1), gen(3, 3)))
    rhs = bracket(bracket(gen(3, 1), gen(3, 2)), gen(3, 3))
    assert lhs == rhs


def test_theta_index_validation():
    with pytest.raises(InputError):
        theta(1, 1, 3)
    with pytest.raises(InputError):
        theta(1, 4, 3)


def test_derivation_leibniz_random():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 4)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        if i == j:
            continue
        d = theta(i, j, n)
        a = rand_element(rng, n, max_deg=2, nterms=2)
        b = rand_element(rng, n, max_deg=2, nterms=2)
        assert d.apply(bracket(a, b)) == bracket(d.apply(a), b) + bracket(a, d.apply(b))


def ref_apply(d, e):
    """Reference action: the recursion D[u, v] = [Du, v] + [u, Dv] over
    standard factorizations, memoized per Lyndon word."""
    memo = {}

    def on_word(w):
        if w not in memo:
            if len(w) == 1:
                memo[w] = d.image(w[0])
            else:
                u, v = standard_factorization(w)
                bu, bv = LieElement(d.n, {u: 1}), LieElement(d.n, {v: 1})
                memo[w] = bracket(on_word(u), bv) + bracket(bu, on_word(v))
        return memo[w]

    out = LieElement(d.n)
    for w, c in e.terms.items():
        out = out + on_word(w).scale(c)
    return out


def rand_derivation(rng, n):
    """Images of degree 1-3, with some generators sent to zero."""
    images = {}
    for i in range(1, n + 1):
        if rng.random() < 0.3:
            images[i] = LieElement(n)
        elif rng.random() < 0.8:
            images[i] = rand_element(rng, n, max_deg=3, nterms=rng.randint(1, 3))
    return Derivation(n, images)


def test_apply_matches_the_factorization_recursion_random():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 4)
        d = rand_derivation(rng, n)
        e = rand_element(rng, n, max_deg=5, nterms=rng.randint(1, 4))
        assert d.apply(e) == ref_apply(d, e)


def test_apply_matches_the_factorization_recursion_on_thetas():
    rng = random.Random(37)
    for n in (2, 3, 4):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        derivs = [theta(i, j, n) for i, j in pairs]
        for _ in range(4):
            a, b = rng.sample(pairs, 2)
            derivs.append(theta(*a, n).commutator(theta(*b, n)))
        for d in derivs:
            e = rand_element(rng, n, max_deg=5, nterms=3)
            assert d.apply(e) == ref_apply(d, e)


def test_apply_past_the_degree_cap_raises():
    n = 2
    d = Derivation(n, {1: bracket(gen(n, 1), gen(n, 2))})
    at_cap = LieElement(n, {(1,) * 6 + (2,): 1})
    assert d.apply(at_cap).max_degree() == 8
    assert d.apply(at_cap) == ref_apply(d, at_cap)
    past_cap = LieElement(n, {(1,) * 7 + (2,): 1})
    with pytest.raises(DegreeCapError):
        d.apply(past_cap)


def ref_commutator(d1, d2):
    """Reference commutator: both composites applied to every generator."""
    images = {}
    for i in range(1, d1.n + 1):
        x = gen(d1.n, i)
        images[i] = d1.apply(d2.apply(x)) - d2.apply(d1.apply(x))
    return Derivation(d1.n, images)


def ref_theta_of_dkword(word, n):
    if word.is_leaf:
        return theta(word.i, word.j, n)
    return ref_commutator(ref_theta_of_dkword(word.left, n), ref_theta_of_dkword(word.right, n))


def test_commutator_matches_the_reference_random():
    rng = random.Random(41)
    zero_images = 0
    for _ in range(30):
        n = rng.randint(2, 4)
        d1, d2 = rand_derivation(rng, n), rand_derivation(rng, n)
        zero_images += (n - len(d1.images)) + (n - len(d2.images))
        assert d1.commutator(d2).images == ref_commutator(d1, d2).images
    assert zero_images


def test_commutator_matches_the_reference_on_theta_pairs():
    for n in (2, 3, 4):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for a in pairs:
            for b in pairs:
                d1, d2 = theta(*a, n), theta(*b, n)
                assert d1.commutator(d2).images == ref_commutator(d1, d2).images


def test_commutator_matches_the_reference_on_bracket_words():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 4)
        word = _rand_dkword(rng, n, max_leaves=4)
        assert theta_of_dkword(word, n).images == ref_theta_of_dkword(word, n).images


def test_criterion_09_words_act_on_generators_by_their_images():
    rng = random.Random(909)
    for _ in range(50):
        n = rng.randint(2, 4)
        word = criterion_09_dkword(rng, n, height=3)
        i = rng.randint(1, n)
        d = theta_of_dkword(word, n)
        assert d.apply(gen(n, i)) == d.image(i)


def test_action_kills_sum_of_generators():
    n = 3
    total = LieElement(n, {(i,): 1 for i in range(1, n + 1)})
    assert theta(1, 2, n).apply(total).is_zero()


def test_action_preserves_lower_generators():
    # derivations indexed below n keep elements supported on 1..n-1 inside
    rng = random.Random(9)
    for n in (3, 4):
        for _ in range(10):
            i = rng.randint(1, n - 1)
            j = rng.randint(1, n - 1)
            if i == j:
                continue
            e = rand_element(rng, n - 1, max_deg=3, nterms=2)
            lifted = LieElement(n, dict(e.terms))
            out = theta(i, j, n).apply(lifted)
            assert {x for w in out.terms for x in w} <= set(range(1, n))


def test_verify_braid_relations():
    assert verify_braid_relations(2) == []
    assert verify_braid_relations(3) == []


def sweep_braid_relations(n, max_degree, theta_of=theta):
    """Reference: every relation derivation applied to every Lyndon word of
    degree <= max_degree, as the relations were checked before they were
    decided on generator images."""
    basis = [w for d in range(1, max_degree + 1) for w in lyndon_basis(n, d)]
    violations = []

    def check(deriv, label):
        for w in basis:
            value = deriv.apply(LieElement(n, {w: 1}))
            if not value.is_zero():
                violations.append(RelationViolation(label, w, value))

    indices = range(1, n + 1)
    pairs = list(itertools.combinations(indices, 2))
    thetas = {(i, j): theta_of(i, j, n) for i, j in itertools.permutations(indices, 2)}
    for i, j in pairs:
        diff = Derivation(
            n, {k: thetas[i, j].image(k) - thetas[j, i].image(k) for k in indices}
        )
        check(diff, f"A({i},{j}) = A({j},{i})")
    for i, j, k in itertools.permutations(indices, 3):
        if i < k:  # the (k, j, i) twin is the same relation
            rel = thetas[i, k].commutator(thetas[i, j] + thetas[j, k])
            check(rel, f"[A({i},{k}), A({i},{j}) + A({j},{k})] = 0")
    for (i, j), (k, l) in itertools.combinations(pairs, 2):
        if not {i, j} & {k, l}:
            rel = thetas[i, j].commutator(thetas[k, l])
            check(rel, f"[A({i},{j}), A({k},{l})] = 0")
    total = LieElement(n, {(i,): 1 for i in indices})
    for i, j in pairs:
        value = thetas[i, j].apply(total)
        if not value.is_zero():
            violations.append(
                RelationViolation(f"A({i},{j}) kills x_1 + ... + x_n", (), value)
            )
    return violations


def broken_theta(rng, n):
    """theta with the image of one generator perturbed in 1-2 pairs."""
    table = {}
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(1, n + 1), 2)
        k = rng.randint(1, n)
        d = theta(i, j, n)
        images = {m: d.image(m) for m in range(1, n + 1)}
        images[k] = images[k] + rand_element(rng, n, max_deg=2, nterms=2)
        table[i, j] = Derivation(n, images)
    return lambda i, j, n: table.get((i, j)) or theta(i, j, n)


def test_relations_on_generators_match_the_sweep_on_broken_thetas(monkeypatch):
    rng = random.Random(4242)
    failing = 0
    for _ in range(24):
        n, degree = rng.randint(2, 4), rng.randint(1, 4)
        broken = broken_theta(rng, n)
        sweep = sweep_braid_relations(n, degree, broken)
        monkeypatch.setattr(freelie, "theta", broken)
        got = verify_braid_relations(n)
        # a relation that fails anywhere fails at a generator
        assert {v.relation for v in sweep} == {v.relation for v in got}
        assert got == [v for v in sweep if len(v.word) <= 1]
        failing += bool(got)
    assert failing >= 20


def generic_theta(i, j, n):
    """A derivation drawn from (i, j) alone, with every image nonzero: no
    relation of t_n holds for it."""
    rng = random.Random(100 * n + 10 * i + j)
    return Derivation(n, {m: rand_element(rng, n, max_deg=2, nterms=2) for m in range(1, n + 1)})


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_relations_checked_are_those_of_the_holonomy_presentation(n, monkeypatch):
    """t_n is the holonomy Lie algebra of braid(n): its commutator relations
    are one per member of each triple family of the presentation, and one
    per pair family.  Under a theta that breaks every relation, each of them
    is reported, under one label, and no other commutator."""
    want = set()
    for family in presentation(braid_arrangement(n)).relation_families:
        members = [(int(h[1]), int(h[2])) for h in family]  # "H13" -> (1, 3)
        if len(members) == 2:
            (i, j), (k, l) = members
            want.add(f"[A({i},{j}), A({k},{l})] = 0")
            continue
        for i, k in members:
            (j,) = {x for pair in members for x in pair} - {i, k}
            want.add(f"[A({i},{k}), A({i},{j}) + A({j},{k})] = 0")
    monkeypatch.setattr(freelie, "theta", generic_theta)
    got = verify_braid_relations(n)
    labels = {v.relation for v in got}
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    assert {x for x in labels if x.startswith("[")} == want
    assert len(want) == 3 * math.comb(n, 3) + math.comb(n, 2) * math.comb(n - 2, 2) // 2
    assert labels - want == (
        {f"A({i},{j}) = A({j},{i})" for i, j in pairs}
        | {f"A({i},{j}) kills x_1 + ... + x_n" for i, j in pairs}
    )
    assert len({(v.relation, v.word) for v in got}) == len(got)


def test_verify_takes_one_commutator_per_relation(monkeypatch):
    calls = []
    real = Derivation.commutator
    monkeypatch.setattr(Derivation, "commutator", lambda d, e: calls.append(1) or real(d, e))
    for n, triples, disjoint in [(2, 0, 0), (3, 3, 0), (4, 12, 3), (5, 30, 15), (6, 60, 45)]:
        calls.clear()
        assert verify_braid_relations(n) == []
        assert len(calls) == triples + disjoint


def test_broken_theta_exits_3_with_one_document(monkeypatch, capsys):
    monkeypatch.setattr(freelie, "theta", broken_theta(random.Random(8), 3))
    code = main(["freelie", "verify", "--n", "3", "--degree", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3 and doc["ok"] is False
    assert doc["violations"] and all(len(v["word"]) <= 1 for v in doc["violations"])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_verify_stdout_does_not_depend_on_degree(n, capsys):
    outs = []
    for degree in range(1, 9):
        assert main(["freelie", "verify", "--n", str(n), "--degree", str(degree)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == '{\n  "ok": true,\n  "violations": []\n}\n'
    assert outs == [outs[0]] * 8


@pytest.mark.parametrize(
    "n, degree, message",
    [
        ("3", "0", "--degree must be at least 1"),
        ("7", "0", "--degree must be at least 1"),
        ("3", "9", "degree 9 exceeds cap 8"),
        ("7", "9", "generator count 7 outside 1..6"),
    ],
)
def test_verify_degree_is_validated(n, degree, message, capsys):
    code = main(["freelie", "verify", "--n", n, "--degree", degree])
    captured = capsys.readouterr()
    assert (code, json.loads(captured.out)) == (2, {"error": message})
    assert captured.err == f"mcvlie: precondition failed: {message}\n"


@pytest.mark.parametrize("n, degree", [("0_3", "2"), ("1_0", "2"), ("3", "0_2"), ("3", "2_")])
def test_verify_refuses_underscores_as_other_integer_inputs_do(n, degree, capsys):
    """--n and --degree are read as `dim` and `rank` are: int() alone would
    take "0_3" for 3."""
    code = main(["freelie", "verify", "--n", n, "--degree", degree])
    error = {"error": "--n and --degree take integers"}
    assert (code, json.loads(capsys.readouterr().out)) == (1, error)
    assert main(["freelie", "verify", "--n", " 3", "--degree", "2 "]) == 0


@pytest.mark.parametrize("n", [5, 6])
def test_verify_at_the_degree_cap_is_fast(n, capsys):
    t0 = time.perf_counter()
    code = main(["freelie", "verify", "--n", str(n), "--degree", "8"])
    elapsed = time.perf_counter() - t0
    assert (code, json.loads(capsys.readouterr().out)) == (0, {"ok": True, "violations": []})
    assert elapsed < 2.0


# -- bracket words and witnesses ----------------------------------------------


def test_adjoint_witness_generator_case():
    v = adjoint_witness(DKWord.gen(1, 2), 1, 2)
    assert v == gen(2, 2)


def test_adjoint_witness_zero_case():
    v = adjoint_witness(DKWord.gen(1, 2), 3, 3)
    assert v.is_zero()


def test_adjoint_witness_depth_two():
    word = DKWord.of(DKWord.gen(1, 3), DKWord.gen(1, 2))
    v = adjoint_witness(word, 1, 3)
    target = theta_of_dkword(word, 3).apply(gen(3, 1))
    assert bracket(gen(3, 1), v) == target
    assert not target.is_zero()


def _rand_dkword(rng, n, max_leaves):
    leaves = rng.randint(1, max_leaves)

    def build(k):
        if k == 1:
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            while j == i:
                j = rng.randint(1, n)
            return DKWord.gen(i, j)
        split = rng.randint(1, k - 1)
        return DKWord.of(build(split), build(k - split))

    return build(leaves)


def test_adjoint_witness_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        word = _rand_dkword(rng, n, max_leaves=3)
        i = rng.randint(1, n)
        v = adjoint_witness(word, i, n)
        lhs = bracket(gen(n, i), v)
        rhs = theta_of_dkword(word, n).apply(gen(n, i))
        assert lhs == rhs
        assert v == lyndon_solve_witness(word, i, n)


def lyndon_solve_witness(word, i, n):
    """Oracle: the witness as an exact solve of [x_i, v] = target in Lyndon
    coordinates, over every basis word of the witness's degree; the free x_i
    coordinate of a one-leaf word is left at 0."""
    target = theta_of_dkword(word, n).image(i)
    if target.is_zero():
        return LieElement(n)
    dom, cod = lyndon_basis(n, word.leaves()), lyndon_basis(n, word.leaves() + 1)
    images = [bracket(gen(n, i), LieElement(n, {w: 1})).terms for w in dom]
    cols = [[img.get(c, 0) for c in cod] for img in images]
    rhs = [target.terms.get(c, 0) for c in cod]
    sol = solve_right(column_matrix(cols, len(cod)), column_matrix([rhs], len(cod)))
    assert sol is not None
    return LieElement(n, {w: sol[r, 0] for r, w in enumerate(dom)})


def test_adjoint_witness_matches_the_lyndon_solve_on_four_leaves():
    rng = random.Random(44)
    nonzero = 0
    for _ in range(12):
        n = rng.randint(2, 4)
        word = _rand_dkword(rng, n, max_leaves=4)
        while word.leaves() != 4:
            word = _rand_dkword(rng, n, max_leaves=4)
        for i in range(1, n + 1):
            v = adjoint_witness(word, i, n)
            assert v == lyndon_solve_witness(word, i, n)
            nonzero += not v.is_zero()
    assert nonzero >= 10


def _dk(tree):
    """DKWord from nested pairs: (a, b) of ints is a leaf A(a, b)."""
    left, right = tree
    if isinstance(left, int):
        return DKWord.gen(left, right)
    return DKWord.of(_dk(left), _dk(right))


@pytest.mark.parametrize(
    "tree, i, n, budget",
    [
        ((((2, 1), (2, 5)), (((1, 2), (1, 5)), (2, 4))), 4, 5, 0.5),
        ((((2, 6), (2, 4)), ((((3, 5), (4, 3)), (5, 4)), (1, 4))), 5, 6, 2.0),
    ],
)
def test_adjoint_witness_of_five_and_six_leaves_is_fast(tree, i, n, budget):
    # the Lyndon-coordinate solve took 2.2 s on the 5-leaf word and more
    # than 6 GB on the 6-leaf one; neither is run against it here
    word = _dk(tree)
    t0 = time.perf_counter()
    v = adjoint_witness(word, i, n)
    elapsed = time.perf_counter() - t0
    assert not v.is_zero() and v.max_degree() == word.leaves()
    assert bracket(gen(n, i), v) == theta_of_dkword(word, n).image(i)
    assert elapsed < budget


def test_adjoint_witness_index_errors():
    with pytest.raises(InputError, match="generator index 4 outside 1..3"):
        adjoint_witness(DKWord.gen(1, 2), 4, 3)
    with pytest.raises(InputError, match="bracket word uses generators beyond n"):
        adjoint_witness(DKWord.gen(1, 4), 1, 3)


def test_adjoint_witness_past_the_degree_cap_raises():
    # two 4-leaf words whose bracket acts with degree 9
    word = _dk(
        (((((1, 3), (2, 3)), (1, 2)), (2, 3)), ((((1, 2), (2, 3)), (2, 3)), (1, 2)))
    )
    with pytest.raises(DegreeCapError, match="degree 9 exceeds cap"):
        adjoint_witness(word, 1, 3)


def test_adjoint_witness_reads_the_cap_on_image_i_alone():
    # the same word at n = 4: x_4 is fixed, so its witness is zero, though
    # the word's derivation passes the cap on x_1
    word = _dk(
        (((((1, 3), (2, 3)), (1, 2)), (2, 3)), ((((1, 2), (2, 3)), (2, 3)), (1, 2)))
    )
    with pytest.raises(DegreeCapError, match="degree 9 exceeds cap"):
        theta_of_dkword(word, 4)
    assert adjoint_witness(word, 4, 4) == LieElement(4)
    with pytest.raises(DegreeCapError, match="degree 9 exceeds cap"):
        adjoint_witness(word, 1, 4)


def test_commutator_derivation_is_action_of_bracket_word():
    # [theta(A_13), theta(A_12)] applied pointwise agrees with the nested
    # DKWord evaluation
    n = 3
    word = DKWord.of(DKWord.gen(1, 3), DKWord.gen(1, 2))
    d = theta_of_dkword(word, n)
    d2 = theta(1, 3, n).commutator(theta(1, 2, n))
    for w in lyndon_basis(n, 1) + lyndon_basis(n, 2):
        e = LieElement(n, {w: 1})
        assert d.apply(e) == d2.apply(e)
