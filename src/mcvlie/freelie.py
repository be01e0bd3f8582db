"""Free Lie algebras on Lyndon bases, and the braid-style derivation action.

Words are tuples over the alphabet 1..n.  A Lie element is stored as a map
from Lyndon words to rational coefficients; brackets are computed by
expanding into the free associative algebra and re-expressing the commutator
in the Lyndon basis through the triangular relationship between a Lyndon
word and the expansion of its standard bracketing.

Bracket words in the A_ij act by tangential derivations x_i -> [x_i, v_i];
`adjoint_witness` gives v_i in closed form, with no linear algebra.

Degree caps (n <= 6, total degree <= 8) keep everything at desk scale.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .errors import InputError, InternalInvariantError, PreconditionError
from .exactcore import rat, rat_str

MAX_GENERATORS = 6
MAX_DEGREE = 8


class DegreeCapError(PreconditionError):
    """Lyndon bases grow exponentially; computations are capped."""


def _check_caps(n: int, degree: int):
    if not 1 <= n <= MAX_GENERATORS:
        raise DegreeCapError(f"generator count {n} outside 1..{MAX_GENERATORS}")
    if degree > MAX_DEGREE:
        raise DegreeCapError(f"degree {degree} exceeds cap {MAX_DEGREE}")


# ---------------------------------------------------------------------------
# Lyndon words


def is_lyndon(word) -> bool:
    """A nonempty word is Lyndon iff it is strictly smaller than every
    proper suffix."""
    w = tuple(word)
    if not w:
        return False
    return all(w < w[k:] for k in range(1, len(w)))


def lyndon_basis(n: int, degree: int) -> list:
    """All Lyndon words of the given length over 1..n, lexicographically
    sorted (Duval's generation)."""
    if degree < 1:
        raise PreconditionError("degree must be >= 1")
    _check_caps(n, degree)
    out = []
    w = [1]
    while w:
        if len(w) == degree:
            out.append(tuple(w))
        # extend periodically to full length, then increment
        ext = [w[i % len(w)] for i in range(degree)]
        while ext and ext[-1] == n:
            ext.pop()
        if not ext:
            break
        ext[-1] += 1
        w = ext
    return out


def standard_factorization(word):
    """Split a Lyndon word of length >= 2 as u·v with v the lexicographically
    least (equivalently longest Lyndon) proper suffix; both parts are Lyndon."""
    w = tuple(word)
    if len(w) < 2:
        raise PreconditionError("standard factorization needs length >= 2")
    split = min(range(1, len(w)), key=lambda k: w[k:])
    return w[:split], w[split:]


@functools.cache
def _expand_bracketing(w: tuple) -> dict:
    """Associative expansion of the standard bracketing of a Lyndon word:
    a map word -> coefficient whose lexicographically least term is the word
    itself with coefficient 1."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    pu, pv = _expand_bracketing(u), _expand_bracketing(v)
    out = {}
    for a, ca in pu.items():
        for b, cb in pv.items():
            c = ca * cb
            _bump(out, a + b, c)
            _bump(out, b + a, -c)
    return out


def _bump(d: dict, key, val):
    new = d.get(key, 0) + val
    if new:
        d[key] = new
    else:
        d.pop(key, None)


def _lie_from_associative(poly: dict) -> dict:
    """Rewrite a Lie element given in associative word coordinates into
    Lyndon coordinates, degree by degree.  The input must actually lie in
    the free Lie algebra; anything else is an internal error."""
    by_deg: dict = {}
    for w, c in poly.items():
        by_deg.setdefault(len(w), {})[w] = c
    terms = {}
    for deg, p in by_deg.items():
        p = dict(p)
        while p:
            w = min(p)
            if not is_lyndon(w):
                raise InternalInvariantError(
                    f"associative polynomial is not a Lie element near {w}"
                )
            c = p[w]
            terms[w] = c
            for a, ca in _expand_bracketing(w).items():
                _bump(p, a, -c * ca)
    return terms


# ---------------------------------------------------------------------------
# Lie elements


class LieElement:
    """Element of the free Lie algebra on n generators in Lyndon coordinates:
    `terms` maps Lyndon words to nonzero coefficients, ints while they come
    from integers and Fractions otherwise."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        _check_caps(n, 1)
        self.n = n
        clean = {}
        for w, c in (terms or {}).items():
            w = tuple(w)
            c = c if type(c) is int else rat(c)
            if not c:
                continue
            if not is_lyndon(w) or any(not 1 <= x <= n for x in w):
                raise InputError(f"not a Lyndon word over 1..{n}: {w}")
            if len(w) > MAX_DEGREE:
                raise DegreeCapError(f"term degree {len(w)} exceeds cap")
            clean[w] = c
        self.terms = clean

    @staticmethod
    def generator(n: int, i: int) -> "LieElement":
        if not 1 <= i <= n:
            raise InputError(f"generator index {i} outside 1..{n}")
        return LieElement(n, {(i,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other: "LieElement") -> "LieElement":
        self._match(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _bump(out, w, c)
        return LieElement(self.n, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1)

    def __neg__(self) -> "LieElement":
        return self.scale(-1)

    def scale(self, a) -> "LieElement":
        a = a if type(a) is int else rat(a)
        return LieElement(self.n, {w: a * c for w, c in self.terms.items()})

    def _match(self, other: "LieElement"):
        if self.n != other.n:
            raise PreconditionError("generator counts differ")

    def to_associative(self) -> dict:
        poly: dict = {}
        for w, c in self.terms.items():
            for a, ca in _expand_bracketing(w).items():
                _bump(poly, a, c * ca)
        return poly

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "LieElement(0)"
        body = " + ".join(
            f"{rat_str(c)}*[{''.join(map(str, w))}]"
            for w, c in sorted(self.terms.items())
        )
        return f"LieElement({body})"


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie bracket, computed as the associative commutator re-expressed in
    the Lyndon basis."""
    a._match(b)
    if a.is_zero() or b.is_zero():
        return LieElement(a.n)
    if a.max_degree() + b.max_degree() > MAX_DEGREE:
        raise DegreeCapError("bracket result would exceed the degree cap")
    pa, pb = a.to_associative(), b.to_associative()
    comm: dict = {}
    for u, cu in pa.items():
        for v, cv in pb.items():
            c = cu * cv
            _bump(comm, u + v, c)
            _bump(comm, v + u, -c)
    return LieElement(a.n, _lie_from_associative(comm))


# ---------------------------------------------------------------------------
# Derivations and the braid action


class Derivation:
    """Derivation of the free Lie algebra, determined by generator images.

    It extends uniquely to the tensor algebra, so `apply` expands its
    argument into associative words, applies the Leibniz rule letter by
    letter there, and reads the sum back in Lyndon coordinates.  Values on
    generators are read from `images`, never recomputed by `apply`."""

    __slots__ = ("n", "images", "_assoc")

    def __init__(self, n: int, images: dict):
        _check_caps(n, 1)
        self.n = n
        self.images = {}
        for i, e in images.items():
            if not 1 <= i <= n:
                raise InputError(f"generator index {i} outside 1..{n}")
            if e.n != n:
                raise PreconditionError("image has wrong generator count")
            if not e.is_zero():
                self.images[i] = e
        self._assoc = None  # associative images, built on the first apply

    def image(self, i: int) -> LieElement:
        return self.images.get(i, LieElement(self.n))

    def apply(self, e: LieElement) -> LieElement:
        if e.n != self.n:
            raise PreconditionError("generator counts differ")
        if self._assoc is None:
            self._assoc = {i: img.to_associative() for i, img in self.images.items()}
        out: dict = {}
        for w, c in e.to_associative().items():
            for k, x in enumerate(w):
                for a, ca in self._assoc.get(x, {}).items():
                    _bump(out, w[:k] + a + w[k + 1:], c * ca)
        return LieElement(self.n, _lie_from_associative(out))

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.n != other.n:
            raise PreconditionError("generator counts differ")
        moved = sorted(self.images.keys() | other.images.keys())
        return Derivation(self.n, {i: self.image(i) + other.image(i) for i in moved})

    def commutator_image(self, other: "Derivation", i: int) -> LieElement:
        """[self, other](x_i) = self(other(x_i)) - other(self(x_i)), the
        inner values read from images."""
        return self.apply(other.image(i)) - other.apply(self.image(i))

    def commutator(self, other: "Derivation") -> "Derivation":
        """[self, other] as a derivation, one `commutator_image` per moved
        generator."""
        if self.n != other.n:
            raise PreconditionError("generator counts differ")
        moved = sorted(self.images.keys() | other.images.keys())
        return Derivation(self.n, {i: self.commutator_image(other, i) for i in moved})


def theta(i: int, j: int, n: int) -> Derivation:
    """The derivation sending x_i to [x_i, x_j], x_j to [x_j, x_i] and every
    other generator to 0."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise InputError(f"bad generator pair ({i}, {j}) for n = {n}")
    b = bracket(LieElement.generator(n, i), LieElement.generator(n, j))
    return Derivation(n, {i: b, j: -b})


# ---------------------------------------------------------------------------
# Bracket words in the A_{i,j} generators


class DKWord(NamedTuple):
    """Bracket expression over the generators A_{i,j}: either a leaf (i, j)
    or a bracket of two subtrees."""

    i: int = 0
    j: int = 0
    left: "DKWord" = None
    right: "DKWord" = None

    @staticmethod
    def gen(i: int, j: int) -> "DKWord":
        if i == j or i < 1 or j < 1:
            raise InputError(f"bad generator pair ({i}, {j})")
        return DKWord(i=i, j=j)

    @staticmethod
    def of(left: "DKWord", right: "DKWord") -> "DKWord":
        return DKWord(left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaves() + self.right.leaves()

    def max_index(self) -> int:
        if self.is_leaf:
            return max(self.i, self.j)
        return max(self.left.max_index(), self.right.max_index())

    def __repr__(self):
        if self.is_leaf:
            return f"A({self.i},{self.j})"
        return f"[{self.left!r},{self.right!r}]"


def theta_of_dkword(word: DKWord, n: int) -> Derivation:
    """The derivation attached to a bracket word, built as nested
    commutators of the generator derivations."""
    if word.max_index() > n:
        raise InputError("bracket word uses generators beyond n")
    if word.is_leaf:
        return theta(word.i, word.j, n)
    return theta_of_dkword(word.left, n).commutator(theta_of_dkword(word.right, n))


# ---------------------------------------------------------------------------
# Relation verification and the adjoint witness


class RelationViolation(NamedTuple):
    relation: str
    word: tuple
    value: LieElement


def verify_braid_relations(n: int) -> list:
    """Check the relations of the Drinfeld–Kohno Lie algebra t_n on the
    braid-style action, each once: the symmetry A(i,j) = A(j,i) for i < j;
    [A(i,k), A(i,j) + A(j,k)] = 0 for i < k, one per member H_ik of the
    triple family {H_ij, H_ik, H_jk} of the braid arrangement (its (k, j, i)
    twin is the same relation once the symmetries hold); [A(i,j), A(k,l)] = 0
    once per pair of disjoint index pairs; and the vanishing of A(i,j) on
    x_1 + ... + x_n for i < j.  Returns violations (expected empty).

    Each relation is a derivation, and a derivation vanishes on the whole
    free Lie algebra iff it vanishes on the generators, so the relations are
    decided on generator images and the answer holds in every degree.  A
    failing relation is reported once per generator whose image is
    nonzero."""
    if n < 2:
        raise PreconditionError("need at least two generators")
    _check_caps(n, 1)
    indices = range(1, n + 1)
    pairs = list(itertools.combinations(indices, 2))
    thetas = {(i, j): theta(i, j, n) for i, j in itertools.permutations(indices, 2)}
    violations = []

    def check(deriv, label):
        for i, value in sorted(deriv.images.items()):
            violations.append(RelationViolation(label, (i,), value))

    for i, j in pairs:
        a, b = thetas[i, j], thetas[j, i]
        check(Derivation(n, {k: a.image(k) - b.image(k) for k in indices}),
              f"A({i},{j}) = A({j},{i})")
    for i, j, k in itertools.permutations(indices, 3):
        if i < k:
            rel = thetas[i, k].commutator(thetas[i, j] + thetas[j, k])
            check(rel, f"[A({i},{k}), A({i},{j}) + A({j},{k})] = 0")
    for (i, j), (k, l) in itertools.combinations(pairs, 2):
        if not {i, j} & {k, l}:
            check(thetas[i, j].commutator(thetas[k, l]), f"[A({i},{j}), A({k},{l})] = 0")
    for i, j in pairs:
        value = sum(thetas[i, j].images.values(), LieElement(n))
        if not value.is_zero():
            violations.append(
                RelationViolation(f"A({i},{j}) kills x_1 + ... + x_n", (), value)
            )
    return violations


def adjoint_witness(word: DKWord, i: int, n: int) -> LieElement:
    """The v with [x_i, v] equal to the action of the given bracket word on
    x_i, in closed form by the bracket of tangential derivations
    (A. Alekseev, C. Torossian, Ann. of Math. 175, 2012, §3).

    A leaf A(a, b) has v = x_b at i = a, v = x_a at i = b and v = 0 at every
    other i.  If D(x_i) = [x_i, u] and E(x_i) = [x_i, w], the Leibniz rule
    and the Jacobi identity give [D, E](x_i) = [x_i, [u, w] + D(w) − E(u)],
    so one pass over the word yields each subword's derivation and witness.
    For more than one leaf the witness is unique, since ad x_i is injective
    above degree 1 (the centralizer of x_i is Q·x_i); a leaf's witness has
    no x_i term.  The result is double-checked by re-bracketing, against
    the word's derivation built on x_i alone: a DegreeCapError is raised
    when the witness or the image of x_i passes the cap, whatever the
    images of the other generators."""
    if not 1 <= i <= n:
        raise InputError(f"generator index {i} outside 1..{n}")
    if word.max_index() > n:
        raise InputError("bracket word uses generators beyond n")

    def walk(w, root=False):
        if w.is_leaf:
            other = {w.i: w.j, w.j: w.i}.get(i)
            v = LieElement.generator(n, other) if other else LieElement(n)
            return theta(w.i, w.j, n), v
        (d1, v1), (d2, v2) = walk(w.left), walk(w.right)
        v = bracket(v1, v2) + d1.apply(v2) - d2.apply(v1)
        if root:  # only image i is compared
            return Derivation(n, {i: d1.commutator_image(d2, i)}), v
        return d1.commutator(d2), v

    d, v = walk(word, root=True)
    if bracket(LieElement.generator(n, i), v) != d.image(i):
        raise InternalInvariantError("adjoint witness failed re-bracketing")
    return v
