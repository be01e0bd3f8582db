"""Root finding that only the tests need: integer and rational roots by a
Sturm-chain bisection.  The library walks primes and lifts roots p-adically
(`exactcore._integer_roots`); this search shares only the integer-row
helpers with it (the Sturm chain, the root bound, Horner's rule, the
content and exact division), and the tests compare the two answers."""

from fractions import Fraction
from math import lcm

from mcvlie.exactcore import _divide_exactly, _horner, _primitive, _root_bound, _sturm


def squarefree_ints(p):
    """(whether 0 is a root, h, the Sturm chain of h or None): h is the
    squarefree part of the polynomial with its factors x removed, as a
    primitive integer row with the sign of the leading coefficient, lowest
    degree first; (1,) if it is constant.  A linear h is returned with no
    chain.

    The polynomial f, cleared of denominators once and made primitive, is
    divided over Z by the last member of its Sturm chain, made primitive
    with a positive lead.  When that member is a constant, h = f and the
    chain is returned with it."""
    cs = p.coeffs
    low = 0
    while cs[low] == 0:
        low += 1
    if len(cs) - low < 2:
        return low > 0, (1,), None
    den = lcm(*(c.denominator for c in cs[low:]))
    f = _primitive([c.numerator * (den // c.denominator) for c in cs[low:]])
    if len(f) == 2:
        return low > 0, tuple(f), None
    chain = _sturm(f)
    if len(chain[-1]) == 1:
        return low > 0, tuple(f), chain
    g = _primitive(chain[-1])
    if g[-1] < 0:
        g = [-c for c in g]
    return low > 0, tuple(_divide_exactly(f, g)), None


def rational_roots(p):
    """All rational roots, sorted: y/a for the integer roots y of the monic
    G(y) = a^(n−1)·h(y/a), h of degree n with lead a."""
    zero, h, _ = squarefree_ints(p)
    n, a = len(h) - 1, h[-1]
    g = [c * a ** (n - 1 - i) for i, c in enumerate(h[:-1])] + [1]
    roots = [Fraction(y, a) for y in sturm_integer_roots(g)]
    return sorted(roots + [Fraction(0)] if zero else roots)


def integer_roots(p):
    """All integer roots, sorted, searched in x."""
    zero, h, chain = squarefree_ints(p)
    roots = sturm_integer_roots(h, chain)
    return sorted(roots + [0] if zero else roots)


def sturm_integer_roots(g, chain=None):
    """Integer roots of a squarefree integer polynomial g (coefficients
    lowest degree first, g ≠ 0), given its Sturm chain or None.

    Every root lies within `_root_bound`.  The Sturm chain of `_sturm`, on
    integers, counts the distinct real roots in (lo, hi] as V(lo) − V(hi),
    V the number of sign changes.
    Intervals are halved until each holds one root, which is simple, so g
    changes sign across it and its interval is halved further on the sign
    of g alone.  A unit interval (k − 1, k] holds an integer root only at k."""
    if len(g) == 1:
        return []
    if len(g) == 2:  # the one root −g_0/g_1
        q, r = divmod(-g[0], g[1])
        return [] if r else [q]
    bound = _root_bound(g)
    if chain is None:
        chain = _sturm(g)

    def changes(x):
        signs = [s for s in (_horner(p, x) for p in chain) if s]
        return sum((u < 0) != (v < 0) for u, v in zip(signs, signs[1:]))

    roots = []
    todo = [(-bound - 1, bound, changes(-bound - 1), changes(bound))]
    while todo:
        lo, hi, vlo, vhi = todo.pop()
        if vlo - vhi > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = changes(mid)
            todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
        elif vlo != vhi:  # one root, or a unit interval
            ghi = _horner(g, hi)
            while hi - lo > 1 and ghi:
                mid = (lo + hi) // 2
                gmid = _horner(g, mid)
                if gmid and (gmid < 0) == (ghi < 0):
                    hi, ghi = mid, gmid
                elif gmid:
                    lo = mid
                else:
                    hi, ghi = mid, 0
            if not ghi:
                roots.append(hi)
    return roots
