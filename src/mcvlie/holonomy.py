"""Holonomy-Lie-algebra presentations of arrangement complements and their
finite dimensional modules, represented as residue-matrix tuples.

A Pfaffian system with logarithmic poles along an arrangement is the same
data as a module over the holonomy Lie algebra: an assignment of one square
residue matrix per hyperplane subject to the commutator relations attached
to the codimension-2 families.  This module validates those relations and
implements the zero-extension along an inclusion of arrangements.
"""

from __future__ import annotations

from typing import NamedTuple

from .arrangement import Arrangement, codim2_flats
from .errors import InputError, InternalInvariantError, PreconditionError
from .exactcore import (
    ExactMatrix,
    _sum_matrices,
    int_from_json,
    matrix_from_json,
    noncommuting_members,
)


class Presentation(NamedTuple):
    """Generators (hyperplane ids) and the relation families: for each
    maximal codimension-2 family {H_1..H_m} the relations say every member
    commutes with the family sum."""

    generators: tuple
    relation_families: tuple


def presentation(arr: Arrangement) -> Presentation:
    return Presentation(
        generators=tuple(arr.ids()),
        relation_families=tuple(codim2_flats(arr)),
    )


class PfaffianSystem:
    """An arrangement together with a d×d residue matrix per hyperplane."""

    __slots__ = ("arrangement", "rank", "residues")

    def __init__(self, arrangement: Arrangement, rank: int, residues: dict):
        if rank < 0:
            raise InputError(f"rank must be nonnegative, got {rank}")
        self.arrangement = arrangement
        self.rank = rank
        self.residues = dict(residues)
        for hid in arrangement.ids():
            if hid not in self.residues:
                raise InputError(f"missing residue for hyperplane {hid!r}")
        if len(self.residues) != len(arrangement):
            extra = set(self.residues) - set(arrangement.ids())
            raise InputError(f"residues for unknown hyperplanes: {sorted(extra)}")
        for hid, m in self.residues.items():
            if m.rows != rank or m.cols != rank:
                raise InputError(f"residue for {hid!r} is not {rank}x{rank}")

    def residue(self, hid: str) -> ExactMatrix:
        try:
            return self.residues[hid]
        except KeyError:
            raise InputError(f"unknown hyperplane id {hid!r}") from None

    @staticmethod
    def from_json(data) -> "PfaffianSystem":
        try:
            arr = Arrangement.from_json(data["arrangement"])
            rank = int_from_json(data["rank"])
            if not isinstance(data["residues"], dict):
                raise TypeError("residues must be an object")
            residues = {
                str(hid): matrix_from_json(m, shape=(rank, rank))
                for hid, m in data["residues"].items()
            }
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed system JSON: {exc}") from exc
        return PfaffianSystem(arr, rank, residues)


class IntegrabilityViolation(NamedTuple):
    family: tuple
    member: str
    commutator: ExactMatrix


def check_integrability(system: PfaffianSystem) -> list:
    """All failures of the relations [A_H, sum of the family] = 0, one per
    failing family member, in family order; an empty list means the system
    is integrable.

    `exactcore.noncommuting_members` decides the relations on
    Kronecker-packed integer rows, with each nonzero residue packed once
    and one slot width w for the whole system, the largest that a family
    needs.  No product matrix is built, and a zero residue is skipped.
    Only a failing member's commutator A T - T A is computed, as its
    witness.

    The widths, with B the bit length of the largest entry of the integer
    rows.  Two packed rows whose entries all lie strictly between -2^(w-1)
    and 2^(w-1) agree exactly when the rows do (balanced digits are
    unique), and `exactcore._width(bits, terms)` gives such a w for sums of
    `terms` products below 2^bits; a wider slot keeps it so.
    - A family with two nonzero residues X = x/den_x, Y = y/den_y is the
      one relation [X, Y] = 0, as [X, X + Y] = [X, Y] = -[Y, X + Y].  XY
      and YX lie over den_x den_y, and an entry of x y or y x sums rank
      products of two entries below 2^B: `_width(2B, rank)`.
    - A family of m >= 3 nonzero residues has the sum T = t/D, D the lcm of
      their denominators and t = sum_h (D/den_h) x_h with every D/den_h
      below 2^s.  An entry of t is at most m (2^s - 1)(2^B - 1), below
      2^(B + s + bits(m)), so an entry of x t or t x sums rank products
      below 2^(2B + s + bits(m)): `_width(2B + s + bits(m), rank)`.  XT
      and TX lie over den_x D.
    Over such a family the commutators with T add up to [T, T] = 0, so
    the last member is tested only when an earlier one has failed; the
    list is the same as if every member had been checked.

    Residues of rank 0 or 1 are scalars and commute, so such a system is
    integrable without looking at its flats.
    """
    if system.rank <= 1:
        return []
    residues = system.residues
    violations = []
    for family, failing in noncommuting_members(residues, codim2_flats(system.arrangement)):
        total = _sum_matrices([residues[hid] for hid in family], system.rank)
        violations.extend(
            IntegrabilityViolation(family, hid, residues[hid] * total - total * residues[hid])
            for hid in failing
        )
    return violations


def zero_extend(system: PfaffianSystem, target: Arrangement) -> PfaffianSystem:
    """Extend along an inclusion of arrangements by assigning the zero
    residue to every new hyperplane (the restriction functor of modules).
    This is the library's only zero extension.

    Matching is geometric, so the target may relabel hyperplanes.  The input
    must be integrable, and the output is re-checked: a violation would
    contradict the fact that the extension is induced by a Lie algebra
    homomorphism.
    """
    if not target.contains_arrangement(system.arrangement):
        raise PreconditionError("target arrangement does not contain the source")
    if check_integrability(system):
        raise PreconditionError("zero_extend requires an integrable system")
    by_form = {h.form: system.residues[h.id] for h in system.arrangement}
    zero = ExactMatrix.zeros(system.rank, system.rank)
    residues = {h.id: by_form.get(h.form, zero) for h in target}
    out = PfaffianSystem(target, system.rank, residues)
    if check_integrability(out):
        raise InternalInvariantError(
            "zero-extension broke integrability; this should be impossible"
        )
    return out


def residue_sum(system: PfaffianSystem, ids) -> ExactMatrix:
    """Entrywise sum of the selected residues (empty selection: zero)."""
    mats = [system.residue(hid) for hid in ids]
    return _sum_matrices(mats, system.rank)

