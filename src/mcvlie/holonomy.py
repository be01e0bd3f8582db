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
    RowSummary,
    _sum_matrices,
    commuting_with_sum,
    int_from_json,
    matrix_from_json,
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

    A zero residue commutes with everything and is skipped.  Over a family
    the commutators with the family sum T add up to [T, T] = 0, so when all
    but the last nonzero member pass, the last one does too: it is tested
    only when an earlier member has failed.  The list is then the same as if
    every member had been checked.

    Each relation is decided on Kronecker-packed integer rows by
    `exactcore.commuting_with_sum`: with A = a/den_a and T = t/den_T, row i
    of a t packs as sum_k a_ik packed(t_k) and row i of t a as
    sum_k t_ik packed(a_k), in slots of `exactcore._width`, where packing is
    injective, so the packed integers agree exactly when the rows do, and no
    product matrix is built.  Only a failing member's commutator A T - T A
    is computed, as its witness.

    Residues of rank 0 or 1 are scalars and commute, so such a system is
    integrable without looking at its flats.
    """
    if system.rank <= 1:
        return []
    summaries = {hid: RowSummary.of(a) for hid, a in system.residues.items()}
    violations = []
    for family in codim2_flats(system.arrangement):
        members = [(hid, summaries[hid]) for hid in family if summaries[hid].nonzero]
        if len(members) < 2:
            continue  # a single nonzero residue commutes with itself
        tests = commuting_with_sum([s for _, s in members])
        failing = [m for m, ok in zip(members[:-1], tests) if not ok]
        # the commutators sum to [T, T] = 0: the last fails only with another
        if failing and not next(tests):
            failing.append(members[-1])
        if failing:
            total = _sum_matrices([s.matrix for _, s in members], system.rank)
            violations.extend(
                IntegrabilityViolation(family, hid, s.matrix * total - total * s.matrix)
                for hid, s in failing
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

