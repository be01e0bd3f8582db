"""The library's result records: one fixed instance of each, its repr, its
equality and hashing, and its immutability."""

import copy
import re
from fractions import Fraction

import pytest

from mcvlie.analysis import IsoResult, StarReport, StarWitness, composition_harness
from mcvlie.arrangement import Hyperplane, Line, canonicalize
from mcvlie.convolution import dr_middle_convolution
from mcvlie.exactcore import ExactMatrix, Poly
from mcvlie.freelie import DKWord, LieElement, RelationViolation
from mcvlie.holonomy import IntegrabilityViolation, Presentation

M = ExactMatrix([[1, "1/2"], [0, -3]])
N = ExactMatrix([[2, 0], [1, 1]])
ONE, TWO = ExactMatrix([[1]]), ExactMatrix([["-1/2"]])

# name -> (instance builder, builder of an unequal instance, one field)
RECORDS = {
    "StarWitness": (
        lambda: StarWitness(1, Fraction(-1, 2), (Fraction(1), Fraction(2, 3))),
        lambda: StarWitness(1, Fraction(1, 2), (Fraction(1), Fraction(2, 3))),
        "c",
    ),
    "StarReport": (
        lambda: StarReport(True, False, (Poly([1]),), (Poly([-2, 1]),), ()),
        lambda: StarReport(True, True, (Poly([1]),), (Poly([1]),), ()),
        "holds_star",
    ),
    "IsoResult": (
        lambda: IsoResult("isomorphic", M),
        lambda: IsoResult("not_isomorphic"),
        "verdict",
    ),
    "CompositionReport": (
        lambda: composition_harness([ONE, TWO], "1/2", "1/3"),
        lambda: composition_harness([ONE, TWO], "1/2", "-1/2"),
        "message",
    ),
    "Hyperplane": (
        lambda: canonicalize("H1", (2, -4), 6),
        lambda: canonicalize("H1", (2, -4), 5),
        "id",
    ),
    "Line": (
        lambda: Line.of((0, 3, -6)),
        lambda: Line.of((1, 3, -6)),
        "direction",
    ),
    "ConvolvedSystem": (
        lambda: dr_middle_convolution([ONE, TWO], "1/3").conv,
        lambda: dr_middle_convolution([ONE, TWO], "1/5").conv,
        "lam",
    ),
    "MiddleConvolvedSystem": (
        lambda: dr_middle_convolution([ONE, TWO], "1/3"),
        lambda: dr_middle_convolution([ONE, TWO], "1/5"),
        "direct_sum",
    ),
    "DKWord": (
        lambda: DKWord.of(DKWord.gen(1, 2), DKWord.gen(2, 3)),
        lambda: DKWord.of(DKWord.gen(2, 3), DKWord.gen(1, 2)),
        "left",
    ),
    "RelationViolation": (
        lambda: RelationViolation("triple", (2,), LieElement.generator(3, 1)),
        lambda: RelationViolation("triple", (2,), LieElement.generator(3, 2)),
        "relation",
    ),
    "Presentation": (
        lambda: Presentation(("H1", "H2", "H3"), (("H1", "H2", "H3"),)),
        lambda: Presentation(("H1", "H2", "H3"), ()),
        "generators",
    ),
    "IntegrabilityViolation": (
        lambda: IntegrabilityViolation(("H1", "H2"), "H1", N),
        lambda: IntegrabilityViolation(("H1", "H2"), "H2", N),
        "member",
    ),
}

_CONV = ("ConvolvedSystem(base=<mcvlie.holonomy.PfaffianSystem object>, lam=Fraction(1, 3), "
         "order=['1', '2'], closure=Arrangement(dim 1, 2 hyperplanes), "
         "matrices={'1': ExactMatrix(2x2: 4/3 -1/2; 0 0), '2': ExactMatrix(2x2: 0 0; 1 -1/6)})")

REPRS = {
    "StarWitness": "StarWitness(generator=1, c=Fraction(-1, 2), "
                   "vector=(Fraction(1, 1), Fraction(2, 3)))",
    "StarReport": "StarReport(holds_star=True, holds_dstar=False, star_defects=(Poly(1),), "
                  "dstar_defects=(Poly(-2 + 1*c),), star_witnesses=())",
    "IsoResult": "IsoResult(verdict='isomorphic', intertwiner=ExactMatrix(2x2: 1 1/2; 0 -3))",
    "CompositionReport": (
        "CompositionReport(applicable=True, stars=StarReport(holds_star=True, holds_dstar=True, "
        "star_defects=(Poly(1), Poly(1)), dstar_defects=(Poly(1), Poly(1)), star_witnesses=()), "
        "lam=Fraction(1, 2), mu=Fraction(1, 3), dims=(2, 2, 2), "
        "compose_iso=IsoResult(verdict='isomorphic', intertwiner=ExactMatrix(2x2: -1/2 0; 0 -1/6)), "
        "identity_iso=None, message='composition law certified')"
    ),
    "Hyperplane": "Hyperplane(id='H1', form=ExactMatrix(1x3: 1 -2 3))",
    "Line": "Line(direction=(0, 1, -2))",
    "ConvolvedSystem": _CONV,
    "MiddleConvolvedSystem": (
        f"MiddleConvolvedSystem(conv={_CONV}, k_space=Subspace(dim 0 of Q^2), "
        "l_space=Subspace(dim 0 of Q^2), projection=ExactMatrix(2x2: 1 0; 0 1), section=[0, 1], "
        "matrices={'1': ExactMatrix(2x2: 4/3 -1/2; 0 0), '2': ExactMatrix(2x2: 0 0; 1 -1/6)}, "
        "direct_sum=True)"
    ),
    "DKWord": "[A(1,2),A(2,3)]",
    "RelationViolation": "RelationViolation(relation='triple', word=(2,), value=LieElement(1*[1]))",
    "Presentation": "Presentation(generators=('H1', 'H2', 'H3'), "
                    "relation_families=(('H1', 'H2', 'H3'),))",
    "IntegrabilityViolation": "IntegrabilityViolation(family=('H1', 'H2'), member='H1', "
                              "commutator=ExactMatrix(2x2: 2 0; 1 1))",
}

# records holding a dict have no hash
UNHASHABLE = {"ConvolvedSystem", "MiddleConvolvedSystem"}

NAMES = sorted(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    record = RECORDS[name][0]()
    assert type(record).__name__ == name
    # a PfaffianSystem member prints its address
    assert re.sub(r" at 0x[0-9a-f]+", "", repr(record)) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    build, build_other, _ = RECORDS[name]
    record, other = build(), build_other()
    twin = copy.copy(record)
    assert twin is not record
    assert record == twin and not record != twin
    assert record != other and not record == other
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2


def test_hyperplanes_compare_by_form_alone():
    a = canonicalize("H1", (1, 2), 3)
    b = canonicalize("H2", (-2, -4), -6)
    c = canonicalize("H1", (1, 2), 4)
    assert a.id != b.id and a.form == b.form
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert a.key is a.form
    assert Hyperplane("H9", a.form) == a
    assert a != ("H1", a.form) and not a == ("H1", a.form)


@pytest.mark.parametrize("name", NAMES)
def test_setting_an_attribute_raises(name):
    build, _, field = RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
