"""Value semantics of the engine's immutable value types: keyword
construction, normal forms, equality and hash, and refused assignment."""

import pytest

from cycstat.expectation import RationalExpectation
from cycstat.partial import CyclePathType, PartialPermutation
from cycstat.patterns import BivincularPattern
from cycstat.poly import ONE, falling_factorial_poly, mvar, xvar
from cycstat.translates import ConstrainedTranslate, RegularStatistic


def _translate():
    return ConstrainedTranslate(
        packed=PartialPermutation(positions=(1,), values=(2,)),
        constraints=frozenset({1}),
        weight=xvar(1),
    )


# (build a sample by keyword, its field names); each call builds a fresh object
SAMPLES = {
    "PartialPermutation": (
        lambda: PartialPermutation(positions=(2, 1), values=(1, 3)),
        ("positions", "values"),
    ),
    "CyclePathType": (
        lambda: CyclePathType(cycles=(1, 2), paths=(1, 3)),
        ("cycles", "paths"),
    ),
    "ConstrainedTranslate": (_translate, ("packed", "constraints", "weight")),
    "RegularStatistic": (
        lambda: RegularStatistic(translates=(_translate(), _translate())),
        ("translates",),
    ),
    "RationalExpectation": (
        lambda: RationalExpectation(num=mvar(1), den=(2,)),
        ("num", "den"),
    ),
    "BivincularPattern": (
        lambda: BivincularPattern(
            sigma=(2, 1), A=frozenset({1}), B=frozenset(), f=xvar(1), g=ONE
        ),
        ("sigma", "A", "B", "f", "g"),
    ),
}


class TestNormalForms:
    def test_partial_permutation_sorts_positions(self):
        p = PartialPermutation(positions=(3, 1, 2), values=(1, 2, 3))
        assert (p.positions, p.values) == ((1, 2, 3), (2, 3, 1))

    def test_cycle_path_type_sorts_descending(self):
        t = CyclePathType(cycles=(1, 3, 2), paths=(1, 2))
        assert (t.cycles, t.paths) == ((3, 2, 1), (2, 1))

    def test_rational_expectation_divides_out_falling_factorials(self):
        e = RationalExpectation(num=falling_factorial_poly(2) * mvar(1), den=(2, 1))
        assert e.num == mvar(1)
        assert e.den == (1,)

    def test_rational_expectation_den_defaults_to_empty(self):
        assert RationalExpectation(mvar(1)).den == ()

    def test_regular_statistic_merges_translates(self):
        stat = SAMPLES["RegularStatistic"][0]()
        assert len(stat.translates) == 1
        assert stat.translates[0].weight == 2 * xvar(1)

    def test_bivincular_pattern_takes_sets(self):
        b = BivincularPattern(sigma=[2, 1], A=[1], B=(), f=ONE, g=ONE)
        assert (b.sigma, b.A, b.B) == ((2, 1), frozenset({1}), frozenset())


@pytest.mark.parametrize("name", SAMPLES)
class TestValueSemantics:
    def test_equal_fields_equal_objects(self, name):
        build, _ = SAMPLES[name]
        a, b = build(), build()
        assert a is not b
        assert a == b
        assert not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_other_classes_never_equal(self, name):
        value = SAMPLES[name][0]()
        for other, (build, _) in SAMPLES.items():
            if other != name:
                assert value != build()

    def test_fields_cannot_be_assigned(self, name):
        build, fields = SAMPLES[name]
        value = build()
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            assert getattr(value, field) is before

    def test_repr_names_fields(self, name):
        build, fields = SAMPLES[name]
        value = build()
        args = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
        assert repr(value) == f"{name}({args})"


def test_same_fields_other_class_unequal():
    # equality never crosses classes, even over equal field tuples
    p = PartialPermutation(positions=(1,), values=(1,))
    t = CyclePathType(cycles=(1,), paths=(1,))
    assert (p.positions, p.values) == (t.cycles, t.paths)
    assert p != t
    assert t != p
