"""Curve-type census and concrete curve validation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lefschetz.curves import (
    Curve,
    CurveClass,
    boundary_subset_class,
    class_count,
    enumerate_classes,
    nonseparating_curve,
    separating_curve,
    subset_from_class,
)
from lefschetz.errors import CapacityError, InputError
from lefschetz.homology import MAX_FIBER_RANK, SurfaceSpec


def test_census_examples():
    assert enumerate_classes(SurfaceSpec(1, 1)) == (CurveClass.nonseparating(),)
    assert enumerate_classes(SurfaceSpec(0, 4)) == (
        CurveClass.separating((0, 1), (0, 3)),
        CurveClass.separating((0, 2), (0, 2)),
    )
    assert enumerate_classes(SurfaceSpec(0, 1)) == ()
    assert enumerate_classes(SurfaceSpec(1, 0)) == (CurveClass.nonseparating(),)


def test_enumeration_refused_past_rank_bound():
    with pytest.raises(CapacityError):
        enumerate_classes(SurfaceSpec(0, MAX_FIBER_RANK + 2))
    assert len(enumerate_classes(SurfaceSpec(0, MAX_FIBER_RANK + 1))) == 50


def test_count_examples():
    assert class_count(SurfaceSpec(1, 1)) == 1
    assert class_count(SurfaceSpec(0, 4)) == 2
    assert class_count(SurfaceSpec(2, 3)) == 4
    assert class_count(SurfaceSpec(1, 0)) == 1
    assert class_count(SurfaceSpec(0, 0)) == 0


def test_count_matches_enumeration_table():
    for g in range(7):
        for b in range(1, 9):
            s = SurfaceSpec(g, b)
            assert len(enumerate_classes(s)) == class_count(s), (g, b)


def test_enumeration_normalized_and_sorted():
    for g in range(5):
        for b in range(9):
            classes = enumerate_classes(SurfaceSpec(g, b))
            assert len(set(classes)) == len(classes)
            assert list(classes) == sorted(classes, key=CurveClass.sort_key)
            for cls in classes:
                cls.validate_for(SurfaceSpec(g, b))
                if cls.is_separating:
                    assert cls.sides[0] <= cls.sides[1]
                    assert cls.sides[0][1] >= 1 and cls.sides[1][1] >= 1


def test_class_invariants():
    with pytest.raises(InputError):
        CurveClass.separating((0, 0), (1, 2))  # empty-boundary side bounds
    with pytest.raises(InputError):
        CurveClass("sep", ((1, 2), (0, 1)))  # not normalized
    with pytest.raises(InputError):
        CurveClass.nonseparating().validate_for(SurfaceSpec(0, 4))
    with pytest.raises(InputError):
        CurveClass.separating((0, 1), (0, 2)).validate_for(SurfaceSpec(1, 3))


def test_boundary_subset_classes():
    s = SurfaceSpec(0, 4)
    assert boundary_subset_class(s, frozenset({1, 2})) == (1, 1, 0)
    assert boundary_subset_class(s, frozenset({3, 4})) == (-1, -1, 0)
    assert subset_from_class(s, (1, 1, 0)) == {1, 2}
    assert subset_from_class(s, (-1, -1, 0)) == {3, 4}
    assert subset_from_class(s, (2, 1, 0)) is None
    assert subset_from_class(s, (1, -1, 0)) is None
    with pytest.raises(InputError):
        boundary_subset_class(s, frozenset({1, 2, 3, 4}))
    with pytest.raises(InputError):
        boundary_subset_class(s, frozenset())


def test_curve_validation():
    s = SurfaceSpec(1, 2)
    nonseparating_curve(s, (1, 0, 0))
    nonseparating_curve(s, (2, 1, 5))
    with pytest.raises(InputError):
        nonseparating_curve(s, (2, 0, 0))  # imprimitive
    with pytest.raises(InputError):
        nonseparating_curve(s, (0, 0, 1))  # boundary-type class
    with pytest.raises(InputError):
        nonseparating_curve(s, (0, 0, 0))  # inessential
    c = separating_curve(s, {1}, (0, 1))
    assert c.cls == CurveClass.separating((0, 1), (1, 1))
    assert c.hom == (0, 0, 1)
    with pytest.raises(InputError):
        Curve(s, CurveClass.separating((0, 1), (1, 1)), (1, 0, 0))


def test_curve_subset_size_consistency():
    s = SurfaceSpec(0, 4)
    with pytest.raises(InputError):
        # class of a 2-element subset against a (1,3) split
        Curve(s, CurveClass.separating((0, 1), (0, 3)), (1, 1, 0))
    Curve(s, CurveClass.separating((0, 2), (0, 2)), (1, 1, 0))


def test_curve_label_ignored_by_equality():
    s = SurfaceSpec(1, 1)
    assert nonseparating_curve(s, (1, 0), "x") == nonseparating_curve(s, (1, 0), "y")


@given(
    g=st.integers(0, 3),
    b=st.integers(2, 6),
    data=st.data(),
)
def test_subset_class_round_trip(g, b, data):
    s = SurfaceSpec(g, b)
    size = data.draw(st.integers(1, b - 1))
    subset = frozenset(data.draw(st.permutations(range(1, b + 1)))[:size])
    hom = boundary_subset_class(s, subset)
    assert subset_from_class(s, hom) == subset
