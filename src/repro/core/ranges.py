"""Predicate ranges: the conditions RSPN leaves evaluate.

A :class:`Range` is a union of disjoint intervals over the encoded value
domain of one attribute plus a flag whether NULL belongs to the range.
Every predicate of the paper's query class (= <> < <= > >= IN BETWEEN
IS [NOT] NULL) maps to a Range, and conjunctions of predicates on the
same attribute map to Range intersection.  SQL three-valued logic is
encoded directly: comparison predicates never include NULL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_EPS = 1e-9


@dataclass(frozen=True)
class Interval:
    """One interval with explicit bound inclusivity."""

    low: float
    high: float
    low_inclusive: bool = True
    high_inclusive: bool = True

    def is_empty(self):
        if self.low > self.high:
            return True
        if self.low == self.high:
            return not (self.low_inclusive and self.high_inclusive)
        return False

    def is_point(self):
        return self.low == self.high and self.low_inclusive and self.high_inclusive

    def contains(self, value):
        if value < self.low or value > self.high:
            return False
        if value == self.low and not self.low_inclusive:
            return False
        if value == self.high and not self.high_inclusive:
            return False
        return True

    def intersect(self, other):
        if self.low > other.low or (self.low == other.low and not self.low_inclusive):
            low, low_inc = self.low, self.low_inclusive
        else:
            low, low_inc = other.low, other.low_inclusive
        if self.high < other.high or (self.high == other.high and not self.high_inclusive):
            high, high_inc = self.high, self.high_inclusive
        else:
            high, high_inc = other.high, other.high_inclusive
        candidate = Interval(low, high, low_inc, high_inc)
        return None if candidate.is_empty() else candidate


FULL_INTERVAL = Interval(-math.inf, math.inf)


@dataclass(frozen=True)
class Range:
    """Union of disjoint intervals plus NULL membership."""

    intervals: tuple
    include_null: bool = False

    # -- constructors ---------------------------------------------------
    @classmethod
    def everything(cls, include_null=True):
        return cls((FULL_INTERVAL,), include_null=include_null)

    @classmethod
    def nothing(cls):
        return cls((), include_null=False)

    @classmethod
    def null_only(cls):
        return cls((), include_null=True)

    @classmethod
    def point(cls, value):
        return cls((Interval(value, value),), include_null=False)

    @classmethod
    def points(cls, values):
        intervals = tuple(Interval(v, v) for v in sorted(set(values)))
        return cls(intervals, include_null=False)

    @classmethod
    def from_operator(cls, op, value):
        """Range of one predicate over an encoded constant.

        ``value`` must already be encoded; ``None`` means the constant is
        outside the vocabulary (selects nothing for ``=``/``IN``,
        everything non-NULL for ``<>``).
        """
        if op == "IS NULL":
            return cls.null_only()
        if op == "IS NOT NULL":
            return cls((FULL_INTERVAL,), include_null=False)
        if op == "IN":
            encoded = [v for v in value if v is not None]
            return cls.points(encoded) if encoded else cls.nothing()
        if op == "BETWEEN":
            low, high = value
            if low is None or high is None:
                return cls.nothing()
            interval = Interval(float(low), float(high))
            if interval.is_empty():  # inverted bounds select nothing
                return cls.nothing()
            return cls((interval,),)
        if value is None:
            if op == "<>":
                return cls((FULL_INTERVAL,), include_null=False)
            return cls.nothing()
        value = float(value)
        if op == "=":
            return cls.point(value)
        if op == "<>":
            return cls(
                (
                    Interval(-math.inf, value, True, False),
                    Interval(value, math.inf, False, True),
                )
            )
        if op == "<":
            return cls((Interval(-math.inf, value, True, False),))
        if op == "<=":
            return cls((Interval(-math.inf, value),))
        if op == ">":
            return cls((Interval(value, math.inf, False, True),))
        if op == ">=":
            return cls((Interval(value, math.inf),))
        raise ValueError(f"unsupported operator {op!r}")

    # -- algebra ---------------------------------------------------------
    def is_empty(self):
        return not self.intervals and not self.include_null

    def is_unconstrained(self):
        return (
            self.include_null
            and len(self.intervals) == 1
            and self.intervals[0] == FULL_INTERVAL
        )

    def intersect(self, other):
        intervals = []
        for a in self.intervals:
            for b in other.intervals:
                merged = a.intersect(b)
                if merged is not None:
                    intervals.append(merged)
        intervals.sort(key=lambda i: (i.low, i.high))
        return Range(tuple(intervals), include_null=self.include_null and other.include_null)

    def contains(self, value):
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return self.include_null
        return any(interval.contains(value) for interval in self.intervals)

    def point_values(self):
        """Encoded values when the range is a finite set of points, else None."""
        if not all(interval.is_point() for interval in self.intervals):
            return None
        return [interval.low for interval in self.intervals]

    def describe(self):
        parts = []
        for interval in self.intervals:
            left = "[" if interval.low_inclusive else "("
            right = "]" if interval.high_inclusive else ")"
            parts.append(f"{left}{interval.low}, {interval.high}{right}")
        if self.include_null:
            parts.append("NULL")
        return " u ".join(parts) if parts else "{}"


def range_from_predicates(op_value_pairs):
    """Intersection of the ranges of several predicates on one attribute."""
    result = Range.everything(include_null=True)
    for op, encoded in op_value_pairs:
        result = result.intersect(Range.from_operator(op, encoded))
    return result
