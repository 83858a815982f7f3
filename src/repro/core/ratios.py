"""Naive length-ratio normalisations of the edit distance (Section 2.2).

``d_sum = d_E / (|x|+|y|)``, ``d_max = d_E / max(|x|,|y|)`` and
``d_min = d_E / min(|x|,|y|)`` are the obvious first attempts at
normalisation.  None of them is a metric: the paper gives explicit
triangle-inequality counterexamples, which this module records as data so
tests and examples can replay them verbatim.

``d_max`` matters beyond being a strawman: in the paper's Table 2 it
achieves the *best* classification error, while its non-metricity makes
triangle-inequality-based search (LAESA) formally unsound (though
empirically harmless in Table 2).
"""

from __future__ import annotations

from typing import Tuple

from .levenshtein import levenshtein_distance
from .types import DistanceFunction, StringLike, require_strings

__all__ = [
    "sum_normalized_distance",
    "max_normalized_distance",
    "min_normalized_distance",
    "TRIANGLE_COUNTEREXAMPLES",
    "triangle_defect",
]


def sum_normalized_distance(x: StringLike, y: StringLike) -> float:
    """``d_sum(x, y) = d_E(x, y) / (|x| + |y|)`` (0 for two empty strings).

    Not a metric: ``d_sum(ab, ba) > d_sum(ab, aba) + d_sum(aba, ba)``.
    """
    x, y = require_strings(x, y)
    total = len(x) + len(y)
    if total == 0:
        return 0.0
    return levenshtein_distance(x, y) / total


def max_normalized_distance(x: StringLike, y: StringLike) -> float:
    """``d_max(x, y) = d_E(x, y) / max(|x|, |y|)`` (0 for two empty strings).

    Not a metric (same witness as ``d_sum``); bounded by 1.
    """
    x, y = require_strings(x, y)
    longest = max(len(x), len(y))
    if longest == 0:
        return 0.0
    return levenshtein_distance(x, y) / longest


def min_normalized_distance(x: StringLike, y: StringLike) -> float:
    """``d_min(x, y) = d_E(x, y) / min(|x|, |y|)``.

    Not a metric (witness ``x=b, y=ba, z=aa``); moreover it is infinite
    against the empty string unless both strings are empty, which this
    implementation reports as ``float('inf')``.
    """
    x, y = require_strings(x, y)
    shortest = min(len(x), len(y))
    if shortest == 0:
        # both empty iff the lengths agree ("" and () included)
        return 0.0 if len(x) == len(y) else float("inf")
    return levenshtein_distance(x, y) / shortest


#: The triangle-inequality counterexamples quoted in Section 2.2, as
#: ``(distance_name, (x, y, z))`` with the violation ``d(x,z) > d(x,y)+d(y,z)``.
TRIANGLE_COUNTEREXAMPLES: Tuple[Tuple[str, Tuple[str, str, str]], ...] = (
    ("dsum", ("ab", "aba", "ba")),
    ("dmax", ("ab", "aba", "ba")),
    ("dmin", ("b", "ba", "aa")),
)


def triangle_defect(
    distance: DistanceFunction, x: StringLike, y: StringLike, z: StringLike
) -> float:
    """Return ``d(x, z) - (d(x, y) + d(y, z))``; positive means violation."""
    return distance(x, z) - (distance(x, y) + distance(y, z))
