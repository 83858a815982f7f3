"""Harmonic numbers and partial harmonic sums.

The contextual edit distance charges ``1/max(|u|, |v|)`` per elementary
operation ``u -> v``.  Along a canonical internal path (insertions first,
then substitutions, then deletions -- Lemma 1 of the paper), the total cost
of the insertion and deletion phases is a *partial harmonic sum*:

* ``Ni`` insertions growing a string from length ``m`` cost
  ``1/(m+1) + ... + 1/(m+Ni) = H(m+Ni) - H(m)``;
* ``Nd`` deletions shrinking a string down to length ``n`` cost
  ``1/(n+Nd) + ... + 1/(n+1) = H(n+Nd) - H(n)``.

Evaluating the cost functional ``D(k, Ni)`` for every feasible ``k`` is the
inner loop of Algorithm 1, so partial sums must be O(1).  This module keeps a
process-wide growable prefix table of ``H(n)`` values.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["harmonic", "harmonic_range", "harmonic_prefix", "HarmonicTable"]


class HarmonicTable:
    """Growable table of harmonic numbers ``H(0..n)`` with O(1) lookups.

    ``H(0) = 0`` and ``H(n) = 1 + 1/2 + ... + 1/n``.  The table extends
    itself on demand and never shrinks, so repeated distance computations
    amortise to a handful of float additions.
    """

    def __init__(self, initial_size: int = 256) -> None:
        self._values: List[float] = [0.0]
        self.grow(initial_size)

    def grow(self, n: int) -> None:
        """Ensure ``H(i)`` is tabulated for every ``i <= n``."""
        values = self._values
        for i in range(len(values), n + 1):
            values.append(values[-1] + 1.0 / i)

    def value(self, n: int) -> float:
        """Return ``H(n)``; raises ``ValueError`` for negative ``n``."""
        if n < 0:
            raise ValueError(f"harmonic number undefined for n={n}")
        if n >= len(self._values):
            self.grow(max(n, 2 * len(self._values)))
        return self._values[n]

    def partial(self, low: int, high: int) -> float:
        """Return ``1/(low+1) + ... + 1/high`` (i.e. ``H(high) - H(low)``).

        Returns 0.0 when ``high <= low``; raises for negative bounds.
        """
        if low < 0 or high < 0:
            raise ValueError(f"negative bounds: low={low}, high={high}")
        if high <= low:
            return 0.0
        return self.value(high) - self.value(low)

    def prefix(self, n: int) -> np.ndarray:
        """``[H(0), ..., H(n)]`` as a float64 array of the table's own
        doubles (grown to ``n`` first), so array code subtracts exactly
        what :meth:`partial` subtracts."""
        self.value(n)
        return np.asarray(self._values[: n + 1], dtype=np.float64)


_TABLE = HarmonicTable()


def harmonic(n: int) -> float:
    """Return the harmonic number ``H(n) = sum_{i=1..n} 1/i`` (``H(0)=0``)."""
    return _TABLE.value(n)


def harmonic_range(low: int, high: int) -> float:
    """Return ``sum_{i=low+1..high} 1/i``, the cost of growing a string
    from length ``low`` to length ``high`` one insertion at a time (or the
    mirror-image deletion cost)."""
    return _TABLE.partial(low, high)


def harmonic_prefix(n: int) -> np.ndarray:
    """``[H(0), ..., H(n)]`` from the process-wide table, for array code
    that must add the same doubles as :func:`harmonic_range`."""
    return _TABLE.prefix(n)
