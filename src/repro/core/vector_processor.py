"""Parallel timestamp-vector comparison (Section III-E, Figs. 6-7).

The paper shows how ``O(k)`` vector processors compare two k-element vectors
in ``O(log k)`` parallel time, in five phases:

1. load the two vectors into processor rows ``a`` and ``b``;
2. *subtract*: ``c_i = 0`` if ``a_i = b_i`` else ``1`` (constant time, all
   lanes in parallel);
3. *partial OR*: ``d_i = c_1 (+) ... (+) c_i`` — a parallel prefix-OR over a
   binary tree of height ``ceil(log2 k)`` (Fig. 7);
4. *boundary detect*: the unique lane with ``d_i = 1`` and ``d_{i-1} = 0``
   holds the first differing position (constant time);
5. *decide*: compare ``a_m`` with ``b_m`` at that lane (constant time).

Real SIMD hardware is simulated: each phase operates on whole lanes (one
list element per processor) and the simulator counts **parallel steps**,
so Theorem 4's complexity claim (``O(log k)`` steps vs the sequential
``O(k)``) is measurable.  Undefined
elements are handled per the paper's remark ("the algorithm can be easily
refined without affecting the time complexity"): lanes carry a definedness
bit, the subtract phase marks a lane as *differing* when exactly one side is
undefined, and the decide phase maps the three cases (both defined / one
undefined / both undefined) onto Definition 6's ``<``/``>``/``?``/``=``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .timestamp import (
    Comparison,
    Ordering,
    TimestampVector,
    UNDEFINED,
    compare as sequential_compare,
)


@dataclass(frozen=True)
class ParallelResult:
    """Outcome of one simulated parallel comparison."""

    comparison: Comparison
    parallel_steps: int
    processors: int


def prefix_or_steps(k: int) -> int:
    """Height of the Fig. 7 prefix-OR tree for vectors of size *k*."""
    if k < 1:
        raise ValueError("k must be positive")
    return max(1, math.ceil(math.log2(k))) if k > 1 else 1


def parallel_step_bound(k: int) -> int:
    """Total parallel steps: 4 constant-time phases + the prefix-OR tree."""
    return 4 + prefix_or_steps(k)


class VectorComparator:
    """Simulated SIMD comparator for timestamp vectors.

    :meth:`compare` returns the same :class:`Comparison` as the sequential
    Definition 6 scan (the simulator cross-checks itself against it) plus
    the parallel step count.  Integer-valued vectors only: the DMT(k)
    site-tagged tuples are flattened by the caller if needed.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.total_steps = 0
        self.total_comparisons = 0

    # ------------------------------------------------------------------
    def compare(
        self, left: TimestampVector, right: TimestampVector
    ) -> ParallelResult:
        if left.k != self.k or right.k != self.k:
            raise ValueError("vector dimension mismatch with comparator")
        steps = 0

        # Phase 1: load lanes (values + definedness bits).         [1 step]
        a_vals, a_def = self._load(left)
        b_vals, b_def = self._load(right)
        steps += 1

        # Phase 2: subtract — lanes differ when values differ or exactly
        # one side is undefined (both undefined also marks the lane, and
        # the decide phase reads it as ``=``).                      [1 step]
        c = [
            int(not (da and db) or va != vb)
            for va, da, vb, db in zip(a_vals, a_def, b_vals, b_def)
        ]
        steps += 1

        # Phase 3: parallel prefix OR over a binary tree (Fig. 7).
        d, tree_steps = self._prefix_or(c)
        steps += tree_steps

        # Phase 4: boundary detect — d_i = 1 and d_{i-1} = 0.       [1 step]
        boundary = [
            di == 1 and prev == 0 for di, prev in zip(d, [0] + d[:-1])
        ]
        steps += 1

        # Phase 5: decide at the boundary lane.                     [1 step]
        steps += 1
        if not any(boundary):
            result = Comparison.of(Ordering.IDENTICAL, self.k)
        else:
            lane = boundary.index(True)  # unique by construction
            position = lane + 1
            if a_def[lane] and b_def[lane]:
                ordering = (
                    Ordering.LESS
                    if a_vals[lane] < b_vals[lane]
                    else Ordering.GREATER
                )
            elif not a_def[lane] and not b_def[lane]:
                ordering = Ordering.EQUAL
            else:
                ordering = Ordering.SEMI
            result = Comparison.of(ordering, position)

        expected = sequential_compare(left, right)
        if result != expected:  # pragma: no cover - simulator self-check
            raise AssertionError(
                f"parallel comparator disagrees with Definition 6: "
                f"{result!r} vs {expected!r}"
            )
        self.total_steps += steps
        self.total_comparisons += 1
        return ParallelResult(result, steps, self.k)

    # ------------------------------------------------------------------
    def _load(self, vector: TimestampVector) -> tuple[list[int], list[bool]]:
        defined = [element is not UNDEFINED for element in vector]
        values = [
            int(element) if present else 0
            for element, present in zip(vector, defined)
        ]
        return values, defined

    @staticmethod
    def _prefix_or(c: list[int]) -> tuple[list[int], int]:
        """Kogge-Stone style prefix OR; returns (d, tree height in steps).

        Each doubling round is one parallel step: every processor combines
        with the lane ``2^r`` to its left (the Fig. 7 tree flattened into a
        standard prefix network of the same depth).
        """
        d = list(c)
        steps = 0
        offset = 1
        while offset < len(d):
            d = [
                di | (d[i - offset] if i >= offset else 0)
                for i, di in enumerate(d)
            ]
            offset *= 2
            steps += 1
        if len(d) == 1:
            steps = 1  # a single lane still spends one OR step
        return d, steps

    # ------------------------------------------------------------------
    @property
    def mean_steps(self) -> float:
        if self.total_comparisons == 0:
            return 0.0
        return self.total_steps / self.total_comparisons


def sequential_step_count(left: TimestampVector, right: TimestampVector) -> int:
    """Steps a sequential scan needs: the deciding position ``m`` (worst
    case ``k``) — the baseline Theorem 4 improves on."""
    return sequential_compare(left, right).position
