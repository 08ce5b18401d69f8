"""Built-in 5x5 PageRank examples used by the experiment CLI.

Each case is a column-stochastic link matrix Q with damping d = 0.85; the
fixed point solves x = d Q x + (1-d) e under sigma(x) = 1. The four graphs
escalate from a plain cycle to a near-absorbing self-loop:

* case1 -- cycle 1->2->3->4->5, node 5 splitting back to 1 and 2.
* case2 -- cycle with an extra branch out of node 3.
* case3 -- more cross links; several nodes split their mass.
* case4 -- chain 1->2->3->4->5 where node 5 keeps 99% of its mass
  (self-loop) and leaks 1% back to node 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import SparseColumnMatrix

__all__ = ["CaseDefinition", "load_case", "BUILTIN_CASES", "DEFAULT_DAMPING"]

DEFAULT_DAMPING = 0.85

_CASE_ROWS = {
    "case1": [
        [0, 0, 0, 0, 0.5],
        [1, 0, 0, 0, 0.5],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
    ],
    "case2": [
        [0, 0, 0.5, 0, 0.5],
        [1, 0, 0, 0, 0.5],
        [0, 1, 0, 0, 0],
        [0, 0, 0.5, 0, 0],
        [0, 0, 0, 1, 0],
    ],
    "case3": [
        [0, 0.5, 0.5, 0, 0.5],
        [1, 0, 0, 0, 0.5],
        [0, 0.5, 0, 0, 0],
        [0, 0, 0.5, 0, 0],
        [0, 0, 0, 1, 0],
    ],
    "case4": [
        [0, 0, 0, 0, 0.01],
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0.99],
    ],
}

BUILTIN_CASES = tuple(sorted(_CASE_ROWS))


@dataclass(frozen=True)
class CaseDefinition:
    """A named link matrix plus its damping factor."""

    name: str
    q: SparseColumnMatrix
    d: float = DEFAULT_DAMPING


def load_case(name: str) -> CaseDefinition:
    """Return a built-in case; every column of its Q sums to exactly 1 (a test checks each)."""
    if name not in _CASE_ROWS:
        raise ValueError(f"unknown case {name!r}; choose from {', '.join(BUILTIN_CASES)}")
    q = SparseColumnMatrix.from_dense(_CASE_ROWS[name])
    return CaseDefinition(name=name, q=q, d=DEFAULT_DAMPING)
