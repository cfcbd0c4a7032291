"""Consistency verdicts via the repeated-squaring row-sum test.

A proper grammar is consistent when the spectral radius of its expectation
matrix is below one, which holds exactly when some power M^n has every row
sum below one.  The checker squares M (so only powers 2^k are visited: once a
power passes, every later one does), stopping with one of three verdicts:

  Consistent     some M^(2^k) had all row sums < 1, and every reachable
                 tree can finish
  Inconsistent   a spectral-radius lower bound exceeded 1 + tol, using
                 rho >= diag(M^n)_ii^(1/n) and, when every row sum is
                 positive, rho >= (min row sum)^(1/n); or a tree that a
                 derivation from the start trees can place cannot finish
  Indeterminate  the squaring budget ran out, or a power's max row sum
                 passed SCALE_HIGH first (covers the rho = 1 boundary,
                 which is deliberately not decided)

The structural rule is exact where the squaring is not: rounding can bring a
power's row sums below 1 although no derivation finishes.  A tree finishes
when some derivation from it does (SiteIndex.finishes, the productive-symbol
test of context-free grammars), and a derivation that places one that cannot
never ends.

Powers are never rescaled.  A power whose row sums are at most
SCALE_HIGH = 1e100 squares to one whose row sums are at most 1e200, far
inside double range, so no product overflows and no entry that could grow
again is flushed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expectation import build_M

SCALE_HIGH = 1e100

CONSISTENT = "Consistent"
INCONSISTENT = "Inconsistent"
INDETERMINATE = "Indeterminate"


@dataclass
class ConsistencyReport:
    verdict: str
    squarings_used: int
    max_row_sum_trace: list  # [(k, max row sum of M^(2^k)), ...]
    rho_estimate: float
    rho_lower_bound: float
    tolerance: float

    def as_dict(self):
        return {"verdict": self.verdict, "squarings": self.squarings_used,
                "rho_estimate": self.rho_estimate,
                "rho_lower_bound": self.rho_lower_bound,
                "trace": [[k, v] for k, v in self.max_row_sum_trace]}


def check_consistency(g, max_squarings=64, tol=1e-9):
    """Decide consistency of a grammar whose phi passes SiteIndex.checked().

    Tests M^(2^k) for k = 0, 1, ... and returns at the first decisive power.
    The max row sum of a power gives its trace entry, the Consistent test and
    the Gelfand estimate (max row sum)^(1/2^k); its min row sum and diagonal
    give the lower bounds.  After max_squarings squarings, or at an earlier
    power whose max row sum passes SCALE_HIGH, the verdict is Indeterminate.
    Whatever the powers say, the verdict is Inconsistent when a reachable
    tree cannot finish (SiteIndex.reachable and finishes); the report keeps
    the trace and estimates of the powers.
    A negative max_squarings, a negative or NaN tol and phi that fails
    checked() raise ValueError; a grammar whose dense M would exceed
    expectation.DENSE_CELL_CAP cells raises DenseCapExceeded.
    """
    if max_squarings < 0:
        raise ValueError("max_squarings must be >= 0")
    if not tol >= 0.0:
        raise ValueError("tol must be >= 0")
    index = g.index.checked()
    stuck = bool((index.reachable & ~index.finishes).any())
    power = build_M(g).values
    trace = []
    best_lower = 0.0
    for k in range(max_squarings + 1):
        sums = power.sum(axis=1)
        top, bottom = (float(sums.max()), float(sums.min())) if sums.size else (0.0, 0.0)
        trace.append((k, top))
        for bound in (np.diagonal(power).max(initial=0.0), bottom):
            if bound > 0.0:  # rho >= bound^(1/2^k)
                best_lower = max(best_lower, _root(bound, k))
        verdict = (CONSISTENT if top < 1.0 else INCONSISTENT if best_lower > 1.0 + tol
                   else INDETERMINATE if top > SCALE_HIGH or k == max_squarings else None)
        if verdict:
            rho = _root(top, k) if top else 0.0
            return ConsistencyReport(INCONSISTENT if stuck else verdict, k, trace, rho,
                                     best_lower, tol)
        power = power @ power


def _root(x, k):
    """x^(1/2^k) for x > 0; ldexp cannot overflow where / 2**k would."""
    return math.exp(math.ldexp(math.log(x), -k))
