"""Consistency verdicts via the repeated-squaring row-sum test.

A proper grammar is consistent when the spectral radius of its expectation
matrix is below one, which holds exactly when some power M^n has every row
sum below one.  The checker squares M (so only powers 2^k are visited: once a
power passes, every later one does), stopping with one of three verdicts:

  Consistent     some M^(2^k) had all row sums < 1
  Inconsistent   a spectral-radius lower bound exceeded 1 + tol, using
                 rho >= diag(M^n)_ii^(1/n) and, when every row sum is
                 positive, rho >= (min row sum)^(1/n)
  Indeterminate  budget exhausted (covers the rho = 1 boundary, which is
                 deliberately not decided)

Powers are renormalized by their max row sum whenever entries leave
[1e-100, 1e100]; the accumulated log scale makes every reported quantity
exact in log space while the matrices stay well inside double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grammar as gr
from .expectation import build_M

SCALE_HIGH = 1e100
SCALE_LOW = 1e-100
_MAX_FLOAT_LOG = math.log(1.7e308)

CONSISTENT = "Consistent"
INCONSISTENT = "Inconsistent"
INDETERMINATE = "Indeterminate"


class InvalidGrammarError(ValueError):
    """Raised when an operation requires a grammar free of validation errors."""

    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        codes = ", ".join(d.code for d in diagnostics)
        super().__init__(f"grammar has validation errors: {codes}")


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


@dataclass
class ScaledPower:
    """M^exponent represented as matrix * exp(log_scale).

    log(true max row sum) = log_scale + log(max row sum of matrix), so norms
    of astronomically large or tiny powers remain available exactly.
    """

    matrix: np.ndarray
    log_scale: float = 0.0
    exponent: int = 1

    @classmethod
    def initial(cls, m):
        return cls(np.array(m, dtype=float))

    def squared(self):
        product = self.matrix @ self.matrix
        log_scale = 2.0 * self.log_scale
        top = _max_row_sum(product)
        if top > SCALE_HIGH or (0.0 < top < SCALE_LOW):
            product = product / top
            log_scale += math.log(top)
        return ScaledPower(product, log_scale, self.exponent * 2)

    def log_max_row_sum(self):
        top = _max_row_sum(self.matrix)
        return -math.inf if top == 0.0 else self.log_scale + math.log(top)

    def gelfand_value(self):
        """(true max row sum)^(1/exponent), the spectral radius estimate."""
        log_norm = self.log_max_row_sum()
        return 0.0 if log_norm == -math.inf else math.exp(log_norm / self.exponent)

    def rho_lower_bound(self):
        """Best available lower bound on the spectral radius at this power."""
        n = self.exponent
        bound = 0.0
        diag = np.diagonal(self.matrix)
        if diag.size and diag.max() > 0.0:
            bound = math.exp((self.log_scale + math.log(diag.max())) / n)
        if self.matrix.size:
            bottom = self.matrix.sum(axis=1).min()
            if bottom > 0.0:
                bound = max(bound, math.exp((self.log_scale + math.log(bottom)) / n))
        return bound


def _max_row_sum(m):
    return float(m.sum(axis=1).max()) if m.size else 0.0


def check_consistency(g, max_squarings=64, tol=1e-9):
    """Decide consistency of a validated grammar.

    Rejects grammars with error-severity diagnostics.  Tests M^(2^k) for
    k = 0, 1, ... and returns at the first decisive power; after
    max_squarings squarings the verdict is Indeterminate with the Gelfand
    value of the last power as the spectral radius estimate.  A negative
    max_squarings and a negative or NaN tol raise ValueError; a grammar
    whose dense M would exceed expectation.DENSE_CELL_CAP cells raises
    DenseCapExceeded.
    """
    if max_squarings < 0:
        raise ValueError("max_squarings must be >= 0")
    if not tol >= 0.0:
        raise ValueError("tol must be >= 0")
    errors = [d for d in g.diagnostics if d.severity == gr.ERROR]
    if errors:
        raise InvalidGrammarError(errors)

    power = ScaledPower.initial(build_M(g).values)
    trace = []
    best_lower = 0.0
    for k in range(max_squarings + 1):
        log_top = power.log_max_row_sum()
        trace.append((k, _saturated_exp(log_top)))
        best_lower = max(best_lower, power.rho_lower_bound())
        if log_top < 0.0:
            return ConsistencyReport(CONSISTENT, k, trace,
                                     power.gelfand_value(), best_lower, tol)
        if best_lower > 1.0 + tol:
            return ConsistencyReport(INCONSISTENT, k, trace,
                                     power.gelfand_value(), best_lower, tol)
        if k < max_squarings:
            power = power.squared()
    return ConsistencyReport(INDETERMINATE, max_squarings, trace,
                             power.gelfand_value(), best_lower, tol)


def _saturated_exp(log_value):
    # trace values stay finite even when the true row sum overflows a double
    if log_value == -math.inf:
        return 0.0
    return math.exp(min(log_value, _MAX_FLOAT_LOG))

