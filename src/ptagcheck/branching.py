"""Galton-Watson view of the derivation process.

Each rewrite site is a population type.  Resolving one instance of site j
spawns the sites of whichever tree was adjoined (or substituted) there, so
the offspring law of type j is the adjunction generating function

    g_j(s_1, ..., s_k) = sum over targets t of phi(site_j -> t) *
                         product of s_i for the sites i occurring in t,

with the "no adjunction" mass contributing the constant phi(site_j -> nil).
Level generating functions iterate G_n = G_{n-1}[g_1, ..., g_k] from
G_0 = sum over start trees t of w_t * product of t's site variables, with
w the start law; the constant term C_n of G_n is the probability the
derivation has finished by level n, and the fixed point of q = g(q) from
q = 0 is the per-site termination (extinction) probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expectation import LabelledMatrix, SiteIndex, start_law
from .polynomials import SparsePolynomial, TermCapExceeded  # noqa: F401  (raised by level_gf)

DEFAULT_TERM_CAP = 100_000


@dataclass
class ExtinctionVector:
    q: np.ndarray
    site_index: SiteIndex
    iterations: int
    residual: float
    converged: bool

    def __getitem__(self, site_id):
        return float(self.q[self.site_index[site_id]])

    def as_dict(self):
        return {site: float(self.q[i]) for i, site in enumerate(self.site_index.ids)}


def adjunction_gf(g, site_id):
    """Offspring generating function of one site, over all k site variables."""
    idx = g.index
    if site_id not in idx.position:
        raise KeyError(f"unknown site {site_id!r}")
    poly = SparsePolynomial.zero(len(idx))
    for target, prob in g.phi[site_id]:
        if target is None:
            poly = poly + SparsePolynomial.constant(prob, len(idx))
        else:
            positions = [idx[n.site_id] for n in g.tree(target).sites]
            poly = poly + SparsePolynomial.monomial(prob, positions, len(idx))
    return poly


def level_gf(g, n, term_cap=DEFAULT_TERM_CAP):
    """n-th level generating function G_n, built by repeated substitution.

    G_0 is the start law's mixture of the start trees' site-variable
    products (a tree without sites adds its weight as a constant); each
    further level substitutes every site's offspring function
    simultaneously.  Grows exponentially with n; the term cap aborts
    symbolic blowup.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if term_cap is not None and term_cap < 0:
        raise ValueError("term_cap must be >= 0")
    idx = g.index
    poly = SparsePolynomial.zero(len(idx))
    for t, w in zip(*start_law(g)):
        poly = poly + SparsePolynomial.monomial(
            w, range(idx.tree_start[t], idx.tree_start[t + 1]), len(idx))
    gfs = [adjunction_gf(g, site) for site in idx.ids]
    for _ in range(n):
        poly = poly.substitute(gfs, term_cap=term_cap)
    return poly


def constant_split(poly):
    """(D, C): the no-constant-term part and the constant of a polynomial."""
    c = poly.constant_term
    return poly + SparsePolynomial.constant(-c, poly.nvars), c


def m_from_partials(g):
    """Expectation matrix from symbolic partial derivatives at all-ones.

    Independent of the P @ N construction: m[i][j] = d g_i / d s_j at
    s = (1, ..., 1).
    """
    idx = g.index
    k = len(idx)
    ones = [1.0] * k
    values = np.zeros((k, k))
    for i, site in enumerate(idx.ids):
        poly = adjunction_gf(g, site)
        for j in range(k):
            values[i, j] = poly.partial(j).evaluate(ones)
    return LabelledMatrix(values, idx.ids)


def extinction(g, tol=1e-12, max_iter=10**6):
    """Per-site termination probability by fixed-point iteration of q = g(q).

    Starts at q = 0; iterates are monotone nondecreasing and bounded by one,
    converging to the smallest fixed point.  Stops when the max-norm change
    drops below tol; if max_iter is hit first the last iterate is returned
    with converged=False.  Values are capped at 1.0 so that site sums at the
    edge of the properness tolerance cannot push a probability above one.
    A decreasing iterate means some phi entry is negative, and raises
    ValueError, as do max_iter < 1 and a negative or NaN tol.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol >= 0.0:
        raise ValueError("tol must be >= 0")
    idx = g.index
    q = np.zeros(len(idx))
    if not len(idx):
        return ExtinctionVector(q, idx, 0, 0.0, True)
    residual = float("inf")
    for iteration in range(1, max_iter + 1):
        nxt = np.minimum(idx.offspring(q), 1.0)
        if (nxt < q).any():
            raise ValueError("extinction iterates decreased; phi has a negative entry")
        residual = float(np.abs(nxt - q).max())
        q = nxt
        if residual < tol:
            return ExtinctionVector(q, idx, iteration, residual, True)
    return ExtinctionVector(q, idx, max_iter, residual, False)


def death_by_level(g, n):
    """Probability a derivation has finished by level n.

    Numeric counterpart of constant_split(level_gf(g, n))[1]: the start
    law's mixture, over the start trees, of the product over each tree's
    sites of the n-fold iterate of the offspring functions at zero.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    idx = g.index
    positions, probs = start_law(g)
    q = np.zeros(len(idx))
    for _ in range(n):
        q = np.minimum(idx.offspring(q), 1.0)
    return float(probs @ idx.tree_prod(q)[positions])


def start_termination(g, ev):
    """Termination probability per start tree: the product of its sites' q.

    Returned per tree id; the start law's mixture of these values is the
    grammar's termination probability.
    """
    idx = ev.site_index
    by_tree = idx.tree_prod(ev.q)
    return {idx.tree_ids[t]: float(by_tree[t]) for t in start_law(g)[0]}
