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

from .expectation import LabelledMatrix, SiteIndex, _check_dense, start_law, start_mixture
from .polynomials import SparsePolynomial, _shift

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
    k = len(idx)
    coeffs, degree = {}, 0
    for target, prob in g.phi[site_id]:
        key = 0
        if target is not None:
            for n in g.tree(target).sites:
                key |= 1 << _shift(idx[n.site_id], k)
            if key:
                degree = 1
        # poly + constant(prob) or + monomial(prob, sites) in place: the same
        # keys, order and bits, a sum that reaches zero pruned where it does
        total = coeffs.get(key, 0.0) + float(prob)
        if total != 0.0:
            coeffs[key] = total
        else:
            coeffs.pop(key, None)
    return SparsePolynomial._of(k, coeffs, degree)


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
    poly = SparsePolynomial.constant(0.0, len(idx))
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
    s = (1, ..., 1).  Each g_i is differentiated only by the variables that
    occur in it: the partial by any other is the zero polynomial, so its
    entry keeps the 0.0 the matrix starts with.  Raises DenseCapExceeded,
    as build_M does, before any polynomial work when k * k passes
    DENSE_CELL_CAP.
    """
    idx = g.index
    k = len(idx)
    _check_dense(k, k)
    ones = [1.0] * k
    values = np.zeros((k, k))
    for i, site in enumerate(idx.ids):
        poly = adjunction_gf(g, site)
        for j in poly.variables():
            values[i, j] = poly.partial(j).evaluate(ones)
    return LabelledMatrix(values, idx.ids)


# Kleene steps run in blocks of BLOCK_CELLS // (k + 1) steps, so that a
# block's rows stay in cache, but at most MAX_BLOCK and at least two, since
# blocks of one step measured slower than blocks of two from 5,000 to 20,000
# sites: 16 steps up to 511 sites, two from 2,730.
BLOCK_CELLS = 8192
MAX_BLOCK = 16


def _kleene(idx, steps):
    """Run steps >= 0 Kleene steps q_r+1 = min(g(q_r), 1) from q_0 = 0.

    After each block of n steps, yield a view of n + 1 rows, valid until the
    next block: the iterate before the block (q_0 alone for steps = 0), then
    the block's n iterates, every row ending in the 1.0 that idx.bounds
    reads.  Between blocks the last iterate is copied into row 0."""
    k = len(idx)
    buf = np.zeros((1 + max(2, min(MAX_BLOCK, BLOCK_CELLS // (k + 1))), k + 1))
    buf[:, k] = 1.0
    rows = [(row, row[:k]) for row in buf]
    while True:
        n = min(len(buf) - 1, steps)
        for (ext, _), (_, nxt) in zip(rows, rows[1:n + 1]):
            spawned = np.multiply.reduceat(ext, idx.bounds)[idx.entry_slot]
            spawned *= idx.prob
            np.add(idx.nil, np.bincount(idx.site, spawned, minlength=k), out=nxt)
            np.minimum(nxt, 1.0, out=nxt)
        yield buf[:n + 1]
        steps -= n
        if not steps:
            return
        buf[0] = buf[n]


def extinction(g, tol=1e-12, max_iter=10**6):
    """Per-site termination probability by fixed-point iteration of q = g(q).

    Starts at q = 0; iterates are monotone nondecreasing and bounded by one,
    converging to the smallest fixed point.  Stops at the first step whose
    max-norm change is below tol; if max_iter is hit first the last iterate
    is returned with converged=False.  converged=True says only that the
    last step changed q by less than tol, not that q is within tol of the
    fixed point: near criticality the steps shrink slowly, and q can stop
    much further than tol below it (on the tests' random_proper_grammar(31),
    rho 1.0099, the default tol stops after 2,016 steps, 1.0e-10 below).
    Values are capped at 1.0 so that site sums at the edge of the properness
    tolerance cannot push a probability above one.  The steps run in blocks
    (16 steps up to 511 sites, two from 2,730) and the change is tested once
    per block; the steps after the converged one are discarded, so iterate,
    count and residual are those of a test after every step.  phi breaking
    the SiteIndex input contract raises ValueError up front, and with it
    kept each rounded operation is monotone, so no iterate can fall.
    max_iter < 1 and a negative or NaN tol raise ValueError too.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol >= 0.0:
        raise ValueError("tol must be >= 0")
    idx = g.index.checked()
    k = len(idx)
    if not k:
        return ExtinctionVector(np.zeros(0), idx, 0, 0.0, True)
    done = 0
    for view in _kleene(idx, max_iter):
        # whole rows: the trailing 1.0s change by 0.0, which is no residual's
        # max since no iterate falls
        residuals = np.maximum.reduce(view[1:] - view[:-1], axis=1)
        for row, residual in enumerate(residuals.tolist(), 1):
            if residual < tol:
                return ExtinctionVector(view[row, :k].copy(), idx, done + row, residual, True)
        done += len(residuals)
    return ExtinctionVector(view[-1, :k].copy(), idx, max_iter, residual, False)


def death_by_level(g, n):
    """Probability a derivation has finished by level n.

    Numeric counterpart of constant_split(level_gf(g, n))[1]: the
    start_mixture of the n-fold iterate of the offspring functions at zero.
    phi breaking the SiteIndex input contract raises ValueError.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    idx = g.index.checked()
    for view in _kleene(idx, n):
        pass
    return start_mixture(g, view[-1, :-1])


def start_termination(g, ev):
    """Termination probability per start tree: the product of its sites' q.

    Returned per tree id; the start law's mixture of these values is the
    grammar's termination probability.
    """
    idx = ev.site_index
    by_tree = idx.tree_prod(ev.q)
    return {idx.tree_ids[t]: float(by_tree[t]) for t in start_law(g)[0]}
