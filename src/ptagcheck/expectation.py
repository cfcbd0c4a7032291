"""The numeric form of a grammar and the expectation matrix built from it.

M[i][j] is the expected number of site-j instances created when site i is
rewritten once.  It factors as M = P @ N where P holds the adjunction (and
substitution) probabilities per site and tree, and N is the 0/1 site-in-tree
incidence.  Rows and columns follow the canonical site order: tree
declaration order, preorder within each tree.  SiteIndex lays the phi table
out in that order.  Grammar.index builds it once per grammar; the matrices,
the extinction iteration and the Monte Carlo all read it there, and it alone
decides which phi values a numeric path accepts.  start_law gives each start
tree's chance to begin a derivation, and start_mixture mixes by that law.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

# How far the phi mass of a site may stray from 1 through rounding (validate
# and SiteIndex.bad_site).
PROPERNESS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SiteIndex:
    """The numeric form of a grammar, read by every numeric path.

    Sites follow the canonical order, so tree t owns the contiguous slice
    tree_start[t]:tree_start[t + 1].  The non-nil phi entries are the
    parallel arrays site, tree and prob, site by site, each site's in
    document order; nil is the nil mass of each site, anchors the anchor
    count of each tree and starts the read-only positions of the start
    trees (initial trees rooted in the start symbol), in declaration order.
    The layout is recorded once, read-only: mass, the sum of each site's
    entries as nil + bincount(site, prob), the one sum that bad_site tests
    and validate reports; sizes, the site count of each tree; entry_start,
    so that site j owns the entries entry_start[j]:entry_start[j + 1]; owner, the tree of each site; bounds, where the
    slices of the trees with sites start, then k, which reduce q plus a
    trailing 1.0 to those trees' products and a last 1.0; and tree_slot and
    entry_slot, the slot there of each tree and of each phi entry's tree
    (the last for a tree without sites).  rewrite_graph is built on first use.
    bad_site is the first site, in canonical order, with a phi entry (nil
    included) that is negative, NaN or infinite, or whose mass is further
    than PROPERNESS_TOL from 1, or None when there is none.
    """

    ids: tuple
    tree_ids: tuple
    tree_start: np.ndarray
    site: np.ndarray
    tree: np.ndarray
    prob: np.ndarray
    nil: np.ndarray
    anchors: np.ndarray
    starts: np.ndarray
    bad_site: str | None = None

    @classmethod
    def from_grammar(cls, g):
        tree_ids = tuple(t.tree_id for t in g.trees)
        tree_pos = {tid: j for j, tid in enumerate(tree_ids)}
        sizes, anchors, nil, site, tree, prob, nil_site, nil_prob = [], [], [], [], [], [], [], []
        phi = g.phi
        for t in g.trees:  # one pass, in canonical site order
            sizes.append(len(t.sites))
            anchors.append(len(t.anchors))
            for node in t.sites:
                i = len(nil)
                mass = 0.0
                for target, p in phi[node.site_id]:
                    if target is None:
                        mass += p
                        nil_site.append(i)
                        nil_prob.append(p)
                    else:
                        site.append(i)
                        tree.append(tree_pos[target])
                        prob.append(p)
                nil.append(mass)
        # the start trees: the initial trees rooted in the start symbol
        starts = np.array([j for j, t in enumerate(g.trees)
                           if t.kind == "initial" and t.root.label == g.start], dtype=np.intp)
        starts.flags.writeable = False
        site, prob = np.array(site, dtype=np.intp), np.array(prob, dtype=float)
        index = cls(tuple(g.site_ids), tree_ids, np.cumsum([0] + sizes), site,
                    np.array(tree, dtype=np.intp), prob, np.array(nil),
                    np.array(anchors, dtype=float), starts)
        # every site mass and every entry is tested at once; bad_site, the
        # first flagged, is set once here, before the index is shared
        flagged = abs(index.mass - 1.0) > PROPERNESS_TOL
        for at, p in ((site, prob), (np.array(nil_site, dtype=np.intp), np.array(nil_prob))):
            flagged[at[~((p >= 0.0) & (p < math.inf))]] = True
        bad = np.flatnonzero(flagged)
        if bad.size:
            object.__setattr__(index, "bad_site", index.ids[bad[0]])
        return index

    def __post_init__(self):
        object.__setattr__(self, "position", {s: i for i, s in enumerate(self.ids)})
        sizes = np.diff(self.tree_start)
        with_sites = np.flatnonzero(sizes)
        tree_slot = np.where(sizes > 0, np.cumsum(sizes > 0) - 1, len(with_sites))
        for name, layout in (("mass", np.bincount(self.site, self.prob, minlength=len(self))
                                       + self.nil),
                             ("sizes", sizes),
                             ("entry_start", np.searchsorted(self.site, np.arange(len(self) + 1))),
                             ("owner", np.repeat(np.arange(len(self.tree_ids)), sizes)),
                             ("bounds", np.append(self.tree_start[with_sites], len(self))),
                             ("tree_slot", tree_slot),
                             ("entry_slot", tree_slot[self.tree])):
            layout.flags.writeable = False
            object.__setattr__(self, name, layout)

    @cached_property
    def rewrite_graph(self):
        """Per tree position, the positions of the trees its sites rewrite
        to, in site order.  Only positive-probability entries count; a
        zero-probability entry stays in phi but rewrites nothing."""
        live = self.prob > 0.0
        ends = np.append(0, np.cumsum(live))[self.entry_start[self.tree_start]].tolist()
        targets = self.tree[live].tolist()
        return tuple(tuple(targets[a:b]) for a, b in zip(ends, ends[1:]))

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, site_id):
        return self.position[site_id]

    def checked(self):
        """self when phi keeps the input contract of every numeric path, that
        no entry is negative, NaN or infinite and each site's entries sum to 1
        within PROPERNESS_TOL; else ValueError naming bad_site."""
        if self.bad_site is not None:
            raise ValueError(f"site {self.bad_site!r} has a negative or nonfinite phi "
                             "probability or a mass other than 1 (its entries sum to "
                             f"{float(self.mass[self[self.bad_site]])!r}): no entry may be negative, "
                             "NaN or infinite, and each site's entries must sum to 1")
        return self

    def tree_prod(self, q):
        """Product of q over each tree's sites; 1 for a tree without sites."""
        return np.multiply.reduceat(np.append(q, 1.0), self.bounds)[self.tree_slot]


def start_law(g, start_weights=None):
    """(positions, probs): the start trees and the chance each one starts.

    positions is the read-only g.index.starts, which indexes
    g.index.tree_ids in declaration order; probs sum to one.  The law is
    uniform over the start trees unless start_weights is given: a mapping of
    tree ids to finite, nonnegative reals (not bools) with a finite sum and
    mass on a start tree, else ValueError.  Trees it leaves out weigh 0, and
    ids that are no start tree are ignored.  Every method weighs by this law.
    """
    positions = g.index.starts
    if not len(positions):
        raise ValueError(f"no initial tree rooted in {g.start!r}")
    if start_weights is None:
        return positions, np.full(len(positions), 1.0 / len(positions))
    if not isinstance(start_weights, Mapping) or not all(
            isinstance(w, Real) and not isinstance(w, bool) for w in start_weights.values()):
        raise ValueError("start weights must map tree ids to real numbers")
    tree_ids = g.index.tree_ids
    try:
        weights = np.array([float(start_weights.get(tree_ids[j], 0.0)) for j in positions])
    except OverflowError:
        raise ValueError("a start weight is beyond float range") from None
    total = sum(weights.tolist())  # a float sum overflows to inf, with no warning
    if not (weights >= 0.0).all() or not math.isfinite(total):
        raise ValueError("start weights must be finite and nonnegative with a finite sum")
    if total <= 0.0:
        raise ValueError("start weights assign no mass to any start tree")
    return positions, weights / total


def start_mixture(g, q, start_weights=None):
    """The start law's mixture of the products of q over each start tree's sites."""
    positions, probs = start_law(g, start_weights)
    return float(probs @ g.index.tree_prod(q)[positions])


@dataclass
class LabelledMatrix:
    """A matrix with its row labels; cols=None means square over the rows.

    P is sites x trees, N trees x sites and M sites x sites.  The builders
    raise DenseCapExceeded rather than return more than DENSE_CELL_CAP
    cells.
    """

    values: np.ndarray
    rows: tuple
    cols: tuple | None = None


# Most cells one dense matrix may have: 2^26 float64 cells take 512 MB per
# copy, and the squaring test holds a few copies at once.
DENSE_CELL_CAP = 2**26


class DenseCapExceeded(RuntimeError):
    """A dense matrix would have more than DENSE_CELL_CAP cells."""


def _check_dense(rows, cols):
    if rows * cols > DENSE_CELL_CAP:
        raise DenseCapExceeded(f"a {rows} x {cols} dense matrix has more than "
                               f"{DENSE_CELL_CAP} cells")


def build_P(g):
    idx = g.index
    _check_dense(len(idx), len(idx.tree_ids))
    values = np.zeros((len(idx), len(idx.tree_ids)))
    np.add.at(values, (idx.site, idx.tree), idx.prob)
    return LabelledMatrix(values, idx.ids, idx.tree_ids)


def build_N(g):
    idx = g.index
    _check_dense(len(idx.tree_ids), len(idx))
    values = np.zeros((len(idx.tree_ids), len(idx)))
    values[idx.owner, np.arange(len(idx))] = 1.0
    return LabelledMatrix(values, idx.tree_ids, idx.ids)


def build_M(g):
    """P @ N, bitwise, without the sites x trees P, so only M meets the cap.

    The entries are summed into one column per tree with sites and one for
    all trees without (the slots of idx.bounds), in P's order, and each
    site's column is its owner's."""
    idx = g.index
    _check_dense(len(idx), len(idx))
    slots = np.zeros((len(idx), len(idx.bounds)))
    np.add.at(slots, (idx.site, idx.entry_slot), idx.prob)
    return LabelledMatrix(slots[:, idx.tree_slot[idx.owner]], idx.ids)


# ---------------------------------------------------------------------------
# emission

def matrix_tsv(values):
    """Rows newline-separated, entries tab-separated, 17 significant digits."""
    lines = ["\t".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(values)]
    return "\n".join(lines) + "\n"


def matrix_json_doc(matrix):
    """JSON document form: {"order": row labels, "rows": [[...]]}.

    For the non-square P and N factors a "cols" key carries the column
    labels (tree ids for P, site ids for N).
    """
    doc = {"order": list(matrix.rows)}
    if matrix.cols is not None:
        doc["cols"] = list(matrix.cols)
    doc["rows"] = [list(map(float, row)) for row in matrix.values]
    return doc
