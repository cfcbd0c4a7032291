"""The numeric form of a grammar and the expectation matrix built from it.

M[i][j] is the expected number of site-j instances created when site i is
rewritten once.  It factors as M = P @ N where P holds the adjunction (and
substitution) probabilities per site and tree, and N is the 0/1 site-in-tree
incidence.  Rows and columns follow the canonical site order: tree
declaration order, preorder within each tree.  SiteIndex lays the phi table
out in that order.  Grammar.index builds it once per grammar; the matrices,
the offspring functions of the extinction iteration and the Monte Carlo all
read it there.  start_law, beside it, gives the chance that each start tree
begins a derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SiteIndex:
    """The numeric form of a grammar, read by every numeric path.

    Sites follow the canonical order, so tree t owns the contiguous slice
    tree_start[t]:tree_start[t + 1].  The non-nil phi entries are the
    parallel arrays site, tree and prob, in document order; nil is the nil
    mass of each site, anchors the anchor count of each tree and starts the
    read-only positions of the start trees, in declaration order.
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

    @classmethod
    def from_grammar(cls, g):
        tree_ids = tuple(t.tree_id for t in g.trees)
        tree_pos = {tid: j for j, tid in enumerate(tree_ids)}
        nil = np.zeros(len(g.site_ids))
        site, tree, prob = [], [], []
        for i, s in enumerate(g.site_ids):
            for target, p in g.phi[s]:
                if target is None:
                    nil[i] += p
                else:
                    site.append(i)
                    tree.append(tree_pos[target])
                    prob.append(p)
        start_ids = {t.tree_id for t in g.start_trees()}
        starts = np.array([j for j, tid in enumerate(tree_ids) if tid in start_ids],
                          dtype=np.intp)
        starts.flags.writeable = False
        return cls(tuple(g.site_ids), tree_ids,
                   np.cumsum([0] + [len(t.sites) for t in g.trees]),
                   np.array(site, dtype=np.intp), np.array(tree, dtype=np.intp),
                   np.array(prob, dtype=float), nil,
                   np.array([len(t.anchors) for t in g.trees], dtype=float), starts)

    def __post_init__(self):
        object.__setattr__(self, "position", {s: i for i, s in enumerate(self.ids)})

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, site_id):
        return self.position[site_id]

    @property
    def owner(self):
        """Position of the tree that owns each site."""
        return np.repeat(np.arange(len(self.tree_ids)), np.diff(self.tree_start))

    def tree_prod(self, q):
        """Product of q over each tree's sites; 1 for a tree without sites."""
        out = np.ones(len(self.tree_ids))
        has_sites = np.diff(self.tree_start) > 0
        if has_sites.any():
            out[has_sites] = np.multiply.reduceat(q, self.tree_start[:-1][has_sites])
        return out

    def offspring(self, q):
        """Every site's offspring generating function g_i evaluated at q."""
        spawned = self.prob * self.tree_prod(q)[self.tree]
        return self.nil + np.bincount(self.site, spawned, minlength=len(self.ids))


def start_law(g, start_weights=None):
    """(positions, probs): the start trees and the chance each one starts.

    positions is the read-only g.index.starts, which indexes
    g.index.tree_ids in declaration order; probs sum to one.  The law is
    uniform over the start trees unless start_weights, a {tree id: weight}
    map, is given; trees it leaves out weigh 0 and ids that are no start
    tree are ignored.  Every method weighs its start trees by this law.
    """
    positions = g.index.starts
    if not len(positions):
        raise ValueError(f"no initial tree rooted in {g.start!r}")
    if start_weights is None:
        return positions, np.full(len(positions), 1.0 / len(positions))
    tree_ids = g.index.tree_ids
    weights = np.array([float(start_weights.get(tree_ids[j], 0.0)) for j in positions])
    total = sum(weights.tolist())  # a float sum overflows to inf, with no warning
    if not (weights >= 0.0).all() or not math.isfinite(total):
        raise ValueError("start weights must be finite and nonnegative with a finite sum")
    if total <= 0.0:
        raise ValueError("start weights assign no mass to any start tree")
    return positions, weights / total


@dataclass
class LabelledMatrix:
    """A matrix with its row labels; cols=None means square over the rows.

    P is sites x trees, N trees x sites and M sites x sites.
    """

    values: np.ndarray
    rows: tuple
    cols: tuple | None = None


def build_P(g):
    idx = g.index
    values = np.zeros((len(idx), len(idx.tree_ids)))
    np.add.at(values, (idx.site, idx.tree), idx.prob)
    return LabelledMatrix(values, idx.ids, idx.tree_ids)


def build_N(g):
    idx = g.index
    values = np.zeros((len(idx.tree_ids), len(idx)))
    values[idx.owner, np.arange(len(idx))] = 1.0
    return LabelledMatrix(values, idx.tree_ids, idx.ids)


def build_M(g):
    """P scattered through the owner of each site; bitwise equal to P @ N."""
    return LabelledMatrix(build_P(g).values[:, g.index.owner], g.index.ids)


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
