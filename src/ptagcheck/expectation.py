"""The numeric form of a grammar and the expectation matrix built from it.

M[i][j] is the expected number of site-j instances created when site i is
rewritten once.  It factors as M = P @ N where P holds the adjunction (and
substitution) probabilities per site and tree, and N is the 0/1 site-in-tree
incidence.  Rows and columns follow the canonical site order: tree
declaration order, preorder within each tree.  SiteIndex lays the phi table
out in that order.  Grammar.index builds it once per grammar; the matrices,
the extinction iteration, the Monte Carlo, the sampler and the enumerator
all read it there, and it alone decides which phi values a numeric path
accepts.  start_law gives each start tree's chance to begin a derivation
under the grammar's start law, and start_mixture mixes by that law.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from numbers import Real
from operator import itemgetter
from types import MappingProxyType

import numpy as np

# How far the phi mass of a site may stray from 1 through rounding: the one
# tolerance of SiteIndex.improper, which bad_site and validate read.
PROPERNESS_TOL = 1e-9


def _frozen(array):
    """array's dtype, shape and bytes as a view of an immutable bytes copy:
    numpy refuses to make the view, or its base, writeable."""
    return np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)


def _inverse_cdf(choices):
    """(sums, outcomes): a uniform u draws outcomes[bisect_right(sums, u)]
    from choices, tuples whose item 1 is their prob, by inverse CDF.  The
    outcomes are the choices with prob > 0 and sums their running sums but
    the total, so a u past the last of sums picks the last outcome, also a
    u past the total, which a mass below 1 leaves room for; any other u
    picks what a scan of all choices would, since a zero prob moves no sum."""
    kept = tuple(choice for choice in choices if choice[1] > 0.0)
    return tuple(accumulate(map(itemgetter(1), kept[:-1]))), kept


class SiteIndex:
    """The numeric form of a grammar, read by every numeric path.

    SiteIndex(g) is its one constructor, called once per grammar by
    Grammar.index: it walks phi once, lays out every array below, freezes
    each by _frozen, as reachable and finishes are frozen when built, and
    sets bad_site; the index refuses attribute assignment afterwards, and
    position (site id to place in ids) is a read-only mapping.
    Sites follow the canonical order, so tree t owns the contiguous slice
    tree_start[t]:tree_start[t + 1].  phi_site, phi_tree and phi_prob record
    every phi entry, nil included (phi_tree -1), site by site, each site's
    in document order.  The choices, the non-nil entries with prob > 0,
    are the parallel arrays site, tree and prob: an entry of probability 0,
    negative or NaN stays in phi but rewrites nothing.  nil is the
    nil mass of each site, anchors the anchor count of each tree and starts
    the positions of the start trees (initial trees rooted in the start
    symbol), in declaration order.  mass is the sum of each site's entries,
    choices or not, the one sum that validate reports, and
    improper flags each site whose mass is further than PROPERNESS_TOL from
    1.  sizes is the site count of each tree; entry_start, so that site j
    owns the choices entry_start[j]:entry_start[j + 1]; owner, the tree of
    each site; bounds, where the slices of the trees with sites start, then
    k, which reduce q plus a trailing 1.0 to those trees' products and a
    last 1.0; and tree_slot and entry_slot, the slot there of each tree and
    of each choice's tree (the last for a tree without sites).
    rewrite_graph, reachable, finishes and draw_table are built on first
    use.  The start law is no part of the index: it is the grammar's
    (Grammar.start_weights, read by start_law).
    bad_site is the first site, in canonical order, that is improper or has
    a phi entry (nil included) that is negative, NaN or infinite, or None
    when there is none.
    """

    def __init__(self, g):
        tree_ids, ids = tuple(t.tree_id for t in g.trees), tuple(g.site_ids)
        tree_pos = {None: -1, **{tid: j for j, tid in enumerate(tree_ids)}}
        # the one walk of phi: every entry, nil included, site by site in document order
        entries = [entry for s in ids for entry in g.phi[s]]
        phi_site = np.repeat(np.arange(len(ids), dtype=np.intp), [len(g.phi[s]) for s in ids])
        phi_tree = np.array([tree_pos[target] for target, _ in entries], dtype=np.intp)
        phi_prob = np.array([p for _, p in entries], dtype=float)
        targets = phi_tree >= 0
        choices = targets & (phi_prob > 0.0)
        site, tree, prob = phi_site[choices], phi_tree[choices], phi_prob[choices]
        nil = np.bincount(phi_site[~targets], phi_prob[~targets], minlength=len(ids))
        tree_start = np.cumsum([0] + [len(t.sites) for t in g.trees])
        sizes = np.diff(tree_start)
        with_sites = np.flatnonzero(sizes)
        tree_slot = np.where(sizes > 0, np.cumsum(sizes > 0) - 1, len(with_sites))
        mass = np.bincount(phi_site[targets], phi_prob[targets], minlength=len(ids)) + nil
        improper = abs(mass - 1.0) > PROPERNESS_TOL
        arrays = dict(
            phi_site=phi_site, phi_tree=phi_tree, phi_prob=phi_prob,
            tree_start=tree_start, site=site, tree=tree, prob=prob,
            nil=nil, anchors=np.array([len(t.anchors) for t in g.trees], dtype=float),
            mass=mass, improper=improper,
            # the start trees: the initial trees rooted in the start symbol
            starts=np.array([j for j, t in enumerate(g.trees)
                             if t.kind == "initial" and t.root.label == g.start], dtype=np.intp),
            sizes=sizes, entry_start=np.searchsorted(site, np.arange(len(ids) + 1)),
            owner=np.repeat(np.arange(len(tree_ids)), sizes),
            bounds=np.append(tree_start[with_sites], len(ids)),
            tree_slot=tree_slot, entry_slot=tree_slot[tree])
        # every site mass and every entry is tested at once; bad_site is the first flagged
        flagged = improper.copy()
        flagged[phi_site[~((phi_prob >= 0.0) & (phi_prob < math.inf))]] = True
        bad = np.flatnonzero(flagged)
        vars(self).update({name: _frozen(a) for name, a in arrays.items()},
                          ids=ids, tree_ids=tree_ids,
                          position=MappingProxyType({s: i for i, s in enumerate(ids)}),
                          bad_site=ids[bad[0]] if bad.size else None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SiteIndex is read-only: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

    @cached_property
    def rewrite_graph(self):
        """Per tree position, the positions of the trees its sites rewrite
        to, in site order: its slice of tree."""
        ends, targets = self.entry_start[self.tree_start].tolist(), self.tree.tolist()
        return tuple(tuple(targets[a:b]) for a, b in zip(ends, ends[1:]))

    @cached_property
    def draw_table(self):
        """Read-only, per tree id, one (site id, *_inverse_cdf) per site in
        site order: the outcomes are the site's positive entries, nil
        included, each once in document order, as (target tree id or None,
        prob).  checked first: bisection picks what the scan picks only on
        nondecreasing sums free of NaN."""
        self.checked()
        names = (*self.tree_ids, None)  # nil's phi_tree -1 picks the last
        entries = [[] for _ in self.ids]
        for i, t, p in zip(self.phi_site.tolist(), self.phi_tree.tolist(),
                           self.phi_prob.tolist()):
            entries[i].append((names[t], p))
        draws = [(s, *_inverse_cdf(e)) for s, e in zip(self.ids, entries)]
        ends = self.tree_start.tolist()
        return MappingProxyType({t: tuple(draws[a:b])
                                 for t, a, b in zip(self.tree_ids, ends, ends[1:])})

    @cached_property
    def reachable(self):
        """Read-only, per tree: whether a derivation from a start tree can
        place it, along rewrite_graph."""
        graph, seen = self.rewrite_graph, [False] * len(self.tree_ids)
        work = self.starts.tolist()
        while work:
            if not seen[j := work.pop()]:
                seen[j] = True
                work += graph[j]
        return _frozen(np.array(seen, dtype=bool))

    @cached_property
    def finishes(self):
        """Read-only, per tree: whether some derivation from it finishes, that
        is, whether all its sites are in T, the least set of sites with positive
        nil mass or a choice of a tree that finishes.  One worklist: each
        choice is queued once, when its tree finishes."""
        sources = [[] for _ in self.tree_ids]  # per tree, the sites with a choice of it
        for i, t in zip(self.site.tolist(), self.tree.tolist()):
            sources[t].append(i)
        owner, missing, in_t = self.owner.tolist(), self.sizes.tolist(), [False] * len(self)
        work = np.flatnonzero(self.nil > 0.0).tolist()
        for t, n in enumerate(missing):
            if not n:
                work += sources[t]
        while work:
            if not in_t[i := work.pop()]:
                in_t[i] = True
                missing[t := owner[i]] -= 1
                if not missing[t]:
                    work += sources[t]
        return _frozen(np.array(missing) == 0)

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


def start_law(g):
    """(positions, probs): the start trees and the chance each one starts.

    positions is the read-only g.index.starts, which indexes
    g.index.tree_ids in declaration order; probs sum to one.  The law is
    uniform over the start trees unless g.start_weights is set: a mapping of
    tree ids to finite, nonnegative reals (not bools) with a finite sum and
    mass on a start tree, else ValueError.  Trees it leaves out weigh 0, and
    ids that are no start tree are ignored.  This is the one reader of
    g.start_weights, and every method weighs by this law.
    """
    positions = g.index.starts
    if not len(positions):
        raise ValueError(f"no initial tree rooted in {g.start!r}")
    start_weights = g.start_weights
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


def start_mixture(g, q):
    """start_law(g)'s mixture of the products of q over each start tree's sites."""
    positions, probs = start_law(g)
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
    doc["rows"] = matrix.values.tolist()
    return doc
