"""Monte Carlo and exhaustive simulation of the derivation process.

A derivation unfolds level by level: the start tree sits at level 0, every
site of a level-i tree independently draws a phi target, and each non-nil
draw instantiates a tree at level i+1.  A derivation is complete once no
tree with sites would be placed at level max_depth, i.e. it has died by
that level (a tree without sites has nothing left to draw, so placing one
there finishes it); otherwise it is censored (complete=False) with the
undrawn frontier left unexpanded.

These samplers and the exhaustive enumerator are independent of the
generating-function machinery, so they double as oracles for the
termination probabilities computed there.
"""

from __future__ import annotations

import functools
import gc
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import grammar as gr
from .expectation import start_law

RNG_ALGORITHM = "PCG64"
DEFAULT_MAX_NODES = 100_000
DEFAULT_FRONTIER_CAP = 10_000


class EnumerationBudgetExceeded(RuntimeError):
    """Exhaustive enumeration outgrew its node cap."""


def _collector_paused(func):
    """Run func with the cyclic garbage collector paused.

    For builders that create no reference cycles: reference counting frees
    all they allocate, so collections would only walk their live objects.
    The caller's state comes back afterwards, also when func raises; a
    collector the caller had disabled stays disabled.  The state is
    process-wide.
    """
    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass(slots=True)
class DerivationNode:
    """One instantiated elementary tree at a level of a derivation.

    ``children`` maps each site id of the tree to a DerivationNode or to
    None for a "no adjunction" choice; it is None as a whole while the node
    is an unexpanded frontier entry of a censored derivation.  A node does
    not record where it was placed: that is its key in its parent's
    children, so the enumerator shares one node among all the places its
    expansion occurs.
    """

    tree_id: str
    level: int
    children: dict | None = None

    def nodes(self):
        yield self
        for child in (self.children or {}).values():
            if child is not None:
                yield from child.nodes()


@dataclass(slots=True)
class Derivation:
    root: DerivationNode
    complete: bool
    probability: float

    def as_dict(self):
        return _derivation_doc(self.root, None, None)


@_collector_paused
def derivation_docs(derivations):
    """[as_dict() plus "probability"] of each derivation, for emission.

    Enumerated derivations share subtrees, so the doc of each children
    dict is built once and shared too; json.dumps writes a shared object
    out in full wherever it occurs, so the JSON equals that of the
    as_dict() forms.  The docs form no reference cycles.
    """
    shared = {}
    return [dict(_derivation_doc(d.root, None, shared), probability=d.probability)
            for d in derivations]


def _derivation_doc(node, at, shared):
    """Doc of node placed at site at (None for the root); shared, unless
    None, maps id(children dict) to its doc."""
    children = node.children
    if children is not None:
        doc = shared.get(id(children)) if shared is not None else None
        if doc is None:
            doc = {site: "nil" if child is None else _derivation_doc(child, site, shared)
                   for site, child in children.items()}
            if shared is not None:
                shared[id(children)] = doc
        children = doc
    return {"tree": node.tree_id, "at": at, "children": children}


@dataclass
class SimulationStats:
    samples: int
    terminated: int
    censored: int
    termination_rate: float
    mean_depth: float
    mean_yield_length: float
    seed: int
    generator: str = RNG_ALGORITHM

    def as_dict(self):
        def finite(x):
            return None if math.isnan(x) else x
        return {"samples": self.samples, "terminated": self.terminated,
                "censored": self.censored,
                "termination_rate": self.termination_rate,
                "mean_depth": finite(self.mean_depth),
                "mean_yield_length": finite(self.mean_yield_length),
                "seed": self.seed, "generator": self.generator}


def _as_rng(seed):
    # a Generator, or anything with a random() method (scripted test doubles)
    if isinstance(seed, np.random.Generator) or callable(getattr(seed, "random", None)):
        return seed
    return np.random.default_rng(seed)


def _draw_index(rng, entries):
    """Index of the (item, prob) entry drawn by inverse CDF from one uniform:
    the last one if the running sum never passes it, -1 if there is none."""
    u = rng.random()
    acc = 0.0
    i = -1
    for i, (_, p) in enumerate(entries):
        acc += p
        if u < acc:
            return i
    return i


@_collector_paused
def sample_derivation(g, seed=None, max_depth=64, max_nodes=DEFAULT_MAX_NODES,
                      start_weights=None):
    """Sample one derivation, breadth first, resolving whole levels in order.

    ``seed`` may be anything numpy's default_rng accepts, or a Generator
    (handy for scripted draws in tests).  The start tree is drawn from the
    start law (uniform unless start_weights are given), and the reported
    probability is its weight times the product of the phi draws made.
    Supercritical grammars grow exponentially, so on top of the depth cap a
    node budget censors runaway samples (complete=False, like a
    depth-capped one).  The tree holds no reference cycles, so it is built
    with the cyclic collector paused.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    rng = _as_rng(seed)
    positions, start_probs = start_law(g, start_weights)
    starts = list(zip(positions.tolist(), start_probs.tolist()))
    t, probability = starts[_draw_index(rng, starts)]
    root = DerivationNode(g.index.tree_ids[t], 0)
    complete = True
    nodes = 1
    queue = deque([root])
    while queue:
        node = queue.popleft()
        if nodes >= max_nodes:
            complete = False
            break
        children = node.children = {}
        for site_node in g.tree(node.tree_id).sites:
            site = site_node.site_id
            entries = g.phi[site]
            chosen = _draw_index(rng, entries)
            if chosen < 0:
                # unfillable substitution site; cannot happen on validated input
                complete = False
                continue
            target, prob = entries[chosen]
            probability *= prob
            if target is None:
                children[site] = None
                continue
            child = children[site] = DerivationNode(target, node.level + 1)
            nodes += 1
            if child.level < max_depth or not g.tree(target).sites:
                queue.append(child)
            else:
                complete = False  # frontier tree with sites at the depth cap
    return Derivation(root, complete, probability)


def derivation_depth(d):
    """Largest level of any instantiated tree, frontier included."""
    return max(node.level for node in d.root.nodes())


# ---------------------------------------------------------------------------
# derived trees

def derived_tree(d, g):
    """Derived (parse) tree of a complete derivation.

    Adjoining a tree at a node excises the subtree under that node, places
    the adjoined tree at the node's position and reattaches the excised
    subtree at its foot; substitution replaces the substitution leaf with
    the initial tree's root.  The tree is built by one recursive graft from
    the start tree down, each node once, with Gorn addresses of its own.
    The grammar must pass ``validate`` (every auxiliary tree has exactly one
    foot); on a grammar with ``BAD_FOOT`` errors the result is undefined.
    """
    if not d.complete:
        raise ValueError("cannot derive a tree from an incomplete derivation")
    return _freeze(_graft(g.tree(d.root.tree_id).root, d.root.children, None, g), "")


def _graft(node, chosen, foot, g):
    """(kind, label, site_id, children) of node with its subtree derived.

    chosen maps the site ids of node's elementary tree to the derivation
    node placed there (None for nil); foot, unless None, is what the tree's
    foot leaf becomes.  A node that takes an adjunction is itself the foot
    of the adjoined tree; a substituted tree has no foot to fill.
    """
    if node.kind == gr.FOOT and foot is not None:
        return foot
    built = (node.kind, node.label, node.site_id,
             [_graft(child, chosen, foot, g) for child in node.children])
    child = chosen.get(node.site_id) if chosen else None
    if child is None:
        return built
    below = None if node.kind == gr.SUBSTITUTION else built
    return _graft(g.tree(child.tree_id).root, child.children, below, g)


def _freeze(built, address):
    kind, label, site_id, children = built
    children = tuple(
        _freeze(child, f"{address}.{i + 1}" if address else str(i + 1))
        for i, child in enumerate(children))
    return gr.TreeNode(kind, label, children, site_id, address)


def yield_string(t):
    """Left-to-right terminal yield; epsilon leaves are dropped.

    Rejects trees that still contain foot or substitution leaves.
    """
    out = []
    for node in t.preorder():
        if node.kind == gr.ANCHOR:
            out.append(node.label)
        elif node.kind in (gr.FOOT, gr.SUBSTITUTION):
            raise ValueError(
                f"unresolved {node.kind} leaf at address {node.address!r}")
    return out


def anchor_multiset(d, g):
    """Anchor labels of all instantiated trees; surgery must preserve these."""
    counts = {}
    for node in d.root.nodes():
        for anchor in g.tree(node.tree_id).anchors:
            counts[anchor] = counts.get(anchor, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# exhaustive enumeration

@_collector_paused
def enumerate_derivations(g, max_depth, prob_floor=0.0, node_cap=1_000_000):
    """All complete derivations that die by level max_depth, exactly.

    Probabilities are exact products of the phi choices made, multiplied
    left to right in site order.  A partial expansion is dropped as soon as
    its running product falls below prob_floor (the default floor of zero
    keeps everything with positive probability).  A tree without sites
    placed at level max_depth is finished, so it is admitted.  Each
    derivation's probability is then multiplied by its start tree's weight
    under the (uniform) start law, so the summed probabilities equal the
    death-by-level constant C_(max_depth); the floor applies to that
    weighted probability.  prob_floor must not be NaN.

    node_cap bounds the partial expansions: one per kept pair of (choices
    so far, next option) as the sites of a tree are resolved one by one,
    counted once per (tree, level) because the expansions of a tree at a
    level are shared.  More than node_cap of them raises
    EnumerationBudgetExceeded.  On grammar4 at depth 5 the result holds
    238,145 derivations and takes about a second (Python 3.11, 2 cores).

    The list is built with the cyclic garbage collector paused.  The build
    creates no reference cycles, so reference counting frees all it drops,
    and a collection would only walk the growing result again.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if math.isnan(prob_floor):
        raise ValueError("prob_floor must not be NaN")
    if node_cap < 0:
        raise ValueError("node_cap must be >= 0")
    enumeration = _Enumeration(g, max_depth, prob_floor, node_cap)
    positions, start_probs = start_law(g)
    results = []
    for t, w in zip(positions.tolist(), start_probs.tolist()):
        for node, prob in enumeration.expand(g.index.tree_ids[t], 0):
            if (prob := prob * w) >= prob_floor:
                results.append(Derivation(node, True, prob))
    return results


class _Enumeration:
    """State of one enumerate_derivations call.

    ``memo`` maps (tree_id, level) to the expansions found there, which
    every later caller shares; ``spent`` counts partial expansions.
    Nothing it holds refers back to it, so it forms no reference cycle.
    """

    __slots__ = ("g", "max_depth", "prob_floor", "node_cap", "memo", "spent")

    def __init__(self, g, max_depth, prob_floor, node_cap):
        self.g = g
        self.max_depth = max_depth
        self.prob_floor = prob_floor
        self.node_cap = node_cap
        self.memo = {}
        self.spent = 0

    def expand(self, tree_id, level):
        """[(node, probability)] for every expansion of tree_id at level."""
        key = (tree_id, level)
        if key in self.memo:
            return self.memo[key]
        g, prob_floor = self.g, self.prob_floor
        sites = [site_node.site_id for site_node in g.tree(tree_id).sites]
        combos = [((), 1.0)]
        for site in sites:
            options = []
            for target, p in g.phi[site]:
                if p <= 0.0:
                    continue
                if target is None:
                    options.append((None, p))
                elif level + 1 < self.max_depth or not g.tree(target).sites:
                    for sub, sub_prob in self.expand(target, level + 1):
                        options.append((sub, p * sub_prob))
            extended = []
            allowed = self.node_cap - self.spent
            for choices, prob in combos:
                extended += [(choices + (choice,), total) for choice, choice_prob in options
                             if (total := prob * choice_prob) >= prob_floor]
                if len(extended) > allowed:
                    raise EnumerationBudgetExceeded(
                        f"more than {self.node_cap} partial derivations")
            self.spent += len(extended)
            combos = extended
        out = [(DerivationNode(tree_id, level, dict(zip(sites, choices))), prob)
               for choices, prob in combos]
        self.memo[key] = out
        return out


# ---------------------------------------------------------------------------
# termination estimation

def estimate_termination(g, samples, max_depth, seed=0, start_weights=None,
                         frontier_cap=DEFAULT_FRONTIER_CAP):
    """Monte Carlo estimate of the termination (extinction) probability.

    Simulates the tree-count process of all samples in lockstep: per level
    and site, one vectorized multinomial resolves every pending instance,
    which is distributionally identical to sampling whole derivations one
    by one but stays fast for 10^6 samples.  A sample terminates when a
    level produces no trees, or when its last level holds only trees
    without sites (also at max_depth: the enumerator's convention, so the
    rate estimates C_(max_depth)); it is censored when trees with sites
    reach max_depth or its pending-site count exceeds frontier_cap.  Past
    the cap the chance of ever dying out is below q_max^frontier_cap,
    vanishingly small, so the censoring bias is far under sampling noise.

    Only live samples keep state: how many trees of each kind each one
    bore at the last level, as a trees x live samples array whose row for
    a tree is the pending count of each of that tree's sites.  A sample
    leaves as soon as it terminates or is censored.  The random draws are
    those of keeping every sample in every multinomial: a row with n = 0
    draws no random numbers, so dropping a finished sample changes no
    other row's draws.

    mean_depth and mean_yield_length are over terminated samples (NaN when
    none terminate).  Identical inputs give identical stats.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if frontier_cap < 0:
        raise ValueError("frontier_cap must be >= 0")
    rng = np.random.default_rng(seed)
    positions, start_probs = start_law(g, start_weights)
    index = g.index
    k = len(index)
    site_count = np.diff(index.tree_start)

    # per site: target tree indices plus a trailing nil bucket
    site_targets = []
    site_pvals = []
    bounds = np.searchsorted(index.site, np.arange(k + 1))
    for j in range(k):
        probs = index.prob[bounds[j]:bounds[j + 1]].tolist()
        nil = max(0.0, 1.0 - sum(probs))
        pvals = np.array(probs + [nil])
        site_targets.append(index.tree[bounds[j]:bounds[j + 1]].tolist())
        site_pvals.append(pvals / pvals.sum())
    # (tree, its sites) for the trees with sites, in site order
    expanding = [(t, range(index.tree_start[t], index.tree_start[t + 1]))
                 for t in np.flatnonzero(site_count)]

    start_tree_idx = positions[rng.choice(len(positions), size=samples, p=start_probs)]
    depth = np.zeros(samples, dtype=np.int64)
    yields = index.anchors[start_tree_idx]
    censored = np.zeros(samples, dtype=bool)
    terminated = site_count[start_tree_idx] == 0

    live = np.flatnonzero(~terminated)
    born = (np.arange(len(index.tree_ids))[:, None] == start_tree_idx[live]).astype(np.int64)
    live_yields = yields[live]
    for level in range(1, max_depth + 1):
        if not live.size:
            break
        # a target a site lists twice gets both of its columns added
        next_born = np.zeros_like(born)
        for t, sites in expanding:
            row = born[t]  # the pending count of each of t's sites
            if not row.any():
                continue
            for j in sites:
                draws = rng.multinomial(row, site_pvals[j])
                for column, target in enumerate(site_targets[j]):
                    next_born[target] += draws[:, column]
        born = next_born
        live_yields += index.anchors @ born
        pending = site_count @ born
        has_births = born.any(axis=0)
        # pending sites past the cap censor, at max_depth every one does;
        # a sample without births has died whatever the cap
        cap = frontier_cap if level < max_depth else 0
        over = has_births & (pending > cap)
        done = ~over & (pending == 0)
        # no births: died at level - 1; births without sites: done at level
        left = live[done]
        depth[left] = level - 1 + has_births[done]
        yields[left] = live_yields[done]
        terminated[left] = True
        censored[live[over]] = True
        # compress keeps born C-contiguous, so each row stays a plain view
        keep = ~(done | over)
        live, born, live_yields = live[keep], born.compress(keep, axis=1), live_yields[keep]

    n_term = int(terminated.sum())
    n_cens = int(censored.sum())
    mean_depth = float(depth[terminated].mean()) if n_term else math.nan
    mean_yield = float(yields[terminated].mean()) if n_term else math.nan
    return SimulationStats(samples, n_term, n_cens, n_term / samples,
                           mean_depth, mean_yield, seed)
