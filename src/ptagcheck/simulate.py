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

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from numbers import Integral

import numpy as np

from . import grammar as gr
from .expectation import start_law
from .grammar import _collector_paused

RNG_ALGORITHM = "PCG64"
DEFAULT_MAX_NODES = 100_000
# pending sites past which estimate_termination censors a sample
FRONTIER_CAP = 10_000
# the cells that size an estimate_termination block: a block takes at most
# BLOCK_CELLS // (trees + SAMPLE_CELLS) samples, since a live sample holds at
# most one cell per tree in born and SAMPLE_CELLS 8-byte cells in its other
# arrays (start tree, yield, pending sites, draws; 6.2-7.3 in all traced on
# grammar2, grammar4 and a 22-tree grammar with int64 counts).  A born cell
# takes 4 bytes where _count_dtype gives int32 and 8 where it gives int64, so
# a block that the budget sizes holds at most 8 x BLOCK_CELLS bytes (32 MiB)
BLOCK_CELLS = 2**22
SAMPLE_CELLS = 8
# estimate_termination runs at most this many samples as one block, and no
# block's cap falls below it; at least the CLI's default --samples, so a
# default simulate run is one block
SAMPLE_BLOCK = 2**14
# the most threads estimate_termination runs its sample blocks on, the calling
# thread included; a run of more than one block has a multiple of WORKERS
# blocks, and each thread holds one block at a time
WORKERS = 2
# the most (partial expansion, option) products the enumerator forms at once;
# a chunk holds whole rows, so one wider than this is formed alone
_OUTER_CELLS = 2**14
# the probabilities of nil or a tree without sites, and of no expansion
_ONE, _NONE = np.ones(1), np.empty(0)
_ONE.flags.writeable = _NONE.flags.writeable = False


class EnumerationBudgetExceeded(RuntimeError):
    """Exhaustive enumeration outgrew its node cap."""


@dataclass(slots=True)
class DerivationNode:
    """One instantiated elementary tree of a derivation; its level is its
    distance from the root.

    ``children`` maps each site id of the tree to a DerivationNode or to
    None for a "no adjunction" choice; it is None as a whole while the node
    is an unexpanded frontier entry of a censored derivation.  A node does
    not record where it was placed: that is its key in its parent's
    children, so the enumerator shares one node among all the places its
    expansion occurs.
    """

    tree_id: str
    children: dict | None = None

    def nodes(self):
        stack = [self]
        while stack:
            if (node := stack.pop()) is not None:  # None: a nil choice
                yield node
                stack.extend(reversed((node.children or {}).values()))


@dataclass(slots=True)
class Derivation:
    root: DerivationNode
    complete: bool
    probability: float

    def as_dict(self):
        return _derivation_doc(self.root, {})


@_collector_paused
def derivation_docs(derivations):
    """[as_dict() plus "probability"] of each derivation, for emission.

    One memo serves them all: enumerated derivations share subtrees, so
    the doc of each children dict is built once and shared too, and
    json.dumps writes a shared object out in full wherever it occurs.  The
    docs form no reference cycles.
    """
    shared = {}
    return [dict(_derivation_doc(d.root, shared), probability=d.probability)
            for d in derivations]


def _derivation_doc(root, shared):
    """Doc of the derivation under root; shared maps id(children dict) to
    its doc, so each is built once.  Built top down with a stack of the docs
    whose children are still derivation nodes, so nothing recurses per level."""
    top = {"tree": root.tree_id, "at": None, "children": root.children}
    stack = [top]
    while stack:
        doc = stack.pop()
        if (children := doc["children"]) is None:
            continue
        built = shared.get(id(children))
        if built is None:
            built = shared[id(children)] = {
                site: "nil" if child is None else
                {"tree": child.tree_id, "at": site, "children": child.children}
                for site, child in children.items()}
            stack += [sub for sub in built.values() if sub != "nil"]
        doc["children"] = built
    return top


@dataclass
class SimulationStats:
    samples: int
    terminated: int
    censored: int
    termination_rate: float
    mean_depth: float
    mean_yield_length: float
    seed: int | None  # an int seed as given, else None (a Generator is no JSON)
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


def usable_cpus():
    """The CPUs this process may run on: with WORKERS and the block count,
    the number of threads estimate_termination runs on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _uniforms(rng):
    """rng's uniforms one by one, drawn in blocks of 16 doubling to 4096: the
    same doubles in the same order as one rng.random() call each."""
    size = 16
    while True:
        yield from rng.random(size).tolist()
        size = min(2 * size, 4096)


@_collector_paused
def sample_derivation(g, seed=None, max_depth=64, max_nodes=DEFAULT_MAX_NODES):
    """Sample one derivation, breadth first, resolving whole levels in order.

    ``seed`` may be anything numpy's default_rng accepts, or a Generator
    (handy for scripted draws in tests).  The start tree is drawn from the
    grammar's start law (expectation.start_law), and the reported
    probability is its weight times the product of the phi draws made.
    Supercritical grammars grow exponentially, so on top of the depth cap a
    node budget censors runaway samples (complete=False, like a
    depth-capped one) at the first node, levels expanded in order, that
    would be expanded with max_nodes nodes placed.  The tree holds no
    reference cycles, so it is built with the cyclic collector paused.

    Each draw takes one uniform and picks by inverse CDF among the choices
    of positive probability (expectation._inverse_cdf): a site's entries in
    g.index.draw_table, which the enumerator reads too, or the start trees
    (g.start_draw, built once per grammar).  A uniform past every running
    sum, where a mass short of 1 leaves room, picks the last such choice,
    so no draw has probability 0.  A Generator made here (from an int,
    None or a SeedSequence) yields its uniforms in blocks, the same doubles
    as one random() call per draw; a caller's Generator, BitGenerator or
    scripted double gets one random() call per draw, so it ends where one
    call per draw leaves it.  phi breaking the SiteIndex input contract
    raises ValueError.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    table = g.index.draw_table
    # a Generator, or anything with a random() method (scripted test doubles)
    if isinstance(seed, np.random.Generator) or callable(getattr(seed, "random", None)):
        draw = seed.random
    elif isinstance(seed, np.random.BitGenerator):
        draw = np.random.default_rng(seed).random
    else:
        draw = _uniforms(np.random.default_rng(seed)).__next__
    sums, starts = g.start_draw  # start_law raises without start trees or on bad weights
    chosen, probability = starts[bisect_right(sums, draw())]
    root = DerivationNode(g.index.tree_ids[chosen])
    room = max_nodes - 1  # the nodes the cap leaves beside the root
    frontier, level, complete = [root], 0, True
    while frontier:  # the nodes of a level, expanded in order, place the next level's
        level += 1
        placed = []
        for node in frontier:
            if len(placed) >= room:
                return Derivation(root, False, probability)
            children = node.children = {}
            for site, sums, outcomes in table[node.tree_id]:
                target, prob = outcomes[bisect_right(sums, draw())]
                probability *= prob
                if target is None:
                    children[site] = None
                else:
                    child = children[site] = DerivationNode(target)
                    placed.append(child)
        room -= len(placed)
        frontier = placed
        if level == max_depth:  # trees with sites at the depth cap stay unexpanded
            frontier = [node for node in placed if not table[node.tree_id]]
            complete = len(frontier) == len(placed)
    return Derivation(root, complete, probability)


# ---------------------------------------------------------------------------
# derived trees

def derived_tree(d, g):
    """Derived (parse) tree of a complete derivation.

    Adjoining a tree at a node excises the subtree under that node, places
    the adjoined tree at the node's position and reattaches the excised
    subtree at its foot; substitution replaces the substitution leaf with
    the initial tree's root.  The tree is built top down with a stack, each
    node once and with its Gorn address, so nothing recurses per level; only
    a node with children goes on the stack.  A foot to fill takes the
    excised node, and only a node that takes a tree calls _placed.
    The grammar must pass ``validate`` (every auxiliary tree has exactly one
    foot); on a grammar with ``BAD_FOOT`` errors the result is undefined.
    """
    if not d.complete:
        raise ValueError("cannot derive a tree from an incomplete derivation")
    node, chosen, foot = _placed(g.tree(d.root.tree_id).root, d.root.children, None, g)
    top = gr.TreeNode(node.kind, node.label, (), node.site_id, "")
    stack = [(top, node, chosen, foot, "")]  # with the prefix of the kids' addresses
    while stack:
        out, node, chosen, foot, prefix = stack.pop()
        kids = []
        for i, child in enumerate(node.children, 1):
            child_chosen, child_foot = chosen, foot
            if child.kind == gr.FOOT and foot is not None:
                child, child_chosen, child_foot = foot
            elif chosen and chosen.get(child.site_id) is not None:
                child, child_chosen, child_foot = _placed(child, chosen, foot, g)
            address = f"{prefix}{i}"
            kid = gr.TreeNode(child.kind, child.label, (), child.site_id, address)
            kids.append(kid)
            if child.children:
                stack.append((kid, child, child_chosen, child_foot, f"{address}."))
        out.children = tuple(kids)
    return top


def _placed(node, chosen, foot, g):
    """What the derived tree holds where node stands: (node, chosen, foot)
    of node itself, of the root of the tree adjoined or substituted there
    (again and again), or, at a foot, of the excised node.

    chosen maps the site ids of node's elementary tree to the derivation
    node placed there (None for nil).  foot, unless None, is the excised
    (node, chosen, foot) that the tree's foot leaf becomes: a node that
    takes an adjunction is itself placed at the adjoined tree's foot,
    without that adjunction.  A substituted tree has no foot to fill.
    """
    while True:
        if node.kind == gr.FOOT and foot is not None:
            return foot
        child = chosen.get(node.site_id) if chosen else None
        if child is None:
            return node, chosen, foot
        foot = None if node.kind == gr.SUBSTITUTION else (node, chosen, foot)
        node, chosen = g.tree(child.tree_id).root, child.children


def yield_string(t):
    """Left-to-right terminal yield; epsilon leaves are dropped.

    One stack walks the tree in preorder.  Rejects trees that still contain
    foot or substitution leaves, naming the first in preorder.
    """
    anchor, unresolved = gr.ANCHOR, (gr.FOOT, gr.SUBSTITUTION)
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if node.kind == anchor:
            out.append(node.label)
        elif node.kind in unresolved:
            raise ValueError(
                f"unresolved {node.kind} leaf at address {node.address!r}")
        if node.children:
            stack += reversed(node.children)
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
    placed at level max_depth is finished, so it is admitted.  A derivation
    starts at a start tree of positive weight under the grammar's start law,
    the outcomes of g.start_draw that the sampler draws from, and its
    probability is then multiplied by that weight, so the summed
    probabilities equal the death-by-level constant C_(max_depth); the
    floor applies to that weighted probability.  prob_floor must not be
    NaN, and phi breaking the SiteIndex input contract raises ValueError.
    A site's options are the outcomes of its draw in g.index.draw_table,
    which the sampler draws from: its positive entries, nil included, each
    one once.

    The trees placed at each level are collected first, from the start trees
    of positive weight down, keeping only the trees that can finish
    (SiteIndex.finishes): no complete derivation places another.  Then the
    expansions of each (tree, level) are built once, from level max_depth
    up, from those of the level below, and shared.  Nothing recurses per
    level.  node_cap bounds the partial expansions: one per kept pair of
    (choices so far, next option) as the sites of a tree are resolved one by
    one, counted once per (tree, level).  More than node_cap of them raises
    EnumerationBudgetExceeded.  An expansion list is a list of nodes beside
    a float64 array of their probabilities: at each site the products of the
    pairs are formed in numpy, in chunks of at most _OUTER_CELLS, and
    counted against node_cap before any node of a chunk is built.  On
    grammar4 at depth 5 the result holds 238,145 derivations (126 MB
    traced); the call takes about 0.23 s and peaks at 133 MB, because the
    expansions are freed before the result is wrapped (Python 3.11, 2-core
    shared machine).

    The build runs with the cyclic garbage collector paused: it creates no
    reference cycles, so reference counting frees all it drops, and a
    collection would only walk the growing result again.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if math.isnan(prob_floor):
        raise ValueError("prob_floor must not be NaN")
    if node_cap < 0:
        raise ValueError("node_cap must be >= 0")
    index = g.index
    table, graph = index.draw_table, index.rewrite_graph
    sizes, finishes = index.sizes.tolist(), index.finishes.tolist()
    starts = g.start_draw[1]  # the start trees of positive weight, with their probabilities
    # tree positions per level: no complete derivation places a tree that
    # cannot finish, so none is placed, nor expanded
    placed = [dict.fromkeys(j for j, _ in starts if finishes[j])]
    while placed[-1] and len(placed) <= max_depth:
        deepest = len(placed) == max_depth
        placed.append(dict.fromkeys(k for j in placed[-1] for k in graph[j]
                                    if finishes[k] and not (deepest and sizes[k])))
    nil = [None], _ONE  # no tree, with probability 1
    below, spent = {None: nil}, 0  # the expansions at the level under the one being built
    for level in reversed(range(len(placed))):
        here = {None: nil}
        for j in placed[level]:
            tree_id = index.tree_ids[j]
            here[tree_id], spent = _expand(tree_id, table[tree_id], below,
                                           prob_floor, node_cap, spent)
        below = here
    roots = [(*below[index.tree_ids[t]], w) for t, w in starts if finishes[t]]
    del below  # nothing reads the expansions again: free them before wrapping
    derivations = []
    while roots:  # and free each root's lists once they are wrapped
        nodes, probs, w = roots.pop(0)
        totals = probs * w
        if not (keep := totals >= prob_floor).all():
            nodes, totals = compress(nodes, keep.tolist()), totals[keep]
        derivations += map(Derivation, nodes, repeat(True), totals.tolist())
    return derivations


def _expand(tree_id, draws, below, prob_floor, node_cap, spent):
    """((nodes, probabilities), spent plus the partial expansions made) of
    tree_id at the level being built, from its draw-table draws; below maps
    the trees placed at the next level, and nil, to theirs, the
    probabilities a float64 array.  Its own call frees its option lists.

    A pair's probability is the one multiply prob * (p * sub_prob) in
    float64, as in plain floats.  Per chunk of rows, the kept pairs are
    counted against the cap first; then one loop builds the kept children
    dicts, combos outer and options inner, each row's options whole where
    all of them pass the floor."""
    # the children chosen so far and their running products; the choices
    # at the last site complete a node, and a tree without sites is one
    combos, probs = [{} if draws else DerivationNode(tree_id, {})], _ONE
    for site, _, outcomes in draws:
        options, option_probs = [], []
        for target, p in outcomes:
            if target in below:  # p * 1.0 is p: nil's probability is exact
                subs, sub_probs = below[target]
                options += subs
                option_probs.append(p * sub_probs)
        option_probs = np.concatenate(option_probs) if option_probs else _NONE
        last = site == draws[-1][0]
        extended, extended_probs = [], []
        append, allowed = extended.append, node_cap - spent
        rows = max(1, _OUTER_CELLS // max(1, len(options)))
        for start in range(0, len(combos), rows):
            # the (combo, option) products of a chunk of rows, in entry order
            totals = np.multiply.outer(probs[start:start + rows], option_probs)
            keep = totals >= prob_floor
            kept = np.count_nonzero(keep)
            if len(extended) + kept > allowed:
                raise EnumerationBudgetExceeded(f"more than {node_cap} partial derivations")
            if kept == keep.size:
                extended_probs.append(totals.ravel())
                chosen_rows = repeat(options)
            else:
                extended_probs.append(totals[keep])
                chosen_rows = [options if all(row) else compress(options, row)
                               for row in keep.tolist()]
            for children, chosen_options in zip(combos[start:start + rows], chosen_rows):
                copy = children.copy
                for choice in chosen_options:
                    chosen = copy()
                    chosen[site] = choice
                    append(DerivationNode(tree_id, chosen) if last else chosen)
        spent += len(extended)
        combos = extended
        probs = np.concatenate(extended_probs) if extended_probs else _NONE
    return (combos, probs), spent


# ---------------------------------------------------------------------------
# termination estimation

def _block_sizes(samples, trees):
    """The sample count of each block of an estimate_termination run of
    samples on a grammar of trees trees.  Up to SAMPLE_BLOCK samples it is
    one block; past it, the fewest blocks, a multiple of WORKERS, of at most
    max(SAMPLE_BLOCK, BLOCK_CELLS // (trees + SAMPLE_CELLS)) samples each,
    their sizes differing by at most 1, the larger first.  It reads neither
    the CPUs nor a random stream, so a run's blocks are the same on every
    machine."""
    if samples <= SAMPLE_BLOCK:
        return [samples]
    most = max(SAMPLE_BLOCK, BLOCK_CELLS // (trees + SAMPLE_CELLS))
    blocks = WORKERS * -(-samples // (WORKERS * most))
    size, larger = divmod(samples, blocks)
    return [size + 1] * larger + [size] * (blocks - larger)


def _count_dtype(most_sites, most_anchors):
    """The integer type of estimate_termination's counts on a grammar whose
    trees hold at most most_sites sites and most_anchors anchors: int32 when
    max(FRONTIER_CAP, most_sites) x max(most_sites, most_anchors) < 2^31,
    else int64.  A sample's births at a level, and so every cell, draw and
    column sum of born, are at most its pending sites at the level before:
    at most FRONTIER_CAP for a sample that stayed, at most most_sites for a
    start tree.  A level's pending sites and yield are at most that many
    births times one tree's sites or anchors.  So no int32 count, sum or
    int64 draw added into an int32 row can pass 2^31 - 1, and the stats
    are those of int64 counts."""
    bound = max(FRONTIER_CAP, most_sites) * max(most_sites, most_anchors)
    return np.int32 if bound < 2**31 else np.int64


def estimate_termination(g, samples, max_depth, seed=0):
    """Monte Carlo estimate of the termination (extinction) probability.

    Simulates the tree-count process of a block of samples in lockstep: per
    level and site, one vectorized draw of its law resolves every pending
    instance, which is distributionally identical to sampling whole
    derivations one by one but stays fast for 10^6 samples.  A sample
    terminates when a level produces no trees, or when its last level holds
    only trees without sites (also at max_depth: the enumerator's
    convention, so the rate estimates C_(max_depth)); it is censored when
    trees with sites reach max_depth or its pending-site count exceeds
    FRONTIER_CAP.  Past the cap the chance of ever dying out is below
    q_max^FRONTIER_CAP, vanishingly small, so the censoring bias is far
    under sampling noise.

    The samples run in the blocks that _block_sizes(samples, trees) lays
    out: one block up to SAMPLE_BLOCK samples, else a multiple of WORKERS
    blocks of equal size (within 1), each holding at most BLOCK_CELLS
    cells or SAMPLE_BLOCK samples.  So on a small grammar a run is one
    lockstep block per worker up to WORKERS x BLOCK_CELLS // (trees +
    SAMPLE_CELLS) samples (838,860 on grammar2's 2 trees), and from 248
    trees on no block passes SAMPLE_BLOCK.  The layout depends on samples
    and the grammar alone, not on the machine.  Each block draws from its
    own stream.  rng, the Generator default_rng(seed) gives (a caller's
    Generator itself), first draws blocks - 1 integers below 2^63; block
    b >= 1 draws from default_rng of the b-th, and block 0 from rng.  So
    the streams follow from rng's state alone, whatever its SeedSequence.
    Each block draws its own start trees from the grammar's start law
    (expectation.start_law), runs the level loop until its samples have
    all left, and yields four int totals (the two counts and the depth and
    yield sums of the terminated), which are summed.  The
    blocks run on min(usable_cpus(), blocks, WORKERS) threads: worker w
    runs blocks w, w + workers, ... in turn, the calling thread being
    worker 0, and the rest run on a thread pool that the call starts and
    joins.  numpy's draws release the GIL, so the threads' draws overlap.
    A block's stream fixes its totals and an int sum does not depend on
    the order of its terms, so the stats depend on neither the number of
    threads nor the order in which blocks finish.  No array outlives its
    block, so memory is bounded by workers x one block, not by samples.  A
    run of at most SAMPLE_BLOCK samples draws no seed, starts no thread and
    draws what one lockstep run of all samples would; a longer run draws
    other numbers, from the same distribution, since the samples are
    i.i.d.  An exception in one block stops the other workers at their
    next block and propagates once all have stopped.

    Within a block only what is alive keeps state: ``born`` has one row per
    tree that some live sample bore at the last level (their tree ids
    ascending in ``rows``) and one column per live sample, holding how many
    of that tree it bore, which is the pending count of each of the tree's
    sites.  Memory is rows born x live samples of one block, not trees x
    samples: the start draw is dropped once level 0 is built, and a sample
    that terminates or is censored leaves at once.  Each site of a born
    tree draws its law in the index (its choices, then nil, over the
    site's mass) over that row's nonzero samples, in ascending order, and
    the draws land in the next level's rows: what the expanded trees
    rewrite to in ``rewrite_graph``, sorted.  A law with one positive entry
    p is one binomial(n, p), the very call numpy's multinomial makes for
    two outcomes, so it draws the same numbers in the same order; any other
    law is one multinomial, and a law of nil alone, for which multinomial
    draws nothing, is skipped.  A row with n = 0 or an entry with p = 0
    draws no random numbers, so the draws are those of keeping every tree,
    sample and entry in every multinomial.  Per level one product of the
    trees' anchor and site counts with born gives the live samples' yields
    and pending sites; only at a level that some sample leaves are the
    leavers counted, their columns of born read for the depth of those
    that terminate, and born compressed.  born, its next level and
    the trees' counts are of _count_dtype, picked once per call: int32,
    4 bytes a cell, on every grammar whose trees have at most 10^4 sites
    and 214,748 anchors, and int64 past its bound, with the same stats.
    The live samples' yields are int64.

    mean_depth and mean_yield_length, over terminated samples (NaN when
    none terminate), are an int sum over a count, rounded once: the bits of
    a float64 mean while the sum is below 2^53.  Identical inputs give
    identical stats.  phi breaking the SiteIndex input contract raises
    ValueError.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    index = g.index.checked()
    site_count = index.sizes
    rng = np.random.default_rng(seed)
    positions, start_probs = start_law(g)
    graph = index.rewrite_graph
    laws = {}  # tree -> per site, (target, p) for one target, else (targets, pvals)

    def site_laws(t):
        if (built := laws.get(t)) is None:
            built = []
            for j in range(index.tree_start[t], index.tree_start[t + 1]):
                entries = slice(index.entry_start[j], index.entry_start[j + 1])
                pvals = np.append(index.prob[entries], index.nil[j]) / index.mass[j]
                targets = index.tree[entries].tolist()
                if len(targets) == 1:
                    # multinomial draws a law of two outcomes as the one
                    # binomial(n, pvals[0]); binomial's check p <= 1 holds,
                    # since the mass is fl(p + nil) >= p and rounding is monotone
                    built.append((targets[0], float(pvals[0])))
                elif targets:  # a law of nil alone draws nothing in multinomial
                    built.append((targets, pvals))
            # published whole, so another thread reads a tree's laws complete
            # or not at all; two threads may both build them, equal
            laws[t] = built
        return built

    def births(rows, born, rng):
        """(rows, born) one level on, drawn from rng.  Its views of born end
        with the call, so the caller's rebinding frees the old array."""
        expanding = np.flatnonzero(site_count[rows]).tolist()
        trees = rows[expanding].tolist()
        next_rows = np.array(sorted({k for t in trees for k in graph[t]}), dtype=np.intp)
        next_born = np.zeros((len(next_rows), born.shape[1]), dtype=born.dtype)
        row_of = dict(zip(next_rows.tolist(), range(len(next_rows))))
        for r, t in zip(expanding, trees):
            row = born[r]
            # a dense row is cheaper whole: its zero entries draw nothing
            samples_with = (np.flatnonzero(row) if 2 * np.count_nonzero(row) < row.size
                            else ...)
            n = row[samples_with]
            for targets, pvals in site_laws(t):
                if isinstance(targets, int):
                    next_born[row_of[targets]][samples_with] += rng.binomial(n, pvals)
                else:
                    draws = rng.multinomial(n, pvals)
                    # a target a site lists twice gets both of its columns added
                    for column, target in enumerate(targets):
                        next_born[row_of[target]][samples_with] += draws[:, column]
        return next_rows, next_born

    # per tree its anchors and sites, in born's type so that each level's
    # product is one integer matmul of that type
    count = _count_dtype(int(site_count.max()), int(index.anchors.max()))
    per_tree = np.stack((index.anchors, site_count)).astype(count)

    def block_totals(size, rng):
        """(terminated, censored, depth sum, yield sum) of size fresh samples
        drawn from rng."""
        start = positions[rng.choice(len(positions), size=size, p=start_probs)]
        n_term = n_cens = depth_sum = yield_sum = 0
        rows = np.flatnonzero(np.bincount(start, minlength=len(index.tree_ids)))
        born = (rows[:, None] == start).astype(count)
        live_yields = per_tree[0, start].astype(np.int64)
        del start  # nothing as long as the samples outlives level 0
        for level in range(1, max_depth + 1):
            if not live_yields.size:
                break
            rows, born = births(rows, born, rng)
            yields, pending = per_tree[:, rows] @ born
            live_yields += yields
            # pending sites past the cap censor, at max_depth every one does
            cap = FRONTIER_CAP if level < max_depth else 0
            stays = (pending > 0) & (pending <= cap)
            if not stays.all():
                leaving = np.flatnonzero(~stays)
                # a leaver with pending sites passed the cap and is censored; one
                # without is done: with no births it died at level - 1 (a start
                # tree without sites at level 1, so at depth 0), with births
                # without sites at level
                done = leaving[pending[leaving] == 0]
                n_term += len(done)
                n_cens += len(leaving) - len(done)
                # a done sample has no pending sites, so its births, if any,
                # are all of trees without sites
                with_births = born[:, done].any(axis=0)
                depth_sum += (level - 1) * len(done) + int(np.count_nonzero(with_births))
                yield_sum += int(live_yields[done].sum())
                # compress keeps born C-contiguous, so each row stays a plain view
                born, live_yields = born.compress(stays, axis=1), live_yields[stays]
            alive = born.any(axis=1)
            if not alive.all():
                rows, born = rows[alive], born[alive]
        return n_term, n_cens, depth_sum, yield_sum

    sizes = _block_sizes(samples, len(index.tree_ids))
    # block b >= 1 draws from a Generator seeded by rng's b-th draw below
    # 2^63, block 0 from rng after those draws: the streams follow from rng's
    # state alone, and a run of one block draws no seed, so it draws what one
    # lockstep run draws
    seeds = rng.integers(2**63, size=len(sizes) - 1).tolist()
    streams = [rng, *map(np.random.default_rng, seeds)]
    workers = min(usable_cpus(), len(sizes), WORKERS)
    failed = []  # set by a group that raises, so that the others stop at their next block

    def group(first):
        """The summed totals of blocks first, first + workers, ... in turn."""
        sums = (0, 0, 0, 0)
        try:
            for b in range(first, len(sizes), workers):
                if failed:
                    break
                sums = tuple(map(sum, zip(sums, block_totals(sizes[b], streams[b]))))
        except BaseException:
            failed.append(first)
            raise
        return sums

    if workers == 1:
        groups = [group(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor
        # the calling thread runs group 0; leaving the pool waits for its threads
        with ThreadPoolExecutor(workers - 1) as pool:
            others = [pool.submit(group, first) for first in range(1, workers)]
            groups = [group(0), *(other.result() for other in others)]
    n_term, n_cens, depth_sum, yield_sum = map(sum, zip(*groups))
    mean_depth = depth_sum / n_term if n_term else math.nan
    mean_yield = yield_sum / n_term if n_term else math.nan
    return SimulationStats(samples, n_term, n_cens, n_term / samples, mean_depth, mean_yield,
                           int(seed) if isinstance(seed, Integral) else None)
