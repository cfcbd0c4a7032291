"""Metamorphic invariants across the three methods.

Each transform changes a grammar in a way whose effect on every method is
known in advance, so the checks need no reference values: the verdict of
the squaring test, the extinction vector q, the death-by-level constants
C_n and the enumerated derivations of the transformed grammar are compared
with those of the original.  A pinned digest catches a change of output;
these catch a wrong answer that was pinned.  The grammars are
random_proper_grammar seeds 0-49 and the benchmark's verdict corpus.

The squaring test's verdict is compared only where |rho - 1| >= 1e-9
(rho by numpy's eigvals): at the boundary the verdict is decided by the
rounding of the products, and a transform that permutes or extends M may
round them differently.
"""

import copy
import functools
import math
import random

import pytest

from ptagcheck import branching as br
from ptagcheck import consistency as cons
from ptagcheck import grammar as gr
from ptagcheck import simulate as sim
from conftest import random_proper_grammar, reference, verdict_corpus, with_zero_entry

DEPTHS = range(6)        # C_n compared at these depths
ENUM_DEPTH = 3           # enumerated derivations compared at this depth
BOUNDARY = 1e-9          # verdicts are not compared where |rho - 1| is below this
EPS = 2.0 ** -53         # unit roundoff of a double
# How far q and C_n may move when phi entries are split in two (see
# with_clone): each split adds one rounded addition to a site's Kleene sum
# per step, which the iteration damps.  The largest move seen is 1.4e-15
# in q and 1.1e-16 in C_n, on random seeds 0-49 and the verdict corpus.
SPLIT_BOUND = 64 * EPS   # 7.1e-15
# How far q and C_n may fall when adjunction entries are scaled (see
# scaled): in exact arithmetic they cannot fall, but where the exact gain
# (1 - alpha)·sum(p·(1 - product)) is below an ulp of a site's value, the
# rounding of its new nil and scaled entries can leave the step an ulp or
# two lower, which the iteration damps.  The largest fall seen is 2 EPS in q
# and 1 EPS in C_n, on random seeds 0-49 and the verdict corpus.
SCALE_BOUND = 16 * EPS   # 1.8e-15
# How far eigvals' rho of the scaled M may miss its exact bounds, relative
# to rho: eigvals is backward stable, so each computed rho is that of a
# matrix within a small multiple of k·eps of M, and these Perron roots are
# well conditioned.  The largest miss seen is 24 EPS (5.3e-15).
RHO_BOUND = 1e-12


class Baseline:
    """What every method says about one grammar, computed once."""

    def __init__(self, g):
        self.g = g
        self.doc = gr.to_document(g)
        self.rho = reference(g).spectral_radius()
        self.verdict = cons.check_consistency(g).verdict
        self.q = br.extinction(g)
        self.start = br.start_termination(g, self.q)
        self.death = [br.death_by_level(g, n) for n in DEPTHS]
        self.enumerated = enumerated(g)

    @property
    def verdict_comparable(self):
        return abs(self.rho - 1.0) >= BOUNDARY


def enumerated(g):
    """The sorted probabilities of the depth-ENUM_DEPTH derivations, or
    None when the enumeration outgrows its node cap."""
    try:
        return sorted(d.probability for d in sim.enumerate_derivations(g, ENUM_DEPTH))
    except sim.EnumerationBudgetExceeded:
        return None


@functools.lru_cache(maxsize=None)
def baselines():
    cases = [(f"random{seed}", random_proper_grammar(seed)) for seed in range(50)]
    cases += verdict_corpus(1)
    return [(name, Baseline(g)) for name, g in cases]


def each_node(node):
    yield node
    for child in node.get("children", ()):
        yield from each_node(child)


def renamed(doc, seed):
    """(doc, site map): every tree and site id renamed and the trees
    shuffled.  Each site keeps its phi entries in their order, and each
    tree its nodes, so only the canonical order of the trees changes."""
    rng = random.Random(f"renamed:{seed}")
    doc = copy.deepcopy(doc)
    trees = doc["trees"]
    rng.shuffle(trees)
    tree_map = {t["id"]: f"tree{k}" for k, t in enumerate(rng.sample(trees, len(trees)))}
    site_map = {}
    for t in trees:
        t["id"] = tree_map[t["id"]]
        for node in each_node(t["root"]):
            if "site" in node:
                node["site"] = site_map.setdefault(node["site"], f"site{len(site_map)}")
    doc["phi"] = [{"site": site_map[e["site"]],
                   "tree": None if e["tree"] is None else tree_map[e["tree"]],
                   "prob": e["prob"]} for e in doc["phi"]]
    return doc, site_map


def with_nil_only_site(doc, seed):
    """doc with one more site, whose only phi entry is nil at 1.0, in a
    tree that has sites already.  A tree without sites finishes where it
    is placed, so giving it a site would move its end one level down."""
    rng = random.Random(f"nil-only:{seed}")
    doc = copy.deepcopy(doc)
    tree = rng.choice([t for t in doc["trees"]
                       if any("site" in node for node in each_node(t["root"]))])
    children = tree["root"]["children"]
    children.insert(rng.randrange(len(children) + 1),
                    {"label": "NilOnly", "site": "nil-only",
                     "children": [{"epsilon": True}]})
    doc["phi"].append({"site": "nil-only", "tree": None, "prob": 1.0})
    return doc


def with_unreachable_component(doc):
    """doc with an auxiliary tree that no site targets and whose two sites
    each adjoin it at 0.9: a supercritical class (rho 1.8) that no
    derivation from a start tree reaches."""
    doc = copy.deepcopy(doc)
    doc["trees"].append({"id": "unreached", "type": "auxiliary", "root": {
        "label": "Unreached", "site": "unreached-1", "children": [
            {"label": "Unreached", "site": "unreached-2", "children": [{"anchor": "u"}]},
            {"foot": "Unreached"}]}})
    doc["phi"] += [{"site": site, "tree": target, "prob": p}
                   for site in ("unreached-1", "unreached-2")
                   for target, p in (("unreached", 0.9), (None, 0.1))]
    return doc


def with_clone(doc, g, seed):
    """doc with a copy of one tree that is not a start tree, or None when
    no phi entry targets such a tree.  The copy and its sites get new ids
    and its sites the phi entries of the originals; then every entry into
    the tree is split in two halves, one to the tree and one to the copy,
    in place.  A cloned start tree would be one more start tree, which
    changes the uniform start law."""
    rng = random.Random(f"clone:{seed}")
    starts = {g.index.tree_ids[j] for j in g.index.starts.tolist()}
    targeted = sorted({e["tree"] for e in doc["phi"]} - starts - {None})
    if not targeted:
        return None
    tree_id = rng.choice(targeted)
    doc = copy.deepcopy(doc)
    clone = copy.deepcopy(next(t for t in doc["trees"] if t["id"] == tree_id))
    clone["id"] = f"{tree_id}-clone"
    site_map = {}
    for node in each_node(clone["root"]):
        if "site" in node:
            site_map[node["site"]] = node["site"] = f"{node['site']}-clone"
    doc["trees"].append(clone)
    phi = doc["phi"] + [dict(e, site=site_map[e["site"]]) for e in doc["phi"]
                        if e["site"] in site_map]
    doc["phi"] = []
    for e in phi:
        if e["tree"] == tree_id:
            half = e["prob"] / 2
            doc["phi"] += [dict(e, prob=half), dict(e, tree=clone["id"], prob=half)]
        else:
            doc["phi"].append(e)
    return doc


def scaled(doc, g, alpha):
    """doc with each non-nil phi entry of an adjunction site scaled by
    alpha and the mass taken added to the site's nil entry, made when it
    has none.  A substitution site cannot take nil, so its entries stay."""
    adjunction = {node.site_id for t in g.trees for node in t.sites
                  if node.kind != gr.SUBSTITUTION}
    doc = copy.deepcopy(doc)
    moved = {}
    for e in doc["phi"]:
        if e["site"] in adjunction and e["tree"] is not None:
            moved[e["site"]] = moved.get(e["site"], 0.0) + (e["prob"] - alpha * e["prob"])
            e["prob"] *= alpha
    for e in doc["phi"]:
        if e["tree"] is None and e["site"] in moved:
            e["prob"] += moved.pop(e["site"])
    doc["phi"] += [{"site": site, "tree": None, "prob": m} for site, m in moved.items()]
    return doc


def every_output(g):
    """What each method outputs on g, each as its repr, so that equal means
    equal bit for bit; the enumerated derivations as nested tuples of their
    trees instead, since a repr would write each shared subtree out in full."""
    report = cons.check_consistency(g)
    q = br.extinction(g)
    try:
        shapes = {}
        derivations = [(tree_shape(d.root, shapes), d.complete, d.probability.hex())
                       for d in sim.enumerate_derivations(g, ENUM_DEPTH)]
    except sim.EnumerationBudgetExceeded:
        derivations = None
    samples = [sim.sample_derivation(g, seed=seed, max_nodes=500) for seed in range(10)]
    outputs = {
        "validate": [d.as_dict() for d in gr.validate(g)],
        "check": (report.as_dict(), report.stuck_tree),
        "extinction": (q.q.tobytes(), q.iterations, q.residual, q.converged),
        "death_by_level": [br.death_by_level(g, n) for n in DEPTHS],
        "estimate": sim.estimate_termination(g, 3000, 40),
        "sample": [(d.as_dict(), d.complete, d.probability) for d in samples],
        "adjunction_gf": [br.adjunction_gf(g, s) for s in g.site_ids],
    }
    return {method: repr(value) for method, value in outputs.items()} | {
        "enumerate": derivations}


def tree_shape(node, shapes):
    """(tree, level, children's shapes) of a derivation node, or None for a
    nil choice; shapes memoizes the nodes that derivations share."""
    if node is None:
        return None
    if id(node) not in shapes:
        shapes[id(node)] = (node.tree_id, node.level, None if node.children is None else
                            tuple((site, tree_shape(child, shapes))
                                  for site, child in node.children.items()))
    return shapes[id(node)]


def mixture_bound(g):
    """How far two orders of summing the start law's mixture may differ:
    each is within (k - 1)·eps of the exact sum of k terms, at most 1."""
    return 2 * len(g.index.starts) * EPS


def test_renaming_and_permuting_trees_changes_nothing():
    for name, base in baselines():
        doc, site_map = renamed(base.doc, name)
        g = gr.from_document(doc)
        assert [t.tree_id for t in g.trees] != [t.tree_id for t in base.g.trees], name
        if base.verdict_comparable:
            assert cons.check_consistency(g).verdict == base.verdict, name
        # each site's Kleene sum runs over its entries in their own order,
        # and each tree's product over its sites in preorder: bit for bit
        q = br.extinction(g)
        assert (q.iterations, q.converged) == (base.q.iterations, base.q.converged), name
        assert all(q[site_map[s]] == base.q[s] for s in base.q.site_index.ids), name
        # C_n mixes the start trees in declaration order, which the shuffle
        # changes: bit for bit with one start tree, else within the bound
        bound = 0.0 if len(g.index.starts) == 1 else mixture_bound(g)
        for n, c in zip(DEPTHS, base.death):
            assert abs(br.death_by_level(g, n) - c) <= bound, (name, n)
        # each derivation is the same product in the same order; only the
        # order of the start trees, and so of the list, changes
        assert enumerated(g) == base.enumerated, name


def test_nil_only_site_changes_nothing():
    for name, base in baselines():
        g = gr.from_document(with_nil_only_site(base.doc, name))
        assert len(g.index) == len(base.g.index) + 1
        if base.verdict_comparable:
            assert cons.check_consistency(g).verdict == base.verdict, name
        # the new site's q is exactly 1.0 from the first step on, and a
        # product times 1.0 is the product, bit for bit
        q = br.extinction(g)
        assert q["nil-only"] == 1.0, name
        assert all(q[s] == base.q[s] for s in base.q.site_index.ids), name
        assert [br.death_by_level(g, n) for n in DEPTHS] == base.death, name


def test_unreachable_component_keeps_termination():
    for name, base in baselines():
        g = gr.from_document(with_unreachable_component(base.doc))
        # no site of the original targets the new tree, so each iterate of
        # the original's sites is unchanged bit for bit
        assert [br.death_by_level(g, n) for n in DEPTHS] == base.death, name
        assert enumerated(g) == base.enumerated, name
        # extinction stops when the residual over all sites is below tol,
        # so the new class may add steps, which move q by less than tol
        q = br.extinction(g)
        assert q.converged, name
        start = br.start_termination(g, q)
        assert start.keys() == base.start.keys(), name
        assert all(abs(start[t] - base.start[t]) <= 1e-12 for t in start), name


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: check judges the whole site "
                   "graph, so an unreachable supercritical class makes it say Inconsistent")
def test_unreachable_component_keeps_verdict():
    for name, base in baselines():
        g = gr.from_document(with_unreachable_component(base.doc))
        if base.verdict_comparable:
            assert cons.check_consistency(g).verdict == base.verdict, name


def test_cloning_a_tree_and_splitting_its_entries_changes_nothing():
    cloned = 0
    for name, base in baselines():
        doc = with_clone(base.doc, base.g, name)
        if doc is None:
            continue
        cloned += 1
        g = gr.from_document(doc)
        # the copy acts as the tree it copies, so M lumps back onto the
        # original's M and rho stays
        if base.verdict_comparable:
            assert cons.check_consistency(g).verdict == base.verdict, name
        q = br.extinction(g)
        assert q.converged == base.q.converged, name
        assert all(abs(q[s] - base.q[s]) <= SPLIT_BOUND for s in base.q.site_index.ids), name
        for n, c in zip(DEPTHS, base.death):
            assert abs(br.death_by_level(g, n) - c) <= SPLIT_BOUND, (name, n)
        # a derivation that places the tree j times becomes 2^j derivations,
        # each with its probability halved j times, exactly: an exact sum of
        # them is the same number
        if base.enumerated is not None:
            split = enumerated(g)
            assert split is not None and math.fsum(split) == math.fsum(base.enumerated), name
    assert cloned >= 80  # 89 of the 98 grammars have a tree to clone


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_scaling_adjunction_entries(alpha):
    exact = 0  # grammars without substitution sites and with rho > 0
    for name, base in baselines():
        g = gr.from_document(scaled(base.doc, base.g, alpha))
        assert [(d.code, d.tree_id, d.site_id) for d in g.diagnostics] == [
            (d.code, d.tree_id, d.site_id) for d in base.g.diagnostics], name
        # alpha·M <= M' <= M entry by entry, up to the rounding of the
        # scaled entries, and so for the Perron roots; with no substitution
        # site every entry is scaled, and M' = alpha·M
        rho = reference(g).spectral_radius()
        assert alpha * base.rho * (1 - RHO_BOUND) <= rho <= base.rho * (1 + RHO_BOUND), name
        if not any(node.kind == gr.SUBSTITUTION for t in g.trees for node in t.sites):
            assert abs(rho - alpha * base.rho) <= RHO_BOUND * alpha * base.rho, name
            exact += base.rho > 0
        if abs(rho - 1.0) >= BOUNDARY:
            assert cons.check_consistency(g).verdict == (
                cons.CONSISTENT if rho < 1.0 else cons.INCONSISTENT), name
        # each offspring function only rises on [0, 1]^k: the mass moved to
        # nil is at least what it added through a product of q's at most 1.
        # So every Kleene iterate rises.  q is compared after the steps the
        # original took, since the scaled grammar often converges sooner
        # and its q then stops further below its own fixed point.
        q = br.extinction(g, tol=0.0, max_iter=max(1, base.q.iterations))
        assert (q.q >= base.q.q - SCALE_BOUND).all(), name
        for n, c in zip(DEPTHS, base.death):
            assert br.death_by_level(g, n) >= c - SCALE_BOUND, (name, n)
    assert exact >= 1  # random49


def test_zero_entry_changes_nothing():
    # an entry of probability 0, even one placed before all the others,
    # rewrites nothing: it stays in SiteIndex's phi record, out of its
    # choices (site, tree and prob) and its draw table, which every
    # numeric path reads
    changed = 0
    for name, base in baselines():
        doc = with_zero_entry(base.doc, base.g, name)
        if doc is None:
            continue
        changed += 1
        assert every_output(gr.from_document(doc)) == every_output(base.g), name
    assert changed >= 80  # 84 of the 98 grammars have a tree to add
