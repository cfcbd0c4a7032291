import collections
import dataclasses
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ptagcheck import branching as br
from ptagcheck import cli
from ptagcheck import expectation as ex
from ptagcheck import grammar as gr
from ptagcheck import simulate as sim
from conftest import (GRAMMAR2, GRAMMAR4, REPO, branching_family, critical_chain,
                      duplicate_target_grammar, finishing_sites, minimal_document, parse,
                      pinned_grammar, random_proper_grammar, segment_edge_grammar,
                      synth_grammar, two_site_start_grammar, two_siteless_start_grammar)


class ScriptedRNG:
    """Feeds a fixed sequence of uniforms, then falls back to a real one."""

    def __init__(self, draws, seed=0):
        self.draws = list(draws)
        self.fallback = np.random.default_rng(seed)

    def random(self):
        if self.draws:
            return self.draws.pop(0)
        return self.fallback.random()


def all_nil_grammar():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    return parse(doc)


# -- sampling ----------------------------------------------------------------

def test_sample_trivial_grammar():
    d = sim.sample_derivation(all_nil_grammar(), seed=123, max_depth=5)
    assert d.complete
    assert d.probability == 1.0
    assert max(n.level for n in d.root.nodes()) == 0
    assert d.root.children == {"R": None}


def test_sample_grammar2_scripted_draws(grammar2):
    # start tree is forced (single choice), then S1 -> t2, S2 -> nil, S3 -> nil
    rng = ScriptedRNG([0.0, 0.5, 0.995, 0.985])
    d = sim.sample_derivation(grammar2, seed=rng, max_depth=10)
    assert d.complete
    root = d.root
    assert root.tree_id == "t1"
    child = root.children["S1"]
    assert child.tree_id == "t2" and child.level == 1
    assert d.as_dict()["children"]["S1"]["at"] == "S1"
    assert child.children == {"S2": None, "S3": None}
    assert d.probability == pytest.approx(1.0 * 0.01 * 0.02, rel=1e-12)


def test_sample_depth_cap_censors(grammar4):
    # first uniform picks the start tree, second forces A1 -> t2
    rng = ScriptedRNG([0.0, 0.5])
    d = sim.sample_derivation(grammar4, seed=rng, max_depth=1)
    assert not d.complete
    frontier = d.root.children["A1"]
    assert frontier.tree_id == "t2"
    assert frontier.children is None  # unexpanded
    assert max(n.level for n in d.root.nodes()) == 1


def test_sample_levels_increase(grammar4):
    d = sim.sample_derivation(grammar4, seed=11, max_depth=50)
    for node in d.root.nodes():
        for child in (node.children or {}).values():
            if child is not None:
                assert child.level == node.level + 1


def test_sample_reproducible(grammar4, grammar2):
    for g in (grammar4, grammar2):
        a = sim.sample_derivation(g, seed=99, max_depth=30)
        b = sim.sample_derivation(g, seed=99, max_depth=30)
        assert a.as_dict() == b.as_dict()
        assert a.probability == b.probability
        assert a.complete == b.complete


def test_sample_node_budget_censors(grammar2):
    d = sim.sample_derivation(grammar2, seed=5, max_depth=10_000, max_nodes=50)
    assert not d.complete
    assert sum(1 for _ in d.root.nodes()) <= 51


def test_sample_probability_is_product_of_draws(grammar4):
    d = sim.sample_derivation(grammar4, seed=4, max_depth=100)
    assert d.complete
    product = 1.0
    for node in d.root.nodes():
        for site_node in grammar4.tree(node.tree_id).sites:
            chosen = node.children[site_node.site_id]
            target = chosen.tree_id if chosen is not None else None
            product *= dict(grammar4.phi[site_node.site_id])[target]
    assert d.probability == pytest.approx(product, rel=1e-12)


def weighted(g, start_weights):
    """g with start_weights as its start law."""
    return dataclasses.replace(g, start_weights=start_weights)


@pytest.mark.parametrize("t1, t2", [(1.0, w) for w in (-1.0, math.nan, math.inf, -math.inf)]
                         + [(1e308, 1e308)])  # each finite, the sum is not
def test_start_weights_must_be_finite_and_nonnegative(t1, t2):
    g = weighted(random_proper_grammar(0), {"t1": t1, "t2": t2})
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sim.sample_derivation(g, seed=0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sim.estimate_termination(g, 100, 10)


@pytest.mark.parametrize("weights", [[1, 2], {"t1": True}, {"t1": "0.5"}],
                         ids=["list", "bool", "string"])
def test_start_weights_must_map_tree_ids_to_reals(weights):
    # the grammar takes any start_weights: start_law checks them where a method reads them
    g = weighted(random_proper_grammar(0), weights)
    with pytest.raises(ValueError, match="map tree ids to real numbers"):
        ex.start_law(g)
    with pytest.raises(ValueError, match="map tree ids to real numbers"):
        sim.sample_derivation(g, seed=0)
    with pytest.raises(ValueError, match="map tree ids to real numbers"):
        sim.estimate_termination(g, 100, 10)


def test_start_weights_override():
    g = weighted(two_siteless_start_grammar(), {"t2": 1.0})
    for seed in range(5):
        d = sim.sample_derivation(g, seed=seed)
        assert d.root.tree_id == "t2"
        assert d.probability == 1.0


def test_sample_probability_carries_start_weight():
    g = two_siteless_start_grammar()
    for u, tree_id, prob in [(0.1, "t1", 0.5), (0.9, "t2", 0.5)]:
        d = sim.sample_derivation(g, seed=ScriptedRNG([u]))
        assert (d.root.tree_id, d.probability) == (tree_id, prob)
    g = weighted(g, {"t1": 1.0, "t2": 3.0})
    for u, tree_id, prob in [(0.2, "t1", 0.25), (0.3, "t2", 0.75)]:
        d = sim.sample_derivation(g, seed=ScriptedRNG([u]))
        assert (d.root.tree_id, d.probability) == (tree_id, prob)


def test_sample_unfillable_site_censors_after_one_draw():
    # the substitution site N has no phi entry, so its mass of 0 breaks the
    # phi contract: the sampler refuses the grammar before drawing anything
    doc = minimal_document()
    doc["trees"][0]["root"] = {"label": "S", "site": "R", "children": [
        {"subst": "NP", "site": "N"}, {"anchor": "a"}]}
    doc["phi"] = [{"site": "R", "tree": None, "prob": 1.0}]
    rng = ScriptedRNG([0.0, 0.5, 0.7, 0.9])
    with pytest.raises(ValueError, match="site 'N' has a negative or nonfinite"):
        sim.sample_derivation(parse(doc), seed=rng)
    assert rng.draws == [0.0, 0.5, 0.7, 0.9]


def sample_digest(g, seeds, kwargs):
    """sha256 of each seed's as_dict() JSON, complete and probability.hex();
    a "start_weights" key of kwargs is g's start law."""
    kwargs = dict(kwargs)
    g = weighted(g, kwargs.pop("start_weights", None))
    lines = []
    for seed in seeds:
        d = sim.sample_derivation(g, seed=seed, **kwargs)
        lines.append(f"{json.dumps(d.as_dict())} {d.complete} {d.probability.hex()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (grammar, seeds, keyword arguments, sample_digest) recorded from the sampler
# that scanned each site's phi entries with one scalar uniform per site
SAMPLE_DIGESTS = [
    ("grammar2", range(2), {"max_depth": 200},  # both stopped by the default node cap
     "26ae15c275d593f55cb5c984813310ef78411e2d74c759b74c1bcd69443e2be6"),
    ("grammar2", range(20), {"max_depth": 200, "max_nodes": 1},
     "ecb1ff88cadff832e5e6b4d7c3b739d558c00bc8de4a1b8c9dd59f789e76e3d1"),
    ("grammar2", range(20), {"max_depth": 200, "max_nodes": 2_000},
     "4cc5b63fde4fdad8243088674e471dbce5f327ee880f3d0ad563f0c2bf457d81"),
    ("grammar4", range(200), {"max_depth": 40},
     "17faeb67bbba57dfcc771778d6e955c4a1160190459ebbb3dd2ac717b2418c56"),
    ("segment_edge", range(200), {"max_depth": 40, "max_nodes": 500},
     "f55c780aa3a3977291470331d05003f368db7c918b2563cca0a808bde7717e0c"),
    ("two_site_start", range(200), {"max_depth": 40},
     "201c7cb9a86ec014ae09b0fdd17ca44e716e74d24c1d01837317ccd769d1300e"),
    *((f"random{seed}", range(50), {"max_depth": 40, "max_nodes": 500}, digest)
      for seed, digest in enumerate((
          "d20b798f20f6ec010849e6d0daa2356a16241e7868e72ffc2c8290119f547e47",
          "a4a0c393c17e2789515fdc13200d1b6b10c0ce3bd52f411347da1005d7c4918c",
          "01307a44742918e950e156baa714f9ab76c8119a062fef14cbcd34b0e5474bb5",
          "a4a0c393c17e2789515fdc13200d1b6b10c0ce3bd52f411347da1005d7c4918c",
          "0c88e66dee169c58f6557662f1538884797425a291d4713153ff4f3b7faf43d0",
          "6a012e7b1697e86fc6dab20302cf8ac65363e7c1d2e9ce12578a81f1ea48b60e",
          "bf20a8b893bbbc4b6fc0635f4a42838cad2a6e3940b3ed548aa3a9e30d18c0c4",
          "e12978f254ae4f4959b3be6c51f8eab24eae32fa2b40f3c22eb901c9593c9675",
          "fa8bcbd1bf699c7979e43da792ba02a570452cd04d2c266ad0df764e21c71379",
          "87b417bd12e9a635c5c26da1cdb7287e9b61a627240170cb8f7eb4e3d6a64099"))),
    ("random0", range(50), {"max_depth": 40, "start_weights": {"t1": 1.0, "t2": 3.0}},
     "4e70379c791ed9391b1275ceefad04f1a68e01bf3ad693208f14f02837b1696c"),
    ("two_siteless_start", range(20), {"start_weights": {"t1": 1.0, "t2": 3.0}},
     "3cec8f80291fdae062e6bc0c241ab2ea5037d5a4827bba709f376c146b5e364e"),
    ("grammar4", range(50), {"max_depth": 1},
     "6f5bc3037816ca773c0988e57a4fe879bb3c1367a3d95c61282209c8d4ee30b4"),
    ("grammar2", range(50), {"max_depth": 1},
     "67baa236b15481c6a6963b2cfce8e89423c97ae5e2d98cc4134f4add76d292a2"),
    ("random4", range(50), {"max_depth": 1},
     "ea36b0d5887af1e038e13043813f51a7abf696f6f217b68f636af36f6a1476f5"),
]


@pytest.mark.parametrize("name,seeds,kwargs,digest", SAMPLE_DIGESTS,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(SAMPLE_DIGESTS)])
def test_sample_derivation_pinned(name, seeds, kwargs, digest):
    assert sample_digest(pinned_grammar(name), seeds, kwargs) == digest


class CountingRNG:
    """Hands a Generator's scalar uniforms through, one random() call each."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.rng.random()


@pytest.mark.parametrize("name,max_nodes", [("grammar4", 500), ("grammar2", 300),
                                            ("random1", 500), ("segment_edge", 500)])
def test_caller_generator_draws_one_uniform_per_site(name, max_nodes):
    # a caller's Generator is advanced exactly as by one random() per draw:
    # the start tree, then each site of each expanded node
    g = pinned_grammar(name)
    for seed in range(20):
        given = np.random.default_rng(seed)
        counting = CountingRNG(np.random.default_rng(seed))
        d = sim.sample_derivation(g, seed=given, max_depth=40, max_nodes=max_nodes)
        e = sim.sample_derivation(g, seed=counting, max_depth=40, max_nodes=max_nodes)
        assert (d.as_dict(), d.complete, d.probability) == (e.as_dict(), e.complete,
                                                            e.probability)
        assert given.bit_generator.state == counting.rng.bit_generator.state
        expanded = [n for n in d.root.nodes() if n.children is not None]
        assert counting.calls == 1 + sum(len(g.tree(n.tree_id).sites) for n in expanded)
        bits = np.random.PCG64(seed)
        assert sim.sample_derivation(g, seed=bits, max_depth=40,
                                     max_nodes=max_nodes).as_dict() == d.as_dict()
        assert bits.state == given.bit_generator.state


def test_draw_table_built_once_per_grammar(monkeypatch):
    built = []
    build = ex.SiteIndex.draw_table.func

    def counting(idx):
        built.append(idx)
        return build(idx)

    table = functools.cached_property(counting)
    table.__set_name__(ex.SiteIndex, "draw_table")
    monkeypatch.setattr(ex.SiteIndex, "draw_table", table)
    # the sampler first, then the enumerator, and the other way round
    first, second = gr.load_grammar(GRAMMAR4), gr.load_grammar(GRAMMAR4)
    for seed in range(5):
        sim.sample_derivation(first, seed=seed)
    assert built == [first.index]
    sim.enumerate_derivations(first, 2)
    sim.enumerate_derivations(second, 2)
    assert built == [first.index, second.index]
    for seed in range(5):
        sim.sample_derivation(second, seed=seed)
    assert built == [first.index, second.index]
    assert first.index.draw_table is first.index.draw_table


def test_start_draw_is_built_once_from_the_start_law(monkeypatch):
    # the sampler draws its start tree from the grammar's lazy start draw, the
    # inverse CDF of start_law's floats, built once, under the uniform law
    # and a weighted one
    cases = [(name, None) for name in ("grammar4", "random0", "random38", "two_siteless_start")]
    cases += [("random0", {"t1": 1.0, "t2": 3.0}), ("random38", {"t1": 1.0, "t3": 3.0}),
              ("two_siteless_start", {"t2": 1.0})]
    for name, weights in cases:
        g = weighted(pinned_grammar(name), weights)
        positions, probs = ex.start_law(g)
        assert g.start_draw == ex._inverse_cdf(zip(positions.tolist(), probs.tolist()))
        assert not hasattr(g.index, "start_draw")
    no_start = minimal_document()
    no_start["start"] = "Z"
    with pytest.raises(ValueError, match="no initial tree rooted in 'Z'"):
        sim.sample_derivation(parse(no_start), seed=0)
    uniform = gr.load_grammar(GRAMMAR4)
    law = weighted(random_proper_grammar(0), {"t2": 1.0})
    draws = uniform.start_draw, law.start_draw
    monkeypatch.setattr(gr, "start_law", None)  # nor is the law rebuilt per call
    monkeypatch.setattr(sim, "start_law", None)
    for g, first in ((uniform, "t1"), (law, "t2")):
        assert [sim.sample_derivation(g, seed=s).root.tree_id for s in range(6)] == [first] * 6
    assert (uniform.start_draw, law.start_draw) == draws
    assert uniform.start_draw is uniform.start_draw


def shortfall_grammar():
    """Start tree t1 whose site X rewrites to t2 at 0.5, stays nil at
    0.5 - 4e-10 and rewrites to t3 at 0.0: a mass 4e-10 short of 1, within
    PROPERNESS_TOL, whose last entry has probability 0."""
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [
        {"label": "A", "site": "X", "children": [{"anchor": "a"}]}]
    doc["trees"] += [{"id": tid, "type": "auxiliary", "root": {
        "label": "A", "children": [{"anchor": leaf}, {"foot": "A"}]}}
        for tid, leaf in (("t2", "b"), ("t3", "c"))]
    doc["phi"] = [{"site": "X", "tree": "t2", "prob": 0.5},
                  {"site": "X", "tree": None, "prob": 0.5 - 4e-10},
                  {"site": "X", "tree": "t3", "prob": 0.0}]
    return parse(doc)


def test_site_shortfall_goes_to_the_last_positive_entry():
    g = shortfall_grammar()
    assert [d.tree_id for d in gr.validate(g) if d.code == gr.UNREACHABLE_TREE] == ["t3"]
    d = sim.sample_derivation(g, seed=ScriptedRNG([0.0, 1 - 1e-10]))
    assert d.complete and d.root.children == {"X": None}
    assert d.probability == 0.5 - 4e-10
    # below the shortfall the draws are those of a scan of every entry
    for u, child in [(0.25, "t2"), (0.5, None), (1 - 4e-10 - 2**-53, None)]:
        d = sim.sample_derivation(g, seed=ScriptedRNG([0.0, u]), max_depth=1)
        assert getattr(d.root.children["X"], "tree_id", None) == child


def test_start_shortfall_goes_to_the_last_positive_start_tree():
    doc = minimal_document()
    doc["trees"] = [{"id": f"t{j}", "type": "initial",
                     "root": {"label": "S", "children": [{"anchor": "a"}]}} for j in range(1, 8)]
    g = parse(doc)
    g = weighted(g, {f"t{j}": 1.0 for j in range(1, 7)} | {"t7": 0.0})
    _, probs = ex.start_law(g)
    assert list(itertools.accumulate(probs.tolist()))[-1] == 1 - 2**-53
    d = sim.sample_derivation(g, seed=ScriptedRNG([1 - 2**-53]))
    assert (d.root.tree_id, d.probability, d.complete) == ("t6", 1 / 6, True)


def test_start_law():
    g = random_proper_grammar(0)
    positions, probs = ex.start_law(g)
    assert [g.index.tree_ids[t] for t in positions] == ["t1", "t2"]
    assert probs.tolist() == [0.5, 0.5]
    _, probs = ex.start_law(weighted(g, {"t2": 3, "t1": 1.0, "not-a-start-tree": 5.0}))
    assert probs.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError, match="no mass"):
        ex.start_law(weighted(g, {"t1": 0.0}))


def test_start_law_reads_positions_recorded_in_the_index(monkeypatch):
    g = weighted(random_proper_grammar(0), {"t2": 1.0})
    g.index  # built once, with the start positions
    monkeypatch.setattr(g, "trees", ())  # a rescan would find no start tree
    positions, probs = ex.start_law(g)
    assert [g.index.tree_ids[t] for t in positions] == ["t1", "t2"]
    assert probs.tolist() == [0.0, 1.0]
    assert positions is g.index.starts and not positions.flags.writeable


# -- derived trees -----------------------------------------------------------

def test_derived_tree_identity_surgery():
    g = all_nil_grammar()
    d = sim.sample_derivation(g, seed=0)
    t = sim.derived_tree(d, g)
    assert t.label == "S"
    assert [c.kind for c in t.children] == [gr.ANCHOR]
    assert sim.yield_string(t) == ["a"]


def test_derived_tree_grammar2_single_adjunction(grammar2):
    rng = ScriptedRNG([0.0, 0.5, 0.995, 0.985])
    d = sim.sample_derivation(grammar2, seed=rng, max_depth=10)
    t = sim.derived_tree(d, grammar2)
    assert sim.yield_string(t) == ["a", "a"]
    # the excised start subtree hangs below the adjoined tree's foot position
    assert t.site_id == "S2"
    assert t.children[0].site_id == "S3"


def test_sample_tree_without_sites_at_depth_cap_is_complete():
    # start tree forced, then A1 -> t2 (uniform 0.9 lies past nil 0.3 and t3 0.5)
    g = segment_edge_grammar()
    d = sim.sample_derivation(g, seed=ScriptedRNG([0.0, 0.9]), max_depth=1)
    assert d.complete
    leaf = d.root.children["A1"]
    assert leaf.tree_id == "t2" and leaf.level == 1 and leaf.children == {}
    assert d.probability == 0.2


def test_derived_tree_rejects_incomplete(grammar4):
    rng = ScriptedRNG([0.0, 0.5])
    d = sim.sample_derivation(grammar4, seed=rng, max_depth=1)
    with pytest.raises(ValueError, match="incomplete"):
        sim.derived_tree(d, grammar4)


def node(tree_id, level, children):
    return sim.DerivationNode(tree_id, level, children)


def test_derived_tree_reproduces_reference_string(grammar4):
    # four stacked t2 adjunctions with two t3 adjunctions on the innermost one
    t3y = node("t3", 3, {"B2": None})
    t3x = node("t3", 2, {"B2": t3y})
    t2d = node("t2", 4, {"A2": None, "B1": None, "A3": None})
    t2c = node("t2", 3, {"A2": t2d, "B1": None, "A3": None})
    t2b = node("t2", 2, {"A2": t2c, "B1": None, "A3": None})
    t2a = node("t2", 1, {"A2": t2b, "B1": t3x, "A3": None})
    root = node("t1", 0, {"A1": t2a})
    d = sim.Derivation(root, True, 1.0)
    t = sim.derived_tree(d, grammar4)
    assert sim.yield_string(t) == ["a2", "a2", "a2", "a2", "a3", "a3", "a1"]


def tree_node(kind, label, address, *children, site=None):
    return gr.TreeNode(kind, label, children, site, address)


def graft_grammar():
    """One tree of each awkward shape for derived-tree construction.

    t2 adjoins at A1 and takes adjunctions at its own root site A2 (t3) and
    at B1 below it (t5); its foot lies under B1, so the excised A1 subtree
    must follow B1 into t5.  t3 carries a substitution site N1 (t4), and
    t4 takes the single-node auxiliary tree t6 at C1.
    """
    def aux(tree_id, root):
        return {"id": tree_id, "type": "auxiliary", "root": root}

    def interior(label, *children, site=None):
        node = {"label": label, "children": list(children)}
        if site:
            node["site"] = site
        return node

    return parse({
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial",
             "root": interior("S", interior("A", {"anchor": "a"}, site="A1"))},
            aux("t2", interior("A", interior("B", {"anchor": "b"}, {"foot": "A"}, site="B1"),
                               site="A2")),
            aux("t3", interior("A", {"anchor": "c"}, {"subst": "NP", "site": "N1"},
                               {"foot": "A"})),
            {"id": "t4", "type": "initial",
             "root": interior("NP", interior("C", {"anchor": "n"}, site="C1"))},
            aux("t5", interior("B", {"foot": "B"}, {"anchor": "d"})),
            aux("t6", {"foot": "C"}),
        ],
        "phi": [
            {"site": "A1", "tree": "t2", "prob": 0.5},
            {"site": "A1", "tree": None, "prob": 0.5},
            {"site": "A2", "tree": "t3", "prob": 0.5},
            {"site": "A2", "tree": None, "prob": 0.5},
            {"site": "B1", "tree": "t5", "prob": 0.5},
            {"site": "B1", "tree": None, "prob": 0.5},
            {"site": "N1", "tree": "t4", "prob": 1.0},
            {"site": "C1", "tree": "t6", "prob": 0.5},
            {"site": "C1", "tree": None, "prob": 0.5},
        ],
    })


def test_derived_tree_written_out():
    g = graft_grammar()
    assert not [d for d in gr.validate(g) if d.severity == gr.ERROR]
    t4 = node("t4", 3, {"C1": node("t6", 4, {})})
    t3 = node("t3", 2, {"N1": t4})
    t2 = node("t2", 1, {"A2": t3, "B1": node("t5", 2, {})})
    d = sim.Derivation(node("t1", 0, {"A1": t2}), True, 1.0)

    tn = tree_node
    interior, anchor = gr.INTERIOR, gr.ANCHOR
    expected = tn(interior, "S", "", tn(
        interior, "A", "1",  # t3's root
        tn(anchor, "c", "1.1"),
        tn(interior, "NP", "1.2",  # t4 substituted at N1
           tn(interior, "C", "1.2.1", tn(anchor, "n", "1.2.1.1"), site="C1")),
        tn(interior, "A", "1.3",  # t2's root A2 at t3's foot
           tn(interior, "B", "1.3.1",  # t5's root
              tn(interior, "B", "1.3.1.1",  # B1 at t5's foot
                 tn(anchor, "b", "1.3.1.1.1"),
                 tn(interior, "A", "1.3.1.1.2",  # the excised A1 at t2's foot
                    tn(anchor, "a", "1.3.1.1.2.1"), site="A1"),
                 site="B1"),
              tn(anchor, "d", "1.3.1.2")),
           site="A2")))
    t = sim.derived_tree(d, g)
    assert t == expected
    assert sim.yield_string(t) == ["c", "n", "b", "a", "d"]


def test_derived_tree_keeps_the_feet_of_initial_trees():
    # validate rejects a foot in an initial tree; derived_tree leaves it a
    # leaf, in the start tree and in a substituted one alike
    g = parse({"start": "S", "phi": [{"site": "N1", "tree": "t2", "prob": 1.0}], "trees": [
        {"id": "t1", "type": "initial", "root": {"label": "S", "children": [
            {"subst": "NP", "site": "N1"}, {"foot": "S"}]}},
        {"id": "t2", "type": "initial", "root": {"label": "NP", "children": [
            {"anchor": "n"}, {"foot": "NP"}]}}]})
    d = sim.Derivation(node("t1", 0, {"N1": node("t2", 1, {})}), True, 1.0)
    assert sim.derived_tree(d, g) == tree_node(
        gr.INTERIOR, "S", "",
        tree_node(gr.INTERIOR, "NP", "1", tree_node(gr.ANCHOR, "n", "1.1"),
                  tree_node(gr.FOOT, "NP", "1.2")),
        tree_node(gr.FOOT, "S", "2"))


# (grammar, seeds, max_depth, max_nodes, complete derivations, sha256 of the
# reprs of their derived trees, one per line), recorded from the surgery the
# recursive graft replaced.  grammar2 almost never dies out; these seeds do.
DERIVED_TREE_DIGESTS = [
    ("grammar4", range(300), 40, 500, 300,
     "e3f7c2d9cf99dcf865f898b51035f9c19892b0f2a40a8e388c97906127c167d8"),
    ("grammar2", (3284, 9332, 15751, 16352, 18521), 12, 40, 5,
     "ccacd031f8948b0307fa66aba82ae50c22fe816d58f39cc371cd392f90bebacc"),
    ("segment_edge", range(300), 40, 500, 176,
     "7a5421739bb7910efb1ec4184609c7f1cf4f64457a6bdf24a587f6c55e9ea914"),
    ("two_site_start", range(300), 40, 500, 300,
     "3922ed7acce06a36281a4ef0c67d7ef14795e02db6a40573bb9648859e353d8a"),
    ("random0", range(300), 40, 500, 300,
     "f968b42b9b0bc9bcab64e109abd39d9ba74fa27b20c9a92b318015c5527307e5"),
    ("random1", range(300), 40, 500, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random2", range(300), 40, 500, 300,
     "e47a642eb726fd1768905a2dd7531cb75485971c53b2759059056c889e8f0ab5"),
    ("random3", range(300), 40, 500, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random4", range(300), 40, 500, 300,
     "ae0ebb95ed5a18fcf39f1cd0471b3da4b475a7d7b7304497aff8dd208932d5c2"),
    ("random5", range(300), 40, 500, 300,
     "658a19c45fb25d9cb556fbf180f642e1d66b718dd503082a03f3345c81d0a350"),
    ("random6", range(300), 40, 500, 300,
     "76d7cec5d0eb2f5a1db4c72633ed9968a2d8f699a62b12dec427c383f31283b3"),
    ("random7", range(300), 40, 500, 300,
     "a8c3d47350c8b6c74ac523f64f1edb9cf1c61916e586492d82413a0f50b50904"),
    ("random8", range(300), 40, 500, 300,
     "8b2277674f73d7e612b311bc78fa17a62925f1c6dd9251f0b351fcc642a862a2"),
    ("random9", range(300), 40, 500, 300,
     "5fe7e82eb6e0ad0d713be660f34fbac37fed8f6f7c13e25c414dabb5c4acd71f"),
]


@pytest.mark.parametrize("name,seeds,max_depth,max_nodes,count,digest",
                         DERIVED_TREE_DIGESTS, ids=[c[0] for c in DERIVED_TREE_DIGESTS])
def test_derived_trees_pinned(name, seeds, max_depth, max_nodes, count, digest):
    g = pinned_grammar(name)
    trees = []
    for seed in seeds:
        d = sim.sample_derivation(g, seed=seed, max_depth=max_depth, max_nodes=max_nodes)
        if d.complete:
            trees.append(repr(sim.derived_tree(d, g)))
    assert len(trees) == count
    assert hashlib.sha256("\n".join(trees).encode()).hexdigest() == digest


def test_anchor_multiset_reachable_by_enumeration(grammar4):
    target = {"a1": 1, "a2": 4, "a3": 2}
    found = False
    for d in sim.enumerate_derivations(grammar4, 5):
        if sim.anchor_multiset(d, grammar4) == target:
            found = True
            break
    assert found


def test_yield_matches_anchor_count_per_sample(grammar4):
    for seed in range(100):
        d = sim.sample_derivation(grammar4, seed=seed, max_depth=100)
        if not d.complete:
            continue
        t = sim.derived_tree(d, grammar4)
        leaves = sim.yield_string(t)
        counts = {}
        for leaf in leaves:
            counts[leaf] = counts.get(leaf, 0) + 1
        assert counts == sim.anchor_multiset(d, grammar4)
        assert leaves.count("a1") == 1  # the single start anchor


def test_yield_string_epsilon_skipped():
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [{"anchor": "a"}, {"epsilon": True}]
    g = parse(doc)
    assert sim.yield_string(g.trees[0].root) == ["a"]


def test_yield_string_rejects_unresolved(grammar2):
    t2 = grammar2.tree("t2")
    with pytest.raises(ValueError, match="unresolved foot"):
        sim.yield_string(t2.root)


# -- enumeration -------------------------------------------------------------

def test_enumerate_trivial():
    ds = sim.enumerate_derivations(all_nil_grammar(), 3)
    assert len(ds) == 1
    assert ds[0].probability == 1.0
    assert ds[0].complete


def test_enumerate_depth_one_grammar4(grammar4):
    ds = sim.enumerate_derivations(grammar4, 1)
    assert len(ds) == 1
    assert ds[0].probability == pytest.approx(0.2, abs=1e-15)


def test_enumerate_matches_death_constants(grammar4):
    # segment_edge_grammar adjoins trees without sites, which finish at the
    # depth cap; two_site_start_grammar has two sites in its start tree
    cases = [(grammar4, depth) for depth in (1, 2, 3)]
    cases += [(g, depth) for g in (segment_edge_grammar(), two_site_start_grammar())
              for depth in (1, 2, 3, 4)]
    for g, depth in cases:
        total = sum(d.probability for d in sim.enumerate_derivations(g, depth))
        _, constant = br.constant_split(br.level_gf(g, depth))
        assert total == pytest.approx(constant, abs=1e-9)
        assert total == pytest.approx(br.death_by_level(g, depth), abs=1e-12)


def test_enumerate_grammar2_shallow(grammar2):
    assert sim.enumerate_derivations(grammar2, 1) == []  # S1 must adjoin
    ds = sim.enumerate_derivations(grammar2, 2)
    assert len(ds) == 1
    assert ds[0].probability == pytest.approx(1.0 * 0.01 * 0.02, rel=1e-12)
    doc = ds[0].as_dict()
    assert doc == {"tree": "t1", "at": None, "children": {
        "S1": {"tree": "t2", "at": "S1",
               "children": {"S2": "nil", "S3": "nil"}}}}


def test_as_dict_docs_share_nothing(grammar4):
    # enumerated derivations share subtrees, their as_dict() docs do not
    docs = [d.as_dict() for d in sim.enumerate_derivations(grammar4, 4)]
    ids = []

    def walk(doc):
        ids.append(id(doc))
        if doc["children"] is not None:
            ids.append(id(doc["children"]))
            for child in doc["children"].values():
                if child != "nil":
                    walk(child)

    for doc in docs:
        walk(doc)
    assert len(set(ids)) == len(ids)


def test_enumerate_prob_floor(grammar4):
    everything = sim.enumerate_derivations(grammar4, 3)
    kept = sim.enumerate_derivations(grammar4, 3, prob_floor=0.01)
    assert {d.probability for d in kept} == {
        d.probability for d in everything if d.probability >= 0.01}


def test_enumerate_budget(grammar4):
    with pytest.raises(sim.EnumerationBudgetExceeded):
        sim.enumerate_derivations(grammar4, 6, node_cap=100)
    # depth 4 makes 543 partial expansions, 206 of them above the floor
    for kwargs, needed in (({}, 543), ({"prob_floor": 1e-4}, 206)):
        sim.enumerate_derivations(grammar4, 4, node_cap=needed, **kwargs)
        with pytest.raises(sim.EnumerationBudgetExceeded):
            sim.enumerate_derivations(grammar4, 4, node_cap=needed - 1, **kwargs)


def test_enumerate_depth_beyond_recursion_limit():
    # the enumerator fills its levels bottom up without recursing, so a
    # one-site chain enumerates 1,200 levels deep, past Python's default
    # recursion limit of 1,000; the floor keeps the 60 derivations that stop
    # by nil at one of levels 0-59, deepest first
    chain = branching_family(0.5, sites=1)
    ds = sim.enumerate_derivations(chain, 1200, prob_floor=2**-60)
    assert [d.probability for d in ds] == [0.5 ** k for k in range(60, 0, -1)]
    assert [max(node.level for node in d.root.nodes()) for d in ds] == \
        [*range(59, 0, -1), 0]


def test_enumerate_stops_where_no_placed_tree_finishes():
    # no derivation of the chain finishes, so the level walk stops at the
    # start tree, whatever max_depth says
    chain = critical_chain(3, 2)
    tracemalloc.start()
    try:
        assert sim.enumerate_derivations(chain, 10**5) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_drops_trees_that_cannot_finish():
    # a tree that cannot finish completes no derivation, so the enumerator
    # places none: the derivations, list and probability bits, equal those
    # of the same walk that takes every tree to finish, and the cap is never
    # spent faster.  At this cap the reference outgrows only seeds 984 and 1213
    cap, compared = 10_000, 0
    for seed in range(2000):
        g = random_proper_grammar(seed)
        if g.index.finishes.all():
            continue  # nothing to drop
        reference = random_proper_grammar(seed)
        vars(reference.index)["finishes"] = np.ones(len(reference.index.tree_ids), bool)
        try:
            want = sim.enumerate_derivations(reference, 4, node_cap=cap)
        except sim.EnumerationBudgetExceeded:
            continue
        got = sim.enumerate_derivations(g, 4, node_cap=cap)
        assert (len(got), enumeration_digest(got)) == (len(want), enumeration_digest(want))
        compared += 1
    assert compared == 783


def test_enumerate_spends_no_node_cap_on_trees_that_cannot_finish():
    # t2 cannot finish, as its site B rewrites only to t2: placed below t1,
    # it would spend a partial expansion on its site C
    sited = [{"label": "S", "site": site, "children": [{"anchor": "a"}]} for site in "CB"]
    g = parse({"start": "S", "trees": [
        {"id": "t1", "type": "initial", "root": {"label": "S", "site": "A",
                                                  "children": [{"anchor": "a"}]}},
        {"id": "t2", "type": "auxiliary",
         "root": {"label": "S", "children": [*sited, {"foot": "S"}]}}],
        "phi": [{"site": site, "tree": tree, "prob": prob} for site, tree, prob in
                (("A", "t2", 0.5), ("A", None, 0.5), ("C", None, 1.0), ("B", "t2", 1.0))]})
    assert g.index.finishes.tolist() == [True, False]
    ds = sim.enumerate_derivations(g, 3, node_cap=1)
    assert [(d.as_dict(), d.probability) for d in ds] == [
        ({"tree": "t1", "at": None, "children": {"A": "nil"}}, 0.5)]
    with pytest.raises(sim.EnumerationBudgetExceeded):
        sim.enumerate_derivations(g, 3, node_cap=0)


def test_deep_derivation_written_out_and_derived():
    # as_dict, derivation_docs and derived_tree build top down without
    # recursing, so the deepest derivation of the enumeration above, 600
    # levels deep, is written out and derived past the recursion limit
    chain = branching_family(0.5, sites=1)
    deepest = sim.enumerate_derivations(chain, 1200, prob_floor=2**-600)[0]
    assert max(node.level for node in deepest.root.nodes()) == 599
    for doc in (deepest.as_dict(), sim.derivation_docs([deepest])[0]):
        placed = []
        while isinstance(doc, dict):
            placed.append((doc["tree"], doc["at"]))
            (doc,) = doc["children"].values()
        assert (placed, doc) == ([("t1", None), ("t2", "A1"), *[("t2", "B1")] * 598], "nil")
    assert sim.yield_string(sim.derived_tree(deepest, chain)) == ["b"] * 599 + ["a"]


@pytest.mark.parametrize("sites", [1, 2, 3])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_enumerate_branching_family_closed_form(p, sites):
    # every site takes nil or adjoins t2 one level down, and t2 has sites, so
    # none is placed at level d: the start site has n_d = 1 + n_(d-1)^sites
    # complete expansions and dies by level d with c_d = (1 - p) +
    # p c_(d-1)^sites, from n_0 = 0 and c_0 = 0, exactly in the grammar's own
    # float probabilities; u is the unit roundoff of a double
    g = branching_family(p, sites)
    u = Fraction(2) ** -53
    n, c = 0, Fraction(0)
    for d in range(1, 5):
        n, c = 1 + n ** sites, Fraction(1 - p) + Fraction(p) * c ** sites
        ds = sim.enumerate_derivations(g, d)
        assert len(ds) == n
        # a derivation with f choices multiplies f factors, rounding f - 1
        # times (the start weight is 1.0), and summing n terms rounds n - 1
        # times more: relative error at most gamma_(n + f) < 2 (n + f) u
        f = max(sum(len(node.children) for node in x.root.nodes()) for x in ds)
        total = sum(x.probability for x in ds)
        assert abs(Fraction(total) - c) <= 2 * (n + f) * u * c
        # a Kleene step rounds sites + 1 times on values of at most 1 (sites - 1
        # products, the factor p, the nil mass), and each later step scales an
        # error by at most the slope p * sites of the offspring function
        slope = max(1, Fraction(p) * sites)
        death = br.death_by_level(g, d)
        assert abs(Fraction(death) - c) <= 2 * (sites + 1) * d * slope ** (d - 1) * u


def test_enumerate_zero_prob_choices_excluded(grammar2):
    # phi(S1 -> nil) = 0, so no derivation leaves S1 unexpanded
    for d in sim.enumerate_derivations(grammar2, 3):
        assert d.root.children["S1"] is not None
        assert d.probability > 0.0


def test_enumerate_levels_and_parents(grammar4):
    def check_at(doc, at):
        assert doc["at"] == at
        for site, child in doc["children"].items():
            if child != "nil":
                check_at(child, site)

    for d in sim.enumerate_derivations(grammar4, 3):
        check_at(d.as_dict(), None)
        for n in d.root.nodes():
            for child in n.children.values():
                if child is not None:
                    assert child.level == n.level + 1


def enumeration_digest(ds):
    """sha256 of the derivations' as_dict() forms, order and probability bits.

    Each distinct (tree, at, children) content is numbered the first time
    it is met and written once, its children naming nodes by number; each
    derivation then adds its root's number and probability.hex().  This
    pins what the JSON of as_dict() would, but writes a shared subtree once:
    that JSON is 257 MB on grammar4 at depth 5.
    """
    numbers, by_id, lines = {}, {}, []

    def number(node, at):
        n = by_id.get((id(node), at))
        if n is None:
            children = node.children
            if children is not None:
                children = tuple((site, c if c is None else number(c, site))
                                 for site, c in children.items())
            content = (node.tree_id, at, children)
            n = numbers.get(content)
            if n is None:
                n = numbers[content] = len(numbers)
                lines.append(repr(content))
            by_id[(id(node), at)] = n
        return n

    for d in ds:
        lines.append(f"{number(d.root, None)} {d.probability.hex()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (grammar, depth) -> (derivations, enumeration_digest): the enumerator's
# exact output, which any rewrite of it must reproduce bit for bit.  random0,
# random5 and random6 have two start trees each, so their probabilities
# carry the start law's weight 0.5.
ENUMERATION_DIGESTS = {
    ("grammar4", 1): (1, "18650d3d7d82ba6b39f17ba786554cb2e841cf7b355b578dce1583d6ae88d71a"),
    ("grammar4", 2): (2, "7d9b2fbe7dbf7428b291b441f71f9a287ddf6f2cd8fb633da27a6f9a50adb235"),
    ("grammar4", 3): (9, "3bf061aee9e437fca25f4f632aa659fb6da6ba2c9a7162c5b3f3cb4adf542236"),
    ("grammar4", 4): (244, "744ff70f021749f8a9f5542b2c2cf129dd47f6eadaa46ac8878821b05befdcb1"),
    ("grammar4", 5): (238145, "681fe5eb8a1b84a81d881da26667e945f86e5b10a8147dfa887f1fed8f4d53c7"),
    ("grammar2", 1): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("grammar2", 2): (1, "4849157fa56510fd3704b6d4805f1c350282b7a72de0738c9c2d8e196a750fef"),
    ("grammar2", 3): (4, "8688fd171652974a86fa03d815918e4985bc6d51688f9052f1c371cdb2c62f43"),
    ("segment_edge", 3): (6, "00b94d4b6083c64e9196094249247be57dd5000b8ccff47cf6b453b50d77ff9c"),
    ("two_site_start", 3): (6, "1b796b68674744f07ea87f81e088196bae99a40d7bda0d42733877d0ee628146"),
    ("random0", 3): (7, "5e306bfeae43467adeafc763cba137b3b9ee1c9d66b6c720621e4146d1455a99"),
    ("random1", 3): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random2", 3): (2, "dc3caa3d6e9122259c165e7bd975e138dfc76f3859367a32025276be045b4825"),
    ("random3", 3): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random4", 3): (2, "7854bb98f794e020daf7696524c5dce508302b765e6f72936b465dcdaf093fcc"),
    ("random5", 3): (2, "64a10c2aa2d8f53312d00fd6669a8a22004c57e31540ba18e45e858d40ae4526"),
    ("random6", 3): (12, "c2e95c6f5939e616b75edb272440a49e444701291e020bc40f4290ce6f461ac3"),
    ("random7", 3): (2, "afa7ba250ef81f561c15e5fd12dfab6b76c36e296ad5997dd968688c9c7a73dc"),
    ("random8", 3): (3, "e430335da06e059db7b07118846d449c4fb1377088c1c3c6ea60ad9a861ee8f9"),
    ("random9", 3): (1, "f27dbdb5f7fe05a11b0cb03f1b5e5ee446cc1023b83a5a8ffdafe53f2ef543ac"),
}


@pytest.mark.parametrize("name,depth", list(ENUMERATION_DIGESTS))
def test_enumerate_output_pinned(name, depth):
    ds = sim.enumerate_derivations(pinned_grammar(name), depth)
    assert (len(ds), enumeration_digest(ds)) == ENUMERATION_DIGESTS[name, depth]


# (grammar, depth, prob_floor) -> (derivations, enumeration_digest): the
# output when partial expansions below the floor are dropped.
FLOOR_ENUMERATION_DIGESTS = {
    ("grammar4", 5, 0.001):
        (44, "021d295f501783664084be901ff5a9b5c3845285510625c1b6e1a8b467827516"),
    ("grammar4", 5, 1e-06):
        (1919, "a55e48821f419bc1680ea8265d87a99720e59779943683acd440dde7c4054e0d"),
    ("grammar2", 3, 0.001):
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("grammar2", 3, 1e-06):
        (3, "cf8fd01a83ffd46e234e3b9db9d360a851412f8547692c3f84d84f3839758964"),
}


@pytest.mark.parametrize("name,depth,floor", list(FLOOR_ENUMERATION_DIGESTS))
def test_enumerate_floor_output_pinned(name, depth, floor):
    ds = sim.enumerate_derivations(pinned_grammar(name), depth, prob_floor=floor)
    assert (len(ds), enumeration_digest(ds)) == FLOOR_ENUMERATION_DIGESTS[name, depth, floor]


# (grammar, depth, prob_floor) -> the smallest node_cap that passes: the
# partial expansions the enumeration makes, which node_cap counts and any
# rewrite of the enumerator must count alike.
SMALLEST_NODE_CAPS = {
    ("grammar4", 1, 0.0): 1,
    ("grammar4", 2, 0.0): 5,
    ("grammar4", 3, 0.0): 27,
    ("grammar4", 4, 0.0): 543,
    ("grammar4", 5, 0.0): 477811,
    ("random0", 3, 0.0): 22,
    ("random1", 3, 0.0): 0,
    ("random2", 3, 0.0): 9,
    ("random3", 3, 0.0): 0,
    ("random4", 3, 0.0): 4,
    ("random5", 3, 0.0): 6,
    ("random6", 3, 0.0): 24,
    ("random7", 3, 0.0): 2,
    ("random8", 3, 0.0): 7,
    ("random9", 3, 0.0): 1,
    ("grammar4", 1, 0.0001): 1,
    ("grammar4", 2, 0.0001): 5,
    ("grammar4", 3, 0.0001): 27,
    ("grammar4", 4, 0.0001): 206,
    ("grammar4", 5, 0.0001): 637,
    ("random0", 3, 0.0001): 22,
    ("random1", 3, 0.0001): 0,
    ("random2", 3, 0.0001): 9,
    ("random3", 3, 0.0001): 0,
    ("random4", 3, 0.0001): 4,
    ("random5", 3, 0.0001): 6,
    ("random6", 3, 0.0001): 24,
    ("random7", 3, 0.0001): 2,
    ("random8", 3, 0.0001): 7,
    ("random9", 3, 0.0001): 1,
}


@pytest.mark.parametrize("name,depth,floor", list(SMALLEST_NODE_CAPS))
def test_enumerate_smallest_node_cap_pinned(name, depth, floor):
    g = pinned_grammar(name)
    needed = SMALLEST_NODE_CAPS[name, depth, floor]
    sim.enumerate_derivations(g, depth, prob_floor=floor, node_cap=needed)
    if needed:  # no cap is below 0
        with pytest.raises(sim.EnumerationBudgetExceeded):
            sim.enumerate_derivations(g, depth, prob_floor=floor, node_cap=needed - 1)


RefNode = collections.namedtuple("RefNode", "tree_id children")
RefDerivation = collections.namedtuple("RefDerivation", "root probability")


def reference_enumeration(g, max_depth, prob_floor=0.0):
    """(derivations, partial expansions) of the exhaustive enumeration, in
    plain floats and lists, top down by memoized recursion from g.phi and
    g.trees alone; enumerate_derivations must match both.

    A tree placed at level L draws at each of its sites, in site order, every
    positive entry in document order: nil with its probability p, or each
    expansion (sub, q) of the target at level L + 1 with p * q.  A target is
    placed only if it can finish (finishing_sites), and at level max_depth
    only if it has no site; every placed tree is expanded once, all its
    sites' options first.  The combinations grow site by site, combinations
    outer and options inner, keeping a pair whose product prob * (p * q) is
    at least prob_floor; each kept pair is one partial expansion, so their
    count is the smallest node_cap that passes.  A start tree's expansion
    then carries the uniform start weight, and the floor applies again.
    """
    sites = {t.tree_id: [n.site_id for n in t.sites] for t in g.trees}
    finishing = finishing_sites(g)
    finishes = {t: finishing.issuperset(s) for t, s in sites.items()}
    expanded, spent = {}, 0

    def expansions(tree_id, level):
        nonlocal spent
        if (tree_id, level) in expanded:
            return expanded[tree_id, level]
        site_options = []
        for site in sites[tree_id]:
            options = []
            for target, p in g.phi[site]:
                p = float(p)
                if p <= 0.0:
                    continue
                if target is None:
                    options.append((None, p))
                elif finishes[target] and (level + 1 < max_depth or not sites[target]):
                    options += [(sub, p * q) for sub, q in expansions(target, level + 1)]
            site_options.append(options)
        combos = [({}, 1.0)]
        for site, options in zip(sites[tree_id], site_options):
            grown = []
            for children, prob in combos:
                for choice, q in options:
                    if prob * q >= prob_floor:
                        chosen = dict(children)
                        chosen[site] = choice
                        grown.append((chosen, prob * q))
            spent += len(grown)
            combos = grown
        expanded[tree_id, level] = [(RefNode(tree_id, c), prob) for c, prob in combos]
        return expanded[tree_id, level]

    starts = [t.tree_id for t in g.trees if t.kind == "initial" and t.root.label == g.start]
    w, derivations = 1.0 / len(starts), []
    for tree_id in starts:
        if finishes[tree_id]:
            derivations += [RefDerivation(node, prob * w) for node, prob in expansions(tree_id, 0)
                            if prob * w >= prob_floor]
    return derivations, spent


def reference_cases():
    # a floor of 0.25 is met exactly by two_site_start's products of 0.5
    for name in ("segment_edge", "duplicate_target", "two_site_start", "two_siteless_start"):
        for depth in (1, 2, 3, 4):
            for floor in (0.0, 1e-3, 0.25):
                yield name, pinned_grammar(name), depth, floor
    for seed in range(200):
        g = random_proper_grammar(seed)
        for depth in (1, 2, 3):
            for floor in (0.0, 1e-3):
                yield f"random{seed}", g, depth, floor


def test_enumerate_matches_reference_enumeration():
    # every derivation, its order and its probability's bits, and the
    # smallest node_cap that passes, against the loop of plain floats
    for name, g, depth, floor in reference_cases():
        want, needed = reference_enumeration(g, depth, floor)
        got = sim.enumerate_derivations(g, depth, prob_floor=floor, node_cap=needed)
        assert (len(got), enumeration_digest(got)) == (len(want), enumeration_digest(want)), \
            (name, depth, floor)
        if needed:
            with pytest.raises(sim.EnumerationBudgetExceeded):
                sim.enumerate_derivations(g, depth, prob_floor=floor, node_cap=needed - 1)


def test_enumerate_checks_node_cap_before_forming_all_products(grammar4):
    # on grammar4 at depth 6, site A3 of t2 at level 2 pairs 976 partial
    # expansions with 244 options: 238,144 products, 119 times the cap of
    # 2,000, of which 1,522 are spent below it.  Formed whole they would
    # take 1.9 MB; the enumerator forms them in chunks and stops at the
    # first chunk past the cap (0.55 MB traced peak in all)
    tracemalloc.start()
    try:
        with pytest.raises(sim.EnumerationBudgetExceeded):
            sim.enumerate_derivations(grammar4, 6, node_cap=2_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("enabled", [True, False])
def test_enumerate_restores_collector_state(grammar4, enabled):
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        sim.enumerate_derivations(grammar4, 3)
        assert gc.isenabled() is enabled
        with pytest.raises(sim.EnumerationBudgetExceeded):
            sim.enumerate_derivations(grammar4, 4, node_cap=100)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_builders_leave_no_cyclic_garbage(grammar4, grammar2):
    # the collector is paused while these build, which is safe only
    # because they create no reference cycles
    gc.collect()
    sim.enumerate_derivations(grammar4, 4)
    assert gc.collect() == 0
    sim.sample_derivation(grammar2, seed=5, max_nodes=2_000)
    assert gc.collect() == 0
    gr.load_grammar(GRAMMAR4)
    gr.parse_grammar(GRAMMAR2.read_bytes())
    gr.from_document(json.loads(GRAMMAR4.read_text()))
    assert gc.collect() == 0
    duplicate_site = minimal_document()
    duplicate_site["trees"][0]["root"]["children"].append({"subst": "S", "site": "X"})
    duplicate_site["trees"][0]["root"]["site"] = "X"
    for call in (lambda: gr.parse_grammar(b'{"start": "S",'),
                 lambda: gr.from_document(duplicate_site)):
        with pytest.raises(gr.GrammarParseError):
            call()
        assert gc.collect() == 0


# -- termination estimation ---------------------------------------------------

def test_estimate_all_nil_exact():
    stats = sim.estimate_termination(all_nil_grammar(), 500, 10, seed=3)
    assert stats.termination_rate == 1.0
    assert stats.censored == 0
    assert stats.mean_depth == 0.0
    assert stats.mean_yield_length == 1.0
    assert stats.generator == "PCG64"


def test_estimate_rejects_max_depth_below_one(grammar4):
    # a sample that may not draw would be neither terminated nor censored
    with pytest.raises(ValueError, match="max_depth must be >= 1"):
        sim.estimate_termination(grammar4, 100, 0)
    for call in (lambda: sim.sample_derivation(grammar4, seed=0, max_depth=0),
                 lambda: sim.enumerate_derivations(grammar4, 0)):
        with pytest.raises(ValueError, match="max_depth must be >= 1"):
            call()
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sim.estimate_termination(grammar4, 0, 5)


def test_negative_budgets_are_rejected(grammar4):
    # rejected up front, not reported as a budget that ran out
    with pytest.raises(ValueError, match="max_nodes must be >= 1"):
        sim.sample_derivation(grammar4, seed=0, max_nodes=0)
    with pytest.raises(ValueError, match="node_cap must be >= 0"):
        sim.enumerate_derivations(grammar4, 2, node_cap=-1)
    with pytest.raises(ValueError, match="term_cap must be >= 0"):
        br.level_gf(grammar4, 2, term_cap=-1)


def test_estimate_memory_stays_below_one_dense_array():
    # born keeps rows only for the trees live samples bore, in 4-byte cells,
    # so after a first small run the peak stays under one eighth of a
    # trees x samples int64 array (2.8 and 22.8 MB here): 0.077 and 0.084 of
    # it traced, against 0.130 and 0.164 with int64 counts
    g = synth_grammar(1, 1000, mass=0.3)
    sim.estimate_termination(g, 100, 200, seed=0)
    for samples in (500, 4096):
        dense = len(g.index.tree_ids) * samples * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            stats = sim.estimate_termination(g, samples, 200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.terminated == samples
        assert peak < dense / 8, (samples, peak / dense)


def test_count_dtype_bound():
    # a sample's births at a level are at most its pending sites at the
    # level before: FRONTIER_CAP for one that stayed, one tree's sites for a
    # start tree.  A level's pending sites or yield are at most that times
    # one tree's sites or anchors, so int32 holds every count while that
    # product is below 2^31, and int64 takes over past it
    cap = sim.FRONTIER_CAP
    anchors = (2**31 - 1) // cap  # 214,748 at the cap of 10^4
    assert sim._count_dtype(0, 0) is np.int32
    assert sim._count_dtype(cap, anchors) is np.int32
    assert sim._count_dtype(cap, anchors + 1) is np.int64
    assert sim._count_dtype(anchors, 0) is np.int64  # a start tree's sites go uncapped
    # past the cap a tree's sites bound the births as well as the sum
    assert sim._count_dtype(46_340, 46_340) is np.int32
    assert sim._count_dtype(46_341, 0) is np.int64
    # every shipped and pinned grammar, and 5,000 synthetic sites, count in int32
    for g in (*map(pinned_grammar, ("grammar2", "grammar4", "syn130")), synth_grammar(1, 5000)):
        assert sim._count_dtype(int(g.index.sizes.max()), int(g.index.anchors.max())) is np.int32


@pytest.mark.parametrize("name,samples,max_depth", [
    ("grammar2", 3000, 40), ("grammar4", 3000, 40), ("syn130", 2000, 200),
    ("grammar2", 2 * sim.SAMPLE_BLOCK + 123, 40)])
def test_estimate_stats_do_not_depend_on_the_count_type(name, samples, max_depth, monkeypatch):
    # int32 counts give the stats of int64 ones bit for bit; the last case
    # runs four blocks under a cell budget of one SAMPLE_BLOCK of grammar2
    g = pinned_grammar(name)
    trees = len(g.index.tree_ids)
    monkeypatch.setattr(sim, "BLOCK_CELLS", sim.SAMPLE_BLOCK * (trees + sim.SAMPLE_CELLS))
    assert len(sim._block_sizes(samples, trees)) == (4 if samples > sim.SAMPLE_BLOCK else 1)
    chosen = []

    def count_dtype(*most, pick=sim._count_dtype):
        chosen.append(pick(*most))
        return chosen[-1]
    monkeypatch.setattr(sim, "_count_dtype", count_dtype)
    narrow = repr(sim.estimate_termination(g, samples, max_depth, seed=3))
    assert chosen == [np.int32]
    monkeypatch.setattr(sim, "_count_dtype", lambda *most: np.int64)
    assert repr(sim.estimate_termination(g, samples, max_depth, seed=3)) == narrow


def totals(stats):
    """(terminated, censored, depth sum, yield sum) of stats: each mean times
    the count, exact while a sum stays far below 2^53."""
    def total(mean):
        return round(mean * stats.terminated) if stats.terminated else 0
    return (stats.terminated, stats.censored, total(stats.mean_depth),
            total(stats.mean_yield_length))


def test_block_layout(monkeypatch):
    # the sizes sum to samples and differ by at most 1, past one block their
    # count is a multiple of WORKERS, a run of at most SAMPLE_BLOCK is one
    # block, and at 5,000 synthetic sites no block passes SAMPLE_BLOCK
    big = len(synth_grammar(1, 5000).index.tree_ids)
    assert big == 3481
    runs = [(n, trees) for n in (1, 999, sim.SAMPLE_BLOCK, sim.SAMPLE_BLOCK + 1, 10**4, 10**5,
                                 200_000, 300_000, 838_861, 10**6, 12_345_678)
            for trees in (1, 2, 3, 92, 247, 248, 249, 1000, big)]
    layouts = {run: sim._block_sizes(*run) for run in runs}
    for (n, trees), sizes in layouts.items():
        assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
        assert len(sizes) == 1 or len(sizes) % sim.WORKERS == 0
        if n <= sim.SAMPLE_BLOCK:
            assert sizes == [n]
        if trees == big:
            assert max(sizes) <= sim.SAMPLE_BLOCK
        # the cells of a block: its samples times born's rows and their own arrays
        assert max(sizes) * (trees + sim.SAMPLE_CELLS) <= sim.BLOCK_CELLS or (
            max(sizes) <= sim.SAMPLE_BLOCK)
    # one lockstep block per worker on the shipped grammars' montecarlo runs
    assert layouts[200_000, 2] == [100_000] * 2 and layouts[300_000, 3] == [150_000] * 2
    # the layout reads no CPU count, so it is the same on every machine
    for cpus in (1, 3, 64):
        monkeypatch.setattr(sim, "usable_cpus", lambda cpus=cpus: cpus)
        assert {run: sim._block_sizes(*run) for run in runs} == layouts


@pytest.mark.parametrize("name,max_depth", [("grammar4", 200), ("grammar2", 3)])
def test_estimate_runs_in_sample_blocks(name, max_depth, monkeypatch):
    # a run longer than a block first draws one seed per later block from
    # the caller's Generator; blocks 1-3 draw from default_rng of those
    # seeds and block 0 from the caller's Generator, which ends where the
    # seeds and block 0 leave it.  A cell budget of one SAMPLE_BLOCK of the
    # grammar's trees lays the run out as four blocks of equal size
    g = pinned_grammar(name)
    trees = len(g.index.tree_ids)
    monkeypatch.setattr(sim, "BLOCK_CELLS", sim.SAMPLE_BLOCK * (trees + sim.SAMPLE_CELLS))
    samples = 2 * sim.SAMPLE_BLOCK + 123
    sizes = sim._block_sizes(samples, trees)
    assert sizes == [8223] * 3 + [8222]
    caller = np.random.default_rng(5)
    whole = sim.estimate_termination(g, samples, max_depth, seed=caller)
    rng = np.random.default_rng(5)
    streams = [rng, *map(np.random.default_rng, rng.integers(2**63, size=3).tolist())]
    parts = [totals(sim.estimate_termination(g, n, max_depth, seed=stream))
             for n, stream in zip(sizes, streams)]
    assert totals(whole) == tuple(map(sum, zip(*parts)))
    assert caller.bit_generator.state == rng.bit_generator.state
    assert 0 < whole.terminated and (0 < whole.censored) == (name == "grammar2")


@pytest.mark.parametrize("make", [
    lambda: np.random.SeedSequence(3),
    lambda: np.random.Generator(np.random.PCG64(3).jumped()),
], ids=["seed_sequence", "jumped_generator"])
def test_estimate_streams_follow_from_the_generator_state(make, monkeypatch):
    # a two-block run gives the same stats from one SeedSequence passed
    # twice, whose spawn counter a spawned stream would move, and from two
    # equal jumped Generators, whose SeedSequence holds fresh OS entropy
    monkeypatch.setattr(sim, "SAMPLE_BLOCK", 300)
    g = pinned_grammar("grammar4")
    seed = make()
    first = sim.estimate_termination(g, 500, 40, seed=seed)
    again = sim.estimate_termination(g, 500, 40, seed=seed if isinstance(seed, np.random.SeedSequence)
                                     else make())
    assert repr(first) == repr(again)


def test_estimate_memory_is_bounded_by_the_block(monkeypatch):
    # each worker holds one block at a time: with a cell budget of one block
    # of 2^14 on grammar4, 0.71 MB traced for one block, for four on one
    # worker 0.72 MB and for four on two 1.42-1.46 MB.  A first small
    # run, and the pool's import, leave out what the first call allocates once
    import concurrent.futures  # noqa: F401
    g = pinned_grammar("grammar4")
    trees = len(g.index.tree_ids)
    monkeypatch.setattr(sim, "BLOCK_CELLS", sim.SAMPLE_BLOCK * (trees + sim.SAMPLE_CELLS))
    sim.estimate_termination(g, 100, 200, seed=0)

    def peak(blocks):
        samples = blocks * sim.SAMPLE_BLOCK
        assert sim._block_sizes(samples, trees) == [sim.SAMPLE_BLOCK] * blocks
        tracemalloc.start()
        try:
            sim.estimate_termination(g, samples, 200, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    one = peak(1)
    workers = min(sim.usable_cpus(), 4, sim.WORKERS)
    assert peak(4) <= 1.25 * workers * one
    monkeypatch.setattr(sim, "WORKERS", 1)
    assert peak(4) <= 1.25 * one


@pytest.mark.parametrize("name", ["grammar2", "grammar4", "syn130"])
def test_estimate_memory_stays_within_the_cell_budget(name, monkeypatch):
    # a block holds at most BLOCK_CELLS cells, its born rows (4 bytes each)
    # and its samples' own arrays (at most 8 bytes each), so four blocks of
    # 25,000 on each worker in turn trace at most workers x BLOCK_CELLS x 8
    # bytes: 0.40, 0.37 and 0.26 of it on two workers (0.48, 0.46 and 0.47
    # with int64 counts)
    g = pinned_grammar(name)
    trees = len(g.index.tree_ids)
    monkeypatch.setattr(sim, "BLOCK_CELLS", 2 * sim.SAMPLE_BLOCK * (trees + sim.SAMPLE_CELLS))
    assert sim._block_sizes(10**5, trees) == [25_000] * 4
    sim.estimate_termination(g, 100, 200, seed=0)
    tracemalloc.start()
    try:
        sim.estimate_termination(g, 10**5, 200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workers = min(sim.usable_cpus(), sim.WORKERS)
    assert peak <= workers * sim.BLOCK_CELLS * np.dtype(np.int64).itemsize


def test_cli_default_samples_fit_one_block():
    # so a default simulate run draws what one lockstep run of its samples
    # does, on a grammar of any size
    args = cli._build_parser().parse_args(["simulate", str(GRAMMAR4)])
    assert args.samples <= sim.SAMPLE_BLOCK
    for trees in (1, 3, 3481, 10**6):
        assert sim._block_sizes(args.samples, trees) == [args.samples]


@pytest.mark.parametrize("name", ["grammar2", "grammar4", "syn130", "random0"])
def test_estimate_stats_do_not_depend_on_the_workers(name, monkeypatch):
    # each block draws from its own stream, the totals are int sums and the
    # layout reads no CPU count, so one, two or three threads give the same
    # stats and leave no thread behind.  Blocks of at most 300 samples keep
    # it fast, and three WORKERS let the CPUs decide the threads
    import concurrent.futures
    g = pinned_grammar(name)
    if name == "random0":  # a site with several targets draws a multinomial
        assert max(sum(t is not None and p > 0.0 for t, p in entries)
                   for entries in g.phi.values()) > 1
    monkeypatch.setattr(sim, "SAMPLE_BLOCK", 300)
    monkeypatch.setattr(sim, "BLOCK_CELLS", 0)
    monkeypatch.setattr(sim, "WORKERS", 3)
    assert len(sim._block_sizes(2000, len(g.index.tree_ids))) == 9
    pools = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    baseline = threading.active_count()
    stats = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(sim, "usable_cpus", lambda cpus=cpus: cpus)
        stats.append(repr(sim.estimate_termination(g, 2000, 40, seed=7)))
        assert threading.active_count() == baseline
    assert stats[1:] == stats[:1] * 2
    assert pools == [1, 2]  # the calling thread is a worker too


def failing_default_rng(fail):
    """default_rng whose stream of block `fail` raises numpy's MemoryError
    at its start-tree draw, the first draw of a block: the first Generator
    made is block 0's, the b-th after it block b's."""
    real = np.random.default_rng
    made = []

    class Stream:
        def __init__(self, seed):
            self.rng, self.block = real(seed), len(made)
            made.append(self)

        def choice(self, *args, **kwargs):
            if self.block == fail:
                raise MemoryError("Unable to allocate 7.45 GiB for an array")
            return self.rng.choice(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)
    return Stream


@pytest.mark.parametrize("fail", [0, 1, 3])
def test_memory_error_in_one_block_propagates(fail, monkeypatch):
    # four blocks of 300 on two workers: the calling thread's first block,
    # the pool thread's first or its last.  The error leaves the call once
    # both workers have stopped, and the CLI reports it as a cap hit
    monkeypatch.setattr(sim, "SAMPLE_BLOCK", 300)
    monkeypatch.setattr(sim, "BLOCK_CELLS", 0)
    monkeypatch.setattr(sim, "usable_cpus", lambda: 2)
    assert sim._block_sizes(1200, 3) == [300] * 4
    monkeypatch.setattr(np.random, "default_rng", failing_default_rng(fail))
    g = pinned_grammar("grammar4")
    baseline = threading.active_count()
    with pytest.raises(MemoryError, match="Unable to allocate"):
        sim.estimate_termination(g, 1200, 40, seed=0)
    assert threading.active_count() == baseline
    monkeypatch.setattr(np.random, "default_rng", failing_default_rng(fail))
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["simulate", str(GRAMMAR4), "--samples", "1200"], out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", "OUT_OF_MEMORY: Unable to allocate 7.45 GiB for an array\n")
    assert threading.active_count() == baseline


def test_default_simulate_never_imports_concurrent_futures():
    # a default run is one block, run on the calling thread: no pool is loaded
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "ptagcheck.cli",
                           "simulate", str(GRAMMAR4)], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0 and json.loads(done.stdout)["samples"] == 10_000
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "ptagcheck.simulate" in imported
    assert not {m for m in imported if m.split(".")[0] == "concurrent"}


@pytest.mark.parametrize("entries", [[("t2", -0.1), (None, 1.1)], [("t2", math.nan)],
                                     [("t2", 0.5), (None, math.inf)]],
                         ids=["negative", "nan", "inf"])
def test_sample_rejects_negative_or_nonfinite_phi(entries):
    # picking by bisection equals the inverse-CDF scan only on
    # nondecreasing running sums free of NaN
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["phi"] = [{"site": "R", "tree": t, "prob": p} for t, p in entries]
    doc["trees"].append({"id": "t2", "type": "auxiliary", "root": {
        "label": "S", "children": [{"anchor": "b"}, {"foot": "S"}]}})
    g = parse(doc)
    for seed in (0, np.random.default_rng(0)):
        with pytest.raises(ValueError, match="site 'R' has a negative or nonfinite"):
            sim.sample_derivation(g, seed=seed)


def test_estimate_counts_add_up(grammar2):
    stats = sim.estimate_termination(grammar2, 2000, 50, seed=1)
    assert stats.terminated + stats.censored == stats.samples
    assert stats.termination_rate == stats.terminated / stats.samples


def test_estimate_reproducible(grammar2):
    a = sim.estimate_termination(grammar2, 5000, 50, seed=21)
    b = sim.estimate_termination(grammar2, 5000, 50, seed=21)
    assert a == b


def test_estimate_matches_sampler_statistics(grammar4):
    # the vectorized estimator and the object sampler draw from one process
    samples = 2000
    stats = sim.estimate_termination(grammar4, samples, 30, seed=8)
    terminated = 0
    for seed in range(samples):
        d = sim.sample_derivation(grammar4, seed=seed, max_depth=30)
        terminated += d.complete
    # both estimate death-by-level-30; compare within joint 4 sigma
    p = br.death_by_level(grammar4, 30)
    sigma = math.sqrt(p * (1 - p) / samples)
    assert abs(stats.termination_rate - p) < 4 * sigma
    assert abs(terminated / samples - p) < 4 * sigma


def test_estimate_grammar2_close_to_extinction(grammar2):
    # the segment edge grammar's only start site is A1
    for g, start in ((grammar2, "S1"), (segment_edge_grammar(), "A1")):
        stats = sim.estimate_termination(g, 200_000, 100, seed=2)
        q = br.extinction(g)[start]
        sigma = math.sqrt(q * (1 - q) / stats.samples)
        assert abs(stats.termination_rate - q) <= 3 * sigma


def test_estimate_counts_both_entries_of_a_duplicate_target():
    g = duplicate_target_grammar()
    stats = sim.estimate_termination(g, 100_000, 100, seed=4)
    q = br.extinction(g)["A1"]
    assert q == pytest.approx(0.2 + 0.8 * (3 / 7) ** 2, abs=1e-9)
    sigma = math.sqrt(q * (1 - q) / stats.samples)
    assert abs(stats.termination_rate - q) <= 4 * sigma


def test_estimate_depth_histogram_matches_death_curve(grammar4):
    # P(depth <= n) = death by level n+1
    samples = 4000
    stats_depth2 = sim.estimate_termination(grammar4, samples, 2, seed=13)
    expected = br.death_by_level(grammar4, 2)
    sigma = math.sqrt(expected * (1 - expected) / samples)
    assert abs(stats_depth2.termination_rate - expected) < 4 * sigma


def test_estimate_siteless_trees_at_depth_cap_terminate():
    # level max_depth may hold only trees without sites; such samples have
    # finished, so the rate estimates C_d as the enumerator counts it
    g = segment_edge_grammar()
    samples = 100_000
    for depth in (1, 2):
        stats = sim.estimate_termination(g, samples, depth, seed=0)
        expected = br.death_by_level(g, depth)
        sigma = math.sqrt(expected * (1 - expected) / samples)
        assert abs(stats.termination_rate - expected) < 4 * sigma


def test_level_independence_of_sibling_sites(grammar2):
    # within one adjoined tree the two sites must draw independently
    xs = []
    ys = []
    rng = np.random.default_rng(77)
    for _ in range(100_000):
        d = sim.sample_derivation(grammar2, seed=rng, max_depth=2)
        t2 = d.root.children["S1"]
        xs.append(t2.children["S2"] is not None)
        ys.append(t2.children["S3"] is not None)
    corr = np.corrcoef(np.array(xs, dtype=float), np.array(ys, dtype=float))[0, 1]
    assert abs(corr) < 0.02


def test_stats_json_round_trip(grammar2):
    stats = sim.estimate_termination(grammar2, 100, 10, seed=0)
    doc = json.loads(json.dumps(stats.as_dict()))
    assert doc["samples"] == 100
    assert doc["seed"] == 0


def test_stats_record_an_int_seed_or_none(grammar2):
    # a Generator or SeedSequence is no JSON, so the stats record None for it
    for seed, recorded in ((np.random.default_rng(0), None), (np.random.SeedSequence(3), None),
                           (None, None), (np.int64(4), 4), (5, 5)):
        stats = sim.estimate_termination(grammar2, 100, 10, seed=seed)
        assert stats.seed == recorded
        assert json.loads(json.dumps(stats.as_dict()))["seed"] == recorded


# (grammar, samples, max_depth, seed, keyword arguments) -> sha256 of
# repr(stats): the estimator's exact output, which any rewrite of it must
# reproduce bit for bit
ESTIMATE_CASES = [
    (name, *setting, {})
    for name in ("grammar2", "grammar4", "segment_edge", "two_site_start",
                 "duplicate_target", *(f"random{seed}" for seed in range(10)))
    for setting in ((3000, 40, 0), (500, 200, 9), (1000, 1, 3))
] + [
    (name, 3000, 40, 0, {"frontier_cap": cap})
    for name in ("grammar2", "grammar4") for cap in (1, 50)
] + [
    ("random0", 3000, 40, 0, {"start_weights": {"t1": 1.0, "t2": 3.0}}),
    ("syn130", 2000, 200, 1, {}),
    # grammar2 almost never terminates: the cases above leave every sample
    # censored, this one terminates 49; its two blocks of 10^5, one per
    # worker, pin the layout and the streams of a run longer than
    # SAMPLE_BLOCK (recorded with one stream per block, seeded from the
    # Generator's draws)
    ("grammar2", 200_000, 40, 2, {}),
] + [
    # start trees without sites, which end at level 1 with depth 0: two of
    # them, and on random38 beside a start tree with two sites
    (name, *setting, {})
    for name in ("two_siteless_start", "random38") for setting in ((3000, 40, 0), (1000, 1, 3))
] + [
    ("random38", 3000, 40, 0, {"start_weights": {"t1": 1.0, "t3": 3.0}}),
]

ESTIMATE_DIGESTS = [
    "2b71a50f067840bb05fd27a41d535ff7c3a59126c8073bbf5eafbf4a8922671e",
    "fab3df6cac6579a3b74d3adb1083bcf6de8014160389a09adae8973bab3eefbd",
    "825189e3b05ac719eee724ae04c73290d519b0812700022a499917cec7ef0f45",
    "8dc259b99cc44597a6d5b4492cefde346ccd42de48f0ae598c4687c368372084",
    "4a4778b543bfd74e2b17d3bcc047d5b499c3192fb4945f74176d3223d664c521",
    "0f5d8eb548914660fc8c72292b410607cfb26b7c97ce0f0aa181c12a6ad11b4c",
    "6d0b68df083efd002b579223d66be38b2a6f15b2e12a6851311e0f5277485da0",
    "b33dff6ef85500112382a3fe1e38d204aef0c3b2415a382d6b2940e41185195e",
    "b122b7712a5a5ce9d0436da8971887995edde8e0bbe13d0ea09413a76bce00b4",
    "dca13c15360b4d6ed142c11358b42418f05ed0eaac22a8aad167a4ce6eab6e36",
    "8c3aeba0b55cd007975369d8126f05be54989e2fbe5e762716fa55edb8d47c09",
    "77cf9b4daea0e603e3db5af7dd6bbbfd4b046c6bc915e4759996ce25aa7bcc07",
    "6050631d3776feb6678bf403601518c7d0efb15ba0889122dce3512ea2faf037",
    "d9e51a3849a55331b7bb10721aab1fd1fdff8783e157b3b2a5146d95371e0fb0",
    "3ecee3af66b49e1be39b87c9da8be5d40f84ca9fbc4a551d1a75b42117d994b4",
    "337d28c572e009138b9220fb4664852690db0de640f807de26a272887aa256e9",
    "4a1c9a76eb31d0a8889f3656f3e3db1d9686bbafc54cc9a64596612bf168175e",
    "9ba8c4ef8d7c8edfa64c521549def525aa72d8a8113246ce4e9fce7df90a870f",
    "2b71a50f067840bb05fd27a41d535ff7c3a59126c8073bbf5eafbf4a8922671e",
    "fab3df6cac6579a3b74d3adb1083bcf6de8014160389a09adae8973bab3eefbd",
    "825189e3b05ac719eee724ae04c73290d519b0812700022a499917cec7ef0f45",
    "1b685a64454a79f154fd0bb3f03c7480553bcf06c1f6e098293074d0ed67d7c3",
    "d75be820912917cf6d18a3ea4aff48ad96e2b94eb6f2fa2ac201d8a5b3c8d6c5",
    "af691f7808b67daaa89b2363f99ce48c5eb0f7f1ebc8137284d8a7f396ea494f",
    "2b71a50f067840bb05fd27a41d535ff7c3a59126c8073bbf5eafbf4a8922671e",
    "fab3df6cac6579a3b74d3adb1083bcf6de8014160389a09adae8973bab3eefbd",
    "825189e3b05ac719eee724ae04c73290d519b0812700022a499917cec7ef0f45",
    "bce19b7f2e4c02d2e38ebf7d532f796550f7303ad2e9e1f8131688006812a25a",
    "65ca2a9c08a5c04e27da7580c99dc51aec60d48d4500448877d6933c230dfadd",
    "2b933e3edb6eafdbdfcf18b873143a17591cd2cdcd60b7d5e2217d989912cdf2",
    "e19765ae0e954e041b8f1fd69e79c43692381a69e3729e77796012027f37259c",
    "25330ef270280d1cb0b695788bb9edbea9bcd2ea1b3d050d5c152d1c4bd4a314",
    "2d96d1c3883e25b34538fd5710a8833ea59524b1602049557d7ebd0d071f87e5",
    "6dd234ce8ec9d6d01566afaa8b6f6c971faf2de3b1dd757b59deea97ba2b9b55",
    "a630a0ca223535d50f623e97ccde018519db3b5ed701a7c0b6b5c4d658507007",
    "9c231158a84555f299175d2a0d87576c4847341890522fce3a106d919361294a",
    "a3537235956038c14e1c56ae1a6fc6064079cf642466eb3fe8351fda0efd7fa9",
    "96a189d83f7b3148013be8eebab89b199a522735c09b00c6babd72c632d3f476",
    "aae23491dc0520332a68b18057af1df62d85bc061d9d96125a5f61e4b45ec66c",
    "d9788ced03c729dd4ef191c941eb8d9598b1bb1b59a7702ec8e180bd512fe31b",
    "4bc91233f9457113b0a1c1e9078fd6c1af248bc04804b91676a8183a0c36c244",
    "d184ddcc9cbe1fa758b6e21b03435fdbe7f47f6f3b58f56955978f6324ae8db7",
    "2c132ba5184482e5268dea3122b3c0179af0e064a87dd8f39639b2d50e9fb31d",
    "97366e5e38093a122295a3cb2d53127b6c3290e9a4ba6269901a0216b76c25cd",
    "02d76d1e87b669f72a37be2dadcbc6c317f6fe38b5e6e2d44fa3d4e5bd46476c",
    "2b71a50f067840bb05fd27a41d535ff7c3a59126c8073bbf5eafbf4a8922671e",
    "2b71a50f067840bb05fd27a41d535ff7c3a59126c8073bbf5eafbf4a8922671e",
    "447ff0dcd41391c8ebcc47ac9f7a9485f5c2ba258ff3c51eff32ffebf2a786fb",
    "8dc259b99cc44597a6d5b4492cefde346ccd42de48f0ae598c4687c368372084",
    "890e2fab169974dc963962814d1c5363e5a1a7f92c28463d32eea8944d4eed47",
    "212c58dfeca0eff36c1b7b48b093f1489e210f2f033b53055c5e14e1f558d08d",
    "18d0e7fb0d05f9e4e194806c7cc2814d12a77fc162ee5e3cc6a01f1ccb51f3fe",
    "328fba882347fe58e6876550e436e5aec25397286c9ed4ef6a883ce5932fcae0",
    "924ba3ca31108709af25e289ae37b259fb8bf433abad872efd6ec997783110c5",
    "4861568bd01ced5318ab9422a4d8952f24a44132fd912497a28ea8184dfae4cf",
    "f9769a8858fc28f5a3ae915d95b318c5639647c9a728e7d9eaf589036c5bc667",
    "351b142992ee59642be380a95991f4e20f10a82a8466fcd1b5d5e443d353b542",
]


def test_estimate_digests_cover_every_case():
    assert len(ESTIMATE_DIGESTS) == len(ESTIMATE_CASES)


@pytest.mark.parametrize("case,digest", list(zip(ESTIMATE_CASES, ESTIMATE_DIGESTS)),
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}-{i}"
                              for i, c in enumerate(ESTIMATE_CASES)])
def test_estimate_output_pinned(case, digest, monkeypatch):
    name, samples, max_depth, seed, kwargs = case
    # the frontier cap is a module constant, which four cases set lower, and
    # the start law is the grammar's, which two cases weigh
    kwargs = dict(kwargs)
    monkeypatch.setattr(sim, "FRONTIER_CAP", kwargs.pop("frontier_cap", sim.FRONTIER_CAP))
    g = weighted(pinned_grammar(name), kwargs.pop("start_weights", None))
    stats = sim.estimate_termination(g, samples, max_depth, seed=seed, **kwargs)
    assert hashlib.sha256(repr(stats).encode()).hexdigest() == digest


def test_multinomial_draws_nothing_for_empty_rows():
    # estimate_termination drops samples with nothing pending and relies on
    # a row with n = 0 drawing no random numbers: the other rows, and every
    # later draw, must come out as if the empty rows were never passed
    p = [0.2, 0.5, 0.3]
    for seed in range(20):
        with_empty = np.random.default_rng(seed)
        without = np.random.default_rng(seed)
        draws = with_empty.multinomial([0, 5, 0, 7], p)
        assert (draws[[0, 2]] == 0).all()
        assert (draws[[1, 3]] == without.multinomial([5, 7], p)).all()
        # nor does a law of one outcome, so estimate_termination skips a law of nil alone
        assert (with_empty.multinomial([5, 7], [1.0]) == [[5], [7]]).all()
        assert with_empty.random() == without.random()


@pytest.mark.parametrize("p", [2.0**-40, 0.2, 0.5, 0.98, 0.99, 1.0])
def test_binomial_draws_what_a_two_outcome_multinomial_draws(p):
    # estimate_termination draws a law with one positive entry p as
    # binomial(n, p) and counts on it being bit for bit the multinomial it
    # replaced: the same counts, the same random numbers consumed (so the
    # draws after it agree), and nothing drawn for n = 0
    rng = np.random.default_rng(34)
    n = np.concatenate([[0, 1, 3, 0], rng.integers(100, 5001, size=40), [0, 1, 3]])
    rng.shuffle(n)
    for seed in range(10):
        binomial, multinomial = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (binomial.binomial(n, p) == multinomial.multinomial(n, [p, 1.0 - p])[:, 0]).all()
        assert binomial.random() == multinomial.random()
        zeros, untouched = np.random.default_rng(seed), np.random.default_rng(seed)
        assert not zeros.binomial(np.zeros(5, dtype=np.int64), p).any()
        assert zeros.random() == untouched.random()


def with_zero_entries(g, seed):
    """g with up to two zero-probability entries spliced at random places
    into each site's entries, aimed at trees the site may take but does not
    list, so that validate finds the same as on g."""
    rng = random.Random(seed)
    phi = {}
    for tree in g.trees:
        for node in tree.sites:
            entries = list(g.phi[node.site_id])
            listed = {target for target, _ in entries}
            shape = ("initial" if node.kind == gr.SUBSTITUTION else "auxiliary", node.label)
            free = [t.tree_id for t in g.trees
                    if (t.kind, t.root.label) == shape and t.tree_id not in listed]
            for target in rng.sample(free, min(len(free), 2)):
                entries.insert(rng.randrange(len(entries) + 1), (target, 0.0))
            phi[node.site_id] = tuple(entries)
    return dataclasses.replace(g, phi=phi)


def test_estimate_ignores_zero_probability_entries():
    # a zero-probability entry draws nothing and rewrites nothing, so the
    # stats equal those of the same grammar without such entries
    spliced = with_sites = 0
    for seed in range(20):
        g = random_proper_grammar(seed)
        zeros = with_zero_entries(g, seed)
        assert zeros.diagnostics == g.diagnostics
        spliced_trees = [zeros.tree(t) for entries in zeros.phi.values()
                         for t, p in entries if t is not None and p == 0.0]
        spliced += len(spliced_trees)
        with_sites += sum(bool(t.sites) for t in spliced_trees)
        for samples, max_depth, run_seed in ((3000, 30, seed), (500, 200, seed + 7)):
            assert repr(sim.estimate_termination(zeros, samples, max_depth, seed=run_seed)) \
                == repr(sim.estimate_termination(g, samples, max_depth, seed=run_seed))
    assert (spliced, with_sites) == (52, 45)
