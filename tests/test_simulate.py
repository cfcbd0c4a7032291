import json
import math

import numpy as np
import pytest

from ptagcheck import branching as br
from ptagcheck import grammar as gr
from ptagcheck import simulate as sim
from conftest import (duplicate_target_grammar, minimal_document, parse,
                      segment_edge_grammar, two_site_start_grammar)


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
    assert sim.derivation_depth(d) == 0
    assert d.root.children == {"R": None}


def test_sample_grammar2_scripted_draws(grammar2):
    # start tree is forced (single choice), then S1 -> t2, S2 -> nil, S3 -> nil
    rng = ScriptedRNG([0.0, 0.5, 0.995, 0.985])
    d = sim.sample_derivation(grammar2, seed=rng, max_depth=10)
    assert d.complete
    root = d.root
    assert root.tree_id == "t1"
    child = root.children["S1"]
    assert child.tree_id == "t2" and child.at == "S1" and child.level == 1
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
    assert sim.derivation_depth(d) == 1


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
            product *= grammar4.phi.prob(site_node.site_id, target)
    assert d.probability == pytest.approx(product, rel=1e-12)


def test_start_weights_override():
    doc = minimal_document()
    doc["trees"].append({"id": "t2", "type": "initial",
                         "root": {"label": "S", "children": [{"anchor": "b"}]}})
    g = parse(doc)
    for seed in range(5):
        d = sim.sample_derivation(g, seed=seed, start_weights={"t2": 1.0})
        assert d.root.tree_id == "t2"


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


def node(tree_id, at, level, children):
    return sim.DerivationNode(tree_id, at, level, children)


def test_derived_tree_reproduces_reference_string(grammar4):
    # four stacked t2 adjunctions with two t3 adjunctions on the innermost one
    t3y = node("t3", "B2", 3, {"B2": None})
    t3x = node("t3", "B1", 2, {"B2": t3y})
    t2d = node("t2", "A2", 4, {"A2": None, "B1": None, "A3": None})
    t2c = node("t2", "A2", 3, {"A2": t2d, "B1": None, "A3": None})
    t2b = node("t2", "A2", 2, {"A2": t2c, "B1": None, "A3": None})
    t2a = node("t2", "A1", 1, {"A2": t2b, "B1": t3x, "A3": None})
    root = node("t1", None, 0, {"A1": t2a})
    d = sim.Derivation(root, True, 1.0)
    t = sim.derived_tree(d, grammar4)
    assert sim.yield_string(t) == ["a2", "a2", "a2", "a2", "a3", "a3", "a1"]


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


def test_enumerate_prob_floor(grammar4):
    everything = sim.enumerate_derivations(grammar4, 3)
    kept = sim.enumerate_derivations(grammar4, 3, prob_floor=0.01)
    assert {d.probability for d in kept} == {
        d.probability for d in everything if d.probability >= 0.01}


def test_enumerate_budget(grammar4):
    with pytest.raises(sim.EnumerationBudgetExceeded):
        sim.enumerate_derivations(grammar4, 6, node_cap=100)


def test_enumerate_zero_prob_choices_excluded(grammar2):
    # phi(S1 -> nil) = 0, so no derivation leaves S1 unexpanded
    for d in sim.enumerate_derivations(grammar2, 3):
        assert d.root.children["S1"] is not None
        assert d.probability > 0.0


def test_enumerate_levels_and_parents(grammar4):
    for d in sim.enumerate_derivations(grammar4, 3):
        for n in d.root.nodes():
            for site, child in n.children.items():
                if child is not None:
                    assert child.at == site
                    assert child.level == n.level + 1


# -- termination estimation ---------------------------------------------------

def test_estimate_all_nil_exact():
    stats = sim.estimate_termination(all_nil_grammar(), 500, 10, seed=3)
    assert stats.termination_rate == 1.0
    assert stats.censored == 0
    assert stats.mean_depth == 0.0
    assert stats.mean_yield_length == 1.0
    assert stats.generator == "PCG64"


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
