import gc
import hashlib
import json
import math

import numpy as np
import pytest

from ptagcheck import branching as br
from ptagcheck import grammar as gr
from ptagcheck import simulate as sim
from conftest import (GRAMMAR2, GRAMMAR4, duplicate_target_grammar, minimal_document,
                      parse, random_proper_grammar, segment_edge_grammar,
                      two_site_start_grammar)


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
    # depth 4 makes 543 partial expansions, 206 of them above the floor
    for kwargs, needed in (({}, 543), ({"prob_floor": 1e-4}, 206)):
        sim.enumerate_derivations(grammar4, 4, node_cap=needed, **kwargs)
        with pytest.raises(sim.EnumerationBudgetExceeded):
            sim.enumerate_derivations(grammar4, 4, node_cap=needed - 1, **kwargs)


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


def enumeration_digest(ds):
    """sha256 of the derivations' as_dict() forms, order and probability bits.

    Each distinct (tree, at, children) content is numbered the first time
    it is met and written once, its children naming nodes by number; each
    derivation then adds its root's number and probability.hex().  This
    pins what the JSON of as_dict() would, but writes a shared subtree once:
    that JSON is 257 MB on grammar4 at depth 5.
    """
    numbers, by_id, lines = {}, {}, []

    def number(node):
        n = by_id.get(id(node))
        if n is None:
            children = node.children
            if children is not None:
                children = tuple((site, c if c is None else number(c))
                                 for site, c in children.items())
            content = (node.tree_id, node.at, children)
            n = numbers.get(content)
            if n is None:
                n = numbers[content] = len(numbers)
                lines.append(repr(content))
            by_id[id(node)] = n
        return n

    for d in ds:
        lines.append(f"{number(d.root)} {d.probability.hex()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pinned_grammar(name):
    if name.startswith("random"):
        return random_proper_grammar(int(name.removeprefix("random")))
    return {"grammar4": lambda: gr.load_grammar(GRAMMAR4),
            "grammar2": lambda: gr.load_grammar(GRAMMAR2),
            "segment_edge": segment_edge_grammar,
            "two_site_start": two_site_start_grammar}[name]()


# (grammar, depth) -> (derivations, enumeration_digest): the enumerator's
# exact output, which any rewrite of it must reproduce bit for bit
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
    ("random0", 3): (7, "94329f2e6cf0cbf852e9c3aa70d2001ca704d3c8f8a58f6647792e9a8d588500"),
    ("random1", 3): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random2", 3): (2, "dc3caa3d6e9122259c165e7bd975e138dfc76f3859367a32025276be045b4825"),
    ("random3", 3): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random4", 3): (2, "7854bb98f794e020daf7696524c5dce508302b765e6f72936b465dcdaf093fcc"),
    ("random5", 3): (2, "728bcf3b3e8c4047dddeff4b782fd3154a8d9ebba1eeb2b6a1762aac032fd50e"),
    ("random6", 3): (12, "d09ffa60a5ef3776849ee10ecda11bcad2188096f84ae720b710344baa3aed50"),
    ("random7", 3): (2, "afa7ba250ef81f561c15e5fd12dfab6b76c36e296ad5997dd968688c9c7a73dc"),
    ("random8", 3): (3, "e430335da06e059db7b07118846d449c4fb1377088c1c3c6ea60ad9a861ee8f9"),
    ("random9", 3): (1, "f27dbdb5f7fe05a11b0cb03f1b5e5ee446cc1023b83a5a8ffdafe53f2ef543ac"),
}


@pytest.mark.parametrize("name,depth", list(ENUMERATION_DIGESTS))
def test_enumerate_output_pinned(name, depth):
    ds = sim.enumerate_derivations(pinned_grammar(name), depth)
    assert (len(ds), enumeration_digest(ds)) == ENUMERATION_DIGESTS[name, depth]


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
