import dataclasses
import hashlib
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ptagcheck import branching as br
from ptagcheck import expectation
from ptagcheck import simulate as sim
from ptagcheck.consistency import check_consistency
from ptagcheck.expectation import PROPERNESS_TOL, SiteIndex, build_M, build_N, build_P, start_law
from ptagcheck.grammar import load_grammar, to_document, validate
from ptagcheck.polynomials import SparsePolynomial, TermCapExceeded
from conftest import (GRAMMAR4, MASS_EDGE, branching_family, mass_edge_document,
                      minimal_document, parse, pinned_grammar, random_proper_grammar,
                      reference, segment_edge_grammar, synth_grammar,
                      two_site_start_grammar, two_siteless_start_grammar, verdict_corpus,
                      with_zero_entry)

EPS = sys.float_info.epsilon

# G_2 of grammar4, expanded by hand from 0.8*g2*g3*g4 + 0.2 with
# g2 = 0.2u + 0.8, g3 = 0.2*s5 + 0.8, g4 = 0.4u + 0.6 over u = s2*s3*s4
G2_EXPECTED = {
    (0, 2, 2, 2, 1): 0.0128,
    (0, 2, 2, 2, 0): 0.0512,
    (0, 1, 1, 1, 1): 0.0704,
    (0, 1, 1, 1, 0): 0.2816,
    (0, 0, 0, 0, 1): 0.0768,
    (0, 0, 0, 0, 0): 0.5072,
}


def test_adjunction_gf_A1(grammar4):
    g1 = br.adjunction_gf(grammar4, "A1")
    assert g1.format(grammar4.site_ids) == "0.8*s[A2]*s[B1]*s[A3] + 0.2"
    assert g1.coefficient((0, 1, 1, 1, 0)) == 0.8
    assert g1.constant_term == 0.2


def test_adjunction_gf_B1(grammar4):
    g3 = br.adjunction_gf(grammar4, "B1")
    assert g3.format(grammar4.site_ids) == "0.2*s[B2] + 0.8"


def test_adjunction_gf_all_nil_site():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    g = parse(doc)
    gf = br.adjunction_gf(g, "R")
    assert gf == SparsePolynomial.constant(1.0, 1)


def test_adjunction_gf_unknown_site(grammar4):
    with pytest.raises(KeyError):
        br.adjunction_gf(grammar4, "nope")


def test_adjunction_gf_normalization(grammar4, grammar2):
    for g in (grammar4, grammar2):
        ones = [1.0] * len(g.site_ids)
        for site in g.site_ids:
            assert br.adjunction_gf(g, site).evaluate(ones) == pytest.approx(
                1.0, abs=1e-12)


def test_adjunction_gf_normalization_random():
    for seed in range(15):
        g = random_proper_grammar(seed)
        ones = [1.0] * len(g.site_ids)
        for site in g.site_ids:
            assert br.adjunction_gf(g, site).evaluate(ones) == pytest.approx(
                1.0, abs=1e-12)


def test_level_gf_zero_is_start_variable(grammar4):
    g0 = br.level_gf(grammar4, 0)
    assert g0 == SparsePolynomial.monomial(1.0, [0], 5)  # A1 is the first site
    # a start tree with two sites starts from the product of both variables
    g0 = br.level_gf(two_site_start_grammar(), 0)
    assert g0 == SparsePolynomial.monomial(1.0, [0, 1], 4)


def test_level_gf_one_is_start_adjunction_gf(grammar4):
    assert br.level_gf(grammar4, 1) == br.adjunction_gf(grammar4, "A1")


def test_level_gf_two_expansion(grammar4):
    g2 = br.level_gf(grammar4, 2)
    assert len(g2) == len(G2_EXPECTED)
    for exponents, coefficient in G2_EXPECTED.items():
        assert g2.coefficient(exponents) == pytest.approx(coefficient, abs=1e-12)
    assert g2.evaluate([1.0] * 5) == pytest.approx(1.0, abs=1e-12)


def test_level_gf_normalization_up_to_four(grammar4):
    for n in range(5):
        gn = br.level_gf(grammar4, n)
        assert gn.evaluate([1.0] * 5) == pytest.approx(1.0, abs=1e-9)


def test_level_gf_term_cap(grammar4):
    with pytest.raises(TermCapExceeded):
        br.level_gf(grammar4, 8, term_cap=50)


def three_ways(g, d):
    """C_d by enumeration, by death_by_level and as the constant of G_d."""
    return (sum(x.probability for x in sim.enumerate_derivations(g, d)),
            br.death_by_level(g, d), br.constant_split(br.level_gf(g, d))[1])


def test_level_gf_without_start_site():
    # each start tree without sites adds its weight 0.5 as a constant
    g = two_siteless_start_grammar()
    assert br.level_gf(g, 0) == SparsePolynomial.constant(1.0, 0)
    for d in (1, 2, 3):
        assert three_ways(g, d) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_every_method_weighs_start_trees_by_the_start_law():
    # under the uniform law on seeds 0-49, and under the law of weights 1, 2,
    # 3, ... in start-tree order, set on the grammar, on the 39 of seeds 0-199
    # with two or three start trees
    cases = [(random_proper_grammar(seed), None) for seed in range(50)]
    for seed in range(200):
        g = random_proper_grammar(seed)
        if len(starts := g.index.starts.tolist()) > 1:
            law = {g.index.tree_ids[t]: float(w) for w, t in enumerate(starts, 1)}
            cases.append((dataclasses.replace(g, start_weights=law), g))
    assert len(cases) == 50 + 39
    moved = 0
    for g, uniform in cases:
        for d in (1, 2, 3):
            total, death, constant = three_ways(g, d)
            assert total == pytest.approx(death, abs=1e-12), (g.start_weights, d)
            assert constant == pytest.approx(death, abs=1e-12), (g.start_weights, d)
            moved += uniform is not None and abs(death - br.death_by_level(uniform, d)) > 1e-9
    # the law reaches the methods: in 79 of the 117 weighted cases C_d moves
    # off the uniform law's (worst disagreement among the three, 2.2e-16)
    assert moved == 79


def test_constant_split_levels(grammar4):
    d1, c1 = br.constant_split(br.level_gf(grammar4, 1))
    assert c1 == pytest.approx(0.2, abs=1e-12)
    assert d1.constant_term == 0.0
    d2, c2 = br.constant_split(br.level_gf(grammar4, 2))
    assert c2 == pytest.approx(0.5072, abs=1e-12)
    assert len(d2) == 5
    assert d2.constant_term == 0.0


def test_constant_split_pure_constant():
    one = SparsePolynomial.constant(1.0, 2)
    d, c = br.constant_split(one)
    assert c == 1.0
    assert not d


def test_death_constants_nondecreasing(grammar4, grammar2):
    for g in (grammar4, grammar2):
        values = [br.death_by_level(g, n) for n in range(8)]
        assert values == sorted(values)
        assert values[0] == 0.0


def test_death_rejects_negative_level(grammar4):
    for level_function in (br.death_by_level, br.level_gf):
        with pytest.raises(ValueError, match="level must be >= 0"):
            level_function(grammar4, -1)


def test_death_matches_symbolic_constant(grammar4):
    cases = [(grammar4, 4), (segment_edge_grammar(), 3), (two_site_start_grammar(), 4)]
    cases += [(random_proper_grammar(seed), 3) for seed in range(20)]
    for g, levels in cases:
        for n in range(levels + 1):
            _, c = br.constant_split(br.level_gf(g, n))
            assert br.death_by_level(g, n) == pytest.approx(c, abs=1e-12)


def oracle_cases():
    """Random grammars plus the segment edge shapes, with their symbolic g."""
    for g in [segment_edge_grammar()] + [random_proper_grammar(s) for s in range(20)]:
        yield g, g.index, [br.adjunction_gf(g, s) for s in g.site_ids]


def tree_prod_oracle(idx, q):
    bounds = idx.tree_start.tolist()
    return [math.prod(q[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def layout_index(sizes):
    """The index of a grammar with one tree per entry of sizes and only nil
    entries: a layout alone."""
    return sized_trees_grammar(sizes, ()).index


def test_tree_prod_matches_math_prod():
    rng = np.random.default_rng(0)
    for seed in range(200):
        idx = random_proper_grammar(seed).index
        for q in (np.zeros(len(idx)), np.ones(len(idx)), *rng.random((5, len(idx)))):
            assert idx.tree_prod(q).tolist() == tree_prod_oracle(idx, q)


# first tree siteless, last tree siteless, every tree siteless, one tree
@pytest.mark.parametrize("sizes", [(0, 2, 3), (0, 0, 1, 0, 4), (3, 1, 0), (2, 0, 5, 0, 0),
                                   (0, 0, 0), (0,), (7,)])
def test_tree_prod_on_hand_built_layouts(sizes):
    idx = layout_index(sizes)
    rng = np.random.default_rng(1)
    for q in (np.zeros(len(idx)), *rng.random((20, len(idx)))):
        assert idx.tree_prod(q).tolist() == tree_prod_oracle(idx, q)


def test_site_index_records_its_layout_once():
    idx = segment_edge_grammar().index  # t2 and t4 have no sites
    sizes = idx.sizes.tolist()
    assert sizes == np.diff(idx.tree_start).tolist()
    assert idx.owner.tolist() == [t for t, n in enumerate(sizes) for _ in range(n)]
    assert np.flatnonzero(idx.sizes).tolist() == [0, 2]
    assert idx.bounds.tolist() == [idx.tree_start[t] for t in (0, 2)] + [len(idx)]
    assert idx.tree_slot.tolist() == [0, 2, 1, 2]  # t2 and t4 read the trailing 1.0
    assert idx.entry_slot.tolist() == idx.tree_slot[idx.tree].tolist()
    for layout in (idx.sizes, idx.entry_start, idx.owner, idx.bounds, idx.tree_slot,
                   idx.entry_slot, idx.starts):
        assert not layout.flags.writeable
    assert idx.owner is idx.owner


def zero_entry_grammar():
    """Start tree t1 with sites Z1, Z2 and Z3 on label A; a1 has no sites and
    a2 one, W, nil alone.  Z1 lists a zero entry first, Z2 a zero nil entry
    between two targets, Z3 nil first and a zero entry last."""
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [
        {"label": "A", "site": z, "children": [{"anchor": "a"}]} for z in ("Z1", "Z2", "Z3")]
    doc["trees"] += [
        {"id": "a1", "type": "auxiliary", "root": {"label": "A", "children": [
            {"anchor": "b"}, {"foot": "A"}]}},
        {"id": "a2", "type": "auxiliary", "root": {"label": "A", "site": "W", "children": [
            {"anchor": "c"}, {"foot": "A"}]}}]
    doc["phi"] = [{"site": s, "tree": t, "prob": p} for s, t, p in [
        ("Z1", "a1", 0.0), ("Z1", "a2", 0.25), ("Z1", None, 0.75),
        ("Z2", "a1", 0.25), ("Z2", None, 0.0), ("Z2", "a2", 0.75),
        ("Z3", None, 0.5), ("Z3", "a1", 0.5), ("Z3", "a2", 0.0), ("W", None, 1.0)]]
    return parse(doc)


def test_site_index_entry_layout_and_rewrite_graph_match_phi():
    grammars = [g for _, g in kleene_edge_grammars()]  # segment_edge lists nil first
    grammars += [pinned_grammar("duplicate_target"), two_site_start_grammar()]
    # nil between two targets; zero entries first, between and last
    grammars += [parse(mass_edge_document(name)) for name in MASS_EDGE]
    grammars += [zero_entry_grammar()]
    grammars += [random_proper_grammar(seed) for seed in range(200)]
    # 148 of them again, with a zero entry placed first at a site that has room
    zeros = [parse(doc) for seed, g in enumerate(grammars[-200:])
             if (doc := with_zero_entry(to_document(g), g, seed)) is not None]
    assert len(zeros) == 148
    grammars += zeros
    for g in grammars:
        idx = g.index
        position = {t.tree_id: j for j, t in enumerate(g.trees)}
        choices = {s: [(position[t], p) for t, p in g.phi[s] if t is not None and p > 0.0]
                   for s in g.site_ids}
        assert idx.sizes.tolist() == [len(t.sites) for t in g.trees]
        # the document-order record: every entry once, nil as target -1
        assert list(zip(idx.phi_site.tolist(), idx.phi_tree.tolist(),
                        idx.phi_prob.tolist())) == [
            (j, -1 if t is None else position[t], p)
            for j, s in enumerate(g.site_ids) for t, p in g.phi[s]]
        # the choices: phi's positive non-nil entries in document order
        assert (idx.prob > 0.0).all()
        ends = idx.entry_start.tolist()
        assert ends[0] == 0 and ends[-1] == len(idx.prob)
        for j, s in enumerate(g.site_ids):
            a, b = ends[j], ends[j + 1]
            assert idx.site[a:b].tolist() == [j] * (b - a)
            assert list(zip(idx.tree[a:b].tolist(), idx.prob[a:b].tolist())) == choices[s]
            assert idx.nil[j] == sum((p for t, p in g.phi[s] if t is None), 0.0)
        # each tree's slice of the choices, whose (owner, tree) pairs are its edges
        assert idx.rewrite_graph == tuple(
            tuple(t for node in tree.sites for t, _ in choices[node.site_id])
            for tree in g.trees)
        assert sorted(zip(idx.owner[idx.site].tolist(), idx.tree.tolist())) == sorted(
            (j, k) for j, targets in enumerate(idx.rewrite_graph) for k in targets)
        assert not idx.sizes.flags.writeable and not idx.entry_start.flags.writeable
        if idx.bad_site is not None:  # MASS_EDGE "off" strays past PROPERNESS_TOL
            with pytest.raises(ValueError, match=idx.bad_site):
                idx.draw_table
            continue
        # the draw table: per tree and site the positive entries in document
        # order, with the running sum of every entry up to each but the last
        assert list(idx.draw_table) == [t.tree_id for t in g.trees]
        for tree in g.trees:
            draws = idx.draw_table[tree.tree_id]
            assert [site for site, _, _ in draws] == [node.site_id for node in tree.sites]
            for site, sums, outcomes in draws:
                kept, running, totals = [], 0.0, []
                for t, p in g.phi[site]:
                    running += p
                    if p > 0.0:
                        kept.append((t, p, t is not None and bool(g.tree(t).sites)))
                        totals.append(running)
                assert outcomes == tuple(kept) and sums == tuple(totals[:-1])
    # built once per grammar: the validators read the one graph
    g = segment_edge_grammar()
    graph = g.index.rewrite_graph
    assert graph == ((2, 1), (), (2, 2, 3), ())  # A2's entry into t2 has probability 0
    validate(g)
    assert g.index.rewrite_graph is graph
    # the zero entries are in the record and nowhere in the choices or the draw table
    idx = zero_entry_grammar().index
    assert idx.phi_prob.tolist().count(0.0) == 3 and idx.nil.tolist() == [0.75, 0.0, 0.5, 1.0]
    assert idx.tree.tolist() == [2, 1, 2, 1] and idx.entry_start.tolist() == [0, 1, 3, 4, 4]
    assert [[[t for t, _, _ in outcomes] for _, _, outcomes in idx.draw_table[tree]]
            for tree in ("t1", "a1", "a2")] == [[["a2", None], ["a1", "a2"], [None, "a1"]],
                                                [], [[None]]]


def test_offspring_matches_symbolic_gf():
    rng = np.random.default_rng(5)
    for _, idx, gfs in oracle_cases():
        k = len(idx)
        for q in [np.zeros(k), np.ones(k)] + [rng.random(k) for _ in range(5)]:
            symbolic = [gf.evaluate(q) for gf in gfs]
            assert np.abs(reference_offspring(idx, q) - symbolic).max() <= 1e-15


def test_m_from_partials_grammar4(grammar4):
    m = br.m_from_partials(grammar4)
    assert m.values[0, 1] == pytest.approx(0.8, abs=1e-15)  # A1 -> A2
    assert np.abs(m.values - build_M(grammar4).values).max() <= 1e-12


def test_m_from_partials_grammar2(grammar2):
    m = br.m_from_partials(grammar2)
    assert np.abs(m.values - [[0, 1, 1], [0, 0.99, 0.99],
                              [0, 0.98, 0.98]]).max() <= 1e-12


def test_m_from_partials_random():
    for seed in range(15):
        g = random_proper_grammar(seed)
        a = br.m_from_partials(g).values
        b = build_M(g).values
        if a.size:
            assert np.abs(a - b).max() <= 1e-12


def reference_m_from_partials(g):
    """m_from_partials by every partial: each site function is differentiated
    by all k variables, an absent one giving the empty partial's 0.0."""
    k = len(g.index)
    ones = [1.0] * k
    values = np.zeros((k, k))
    for i, site in enumerate(g.index.ids):
        poly = br.adjunction_gf(g, site)
        for j in range(k):
            values[i, j] = poly.partial(j).evaluate(ones)
    return values


def test_m_from_partials_matches_reference_bit_for_bit():
    grammars = [pinned_grammar(name) for name in ("grammar2", "grammar4", "syn130")]
    grammars += [g for _, g in verdict_corpus(1)]
    grammars += [random_proper_grammar(seed) for seed in range(200)]
    for g in grammars:
        assert br.m_from_partials(g).values.tobytes() == reference_m_from_partials(g).tobytes()


def test_m_from_partials_dense_cap(monkeypatch, grammar4):
    # grammar4's M has 25 cells; the cap fires before any site function is built
    monkeypatch.setattr(expectation, "DENSE_CELL_CAP", 20)
    monkeypatch.setattr(br, "adjunction_gf", None)
    with pytest.raises(expectation.DenseCapExceeded, match="a 5 x 5 dense matrix"):
        br.m_from_partials(grammar4)


# (grammar, level) -> (terms, sha256 of [(exponents, coefficient.hex())] in
# terms order): level_gf's exact output, coefficient bits included.
LEVEL_GF_DIGESTS = {
    ("grammar4", 0): (1, "9dd1d06700750ea0e3d494c749128b537757880a7e38000dee7762ef9732abb7"),
    ("grammar4", 1): (2, "bb60e880cb512863d8da1edca456451c75bc997843f084ee8e058c99f8035ad4"),
    ("grammar4", 2): (6, "7777b840ff77e1ab077035f67e34799247314b7b365a2067fd229f0910a8f250"),
    ("grammar4", 3): (20, "903c7da8b8ec9dabca566539cce22787c7c9f89eb46c7d40dbd25b4bb232531c"),
    ("grammar4", 4): (72, "875f482060f261d9f0a944e363ef6a43b43be041cd7d18d7f74ae89ba403679e"),
    ("grammar4", 5): (272, "90f63e5c33f67bac04cc060112b0847d75c4f772badc120851784a020cf498bc"),
    ("grammar2", 0): (1, "9dd1d06700750ea0e3d494c749128b537757880a7e38000dee7762ef9732abb7"),
    ("grammar2", 1): (1, "a7483c69aab8ce86d43e540a7f80a817849e4a69ba90dcfec1cebeded6ff0eee"),
    ("grammar2", 2): (3, "cb0102339907014890c4e4c19f24f195a58d02b36d03632c5176c4550a3e6947"),
    ("grammar2", 3): (5, "4e401e0943305132b2bd062df9f0f1248edc8c63e34932ee77e3b2d80d0baaf7"),
    ("grammar2", 4): (9, "4cfd69ca5c002fc781ef57e077823066faf833536793c1e00579023a62ab59e7"),
    ("syn130", 2): (1101, "e4328075f10a22228527b4dab4d8de52dcbbce785e6234cbcae0afc2a4aadb64"),
    ("random0", 3): (4, "7ddc770c90b90b82a1500e2be5bbfecdc1e63e2fc635516c0bfed69751d6d48f"),
    ("random1", 3): (1, "3f95f0826735ffdad5f9ff8379f783fd947dbf8440ad9a379728dd82a9ea5feb"),
    ("random2", 3): (2, "f9441b3b1fb1d3df6d82c95d41ca361f857946ceb815b9720ae9457450ba12d5"),
    ("random3", 3): (1, "3f95f0826735ffdad5f9ff8379f783fd947dbf8440ad9a379728dd82a9ea5feb"),
    ("random4", 3): (1, "cbad588de240b2c4ed93fdcbb44c7256a7b74adcab02903353852d88e19b798e"),
    ("random5", 3): (2, "0f8cf023741245cc88d716cb908cc52fcb5964dd96b0e25d99014bba547c8b58"),
    ("random6", 3): (1, "cbad588de240b2c4ed93fdcbb44c7256a7b74adcab02903353852d88e19b798e"),
    ("random7", 3): (1, "cbad588de240b2c4ed93fdcbb44c7256a7b74adcab02903353852d88e19b798e"),
    ("random8", 3): (5, "b964d9b881958a28748aa64dd63e7cd17b4eda0004d6da70c81b9d6cebca514f"),
    ("random9", 3): (1, "cbad588de240b2c4ed93fdcbb44c7256a7b74adcab02903353852d88e19b798e"),
}


def level_gf_digest(poly):
    return hashlib.sha256(repr([(e, c.hex()) for e, c in poly.terms]).encode()).hexdigest()


@pytest.mark.parametrize("name,level", list(LEVEL_GF_DIGESTS))
def test_level_gf_pinned(name, level):
    poly = br.level_gf(pinned_grammar(name), level)
    assert (len(poly), level_gf_digest(poly)) == LEVEL_GF_DIGESTS[name, level]


def test_extinction_grammar4_certain(grammar4):
    ev = br.extinction(grammar4)
    assert ev.converged
    assert np.abs(ev.q - 1.0).max() <= 1e-9
    assert ev.residual < 1e-12


def test_extinction_grammar2_fixed_point(grammar2):
    ev = br.extinction(grammar2)
    assert ev.converged
    assert ev["S2"] == pytest.approx(0.010204, abs=1e-6)
    assert ev["S3"] == pytest.approx(0.020202, abs=1e-6)
    assert ev["S1"] == pytest.approx(ev["S2"] * ev["S3"], abs=1e-12)
    # exact smallest root of the quadratic fixed-point system
    assert ev["S1"] == pytest.approx(0.0004 / 1.9404, abs=1e-10)


@pytest.mark.parametrize("p", (0.3, 0.45, 0.7))
def test_extinction_branching_family_closed_form(p):
    # q* = min(1, (1 - p)/p) solves q = (1 - p) + p q^2.  Kleene climbs to q*
    # from below, and the map's slope on [q, q*] is at most r = 2p q* =
    # 2 min(p, 1 - p), so q* - q <= r / (1 - r) * residual, plus a few
    # roundings of at most eps each
    ev = br.extinction(branching_family(p))
    expected = min(1.0, (1 - p) / p)
    r = 2 * min(p, 1 - p)
    assert ev.converged
    for q in ev.q.tolist():
        assert -4 * EPS <= expected - q <= r / (1 - r) * ev.residual + 4 * EPS


@pytest.mark.parametrize("p", (0.3, 0.5, 0.7))
def test_death_by_level_branching_family_recursion(p):
    # c_n = (1 - p) + p c_(n-1)^2 from c_0 = 0, exact in Fraction over the
    # float p.  A level adds a few roundings of at most eps/2 each and the
    # map's slope 2p c_n stays at most 2 min(p, 1 - p) <= 1, so the errors
    # add up to at most 2 eps per level
    g = branching_family(p)
    exact = Fraction(0)
    for n in range(11):
        assert abs(Fraction(br.death_by_level(g, n)) - exact) <= 2 * n * Fraction(EPS)
        exact = (1 - Fraction(p)) + Fraction(p) * exact ** 2


def test_extinction_trivial_site():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    ev = br.extinction(parse(doc))
    assert ev.q.tolist() == [1.0]
    assert ev.iterations <= 2
    assert ev.converged


def test_extinction_no_sites():
    ev = br.extinction(parse(minimal_document()))
    assert ev.q.size == 0
    assert ev.converged


def test_extinction_capped_at_one_under_properness_slack():
    # site sum 1 + 5e-10 passes validation but its fixed point sits above 1
    doc = minimal_document()
    doc["trees"].append({"id": "t2", "type": "auxiliary",
                         "root": {"label": "S", "site": "X", "children": [
                             {"anchor": "b"}, {"foot": "S"}]}})
    doc["phi"] = [{"site": "X", "tree": "t2", "prob": 0.5},
                  {"site": "X", "tree": None, "prob": 0.5 + 5e-10}]
    g = parse(doc)
    assert not [d for d in validate(g) if d.severity == "error"]
    ev = br.extinction(g)
    assert ev.converged
    assert ev["X"] == 1.0


def test_extinction_monotone_iterates(grammar2):
    # re-run the iteration by hand and check monotonicity
    for g in (grammar2, segment_edge_grammar()):
        gfs = [br.adjunction_gf(g, s) for s in g.site_ids]
        q = np.zeros(len(gfs))
        for _ in range(60):
            nxt = np.array([gf.evaluate(q) for gf in gfs])
            assert (nxt >= q).all()
            assert (nxt <= 1.0).all()
            q = nxt


def test_extinction_rejects_negative_entry_up_front():
    # unvalidated: X -> t2 at -0.2 would make the second iterate fall below
    # the first, so it is refused before the first step
    g = r_x_grammar([("R", "t2", 0.5), ("R", None, 0.5), ("X", "t2", -0.2), ("X", None, 0.9)])
    with pytest.raises(ValueError, match="site 'X' has a negative or nonfinite"):
        br.extinction(g)


def test_numeric_form_built_once(monkeypatch):
    built = []
    init = SiteIndex.__init__

    def counting(index, g):
        built.append(g)
        init(index, g)

    monkeypatch.setattr(SiteIndex, "__init__", counting)
    g = load_grammar(GRAMMAR4)
    check_consistency(g)
    ev = br.extinction(g)
    br.start_termination(g, ev)
    br.level_gf(g, 2)
    br.death_by_level(g, 3)
    br.m_from_partials(g)
    build_P(g)
    build_N(g)
    sim.estimate_termination(g, 10, 5)
    assert built == [g]


def test_extinction_is_fixed_point_of_symbolic_gf():
    for g, _, gfs in oracle_cases():
        ev = br.extinction(g)
        assert ev.converged
        symbolic = np.minimum([gf.evaluate(ev.q) for gf in gfs], 1.0)
        assert np.abs(symbolic - ev.q).max() <= 1e-10


def test_extinction_max_iter_returns_last():
    ev = br.extinction(parse_supercritical(), tol=0.0, max_iter=25)
    assert not ev.converged
    assert ev.iterations == 25


def test_extinction_rejects_max_iter_below_one(grammar4):
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        br.extinction(grammar4, max_iter=0)


# grammars whose extinction and death_by_level outputs are pinned
PINNED = ("grammar2", "grammar4", "segment_edge", "duplicate_target", "two_site_start",
          "two_siteless_start", "syn130", *(f"random{seed}" for seed in range(50)))

# (grammar, extinction keyword arguments) -> sha256 of (q.tobytes(),
# iterations, residual.hex(), converged): the iteration's exact output,
# which any rewrite of it must reproduce bit for bit
EXTINCTION_CASES = [
    (name, setting) for name in PINNED
    for setting in ({"tol": 1e-12, "max_iter": 1000}, {"tol": 0.0, "max_iter": 5},
                    {"max_iter": 1})
]

EXTINCTION_DIGESTS = [
    "97d5a6e782cd93f3c66374d8ea8180eb264bcbd8941f08e5e155738d3c1903aa",
    "f03d511eeb9949a56fa6b31dfdc3728ab8296aa52468b257d13b72e8d4bab370",
    "7586e3da34723e9a40a9160ae6380fbdba56c6fd23e42a6f361d3e658d43c75d",
    "6d74c828a8a31d39b147ff86e2b05b9be8a57b213f0217d266cec253c987f6e0",
    "ac6311d4003fe988150f5e22417aa0f697887e2662a3604c26d352639b203196",
    "eb0b93bc8456323cb58ca45af9df4ab2ed7a6f9ffaba5f18175b29cf4ed65d5d",
    "75cdd85d07bd31db659351c5561a221b1784f45364f9ff13a7ec6b8277170a6a",
    "0f56726da3939da6525e8d88893e1625e88ff2749a26613fc3a8415f136c895d",
    "ec2f4199de4408516311f56ce676c107ed1a5a78a4bb75d586fcab33a2f7de82",
    "4a27a8d7f47419c72ac6016496d68bc16495d142a3c4f5704427d17191a196e2",
    "607f7c9c845343a7adc71b0448799d5536789f1b9c292bd491d0e967fc506c15",
    "cd1d49e815b2fc823d4a8b7e8de647c14856aebff67210d81e82ccacb25c68b4",
    "f0d137799b6ee78ea10be331e41ddee9f3a68eb384f020a419594fd6792b3fd8",
    "e4af638abbe2706c14469fe03bb93d5a628c43711e96a8c2d849f842a54d93f9",
    "63d880ce7d259670345f0525c51e3b23b3fe8053852c722fd058c08c0f33c921",
    "5a13f8a14af489853859d084dbacc0ac8abe7e62bd0f465bdbb16420eaeba2c2",
    "5a13f8a14af489853859d084dbacc0ac8abe7e62bd0f465bdbb16420eaeba2c2",
    "5a13f8a14af489853859d084dbacc0ac8abe7e62bd0f465bdbb16420eaeba2c2",
    "8e69449d371fdcaf88c0cc1856cdaff27e014085be09efe993c634ba37ef4e1d",
    "211352121174d559ba6af2cdbe4eda62340f11789c75128253eb7e939d0bb0a3",
    "a30b538f7b415f39e9930902f50c9686e6ec38ec67bc2ba450532dd214ccbfb8",
    "a3827f04d9c6c5622ec9c68b7269d7a3b6c906b818ae53a8c20ba33d6acb845c",
    "32e08a220d20b9074f6ca036bfaba0763dfef9dffe63bc276525d218baa04937",
    "f2e8a3b9d6e70656e54cac00ad0ac3c211814adb8cd701d640d9256af55bd868",
    "68dc0bb07d802ab26381d36256cf8da72cffce8dc7f7a9f3291e742019ae1901",
    "edf54b2ded02fb47bb50da0c8bec342e3fb3b79d2ad0d9290fc11ef86c12a1ce",
    "c788dd06d3b4f02e31a8678e10674f3c93e90ba1f54000bb4fd01aa64c2a0a4c",
    "2ab013ab7c54e9a19ed9e5162f8a2e0d37c4583d49d6f49371c8b1b1cde86a3a",
    "fd4d867ee7f6a8bdb7bbd4fa8422cbc021d64da52418fccfa78f7d6ece71d6ae",
    "ee52c7cea91a35336c87ed37a4d86e30fc9a1f1752c8a5d5afef061d46424f03",
    "e4f6c6b6649fa2e4596ec95bb36b256330776523c5cfbfd2ba3be40cd5b6f8c9",
    "e2762e4f609c8b6609c89d8667126e2b29acae3a6713a7835277a9be7c695332",
    "a50399f6da842758eeea838bdd13ae4b516a56e2be5d8f43e2e984e88bbc87ec",
    "c4a20c82d66626fdf24d92a12f855ef1c8baebc5bf14529b2c3e8cc93034f9af",
    "da52fdbef5886c2547470b433f1a938ccec6911cdce3706da42023bc0c64a519",
    "151b76ef08c6f6c9a9958eee927c99f7a03f0a9b8553aaefd5ff2113c424a6b7",
    "adba178b6e66e834648e75a7385c00038505ba3c29f4b41a574ceec203145592",
    "f42a67e9f012fffb2a5e4ab078db750e41aae0436df60334e23594f5509ec227",
    "8504ed067ed6337920276c2ddff26522334d76a2102389e75f176c8121563f43",
    "b6ff3c000684ea038267c1b1d066ee1778625deed327651696d8d89889691cd2",
    "2e31b915c7d26bad62970871f5ed5f5cef7e6758ae4272d53d721cbba2847c98",
    "9cdbe84e5a34a19b5562fbf79f5a122daeeec08f7bf5f3ebca1eac5758dae1f4",
    "e1eb350d253b053ba2106fdc58df8c466ba5dfba0234ec75fbbf99335755e362",
    "c214791dfa6282b71ba92af1181e64cbd634e5cacad47b234b9dfe2c87773b2d",
    "b1015ca0dd6c8f6659cdce6b87d0b795ef4b95c9ee18b576435d74ef04bd4c75",
    "2879a20a66065ffa5c4dff5c9546f1f4442346450292b2ea529f58ae79e1339c",
    "ac486eb708bcb0a87650d477288fd950a7f8e6fe0e467e276368ac7cca9db3e7",
    "336121046cde65ead09a74e5578db60f0bd91b7c58c2477e5d08e105ff6cc1b4",
    "7ab101295c4e3f6e2b031cd1b1b9e83faf9d3a1223e2fc270ae8434340712831",
    "97b8684422e0ca40e483e362e34c252f3992397c0a80c457596db3818f06d021",
    "61936e0591af6f306f7042498d341bf85903dd91bd8f4c641494e78f04b5533f",
    "d9cbcf7f9ba7442297a07d4fba7f86d270c144d87bc6f3428419588b3d52c29d",
    "388aeaa1a9bf75741a97306e9668bcc1de7a4dd405d02a91064c93d8d9d0762c",
    "105f2e9e4c811a6fbc07707cd0e0e3096a3dd6efa9ec6c6141ae0ef9a3c5e5fa",
    "6fdb892030f5dc67602b539d3945418a5ccc34c814a52714f9b49c720ad607f8",
    "ab2f7f43e899f14819e0c4c17f986f6d6788e5da104cdbf972c7a491e5459dd7",
    "9d9989d72608e2e06d667f7616e58a6367e82773bc9ca4d5dd5b07915aedc8ec",
    "0bc901392fb015cc04f6924547945c81fa91d6e97146c9c44a6de3135d3e3fbe",
    "10158568a14647a95c2883fc47d380b5e58284dfd29d93c3523964fdbc5f51cb",
    "0a3d75430fc42f8989aa80cc44480c489b66be6e658d03d0e43a548280047793",
    "861bfd0e3a6b67b5037978abd95d4714ea1a452613369f04d250b47a81fcdac2",
    "905e1e8710e811830d9e9ed5e8fd5ea1f95a29fda2c5e7cb85dcaaf7af7e5e19",
    "f57b8fdccbee2f9e1d8c62a3be8405327fd163cac3dec64d769aa8c0a88b6056",
    "e76c64d469a991f584d08694c2fd2db82ef5b77c0030ce3f4e208dfe8782596b",
    "2f3029e6d2f659ef607454e66ba3b42da819288fb1f203812d886e07b3eb560b",
    "3778b4e5448d26dfb269645e2b8c9c2382cf7d1ce24506628c08e46e6d8991c6",
    "e1eb350d253b053ba2106fdc58df8c466ba5dfba0234ec75fbbf99335755e362",
    "c214791dfa6282b71ba92af1181e64cbd634e5cacad47b234b9dfe2c87773b2d",
    "b1015ca0dd6c8f6659cdce6b87d0b795ef4b95c9ee18b576435d74ef04bd4c75",
    "8a2db6645c492c1a69fc900cd52954f1046e981eff79895d80e8982825fc6860",
    "770ec5f7a0ff976445665eca151e3881fd7ee26df44c89cc4903fe490f72d2d8",
    "d0a43fd024855f9ac73f929c0ab82b4ffbb16e1c14a40fcc4485823d74b3443e",
    "c10a8d0c0b64c118ce5759e2540bf9ace31eeb6bbcfba655c156777824cd659a",
    "8ca0ea8dcc564452bfec269d34dbca7a89bf4dedba5e15025cfc45439f59d616",
    "d44d97d9ce90bced9942bbcd280ce00212e100d532ae8294b864c0f06a86bc6a",
    "83c42663e59cb6cb0f06cecc231f0b70fa2f733a94ad66cb6858267947b85050",
    "acdd59e441e83ed873b2333d1746c05a944207a9caded88a36b6ff54ac56b56d",
    "6bf47370d0f7e06cf6695eaef5e5e6617daa0f105a4d0e831fb8e6d06bf16ff0",
    "db0bda9eea58f33004b141395f02ca0dcc2c4481c915d50fa20b6f417c9fbfce",
    "9a2d60ebffd5d880e97d8951f114b5a95a4cba0e63f983f18e4f69ee2da0dc6d",
    "74865ec20391596d6426344e5143bb7a211bbca80740825271480d7e8756a874",
    "68078016264ce02ba6e2f34a7df45f27f4ebac674e6dbf2ad92db9e61091915b",
    "e590686c5f9e9a979d2454078a391bc7f0df4a4b8b3149f281a0bd78ab853cc1",
    "77db46b077eb7aa625f71cd58770e667b9fbf1bac319268557ff1fb1b9346e25",
    "0aa1172bc5280c07b9c77077d46171553fe0de2b823631eac37b63657ec4bddd",
    "6b0cdfa3998302ca41ab181bf5aa11d250647fbf892c430d9a650b6891d6bdf4",
    "4bc07614dd02cd879e06ff215782ad1386dea5a5764e88ba7e43292db39e29c8",
    "bddeed8bdded4550bae2aa9df9a7c0f02df0bc97bba1bf0b2ab864d75d32a74f",
    "5bee0eebc7700d3877ef60b586afe0c2ce352b53ddc085e92b65493daadf13b6",
    "5cbe95d0090e6dc63b52104421dc7066cbdc9646304a2e7e23063284f61e8ec6",
    "68dc0bb07d802ab26381d36256cf8da72cffce8dc7f7a9f3291e742019ae1901",
    "edf54b2ded02fb47bb50da0c8bec342e3fb3b79d2ad0d9290fc11ef86c12a1ce",
    "c788dd06d3b4f02e31a8678e10674f3c93e90ba1f54000bb4fd01aa64c2a0a4c",
    "e49a75f8b477ea3234f2b9b297a1c72754f1e4db99edf8747edcca3ddc8c790d",
    "9b514e8be51714f256a33566572683c78e5db1cbdfd047128150a234f36fcd96",
    "00fd2d65f2ae6e01e9ab89b9d1ed357c4738fb705670622d858ee4b3ff0067df",
    "929eb7b49621bae7c903a2b6145ea6277431c0da9f53f0424526383f112b04b3",
    "ce650a0d0cd23fbfb26f8866ffdc8c4dda57b316503e8901dc606c9925d2383f",
    "8756d561916123747bac903b658fecec88276594609627618921f48ffb70045c",
    "c5b58770d28b649f95e027d5b834f06f7419bda49fecdcc7af52e98d76eb1eae",
    "193b49a983fec3c6cb211ac48356fdd3131eacd473f3d7a12bcea4d2a70fe41a",
    "770c7e3c6ccf4c87d24f50770d4272950d6c7e801bc43c56a929d95e1cd98878",
    "fd90ded4540ad714bd9635676d5e8344519747206327cded02e06176173dba0d",
    "29c02cd8e914819206c1870d832ef3591950264585e710f49d49cb80c158e0a5",
    "3efb329c800a7b4ebaadbf9a885150e5bd405a7ba02955aa9b562d54c6152ff2",
    "eb38c082ed0983cf55fc0674a95653e452f02715516bb8f88b20e9bbdfb274a1",
    "6f5d9faee76331d43ac45fb3badae5e35daac339e79800d0b2e9d964bc274254",
    "1ca89af0beed54cca913b406d23ae3a9c7ec117cc4a8af16fbd15c4a69f93ca7",
    "d890969a45e216badd221f954fc6107fe22c5945b865f2e29febb0131cee0b39",
    "ce650a0d0cd23fbfb26f8866ffdc8c4dda57b316503e8901dc606c9925d2383f",
    "9db5223e28c54ad1b66a6d4bf5f59d2ef7098aec5e1a8038e102167c1b1d0512",
    "ca21ddcc5a23d71849f8bce29e69c69e9647633c498c7c3ea4301135d2102407",
    "d7c3b431e29d407b3c115b5ac9f1586a2760ddc878e8edfaf0de77f813b7e58a",
    "93774e56f94c98931cf6795c636e9920166fc4cd82fdbd58e10e666c41733439",
    "145698283dcdcacc1e2385e809b56985b00c577d401ef80d68ffb8ce376e962d",
    "f1af0b98cff88824be89a5848616d32f6714495589a9e4cc55edef1126002b49",
    "1126efaac1cf87f91db0d7655f649d888f048382d412b4dc0d31d3166de92cc2",
    "a7825b2e08bfe16c19c4946a6b1464729f50361de0d58ddb8c2f8f96fb2031b9",
    "acdd59e441e83ed873b2333d1746c05a944207a9caded88a36b6ff54ac56b56d",
    "3b49882efa2dec5a9948774d7f134aa0b99a90d7c1ccf7bb7b60ef3e6f62c893",
    "25156d9d73ab152644ab4c607ace2310dbb9cd9d3e8a0b54afeeb2c95f01c76e",
    "67690a1f11b000bfd3949b49c8e65fb262e717fbc08125ee5bdb5ab2241f7e88",
    "6678adb5ad2c702da6c5d4f2d8fc07ea932365c23314d24b533627f3a9d55084",
    "a8e8ccc8f3c232a6de065a975e6cd1f2f3765d91f17af2b84e57bcc7407d4984",
    "c5227d5daa10504b10f01ebf284c3fefd6d890c5d7bd24d9090e7a7253340ba9",
    "03268121596874ef50434d321d9738bef913bc6187c4398d1ff659fdc781008a",
    "8e37acdde6968e35d03226a5586874d45db41fc947ecef93f3d102da30665bb4",
    "333ae1faad2b380ef7ec342a569538a1fdd425225cbb4480d8381b68850e0be5",
    "d54da28d50490b52c542f70ef06580159682fdea819e87133c856559d0547284",
    "dda07c6d5b8a24eae991483023f46ba2d7252941df700f32cb9632ea0c404170",
    "f24cdc3a22b714e39f591153628ad56f742e98b91ab6209124edfb46e781fc86",
    "1ca89af0beed54cca913b406d23ae3a9c7ec117cc4a8af16fbd15c4a69f93ca7",
    "ae42d8e3011025689a9eea80bfe4a1f7b4a4a0283f6273f1bd49aa769436f635",
    "8f6c5a135eee8a50a94058e90a3589a2ca4f6c0dd47903e5e22ab390b20665e9",
    "2016a43b4f0136e5e6830551822f6e4f997d383825d57d4ba6a799c293bc5887",
    "a323146a4e250fab7cdec76b5688062c7fab810d88b18c6166ddb13fc49c6209",
    "180d5ee87ce4688f880d8b16acefb0e4d06c96d9108027afa0a6972d46110740",
    "32148df34af07f5e98ee6c753c0f9db009118302c9b86117461f03b01f43ead5",
    "8ff804d4ca0c54157101f15fc2137b781f141895bd653ba2abcefb9ebf3bd16b",
    "6973603d564711b87a62c32d48e41b70ab09dfda3c1b1d6825786cad55ab9b20",
    "fde3111415998e04b3cae74be3259d46a91339218c3f39ebaaeccd1f59984d72",
    "cce4392194214b401095fa08f395a156d858d976f68b311ddd08da09b7ccf1f6",
    "3af6a14bf9590440aaa19c07c4d00b4ab284ff91a4f9633502fa9649b9049119",
    "f1b7b32745f3e7bbcf361ad60c92b9d18cad0456543c90359500d5093de90a42",
    "fdb13247fb436037b80a80493fe503d46b981050e29384b1dded4f93ed56b0ba",
    "e15a3b67afd2ddcbbb752ab1e4d098d462c8d714cae18d8fb699b11f4f582609",
    "ecd1a7545ed51f1d0a7355c6d7a65104ab1585e229fb294dc9599d8b1edcbb6f",
    "fca0e1e347409c860d6d16e3d8fd3b72f3919be3930272b109049f6468e5d506",
    "1283939d4071331573a4546342ba568400f4654dc7cc378b83ca55e2ee944c3c",
    "e8cd39187b58ec93b72503070d904c2dfc245e236c84c3fa3ab6413fd8141fe7",
    "3d0e419859f47b5344bf24038c3a81d2a421777406c50e253bd9d952cfcb82a3",
    "f93eecba03ea69ade19e3eb5aca0ca121276a65229f43dfcca3cfc3e7e2658ac",
    "7afd5a13f444384bcf63ca8dbb841baf83261dda7de569ed8d9df316dc1b9318",
    "efaa64d3b43c5fb4b8753e824e0732aefb1887ab2f5f953201c4f7f2e9f5a466",
    "9a2d60ebffd5d880e97d8951f114b5a95a4cba0e63f983f18e4f69ee2da0dc6d",
    "623bd1c0b6d5353be0f836871c7cc7c178396a7afcaa0558e87a9d59f08558ca",
    "957ae005cf125f965cab993b817421062bab2169545509d0c1ec914e818cc9fc",
    "035fbbd71764b4c5cd492da4ca2d54884bb8a653f12d9d80eeeab0210304acd4",
    "049141ee16b7ad8ccf1997935b03f9442c545914dae038a9a775fc9650090631",
    "c7d31f8529adacf73da5155736111648942690cd548f1f7c5794e0ee07e54fd1",
    "cd5f3803ac0ac55564a34f6a7e60a1f800fa0c75df3e8c32eb0797947a6e26f5",
    "f5443013e874a5f126e603d7f20ed88803bae35bb1c09d4e36d3f27a6fe58cc4",
    "6b18f626b94d6acccf02ef8f69e92e6c167dbf00e85b978bd5d29d2d99cc46fd",
    "0cb69fe2f8fa7e6fb7678812195dfbf70cab90e8a2f86f0d03f4a48724ce96fa",
    "01c9f9381428c1a046e0840ac5f9928f89785f2958a1fd525c5b1698db17a7ca",
    "db0bda9eea58f33004b141395f02ca0dcc2c4481c915d50fa20b6f417c9fbfce",
    "9a2d60ebffd5d880e97d8951f114b5a95a4cba0e63f983f18e4f69ee2da0dc6d",
    "4f5a0bd8a5326bc732080ed49bbb7245f7f015c5dd76582cc706e5fe9e158b5c",
    "9aab7cfdb2c89e3e401d5e1f903f5509f493bd3cedf705b05c56a0ec167eabde",
    "bbf4800a6189b16558d560e2b81b496cccb35bdfd27e69574fe3c0be38caa612",
    "63c5c1c90682a46805511fcd4dde606c26a25da878a88c89ac51925b133f30b9",
]

# grammar -> sha256 of the hex forms of death_by_level(g, n) for n = 0-5
DEATH_DIGESTS = {
    "grammar2": "1999a82c98e2e66b4443c66d9a1a95debe80d701a92b86125fd9c3f8e4b9e2e1",
    "grammar4": "71b3c7a9b0b20f6eb22b5ce8cfc6e2153d96ae7de2e4600fe20cb5c79901b36f",
    "segment_edge": "af4aad27064c97512adfda58cdc53d8ba8b920b21f07cc946bdadd0b3e3e7ef9",
    "duplicate_target": "c24a62f551b0fcf1cb1b26eb4faf47aebbd0e04b44fcb3cbcdbd55f17919fa04",
    "two_site_start": "9bc8aa55aafc4ba78f134933fd70a4f98de34342b71bc97e6ea73f46a9f4bb93",
    "two_siteless_start": "6487244e06e5815f122d1ae0946dde5958c6011ccc54a1066e6e8dd1c73598c9",
    "syn130": "72c338287b0b787fc055de35b3990710434fca6d18069a2a5e8ed3245acc44f0",
    "random0": "dd3f0b84d39e0171ea27311b93ab6170d136f46647a3d263ded1e3498eff59f1",
    "random1": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random2": "7b2e57139a78236efe7797e5aacde6e1f9ddcadacf0f06923f5d8fd1e06aef3e",
    "random3": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random4": "1ebc844346da4e39c29326160a1fd9d68d0f834fc07e44208ff13787c2eb04a5",
    "random5": "e8b979ac0c50a6d3b77710867050a88c40ec86df372249ddac9c1a9475e52c5c",
    "random6": "5582afc16b0b37554c61324f13b8fd358862cd1df7e666035e28a7a3c6c47c5a",
    "random7": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random8": "2df13ed80ad19c8521a80bd4bcc4ff28f855cf718a9bd9953b9359d87298e05e",
    "random9": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random10": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random11": "b6299a32f3bd1a9fbd09416ccae7175ca9868d28068d1afa5ef3dcff40bcf181",
    "random12": "bb21de1f36367255a1761d117694e4d83407a6b7e3dd324d787567122949347e",
    "random13": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random14": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random15": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random16": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random17": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random18": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random19": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random20": "3927b1264cae8b96bfc6942929bc282fb68ac98ba5bd907637b7c77aa086bc9d",
    "random21": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random22": "dac26fde7eb7ccbb6373caca808377ddb4641a047add9925af9057a909ca1580",
    "random23": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random24": "cc4c9e1681cebf2ba522c90e762b70a3c8ad68d2570fdfe295d1632680487b2f",
    "random25": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random26": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random27": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random28": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random29": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random30": "290eeff748393edbcc5d57b2ec0cc5ba0bf2d0890a755e03aca542ff377ec54c",
    "random31": "64ae0d5c7d4ccadbd4c2f6959a454a0dbbb7593231f839dfff85fc34b5ceeb59",
    "random32": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random33": "8ec28c0a8421007df92d64cdb47a03ee96186e6619543e6240011fd2d6ec4ea2",
    "random34": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random35": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random36": "076766da97fab82cd6db9addb99ec1a6c6f589271be067c3fa6081351322c1e5",
    "random37": "e6fb066c5cb195af27e581d0cde77dfbfa2b135181c11e793ec8a94e3712c6eb",
    "random38": "16aed403d5d81e68c47eaee941f05348504dabaf0ee128332bd4a2acb2aee739",
    "random39": "e0a0492d8822b85d1b464ab8ffa7384af2cf6d9471d3917d694650372b907463",
    "random40": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random41": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random42": "ad25fdf447051c88f634700b6cfec46a39a20e0f754be054b72db967ddbb2f6c",
    "random43": "7c592b7d0d8721edada1e15332508df12abc6124542fb82a86be17daea8e1db1",
    "random44": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random45": "2c5f838d9f0ad15e69c044087000676e57a16410def426bb3dd507a7b78be2f7",
    "random46": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random47": "51ce1d1f068cd4d1e261893a4683af1483958ae15bec8e8095b2d5dadadf0217",
    "random48": "555b97cfe2270419d7cb88c1b4df4cbb7f3b4d4c5ee0cc7ef43a405f609de73e",
    "random49": "c85080ea0a5afcb8b46971daac09114e0bdcd2a6d53739b4ebc2b476671c9e82",
}


def extinction_digest(ev):
    state = (ev.q.tobytes(), ev.iterations, ev.residual.hex(), ev.converged)
    return hashlib.sha256(repr(state).encode()).hexdigest()


def death_digest(g):
    levels = tuple(br.death_by_level(g, n).hex() for n in range(6))
    return hashlib.sha256(repr(levels).encode()).hexdigest()


def test_extinction_digests_cover_every_case():
    assert len(EXTINCTION_DIGESTS) == len(EXTINCTION_CASES)
    assert tuple(DEATH_DIGESTS) == PINNED


@pytest.mark.parametrize("case,digest", list(zip(EXTINCTION_CASES, EXTINCTION_DIGESTS)),
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(EXTINCTION_CASES)])
def test_extinction_output_pinned(case, digest):
    name, setting = case
    assert extinction_digest(br.extinction(pinned_grammar(name), **setting)) == digest


@pytest.mark.parametrize("name", PINNED)
def test_death_by_level_pinned(name):
    assert death_digest(pinned_grammar(name)) == DEATH_DIGESTS[name]


# The Kleene step as a fresh array per call: tree products scattered into
# ones, then np.minimum(nil + bincount(site, prob * tree_prod(q)[tree]), 1).
# extinction and death_by_level must match it bit for bit.
def reference_tree_prod(idx, q):
    out = np.ones(len(idx.tree_ids))
    with_sites = np.flatnonzero(np.diff(idx.tree_start))
    out[with_sites] = np.multiply.reduceat(q, idx.tree_start[with_sites])
    return out


def reference_offspring(idx, q):
    """Every site's offspring generating function g_i evaluated at q."""
    spawned = idx.prob * reference_tree_prod(idx, q)[idx.tree]
    return idx.nil + np.bincount(idx.site, spawned, minlength=len(idx))


def reference_step(idx, q):
    return np.minimum(reference_offspring(idx, q), 1.0)


def reference_extinction(g, tol=1e-12, max_iter=10**6):
    """(q, iterations, residual, converged), testing every step for a decrease."""
    idx = g.index
    q = np.zeros(len(idx))
    if not len(idx):
        return q, 0, 0.0, True
    residual = float("inf")
    for iteration in range(1, max_iter + 1):
        nxt = reference_step(idx, q)
        step = nxt - q
        if np.fmin.reduce(step) < 0.0:
            raise ValueError("decreased")
        residual = float(step.max())
        q = nxt
        if residual < tol:
            return q, iteration, residual, True
    return q, max_iter, residual, False


def reference_death(g, n):
    idx = g.index
    positions, probs = start_law(g)
    q = np.zeros(len(idx))
    for _ in range(n):
        q = reference_step(idx, q)
    return float(probs @ reference_tree_prod(idx, q)[positions])


def sized_trees_grammar(sizes, targets):
    """Trees t1, t2, ... with sizes[j] sites each (t1 initial, the rest
    auxiliary on S); every site adjoins each tree in targets with
    probability 0.2 and keeps the rest as nil mass."""
    trees, phi = [], []
    for j, size in enumerate(sizes):
        sites = [f"X{j}_{i}" for i in range(size)]
        leaves = [{"label": "S", "site": s, "children": [{"anchor": "a"}]} for s in sites]
        if j:
            trees.append({"id": f"t{j + 1}", "type": "auxiliary", "root": {
                "label": "S", "children": [{"foot": "S"}, {"anchor": "b"}, *leaves]}})
        else:
            trees.append({"id": "t1", "type": "initial",
                          "root": {"label": "S", "children": [{"anchor": "a"}, *leaves]}})
        for s in sites:
            phi += [{"site": s, "tree": t, "prob": 0.2} for t in targets]
            phi.append({"site": s, "tree": None, "prob": 1.0 - 0.2 * len(targets)})
    return parse({"start": "S", "trees": trees, "phi": phi})


def kleene_edge_grammars():
    """Shapes at the edges of the product layout, with their names."""
    yield "segment_edge", segment_edge_grammar()
    yield "nil_only", sized_trees_grammar((2, 3), ())  # bincount gets no weights
    yield "first_siteless", sized_trees_grammar((0, 2, 1), ("t1", "t2", "t3"))
    yield "last_siteless", sized_trees_grammar((2, 1, 0), ("t2", "t3"))
    yield "middle_siteless", sized_trees_grammar((1, 0, 2), ("t2", "t3", "t1"))
    yield "only_siteless", parse(minimal_document())  # also: zero sites
    yield "siteless_pair", two_siteless_start_grammar()
    yield "one_tree", sized_trees_grammar((3,), ("t1",))
    yield "block_end", block_end_grammar()


def block_end_grammar():
    """R and X each adjoin t2 at 0.41, so q_n = 1 - 0.41^n at X: the default
    tol is met on step 32, the last of extinction's second block."""
    return r_x_grammar([("R", "t2", 0.41), ("R", None, 0.59),
                        ("X", "t2", 0.41), ("X", None, 0.59)])


# extinction tests once per block of BLOCK steps on every grammar below
# (none has over 510 sites), so max_iter also lands on both sides of a
# block's end, with and without a tol that can be met
BLOCK = br.MAX_BLOCK
KLEENE_SETTINGS = ({"tol": 1e-12, "max_iter": 1000}, {"tol": 0.0, "max_iter": 5},
                   {"max_iter": 1}, {"tol": 1e-6, "max_iter": 100},
                   *({**tol, "max_iter": n} for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)
                     for tol in ({"tol": 0.0}, {})))


def kleene_oracle_grammars():
    yield from kleene_edge_grammars()
    yield from ((f"random{seed}", random_proper_grammar(seed)) for seed in range(200))
    yield from verdict_corpus(1)


def test_kleene_matches_reference_bit_for_bit():
    edges = dict(kleene_edge_grammars())
    sizes = {name: np.diff(g.index.tree_start).tolist() for name, g in edges.items()}
    assert sizes["first_siteless"][0] == 0 and sizes["last_siteless"][-1] == 0
    assert sizes["only_siteless"] == [0] and sizes["siteless_pair"] == [0, 0]
    assert len(edges["nil_only"].index.prob) == 0
    assert br.extinction(edges["block_end"]).iterations == 2 * BLOCK
    for name, g in kleene_oracle_grammars():
        assert len(next(br._kleene(g.index, 10**6))) == BLOCK + 1, name
        for setting in KLEENE_SETTINGS:
            assert_kleene_matches_reference(g, setting, name)
        # death_by_level runs whole and partial blocks too
        for n in range(2 * BLOCK + 2 if name in edges else 7):
            assert br.death_by_level(g, n).hex() == reference_death(g, n).hex(), (name, n)


def assert_kleene_matches_reference(g, setting, name):
    ev = br.extinction(g, **setting)
    q, iterations, residual, converged = reference_extinction(g, **setting)
    assert (ev.q.tobytes(), ev.iterations, ev.residual.hex(), ev.converged) == (
        q.tobytes(), iterations, residual.hex(), converged), (name, setting)


def test_kleene_in_two_step_blocks_matches_reference():
    # from 2,730 sites a block is two steps, the fewest there are
    g = synth_grammar(1, 5000)
    assert len(next(br._kleene(g.index, 10**6))) == 3
    for setting in ({}, {"tol": 0.0, "max_iter": 3}, {"max_iter": 1}, {"max_iter": 2}):
        assert_kleene_matches_reference(g, setting, "synth5000")
    for n in (0, 1, 3, 4):
        assert br.death_by_level(g, n).hex() == reference_death(g, n).hex(), n


def r_x_grammar(entries):
    """Site R on the initial tree t1 and site X on the auxiliary tree t2;
    entries lists the phi entries as (site, target, prob)."""
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"].append({"id": "t2", "type": "auxiliary",
                         "root": {"label": "S", "site": "X", "children": [
                             {"anchor": "b"}, {"foot": "S"}]}})
    doc["phi"] = [{"site": s, "tree": t, "prob": p} for s, t, p in entries]
    return parse(doc)


def nonfinite_grammar(r_nil, x_to_t2, x_nil=0.7):
    """R adjoins t2 at 0.5 with nil mass r_nil; X adjoins t2 at x_to_t2
    with nil mass x_nil."""
    return r_x_grammar([("R", "t2", 0.5), ("R", None, r_nil),
                        ("X", "t2", x_to_t2), ("X", None, x_nil)])


def nan_beside_negative_grammar():
    """R's nil mass is NaN; X adjoins t2 at -0.2, so its iterates would fall."""
    return r_x_grammar([("R", None, math.nan), ("X", "t2", -0.2), ("X", None, 0.9)])


NONFINITE_GRAMMARS = {
    "nan_nil": lambda: nonfinite_grammar(math.nan, 0.3),
    "inf_entry": lambda: nonfinite_grammar(0.5, math.inf),
    "nan_beside_negative": nan_beside_negative_grammar,
}


@pytest.mark.parametrize("name", list(NONFINITE_GRAMMARS))
def test_nonfinite_phi_is_rejected_up_front(name):
    # a NaN or infinite entry would only ever give NaN iterates (with a
    # RuntimeWarning for inf * 0), so it is refused before the first step
    g = NONFINITE_GRAMMARS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for setting in ({"max_iter": 50}, {"tol": 0.0, "max_iter": 3}, {"max_iter": 1}):
            with pytest.raises(ValueError, match="NaN or infinite"):
                br.extinction(g, **setting)
        for n in (0, 1, 5):
            with pytest.raises(ValueError, match="NaN or infinite"):
                br.death_by_level(g, n)


# (grammar entries, extinction keyword arguments); the ids are those the
# cases had when each pinned the digest of the NaN iterates it returned
NONFINITE_SETTINGS = [
    pytest.param((math.nan, 0.3), {"max_iter": 50}, id="entries0-setting0-"
                 "5bfa024d8478f7ea31cbe63938a4e7881e93ec6b02b6a9336296619f54fb0101"),
    pytest.param((math.nan, 0.3), {"tol": 0.0, "max_iter": 3}, id="entries1-setting1-"
                 "e48f616bce7dad558ae1fd18717b63a599f3cdae01de96aac52c0903c64ddde3"),
    pytest.param((math.nan, 0.3), {"max_iter": 1}, id="entries2-setting2-"
                 "df26b49a8f27605a8edeb367cf7e0f742991da58f676eeb35521e1484347c850"),
    pytest.param((0.5, math.inf), {"max_iter": 50}, id="entries3-setting3-"
                 "1ee26596f19930588ce3f775504fe4847e8126b622b2b0bcc1084555bf0570d1"),
    pytest.param((0.5, math.inf), {"tol": 0.0, "max_iter": 3}, id="entries4-setting4-"
                 "fc5a4f9248bb21447c765cfc2aec8dda43920e14f529c929825c828a82922e8b"),
    pytest.param((0.5, math.inf), {"max_iter": 1}, id="entries5-setting5-"
                 "bf379124f8812adeb6e474394bfc6465e14093c5fcdee74e23aae92811f39f0c"),
]


@pytest.mark.parametrize("entries,setting", NONFINITE_SETTINGS)
def test_extinction_nonfinite_entries_pinned(entries, setting):
    # each setting, the one-step and zero-tolerance runs too, refuses the
    # entry without a warning instead of returning NaN iterates
    g = nonfinite_grammar(*entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN or infinite"):
            br.extinction(g, **setting)


# grammars that break the phi contract, with the first site that breaks it
CONTRACT_BREAKERS = {
    "nan_nil": (lambda: nonfinite_grammar(math.nan, 0.3), "R"),
    "nan_beside_negative": (nan_beside_negative_grammar, "R"),
    "inf_entry": (lambda: nonfinite_grammar(0.5, math.inf), "X"),
    "negative_entry": (lambda: nonfinite_grammar(0.5, -0.2), "X"),
    # R's nil mass sums to 0.5, but its running sums 0.5, 0.3, 1.0 fall
    "offset_nil": (lambda: r_x_grammar([("R", "t2", 0.5), ("R", None, -0.2),
                                        ("R", None, 0.7), ("X", None, 1.0)]), "R"),
    # X's mass is 1.8, on which the methods would disagree: start termination
    # 1.0 by extinction, 1.475 by the depth-3 enumeration and 0.9535 by the
    # Monte Carlo, which renormalizes each site
    "heavy_nil": (lambda: nonfinite_grammar(0.5, 0.3, x_nil=1.5), "X"),
    # X's mass is 0.5, on which the methods would disagree: extinction and
    # the enumeration lose the missing mass (start termination 0.643 and a
    # depth-3 sum of 0.63), the Monte Carlo gives it to nil and the sampler
    # to the site's last entry (1.0 each)
    "light_nil": (lambda: nonfinite_grammar(0.5, 0.3, x_nil=0.2), "X"),
    # each entry is finite, but R's nil mass overflows to inf
    "overflowing_nil": (lambda: r_x_grammar([("R", None, 1e308), ("R", None, 1e308),
                                             ("X", None, 1.0)]), "R"),
}


@pytest.mark.parametrize("name", list(CONTRACT_BREAKERS))
def test_every_numeric_path_refuses_phi_off_contract(name):
    # SiteIndex alone decides which phi values a numeric path accepts, so
    # all five entry points refuse the grammar with one and the same error
    make, site = CONTRACT_BREAKERS[name]
    g = make()
    calls = [lambda: br.extinction(g), lambda: br.death_by_level(g, 3),
             lambda: sim.estimate_termination(g, 100, 5, seed=0),
             lambda: sim.sample_derivation(g, seed=0),
             lambda: sim.enumerate_derivations(g, 3)]
    messages = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError,
                               match=f"site '{site}' has a negative or nonfinite") as info:
                call()
            messages.add(str(info.value))
    assert len(messages) == 1


def test_site_mass_is_capped_at_properness_tolerance():
    # a site must sum to 1 within PROPERNESS_TOL; a site whose entries sum
    # further above or below 1 is off contract
    for x_nil, bad in ((0.7 + 0.5 * PROPERNESS_TOL, None), (0.7 - 0.5 * PROPERNESS_TOL, None),
                       (0.7 + 2 * PROPERNESS_TOL, "X"), (0.7 - 2 * PROPERNESS_TOL, "X"),
                       (1.5, "X"), (0.2, "X")):
        g = nonfinite_grammar(0.5, 0.3, x_nil=x_nil)
        assert g.index.bad_site == bad, x_nil
        if bad is None:
            assert br.extinction(g).converged


def test_unguarded_iterates_never_fall():
    # with finite, nonnegative phi no step of extinction is tested for a
    # decrease; each iterate must be >= the one before, bit for bit
    grammars = [g for _, g in kleene_edge_grammars()]
    grammars += [random_proper_grammar(seed) for seed in range(50)]
    for g in grammars:
        last = np.zeros(len(g.index))
        for n in range(1, 40):
            q = br.extinction(g, tol=0.0, max_iter=n).q
            assert (q >= last).all()
            last = q


def parse_supercritical():
    from conftest import GRAMMAR2
    from ptagcheck.grammar import load_grammar
    return load_grammar(GRAMMAR2)


def test_consistency_linkage(grammar4):
    # subcritical spectral radius forces certain termination everywhere
    assert reference(grammar4).spectral_radius() < 1.0 - 1e-9
    ev = br.extinction(grammar4)
    reachable_sites = [s for t in grammar4.trees for s in
                       (n.site_id for n in t.sites)]
    for site in reachable_sites:
        assert ev[site] == pytest.approx(1.0, abs=1e-6)


def test_start_termination(grammar4, grammar2):
    assert br.start_termination(grammar4, br.extinction(grammar4)) == {
        "t1": pytest.approx(1.0, abs=1e-9)}
    st = br.start_termination(grammar2, br.extinction(grammar2))
    assert st == {"t1": pytest.approx(0.0004 / 1.9404, abs=1e-10)}
