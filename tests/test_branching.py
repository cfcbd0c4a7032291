import numpy as np
import pytest

from ptagcheck import branching as br
from ptagcheck import simulate as sim
from ptagcheck.consistency import check_consistency
from ptagcheck.expectation import SiteIndex, build_M, build_N, build_P
from ptagcheck.grammar import load_grammar, validate
from ptagcheck.polynomials import SparsePolynomial, TermCapExceeded
from conftest import (GRAMMAR4, minimal_document, parse, random_proper_grammar,
                      segment_edge_grammar, two_site_start_grammar)

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
    assert g0 == SparsePolynomial.variable(0, 5)  # A1 is the first site
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


def test_level_gf_without_start_site():
    g = parse(minimal_document())
    with pytest.raises(br.NoStartSiteError):
        br.level_gf(g, 1)
    with pytest.raises(br.NoStartSiteError):
        br.start_tree(g)


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


def test_offspring_matches_symbolic_gf():
    rng = np.random.default_rng(5)
    for _, idx, gfs in oracle_cases():
        k = len(idx)
        for q in [np.zeros(k), np.ones(k)] + [rng.random(k) for _ in range(5)]:
            symbolic = [gf.evaluate(q) for gf in gfs]
            assert np.abs(idx.offspring(q) - symbolic).max() <= 1e-15


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


def test_extinction_rejects_decreasing_iterates():
    # unvalidated: X -> t2 at -0.2 makes the second iterate fall below the first
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"].append({"id": "t2", "type": "auxiliary",
                         "root": {"label": "S", "site": "X", "children": [
                             {"anchor": "b"}, {"foot": "S"}]}})
    doc["phi"] = [{"site": "R", "tree": "t2", "prob": 0.5},
                  {"site": "R", "tree": None, "prob": 0.5},
                  {"site": "X", "tree": "t2", "prob": -0.2},
                  {"site": "X", "tree": None, "prob": 0.9}]
    with pytest.raises(ValueError, match="decreased"):
        br.extinction(parse(doc))


def test_numeric_form_built_once(monkeypatch):
    built = []
    from_grammar = SiteIndex.from_grammar.__func__

    def counting(cls, g):
        built.append(g)
        return from_grammar(cls, g)

    monkeypatch.setattr(SiteIndex, "from_grammar", classmethod(counting))
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


def parse_supercritical():
    from conftest import GRAMMAR2
    from ptagcheck.grammar import load_grammar
    return load_grammar(GRAMMAR2)


def test_consistency_linkage(grammar4):
    # subcritical spectral radius forces certain termination everywhere
    from ptagcheck.consistency import spectral_radius_estimate
    rho, _ = spectral_radius_estimate(build_M(grammar4).values)
    assert rho < 1.0 - 1e-9
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
