import dataclasses
import json
import math

import numpy as np
import pytest

from ptagcheck import branching as br
from ptagcheck import consistency as cons
from ptagcheck import grammar as gr
from ptagcheck import simulate as sim
from ptagcheck.expectation import build_M, start_mixture
from conftest import (GRAMMAR4, branching_family, critical_chain, finishing_sites,
                      minimal_document, parse, pinned_grammar, random_proper_grammar,
                      reference, spectral_radius)

M4_POW4_EXPECTED = np.array([
    [0, 0.1728, 0.1728, 0.1728, 0.0688],
    [0, 0.0432, 0.0432, 0.0432, 0.0172],
    [0, 0, 0, 0, 0.0002],
    [0, 0.0864, 0.0864, 0.0864, 0.0344],
    [0, 0, 0, 0, 0.0001],
])


def test_row_sum_test_grammar4(grammar4):
    top = build_M(grammar4).values.sum(axis=1).max()
    assert abs(top - 2.4) < 1e-12


def test_row_sum_test_grammar4_fourth_power(grammar4):
    m = build_M(grammar4).values
    m4 = np.linalg.matrix_power(m, 4)
    assert np.abs(m4 - M4_POW4_EXPECTED).max() < 1e-4
    assert m4.sum(axis=1).max() == pytest.approx(0.1728 * 3 + 0.0688, abs=1e-12)


def test_row_sum_test_zero_matrix():
    # every site rewrites to nil: M is zero and passes at once
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["phi"] = [{"site": "R", "tree": None, "prob": 1.0}]
    g = parse(doc)
    assert build_M(g).values.tolist() == [[0.0]]
    report = cons.check_consistency(g)
    assert (report.verdict, report.squarings_used) == (cons.CONSISTENT, 0)
    assert report.max_row_sum_trace == [(0, 0.0)]
    assert (report.rho_estimate, report.rho_lower_bound) == (0.0, 0.0)


def test_check_grammar4_consistent(grammar4):
    report = cons.check_consistency(grammar4)
    assert report.verdict == cons.CONSISTENT
    assert report.squarings_used == 2
    trace = dict(report.max_row_sum_trace)
    assert trace[0] == pytest.approx(2.4, abs=1e-12)
    assert trace[1] == pytest.approx(1.6, abs=1e-12)
    assert trace[2] == pytest.approx(0.5872, abs=1e-12)
    assert trace[2] < 1.0
    assert report.rho_estimate == pytest.approx(0.5872 ** 0.25, rel=1e-9)
    assert report.rho_estimate < 1.0


def test_check_grammar2_inconsistent(grammar2):
    report = cons.check_consistency(grammar2)
    assert report.verdict == cons.INCONSISTENT
    assert report.rho_lower_bound > 1.0 + report.tolerance
    assert all(math.isfinite(v) for _, v in report.max_row_sum_trace)


def test_check_single_site_half():
    # one site total: the auxiliary tree's root feeds itself, M = [[0.5]]
    doc = minimal_document()
    doc["trees"].append({"id": "t2", "type": "auxiliary",
                         "root": {"label": "S", "site": "X", "children": [
                             {"anchor": "b"}, {"foot": "S"}]}})
    doc["phi"] = [
        {"site": "X", "tree": "t2", "prob": 0.5},
        {"site": "X", "tree": None, "prob": 0.5},
    ]
    g = parse(doc)
    m = build_M(g).values
    assert m.tolist() == [[0.5]]
    report = cons.check_consistency(g)
    assert report.verdict == cons.CONSISTENT
    assert report.squarings_used == 0
    assert report.rho_estimate == pytest.approx(0.5, abs=1e-12)
    assert spectral_radius(m) == pytest.approx(0.5, abs=1e-9)


def test_check_rejects_invalid_grammar():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["phi"] = [{"site": "R", "tree": None, "prob": 0.4}]
    with pytest.raises(ValueError, match=r"^site 'R' .* \(its entries sum to 0\.4\)"):
        cons.check_consistency(parse(doc))


def relabel_t2_foot(doc):
    doc["trees"][1]["root"]["children"][1]["children"][0]["foot"] = "B"


def relabel_t3_root_and_foot(doc):
    root = doc["trees"][2]["root"]
    root["label"] = root["children"][0]["foot"] = "C"


def drop_t2_anchors(doc):
    doc["trees"][1]["root"]["children"][0]["children"] = [{"epsilon": True}]


def set_a1_first_prob(prob):
    def change(doc):
        doc["phi"][0]["prob"] = prob
    return change


# grammar4 variants: three that only validate's structural checks refuse
# (False), and three whose phi breaks the input contract at site A1 (True)
CONTRACT_VARIANTS = {
    gr.BAD_FOOT: (relabel_t2_foot, False),
    gr.LABEL_MISMATCH: (relabel_t3_root_and_foot, False),
    gr.EMPTY_YIELD_LOOP: (drop_t2_anchors, False),
    gr.IMPROPER_SITE: (set_a1_first_prob(0.4), True),
    "negative": (set_a1_first_prob(-0.8), True),
    "nan": (set_a1_first_prob(math.nan), True),
}
NUMERIC_METHODS = {
    "check": cons.check_consistency,
    "extinction": br.extinction,
    "death_by_level": lambda g: br.death_by_level(g, 3),
    "estimate_termination": lambda g: sim.estimate_termination(g, 100, 20),
    "sample_derivation": sim.sample_derivation,
    "enumerate_derivations": lambda g: sim.enumerate_derivations(g, 2),
}


def refusal(method, g):
    """The message of the ValueError method(g) raises, None if it returns."""
    try:
        method(g)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("change,bad_phi", CONTRACT_VARIANTS.values(),
                         ids=CONTRACT_VARIANTS.keys())
def test_numeric_methods_share_one_input_contract(change, bad_phi):
    # every numeric method reads SiteIndex.checked(), not validate's
    # findings: all run on a structural break, and all refuse a phi break
    # with checked()'s message
    doc = json.loads(GRAMMAR4.read_text())
    change(doc)
    g = parse(doc)
    assert any(d.severity == gr.ERROR for d in g.diagnostics)
    expected = refusal(lambda g: g.index.checked(), g)
    if bad_phi:
        assert expected.startswith("site 'A1' ")
    else:
        assert expected is None
    assert {name: refusal(method, g) for name, method in NUMERIC_METHODS.items()} == (
        dict.fromkeys(NUMERIC_METHODS, expected))


def test_check_rejects_negative_max_squarings(grammar4):
    with pytest.raises(ValueError, match="max_squarings must be >= 0"):
        cons.check_consistency(grammar4, max_squarings=-1)


def test_boundary_rho_one_is_indeterminate():
    # one site feeding exactly one copy of itself: rho = 1
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"].append({"id": "t2", "type": "auxiliary",
                         "root": {"label": "S", "site": "U", "children": [
                             {"anchor": "b"}, {"foot": "S"}]}})
    doc["phi"] = [
        {"site": "R", "tree": None, "prob": 1.0},
        {"site": "U", "tree": "t2", "prob": 1.0},
    ]
    report = cons.check_consistency(parse(doc), max_squarings=16)
    assert report.verdict == cons.INDETERMINATE
    assert report.squarings_used == 16
    assert report.rho_estimate == pytest.approx(1.0, abs=1e-9)


# random_proper_grammar seeds where the whole M has rho 1 and check says
# Indeterminate, with the start termination that settles each: 0.0 where the
# reachable part has rho 1 and no derivation finishes (Inconsistent), 1.0
# where the rho-1 class is unreachable (Consistent).
INDETERMINATE_SEEDS = {1: 0.0, 3: 0.0, 10: 0.0, 23: 0.0, 28: 0.0,
                       9: 1.0, 13: 1.0, 20: 1.0, 33: 1.0, 40: 1.0, 45: 1.0}


@pytest.mark.parametrize("seed", sorted(INDETERMINATE_SEEDS))
def test_indeterminate_seed_has_a_settled_start_termination(seed):
    g = random_proper_grammar(seed)
    assert reference(g).spectral_radius() == pytest.approx(1.0, abs=1e-9)
    start = br.start_termination(g, br.extinction(g))
    assert all(abs(p - INDETERMINATE_SEEDS[seed]) <= 1e-9 for p in start.values())


# the seeds whose start termination is 1 have their rho-1 class in an
# unreachable part; on those whose start termination is 0 a reachable tree
# cannot finish, so check says Inconsistent
UNREACHABLE_RHO_ONE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: check judges the whole site graph and says "
    "Indeterminate at rho 1, with no reachable, per-class decision")


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=UNREACHABLE_RHO_ONE) if INDETERMINATE_SEEDS[seed] == 1.0 else seed
    for seed in sorted(INDETERMINATE_SEEDS)])
def test_indeterminate_seed_verdict_follows_start_termination(seed):
    expected = cons.CONSISTENT if INDETERMINATE_SEEDS[seed] == 1.0 else cons.INCONSISTENT
    assert cons.check_consistency(random_proper_grammar(seed)).verdict == expected


def test_supercritical_early_exit_bound(grammar2):
    report = cons.check_consistency(grammar2)
    # min-row-sum bound of M itself: rows sum to 2, 1.98, 1.96
    assert report.squarings_used == 0
    assert report.rho_lower_bound == pytest.approx(1.96, abs=1e-12)


def test_monotone_row_sum_information(grammar4):
    m = build_M(grammar4).values
    for k in range(2, 7):
        assert np.linalg.matrix_power(m, 2 ** k).sum(axis=1).max() < 1.0


def test_spectral_radius_grammar4(grammar4):
    assert reference(grammar4).spectral_radius() == pytest.approx(0.6, abs=1e-6)


def test_spectral_radius_grammar2(grammar2):
    assert reference(grammar2).spectral_radius() == pytest.approx(1.97, abs=1e-6)


def test_trace_matches_matrix_power_row_sums(grammar4):
    # each trace entry against numpy's matrix_power, and the Gelfand value of
    # the last power, on powers that shrink (grammar4), grow polynomially
    # (a chain of critical classes) and stay at rho = 1 (seed 9)
    for g, max_squarings in ((grammar4, 64), (critical_chain(3, 2), 6),
                             (random_proper_grammar(9), 6)):
        m = build_M(g).values
        report = cons.check_consistency(g, max_squarings=max_squarings)
        for k, top in report.max_row_sum_trace:
            direct = np.linalg.matrix_power(m, 2 ** k).sum(axis=1).max()
            assert top == direct, (k, top, direct)
        assert report.rho_estimate == pytest.approx(top ** 0.5 ** k, rel=1e-12)
        assert k == report.squarings_used


def test_growth_stops_at_scale_high_with_finite_trace(grammar2):
    # with a tol that no lower bound passes, grammar2's powers grow like
    # 1.97^(2^k): 1.97^256 ~ 1e75 stays below SCALE_HIGH and 1.97^512 passes
    # it, so the check stops there, unscaled and finite, long before 64
    report = cons.check_consistency(grammar2, tol=1e9)
    assert (report.verdict, report.squarings_used) == (cons.INDETERMINATE, 9)
    trace = [top for _, top in report.max_row_sum_trace]
    assert all(math.isfinite(top) for top in trace)
    assert trace[-2] <= cons.SCALE_HIGH < trace[-1]
    assert report.rho_lower_bound <= 1.97 * (1 + 1e-12) < report.rho_estimate < 1.98


def test_more_than_1024_squarings_stay_finite():
    # the critical branching family's powers all equal M, so nothing stops
    # the squaring early; an exponent of 2^1024 or more overflows a float
    report = cons.check_consistency(branching_family(0.5), max_squarings=1100)
    assert (report.verdict, report.squarings_used) == (cons.INDETERMINATE, 1100)
    assert report.max_row_sum_trace == [(k, 1.0) for k in range(1101)]
    assert (report.rho_estimate, report.rho_lower_bound) == (1.0, 1.0)


@pytest.mark.parametrize("classes,period", [(1, 1), (2, 3), (7, 2)])
def test_critical_chain_fixture(classes, period):
    g = critical_chain(classes, period)
    assert gr.validate(g) == []
    assert reference(g).spectral_radius() == pytest.approx(1.0, abs=1e-9)
    assert br.start_termination(g, br.extinction(g)) == {"t0": 0.0}


@pytest.mark.parametrize("max_squarings", (64, 400))
@pytest.mark.parametrize("period", (1, 2, 3, 5))
@pytest.mark.parametrize("classes", range(1, 12))
def test_critical_chain_is_never_consistent(classes, period, max_squarings):
    # no derivation finishes, so Consistent is wrong: rescaling a power by
    # its max row sum flushed the critical diagonals to 0 and said so
    report = cons.check_consistency(critical_chain(classes, period),
                                    max_squarings=max_squarings)
    assert report.verdict != cons.CONSISTENT
    assert all(math.isfinite(top) for _, top in report.max_row_sum_trace)


@pytest.mark.parametrize("p", (0.3, 0.45, 0.7))
def test_branching_family_rho_is_2p(p):
    report = cons.check_consistency(branching_family(p))
    assert report.verdict == (cons.CONSISTENT if p < 0.5 else cons.INCONSISTENT)
    assert report.rho_estimate == pytest.approx(2 * p, rel=1e-12)
    assert report.rho_lower_bound == pytest.approx(2 * p, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a reachable, non-singular critical "
                   "class dies out with certainty (Harris 1963), but check says "
                   "Indeterminate at rho = 1")
def test_critical_branching_family_is_consistent():
    assert cons.check_consistency(branching_family(0.5)).verdict == cons.CONSISTENT


def weighted_away_loop_grammar():
    """Start trees good (an anchor) and bad (one site B), and an auxiliary
    loop whose site L, like B, takes loop with probability 1, under the start
    law {good: 1, bad: 0}: clean, and no derivation from bad finishes, but
    none starts there."""
    doc = {"start": "S", "trees": [
        {"id": "good", "type": "initial", "root": {"label": "S", "children": [{"anchor": "a"}]}},
        {"id": "bad", "type": "initial", "root": {"label": "S", "children": [
            {"label": "X", "site": "B", "children": [{"anchor": "b"}]}]}},
        {"id": "loop", "type": "auxiliary", "root": {"label": "X", "children": [
            {"label": "X", "site": "L", "children": [{"anchor": "c"}]}, {"foot": "X"}]}}],
        "phi": [{"site": "B", "tree": "loop", "prob": 1.0},
                {"site": "L", "tree": "loop", "prob": 1.0}]}
    return dataclasses.replace(parse(doc), start_weights={"good": 1, "bad": 0})


def test_weighted_away_loop_terminates_by_the_other_methods():
    g = weighted_away_loop_grammar()
    assert gr.validate(g) == []
    assert start_mixture(g, br.extinction(g).q) == 1.0
    assert sim.estimate_termination(g, 1000, 20).termination_rate == 1.0
    assert sum(d.probability for d in sim.enumerate_derivations(g, 5)) == 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 29: check roots reachability at every "
                   "start tree, weight 0 included, so the loop that only bad reaches makes it "
                   "say Inconsistent with stuck_tree 'loop'")
def test_weighted_away_loop_is_consistent():
    assert cons.check_consistency(weighted_away_loop_grammar()).verdict == cons.CONSISTENT


def one_site_deficit_grammar():
    """One start tree t1 whose one site X rewrites to t1 with probability
    0.9999999999 and to nothing else: proper within PROPERNESS_TOL, yet no
    derivation ever finishes."""
    doc = minimal_document()
    doc["trees"][0]["root"]["children"].append({"subst": "S", "site": "X"})
    doc["phi"] = [{"site": "X", "tree": "t1", "prob": 0.9999999999}]
    return parse(doc)


# random_proper_grammar seeds (0-1999) whose start termination is exactly 0,
# yet whose max row sum falls below 1 after 53-62 squarings by rounding alone
ZERO_TERMINATION_SEEDS = (83, 219, 299, 344, 384, 422, 431, 473, 494, 613, 641, 682, 752,
                          943, 1162, 1215, 1359, 1423, 1693)


@pytest.mark.parametrize("grammar", [
    *(pytest.param(lambda seed=seed: random_proper_grammar(seed), id=f"seed-{seed}")
      for seed in ZERO_TERMINATION_SEEDS),
    pytest.param(one_site_deficit_grammar, id="one-site-deficit"),
])
def test_not_consistent_when_start_termination_is_zero(grammar):
    g = grammar()
    assert not [d for d in gr.validate(g) if d.severity == gr.ERROR]
    assert set(br.start_termination(g, br.extinction(g)).values()) == {0.0}
    assert cons.check_consistency(g).verdict != cons.CONSISTENT


def reachable_trees(g):
    """The tree ids that a derivation from a start tree can place, walked
    over the positive entries of g.phi: an oracle for SiteIndex.reachable."""
    sites = {t.tree_id: [n.site_id for n in t.sites] for t in g.trees}
    work = [t.tree_id for t in g.trees if t.kind == gr.INITIAL and t.root.label == g.start]
    reached = set()
    while work:
        if (tree_id := work.pop()) not in reached:
            reached.add(tree_id)
            work += [target for site in sites[tree_id] for target, prob in g.phi[site]
                     if target is not None and prob > 0]
    return reached


def on_a_cycle_within(g, tree_id, trees):
    """Whether positive entries of g.phi lead from tree_id back to it
    through the tree ids in trees alone."""
    sites = {t.tree_id: [n.site_id for n in t.sites] for t in g.trees}
    work, seen = [tree_id], set()
    while work:
        targets = {target for site in sites[work.pop()] for target, prob in g.phi[site]
                   if prob > 0 and target in trees}
        if tree_id in targets:
            return True
        work += targets - seen
        seen |= targets
    return False


def test_structural_layer_and_verdicts_follow_the_oracles():
    # finishes and reachable against oracles that read g.phi alone, and an
    # Inconsistent verdict wherever a reachable tree cannot finish, naming
    # one that lies on a cycle of reachable trees that cannot finish
    stuck = 0
    for seed in range(2000):
        g = random_proper_grammar(seed)
        finishing, reached = finishing_sites(g), reachable_trees(g)
        finishes = [finishing.issuperset(n.site_id for n in t.sites) for t in g.trees]
        assert g.index.finishes.tolist() == finishes, seed
        assert g.index.reachable.tolist() == [t.tree_id in reached for t in g.trees], seed
        trapped = {t.tree_id for t, f in zip(g.trees, finishes) if t.tree_id in reached and not f}
        if trapped:
            stuck += 1
            report = cons.check_consistency(g)
            assert report.verdict == cons.INCONSISTENT, seed
            assert report.stuck_tree in trapped, seed
            assert on_a_cycle_within(g, report.stuck_tree, trapped), seed
    assert stuck == 643


def test_kleene_is_exactly_zero_on_sites_that_never_finish():
    # tol 0.0 runs all k + 1 steps, since no residual is negative; q_r is
    # positive on exactly the sites that r rounds of T's closure reach, and
    # the closure is complete within k rounds
    grammars = [*(random_proper_grammar(seed) for seed in range(200)),
                *(critical_chain(c, p) for c in (1, 2, 3) for p in (1, 2, 3)),
                one_site_deficit_grammar(), branching_family(0.5)]
    for g in grammars:
        q = br.extinction(g, tol=0.0, max_iter=len(g.index) + 1).q
        finishing = finishing_sites(g)
        assert [site for site, value in zip(g.index.ids, q.tolist())
                if not (value > 0.0 if site in finishing else value == 0.0)] == []


def test_report_is_deterministic(grammar4):
    a = cons.check_consistency(grammar4)
    b = cons.check_consistency(grammar4)
    assert a == b


def test_report_json_shape(grammar4):
    doc = cons.check_consistency(grammar4).as_dict()
    assert set(doc) == {"verdict", "squarings", "rho_estimate",
                        "rho_lower_bound", "trace"}
    assert doc["trace"][0] == [0, pytest.approx(2.4)]


# every pinned grammar that check_consistency accepts (duplicate_target has
# BAD_PROB errors); two_siteless_start has an empty M
NAMED = ("grammar4", "grammar2", "syn130", "segment_edge", "two_site_start",
         "two_siteless_start")
BLOCKS = {"named": NAMED,
          **{f"random{lo}-{lo + 49}": tuple(f"random{seed}" for seed in range(lo, lo + 50))
             for lo in range(0, 200, 50)}}


@pytest.mark.parametrize("names", BLOCKS.values(), ids=BLOCKS.keys())
def test_report_brackets_spectral_radius(names):
    # soundness against numpy's eigenvalues: the lower bound is below rho, the
    # Gelfand value above it, Consistent => rho < 1 and Inconsistent => rho > 1.
    # The absolute 1e-12 absorbs eigvals round-off on nilpotent blocks, where
    # rho_estimate is exactly 0 but eigvals returns moduli near 1e-16.
    for name in names:
        g = pinned_grammar(name)
        rho = reference(g).spectral_radius()
        report = cons.check_consistency(g)
        assert report.rho_lower_bound <= rho * (1 + 1e-9) + 1e-12, name
        assert rho <= report.rho_estimate * (1 + 2e-9) + 1e-12, name
        if report.verdict == cons.CONSISTENT:
            assert rho < 1.0 + 1e-9, name
        elif report.verdict == cons.INCONSISTENT:
            assert rho > 1.0 - 1e-9, name
