"""Acceptance suite: one test per release criterion, each printing a verdict
line (run with -s to see them on success)."""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from ptagcheck import branching as br
from ptagcheck import consistency as cons
from ptagcheck import grammar as gr
from ptagcheck import simulate as sim
from ptagcheck.expectation import build_M
from conftest import GRAMMAR4, random_proper_grammar, reference, spectral_radius

M4_REFERENCE = np.array([
    [0, 0.8, 0.8, 0.8, 0],
    [0, 0.2, 0.2, 0.2, 0],
    [0, 0, 0, 0, 0.2],
    [0, 0.4, 0.4, 0.4, 0],
    [0, 0, 0, 0, 0.1],
])
M2_REFERENCE = np.array([
    [0, 1.0, 1.0],
    [0, 0.99, 0.99],
    [0, 0.98, 0.98],
])
M4_POW4_REFERENCE = np.array([
    [0, 0.1728, 0.1728, 0.1728, 0.0688],
    [0, 0.0432, 0.0432, 0.0432, 0.0172],
    [0, 0, 0, 0, 0.0002],
    [0, 0.0864, 0.0864, 0.0864, 0.0344],
    [0, 0, 0, 0, 0.0001],
])
G2_START_EXTINCTION = 2.0615e-4  # smallest root 0.0004/1.9404 of the fixed point


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_expectation_matrix_reproduction(grammar4, grammar2):
    with criterion(1, "expectation matrices match the worked values to 1e-12"):
        started = time.perf_counter()
        m4 = build_M(grammar4).values
        m2 = build_M(grammar2).values
        elapsed = time.perf_counter() - started
        assert np.abs(m4 - M4_REFERENCE).max() <= 1e-12
        assert np.abs(m2 - M2_REFERENCE).max() <= 1e-12
        assert elapsed < 1.0


def test_criterion_2_row_sum_trace(grammar4):
    with criterion(2, "row sums: 2.4 at k=0, printed fourth power, pass at k=2"):
        m = build_M(grammar4).values
        assert abs(m.sum(axis=1).max() - 2.4) < 1e-12
        m4 = np.linalg.matrix_power(m, 4)
        assert np.abs(m4 - M4_POW4_REFERENCE).max() <= 1e-4
        assert np.abs(m4[0] - [0, 0.1728, 0.1728, 0.1728, 0.0688]).max() <= 1e-4
        assert m4.sum(axis=1).max() < 1.0
        report = cons.check_consistency(grammar4)
        assert report.squarings_used == 2
        passing = [k for k, value in report.max_row_sum_trace if value < 1.0]
        assert passing == [2]


def test_criterion_3_verdicts_and_spectral_radii(grammar4, grammar2):
    with criterion(3, "verdicts with spectral radii 0.6 and 1.97 (1e-6)"):
        started = time.perf_counter()
        assert cons.check_consistency(grammar4).verdict == cons.CONSISTENT
        assert cons.check_consistency(grammar2).verdict == cons.INCONSISTENT
        rho4 = reference(grammar4).spectral_radius()
        rho2 = reference(grammar2).spectral_radius()
        elapsed = time.perf_counter() - started
        assert abs(rho4 - 0.6) <= 1e-6
        assert abs(rho2 - 1.97) <= 1e-6
        assert elapsed < 2.0  # well under 1 s per check


def test_criterion_4_dual_construction(grammar4, grammar2):
    with criterion(4, "partial-derivative matrix equals P@N on corpus plus "
                      "50 random grammars"):
        for g in (grammar4, grammar2):
            delta = br.m_from_partials(g).values - build_M(g).values
            assert np.abs(delta).max() <= 1e-12
        for seed in range(50):
            g = random_proper_grammar(seed, max_trees=10, max_sites=20)
            assert len(g.site_ids) <= 20 and len(g.trees) <= 10
            a = br.m_from_partials(g).values
            b = build_M(g).values
            if a.size:
                assert np.abs(a - b).max() <= 1e-12


def test_criterion_5_generating_function_normalization(grammar4, grammar2):
    with criterion(5, "g_j and G_n normalize to 1; level-2 constant is 0.5072"):
        for g in (grammar4, grammar2):
            ones = [1.0] * len(g.site_ids)
            for site in g.site_ids:
                value = br.adjunction_gf(g, site).evaluate(ones)
                assert abs(value - 1.0) <= 1e-12
        for n in range(5):
            value = br.level_gf(grammar4, n).evaluate([1.0] * 5)
            assert abs(value - 1.0) <= 1e-9
        # the accepted level-2 expansion (not the misprinted one, whose
        # coefficients sum to 0.566 and fail the normalization above)
        g2 = br.level_gf(grammar4, 2)
        _, constant = br.constant_split(g2)
        assert abs(constant - 0.5072) <= 1e-12
        assert g2.coefficient((0, 2, 2, 2, 1)) == pytest.approx(0.0128, abs=1e-12)
        misprinted = 0.08 + 0.03 + 0.04 + 0.18 + 0.04 + 0.196
        assert abs(misprinted - 1.0) > 0.4  # why it cannot be the expansion


def test_criterion_6_oracle_agreement(grammar4):
    with criterion(6, "enumerated probability mass equals the level constants"):
        for depth in (1, 2, 3):
            derivations = sim.enumerate_derivations(grammar4, depth)
            total = sum(d.probability for d in derivations)
            _, constant = br.constant_split(br.level_gf(grammar4, depth))
            assert abs(total - constant) <= 1e-9


def test_criterion_7_extinction(grammar4, grammar2):
    with criterion(7, "extinction probabilities and the Monte Carlo check"):
        ev4 = br.extinction(grammar4)
        assert ev4.converged
        assert np.abs(ev4.q - 1.0).max() <= 1e-9

        ev2 = br.extinction(grammar2)
        assert ev2.converged
        assert abs(ev2["S1"] - G2_START_EXTINCTION) <= 1e-8

        started = time.perf_counter()
        stats = sim.estimate_termination(grammar2, 1_000_000, 200, seed=42)
        elapsed = time.perf_counter() - started
        q = ev2["S1"]
        sigma = math.sqrt(q * (1 - q) / stats.samples)
        assert abs(stats.termination_rate - q) <= 3 * sigma
        assert elapsed < 30.0


def test_criterion_8_property_suites(grammar4, grammar2):
    with criterion(8, "round-trip, conjugation, monotonicity, reproducibility, "
                      "anchor preservation"):
        # properness round-trip
        for g in (grammar4, grammar2):
            again = gr.parse_grammar(json.dumps(gr.to_document(g), indent=2) + "\n")
            assert gr.to_document(again) == gr.to_document(g)
            for site in again.site_ids:
                assert abs(sum(p for _, p in again.phi[site]) - 1.0) <= 1e-9

        # permutation conjugation invariance
        doc = json.loads(GRAMMAR4.read_text())
        doc["trees"] = [doc["trees"][1], doc["trees"][2], doc["trees"][0]]
        shuffled = gr.parse_grammar(json.dumps(doc))
        m0 = build_M(grammar4)
        m1 = build_M(shuffled)
        perm = [m1.rows.index(s) for s in m0.rows]
        assert np.abs(m1.values[np.ix_(perm, perm)] - m0.values).max() <= 1e-12
        assert sorted(m1.values.sum(axis=1)) == pytest.approx(
            sorted(m0.values.sum(axis=1)), abs=1e-12)
        assert abs(spectral_radius(m0.values) - spectral_radius(m1.values)) <= 1e-12

        # extinction iterates are monotone nondecreasing
        for g in (grammar4, grammar2):
            gfs = [br.adjunction_gf(g, s) for s in g.site_ids]
            q = np.zeros(len(gfs))
            for _ in range(80):
                nxt = np.array([gf.evaluate(q) for gf in gfs])
                assert (nxt >= q).all()
                q = nxt

        # sampler reproducibility under a fixed seed
        for g in (grammar4, grammar2):
            a = sim.sample_derivation(g, seed=1234, max_depth=40, max_nodes=500)
            b = sim.sample_derivation(g, seed=1234, max_depth=40, max_nodes=500)
            assert a.as_dict() == b.as_dict() and a.probability == b.probability
            sa = sim.estimate_termination(g, 20_000, 60, seed=77)
            sb = sim.estimate_termination(g, 20_000, 60, seed=77)
            assert sa == sb

        # derived-tree surgery preserves anchors, 1000 samples per grammar
        checked = {"grammar4": 0, "grammar2": 0}
        rng4 = np.random.default_rng(3)
        for _ in range(1000):
            d = sim.sample_derivation(grammar4, seed=rng4, max_depth=100)
            if d.complete:
                _assert_anchors_preserved(d, grammar4)
                checked["grammar4"] += 1
        rng2 = np.random.default_rng(3)
        for _ in range(1000):
            d = sim.sample_derivation(grammar2, seed=rng2, max_depth=30,
                                      max_nodes=300)
            if d.complete:
                _assert_anchors_preserved(d, grammar2)
                checked["grammar2"] += 1
        assert checked["grammar4"] >= 990   # termination is certain
        assert checked["grammar2"] >= 1     # rare but present at this seed
        # the same property over an exhaustive slice of grammar2
        for d in sim.enumerate_derivations(grammar2, 3):
            _assert_anchors_preserved(d, grammar2)


def _assert_anchors_preserved(d, g):
    tree = sim.derived_tree(d, g)
    leaves = sim.yield_string(tree)
    counts = {}
    for leaf in leaves:
        counts[leaf] = counts.get(leaf, 0) + 1
    assert counts == sim.anchor_multiset(d, g)
