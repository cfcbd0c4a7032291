import json

import numpy as np
import pytest

from ptagcheck import expectation as ex
from ptagcheck import grammar as gr
from conftest import (GRAMMAR4, minimal_document, parse, random_proper_grammar,
                      segment_edge_grammar)

M4_EXPECTED = np.array([
    [0, 0.8, 0.8, 0.8, 0],
    [0, 0.2, 0.2, 0.2, 0],
    [0, 0, 0, 0, 0.2],
    [0, 0.4, 0.4, 0.4, 0],
    [0, 0, 0, 0, 0.1],
])

M2_EXPECTED = np.array([
    [0, 1.0, 1.0],
    [0, 0.99, 0.99],
    [0, 0.98, 0.98],
])


def test_site_index_order(grammar4):
    idx = ex.SiteIndex.from_grammar(grammar4)
    assert idx.ids == ("A1", "A2", "B1", "A3", "B2")
    assert idx["B1"] == 2
    assert len(idx) == 5


def test_P_grammar4(grammar4):
    p = ex.build_P(grammar4)
    assert p.cols == ("t1", "t2", "t3")
    assert p.values[0].tolist() == [0, 0.8, 0]   # row A1
    assert p.values[4].tolist() == [0, 0, 0.1]   # row B2
    # row sums are the total adjunction mass, 1 - phi(nil)
    for i, site in enumerate(p.rows):
        nil = grammar4.phi.prob(site, None)
        assert p.values[i].sum() == pytest.approx(1.0 - nil, abs=1e-12)


def test_P_grammar2(grammar2):
    p = ex.build_P(grammar2)
    assert np.allclose(p.values, [[0, 1.0], [0, 0.99], [0, 0.98]], atol=0)


def test_P_all_nil_is_zero():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    g = parse(doc)
    assert not ex.build_P(g).values.any()
    assert not ex.build_M(g).values.any()


def test_N_grammar4(grammar4):
    n = ex.build_N(grammar4)
    assert n.values.tolist() == [
        [1, 0, 0, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    # each site occurs in exactly one tree
    assert (n.values.sum(axis=0) == 1).all()


def test_N_grammar2(grammar2):
    n = ex.build_N(grammar2)
    assert n.values.tolist() == [[1, 0, 0], [0, 1, 1]]


def test_N_single_site():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    n = ex.build_N(parse(doc))
    assert n.values.tolist() == [[1.0]]


def test_M_grammar4(grammar4):
    m = ex.build_M(grammar4)
    assert np.abs(m.values - M4_EXPECTED).max() <= 1e-12
    assert (m.values >= 0).all()


def test_M_grammar2(grammar2):
    m = ex.build_M(grammar2)
    assert np.abs(m.values - M2_EXPECTED).max() <= 1e-12


def test_M_is_P_times_N(grammar4, grammar2):
    grammars = [grammar4, grammar2, segment_edge_grammar()]
    for g in grammars + [random_proper_grammar(seed) for seed in range(10)]:
        p = ex.build_P(g)
        n = ex.build_N(g)
        m = ex.build_M(g)
        assert (m.values == p.values @ n.values).all()


def direct_expectation(g):
    """Independent oracle: entry-wise summation over phi, no matrices."""
    sites = g.site_ids
    out = np.zeros((len(sites), len(sites)))
    for i, site in enumerate(sites):
        for target, prob in g.phi.entries_for(site):
            if target is None:
                continue
            for node in g.tree(target).sites:
                out[i, sites.index(node.site_id)] += prob
    return out


def test_M_matches_direct_summation(grammar4, grammar2):
    for g in (grammar4, grammar2, segment_edge_grammar()):
        assert np.abs(ex.build_M(g).values - direct_expectation(g)).max() <= 1e-12


def test_M_matches_direct_summation_random():
    for seed in range(10):
        g = random_proper_grammar(seed)
        m = ex.build_M(g).values
        if m.size:
            assert np.abs(m - direct_expectation(g)).max() <= 1e-12


def test_tree_permutation_conjugates_M(grammar4):
    doc = json.loads(GRAMMAR4.read_text())
    doc["trees"] = [doc["trees"][2], doc["trees"][0], doc["trees"][1]]
    shuffled = parse(doc)
    m1 = ex.build_M(grammar4)
    m2 = ex.build_M(shuffled)
    assert m2.rows == ("B2", "A1", "A2", "B1", "A3")
    perm = [m2.rows.index(s) for s in m1.rows]
    conjugated = m2.values[np.ix_(perm, perm)]
    assert np.abs(conjugated - m1.values).max() <= 1e-12
    # row-sum multiset unchanged
    assert sorted(m1.values.sum(axis=1)) == pytest.approx(
        sorted(m2.values.sum(axis=1)), abs=1e-12)


def test_matrix_tsv_format(grammar4):
    text = ex.matrix_tsv(ex.build_M(grammar4).values)
    lines = text.strip().split("\n")
    assert len(lines) == 5
    first = [float(x) for x in lines[0].split("\t")]
    assert first == pytest.approx([0, 0.8, 0.8, 0.8, 0], abs=1e-12)
    # 17 significant digits round-trip doubles exactly
    again = [[float(x) for x in line.split("\t")] for line in lines]
    assert (np.array(again) == ex.build_M(grammar4).values).all()


def test_matrix_json_forms(grammar4):
    m_doc = ex.matrix_json_doc(ex.build_M(grammar4))
    assert m_doc["order"] == ["A1", "A2", "B1", "A3", "B2"]
    assert m_doc["rows"][0] == pytest.approx([0, 0.8, 0.8, 0.8, 0])
    p_doc = ex.matrix_json_doc(ex.build_P(grammar4))
    assert p_doc["cols"] == ["t1", "t2", "t3"]
    n_doc = ex.matrix_json_doc(ex.build_N(grammar4))
    assert n_doc["order"] == ["t1", "t2", "t3"]
    json.dumps(m_doc)  # serializable
