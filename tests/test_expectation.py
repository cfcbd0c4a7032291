import json
import time
from collections.abc import Mapping

import numpy as np
import pytest

from ptagcheck import consistency as cons
from ptagcheck import expectation as ex
from ptagcheck import grammar as gr
from conftest import (GRAMMAR4, minimal_document, parse, random_proper_grammar, reference,
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
    idx = grammar4.index
    assert idx.ids == ("A1", "A2", "B1", "A3", "B2")
    assert idx["B1"] == 2
    assert len(idx) == 5


def test_site_index_is_read_only(grammar4):
    # minimal_document() has no sites; nil_only has one site and no non-nil entry
    nil_only = minimal_document()
    nil_only["trees"][0]["root"]["children"] = [
        {"label": "A", "site": "R", "children": [{"anchor": "a"}]}]
    nil_only["phi"] = [{"site": "R", "tree": None, "prob": 1.0}]
    for g in (grammar4, segment_edge_grammar(), random_proper_grammar(7),
              parse(minimal_document()), parse(nil_only)):
        idx = g.index
        # the lazy layouts too
        idx.rewrite_graph, idx.reachable, idx.finishes, idx.draw_table
        arrays = {name: a for name, a in vars(idx).items() if isinstance(a, np.ndarray)}
        assert {"tree_start", "site", "tree", "prob", "nil", "anchors", "starts",
                "mass", "improper", "reachable", "finishes"} <= arrays.keys()
        # every choice has prob > 0, so no mask marks the positive ones
        assert not hasattr(idx, "positive")
        for array in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
            # the flag cannot be set back, on the array or on an array it views
            for frozen in (array, array.base):
                if isinstance(frozen, np.ndarray):
                    with pytest.raises(ValueError):
                        frozen.flags.writeable = True
                    assert not frozen.flags.writeable
        # every other attribute, and every tuple or mapping in it, refuses item assignment
        others = {name: a for name, a in vars(idx).items() if name not in arrays}
        assert {"ids", "tree_ids", "position", "bad_site", "rewrite_graph",
                "draw_table"} <= others.keys()
        stack = list(others.values())
        while stack:
            value = stack.pop()
            with pytest.raises(TypeError, match="does not support item assignment"):
                value[next(iter(value), 0) if isinstance(value, Mapping) else 0] = None
            if isinstance(value, Mapping):
                stack += value.values()
            elif isinstance(value, tuple):
                stack += value
        for name in (*vars(idx), "new_layout"):
            with pytest.raises(AttributeError):
                setattr(idx, name, None)
            with pytest.raises(AttributeError):
                delattr(idx, name)


def adjunction_chain(n, loop_at_end=False):
    """Start tree t0, whose site R adjoins c0, and auxiliary trees c0..c(n-1),
    each with one site Xi that adjoins the next tree; X(n-1) stays nil, or,
    with loop_at_end, adjoins c(n-1) again, so that nothing finishes."""
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [
        {"label": "A", "site": "R", "children": [{"anchor": "a"}]}]
    doc["trees"] += [{"id": f"c{i}", "type": "auxiliary", "root": {"label": "A", "children": [
        {"label": "A", "site": f"X{i}", "children": [{"anchor": "a"}]}, {"foot": "A"}]}}
        for i in range(n)]
    doc["phi"] = [{"site": "R", "tree": "c0", "prob": 1.0},
                  *({"site": f"X{i}", "tree": f"c{i + 1}", "prob": 1.0} for i in range(n - 1))]
    if loop_at_end:
        doc["phi"].append({"site": f"X{n - 1}", "tree": f"c{n - 1}", "prob": 1.0})
    return parse(doc)


def test_reachable_and_finishes_by_hand(grammar4, grammar2):
    # grammar4 finishes everywhere; grammar2's t2 rewrites to t2 or nil, so
    # it finishes too, and its lone start tree reaches every tree
    for g in (grammar4, grammar2):
        assert g.index.finishes.all() and g.index.reachable.all()
    # a chain that ends in a loop finishes nowhere; a fresh tree that no site
    # lists is unreachable, and, without sites, finishes
    g = adjunction_chain(3, loop_at_end=True)
    assert g.index.finishes.tolist() == [False] * 4
    doc = gr.to_document(g)
    doc["trees"].append({"id": "u", "type": "auxiliary",
                         "root": {"label": "A", "children": [{"anchor": "b"}, {"foot": "A"}]}})
    g = parse(doc)
    assert g.index.reachable.tolist() == [True] * 4 + [False]
    assert g.index.finishes.tolist() == [False] * 4 + [True]
    for layout in (g.index.reachable, g.index.finishes):
        assert not layout.flags.writeable


def test_finishes_is_linear_in_the_entries():
    # on a chain the least fixed point grows one site per sweep, so a
    # sweep-until-stable loop would take n sweeps of n sites; the worklist
    # queues each entry once
    g = adjunction_chain(10_000)
    began = time.perf_counter()
    finishes = g.index.finishes
    elapsed = time.perf_counter() - began
    assert finishes.all() and g.index.reachable.all()
    assert elapsed < 0.5


def test_P_grammar4(grammar4):
    p = ex.build_P(grammar4)
    assert p.cols == ("t1", "t2", "t3")
    assert p.values[0].tolist() == [0, 0.8, 0]   # row A1
    assert p.values[4].tolist() == [0, 0, 0.1]   # row B2
    # row sums are the total adjunction mass, 1 - phi(nil)
    for i, site in enumerate(p.rows):
        nil = dict(grammar4.phi[site])[None]
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


def test_P_and_M_leave_out_entries_that_are_not_positive():
    # the numeric form holds the choices, entries of prob > 0, alone: R's
    # negative entry to b1 and W's NaN entry to b1 are in the record, and
    # validate flags them, but P and M leave them out
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"] += [{"id": tid, "type": "auxiliary", "root": {
        "label": "S", "site": site, "children": [{"anchor": leaf}, {"foot": "S"}]}}
        for tid, site, leaf in (("b1", "V", "b"), ("b2", "W", "c"))]
    doc["phi"] = [{"site": s, "tree": t, "prob": p} for s, t, p in [
        ("R", "b1", -0.25), ("R", "b2", 0.5), ("R", None, 0.75),
        ("W", "b1", float("nan")), ("W", None, 1.0)]]
    g = parse(doc)
    assert [(d.code, d.tree_id, d.site_id) for d in gr.validate(g)] == [
        ("BAD_PROB", "t1", "R"), ("BAD_PROB", "b2", "W"), ("UNREACHABLE_TREE", "b1", None)]
    assert g.index.bad_site == "R" and np.isnan(g.index.phi_prob).sum() == 1
    assert g.index.phi_prob.tolist()[0] == -0.25
    assert ex.build_P(g).values.tolist() == [[0, 0, 0.5], [0, 0, 0], [0, 0, 0]]
    assert ex.build_M(g).values.tolist() == [[0, 0, 0.5], [0, 0, 0], [0, 0, 0]]
    assert g.index.rewrite_graph == ((2,), (), ())


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


def test_M_needs_only_its_own_cells_under_the_cap(monkeypatch):
    # 20 initial trees without sites make P 5 x 23, but M stays 5 x 5
    doc = json.loads(GRAMMAR4.read_text())
    doc["trees"] += [{"id": f"leaf{j}", "type": "initial",
                      "root": {"label": "S", "children": [{"anchor": f"leaf{j}"}]}}
                     for j in range(20)]
    g = parse(doc)
    product = ex.build_P(g).values @ ex.build_N(g).values
    assert ex.build_P(g).values.shape == (5, 23)
    monkeypatch.setattr(ex, "DENSE_CELL_CAP", 25)
    assert (ex.build_M(g).values == product).all()
    assert cons.check_consistency(g).verdict == cons.CONSISTENT
    with pytest.raises(ex.DenseCapExceeded, match="a 5 x 23 dense matrix"):
        ex.build_P(g)


def test_M_matches_direct_summation(grammar4, grammar2):
    for g in (grammar4, grammar2, segment_edge_grammar()):
        assert np.abs(ex.build_M(g).values - reference(g).matrix()).max() <= 1e-12


def test_M_matches_direct_summation_random():
    for seed in range(10):
        g = random_proper_grammar(seed)
        m = ex.build_M(g).values
        if m.size:
            assert np.abs(m - reference(g).matrix()).max() <= 1e-12


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
