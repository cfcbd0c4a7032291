import io
import json

import pytest

from ptagcheck import cli
from ptagcheck import grammar as gr
from ptagcheck.consistency import check_consistency
from conftest import GRAMMAR4, minimal_document, parse


def test_grammar4_structure(grammar4):
    assert [t.tree_id for t in grammar4.trees] == ["t1", "t2", "t3"]
    assert grammar4.site_ids == ("A1", "A2", "B1", "A3", "B2")
    assert grammar4.start == "S"
    assert grammar4.nonterminals == frozenset({"S", "B"})
    assert grammar4.terminals == frozenset({"a1", "a2", "a3"})
    assert grammar4.phi["A1"] == (("t2", 0.8), (None, 0.2))


def test_grammar2_structure(grammar2):
    assert grammar2.site_ids == ("S1", "S2", "S3")
    assert grammar2.phi["S1"] == (("t2", 1.0),)  # no nil entry
    t2 = grammar2.tree("t2")
    assert t2.kind == gr.AUXILIARY
    assert t2.foot is not None and t2.foot.label == "S"
    assert t2.anchors == ("a",)


def test_minimal_document_has_no_sites():
    g = parse(minimal_document())
    assert len(g.trees) == 1
    assert g.site_ids == ()
    assert gr.validate(g) == []


def test_gorn_addresses(grammar4):
    t2 = grammar4.tree("t2")
    addresses = {n.site_id: n.address for n in t2.sites}
    assert addresses == {"A2": "", "B1": "1", "A3": "2"}
    foot = t2.foot
    assert foot.address == "2.1"


def test_missing_phi_entry_defaults_to_nil():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    g = parse(doc)
    assert g.phi["R"] == ((None, 1.0),)
    assert gr.validate(g) == []


# -- parse errors -----------------------------------------------------------

def test_parse_rejects_bad_json():
    with pytest.raises(gr.GrammarParseError) as info:
        gr.parse_grammar(b'{"start": "S",')
    assert "line 1" in str(info.value)


def test_parse_rejects_duplicate_site_id():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "X"
    doc["trees"].append({"id": "t2", "type": "initial",
                         "root": {"label": "S", "site": "X",
                                  "children": [{"anchor": "a"}]}})
    with pytest.raises(gr.GrammarParseError, match="duplicate site id"):
        parse(doc)


def test_parse_rejects_duplicate_tree_id():
    doc = minimal_document()
    doc["trees"].append(json.loads(json.dumps(doc["trees"][0])))
    with pytest.raises(gr.GrammarParseError, match="duplicate tree id"):
        parse(doc)


def test_grammar_rejects_repeated_tree_id(grammar4):
    g = grammar4
    with pytest.raises(gr.GrammarError, match="duplicate tree id 't2'"):
        gr.Grammar(g.start, g.nonterminals, g.terminals, g.trees + (g.trees[1],), g.phi)


def test_grammar_rejects_repeated_site_id(grammar4):
    g = grammar4
    copy = gr.ElementaryTree("t4", gr.AUXILIARY, g.trees[1].root)  # t2's sites again
    with pytest.raises(gr.GrammarError, match="duplicate site id 'A2'"):
        gr.Grammar(g.start, g.nonterminals, g.terminals, g.trees + (copy,), g.phi)


def test_validation_runs_once_per_grammar(monkeypatch):
    passes = []
    diagnose = gr._diagnose

    def counting(g):
        passes.append(g)
        return diagnose(g)

    monkeypatch.setattr(gr, "_diagnose", counting)
    g = gr.load_grammar(GRAMMAR4)
    gr.validate(g)
    check_consistency(g)
    gr.validate(g)
    assert passes == [g]

    passes.clear()
    assert cli.run(["check", str(GRAMMAR4)], out=io.StringIO(), err=io.StringIO()) == 0
    assert len(passes) == 1


def test_parse_rejects_unknown_node_form():
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [{"leaf": "a"}]
    with pytest.raises(gr.GrammarParseError, match="exactly one of"):
        parse(doc)


def test_parse_rejects_two_forms_in_one_node():
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [{"anchor": "a", "foot": "S"}]
    with pytest.raises(gr.GrammarParseError):
        parse(doc)


def test_parse_rejects_substitution_without_site():
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [{"subst": "S"}, {"anchor": "a"}]
    with pytest.raises(gr.GrammarParseError, match="site"):
        parse(doc)


def test_parse_rejects_symbol_kind_conflict():
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [{"anchor": "S"}]
    with pytest.raises(gr.GrammarParseError, match="both as terminals"):
        parse(doc)


def test_parse_rejects_phi_with_unknown_site():
    doc = minimal_document()
    doc["phi"] = [{"site": "ghost", "tree": None, "prob": 1.0}]
    with pytest.raises(gr.GrammarParseError, match="unknown site"):
        parse(doc)


def test_parse_rejects_phi_with_unknown_tree():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "X"
    doc["phi"] = [{"site": "X", "tree": "ghost", "prob": 1.0}]
    with pytest.raises(gr.GrammarParseError, match="unknown target tree"):
        parse(doc)


def test_parse_rejects_interior_without_children():
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [{"label": "B", "children": []}]
    with pytest.raises(gr.GrammarParseError, match="nonempty"):
        parse(doc)


# -- serialization ----------------------------------------------------------

def test_round_trip_identity(grammar4, grammar2):
    for g in (grammar4, grammar2):
        text = gr.serialize_grammar(g)
        again = gr.parse_grammar(text)
        assert gr.to_document(again) == gr.to_document(g)
        assert again.site_ids == g.site_ids
        for site in g.site_ids:
            assert again.phi[site] == g.phi[site]


def test_round_trip_preserves_defaulted_entries():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    g = parse(doc)
    again = gr.parse_grammar(gr.serialize_grammar(g))
    assert again.phi["R"] == ((None, 1.0),)


# -- validation -------------------------------------------------------------

def test_validate_clean_corpus(grammar4, grammar2):
    assert gr.validate(grammar4) == []
    assert gr.validate(grammar2) == []


def site_doc(site, label="S", anchor="a"):
    return {"label": label, "site": site, "children": [{"anchor": anchor}]}


def test_improper_site_reports_sum():
    doc = {
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": site_doc("A")},
            {"id": "t2", "type": "auxiliary",
             "root": {"label": "S", "children": [{"anchor": "b"}, {"foot": "S"}]}},
        ],
        "phi": [{"site": "A", "tree": "t2", "prob": 0.8}],
    }
    diags = gr.validate(parse(doc))
    assert [d.code for d in diags] == [gr.IMPROPER_SITE]
    assert diags[0].severity == gr.ERROR
    assert diags[0].site_id == "A"
    assert "0.8" in diags[0].message


def test_label_mismatch():
    doc = {
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": site_doc("A", label="S")},
            {"id": "t2", "type": "auxiliary",
             "root": {"label": "B", "children": [{"anchor": "b"}, {"foot": "B"}]}},
        ],
        "phi": [{"site": "A", "tree": "t2", "prob": 0.5},
                {"site": "A", "tree": None, "prob": 0.5}],
    }
    diags = gr.validate(parse(doc))
    assert [d.code for d in diags] == [gr.LABEL_MISMATCH]
    assert diags[0].site_id == "A"
    assert "root label" in diags[0].message


def test_adjunction_target_must_be_auxiliary():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "A"
    doc["trees"].append({"id": "t2", "type": "initial",
                         "root": {"label": "S", "children": [{"anchor": "b"}]}})
    doc["phi"] = [{"site": "A", "tree": "t2", "prob": 1.0}]
    diags = gr.validate(parse(doc))
    assert gr.LABEL_MISMATCH in [d.code for d in diags]


def test_substitution_site_rejects_nil_and_wrong_kind():
    doc = {
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial",
             "root": {"label": "S", "children": [
                 {"anchor": "a"}, {"subst": "S", "site": "X"}]}},
        ],
        "phi": [{"site": "X", "tree": "t1", "prob": 0.5},
                {"site": "X", "tree": None, "prob": 0.5}],
    }
    diags = gr.validate(parse(doc))
    assert [d.code for d in diags] == [gr.BAD_PROB]
    assert "unfilled" in diags[0].message


def test_unfilled_substitution_site_is_improper():
    doc = minimal_document()
    doc["trees"][0]["root"]["children"].append({"subst": "S", "site": "X"})
    diags = gr.validate(parse(doc))
    assert [d.code for d in diags] == [gr.IMPROPER_SITE]


def test_bad_prob_out_of_range():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "A"
    doc["phi"] = [{"site": "A", "tree": None, "prob": 1.5},
                  {"site": "A", "tree": None, "prob": -0.5}]
    codes = [d.code for d in gr.validate(parse(doc))]
    assert codes.count(gr.BAD_PROB) == 2


def test_duplicate_phi_target():
    doc = {
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": site_doc("A")},
            {"id": "t2", "type": "auxiliary",
             "root": {"label": "S", "children": [{"anchor": "b"}, {"foot": "S"}]}},
        ],
        "phi": [{"site": "A", "tree": "t2", "prob": 0.5},
                {"site": "A", "tree": "t2", "prob": 0.5}],
    }
    diags = gr.validate(parse(doc))
    assert [d.code for d in diags] == [gr.BAD_PROB]
    assert "twice" in diags[0].message


def test_bad_foot_count_and_label():
    doc = {
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": site_doc("A")},
            {"id": "t2", "type": "auxiliary",
             "root": {"label": "S", "children": [
                 {"anchor": "b"}, {"foot": "S"}, {"foot": "S"}]}},
            {"id": "t3", "type": "auxiliary",
             "root": {"label": "S", "children": [{"anchor": "c"}, {"foot": "B"}]}},
            {"id": "t4", "type": "initial",
             "root": {"label": "S", "children": [{"anchor": "d"}, {"foot": "S"}]}},
        ],
        "phi": [{"site": "A", "tree": None, "prob": 1.0}],
    }
    diags = gr.validate(parse(doc))
    foot_diags = [d for d in diags if d.code == gr.BAD_FOOT]
    assert [d.tree_id for d in foot_diags] == ["t2", "t3", "t4"]
    assert "2 foot nodes" in foot_diags[0].message
    assert "differs from root label" in foot_diags[1].message


def test_no_start_tree():
    doc = {
        "start": "Z",
        "trees": [{"id": "t1", "type": "initial",
                   "root": {"label": "S", "children": [{"anchor": "a"}]}}],
        "phi": [],
    }
    diags = gr.validate(parse(doc))
    assert gr.NO_START_TREE in [d.code for d in diags]


def test_validate_is_deterministic(grammar4):
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "A"
    doc["phi"] = [{"site": "A", "tree": None, "prob": 0.4}]
    g = parse(doc)
    first = gr.validate(g)
    assert first == gr.validate(g) == list(g.diagnostics)
    first.clear()  # each call returns a fresh list
    assert [d.code for d in gr.validate(g)] == [gr.IMPROPER_SITE]


def test_diagnostic_site_ids_exist():
    doc = {
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": site_doc("A")},
            {"id": "t2", "type": "auxiliary",
             "root": {"label": "B", "site": "U",
                      "children": [{"anchor": "b"}, {"foot": "B"}]}},
        ],
        "phi": [{"site": "A", "tree": "t2", "prob": 0.7},
                {"site": "U", "tree": "t2", "prob": 2.0}],
    }
    g = parse(doc)
    for diag in gr.validate(g):
        if diag.site_id is not None:
            assert diag.site_id in g.site_ids
        if diag.tree_id is not None:
            assert diag.tree_id in {t.tree_id for t in g.trees}


# -- reachability and loops -------------------------------------------------

def aux_doc(tree_id, label, anchor=None, site=None):
    children = [{"foot": label}]
    if anchor:
        children.insert(0, {"anchor": anchor})
    root = {"label": label, "children": children}
    if site:
        root["site"] = site
    return {"id": tree_id, "type": "auxiliary", "root": root}


def test_unreachable_extra_aux(grammar4):
    doc = json.loads(GRAMMAR4.read_text())
    doc["trees"].append(aux_doc("t4", "S", anchor="a4"))
    unreachable = gr.detect_unreachable(parse(doc))
    assert unreachable == ["t4"]


def test_unreachable_none_in_corpus(grammar4, grammar2):
    assert gr.detect_unreachable(grammar4) == []
    assert gr.detect_unreachable(grammar2) == []


def test_zero_probability_edges_do_not_reach():
    doc = json.loads(GRAMMAR4.read_text())
    doc["trees"].append(aux_doc("t4", "S", anchor="a4"))
    doc["phi"].append({"site": "A1", "tree": "t4", "prob": 0.0})
    g = parse(doc)
    assert gr.detect_unreachable(g) == ["t4"]
    # the zero entry is retained in the model
    assert ("t4", 0.0) in g.phi["A1"]


def test_detect_unreachable_is_pure(grammar4):
    assert gr.detect_unreachable(grammar4) == gr.detect_unreachable(grammar4)


def test_empty_yield_self_loop():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"].append(aux_doc("u", "S", site="U"))
    doc["phi"] = [
        {"site": "R", "tree": "u", "prob": 0.5},
        {"site": "R", "tree": None, "prob": 0.5},
        {"site": "U", "tree": "u", "prob": 0.5},
        {"site": "U", "tree": None, "prob": 0.5},
    ]
    diags = gr.detect_empty_yield_loops(parse(doc))
    assert [(d.code, d.severity) for d in diags] == [
        (gr.EMPTY_YIELD_LOOP, gr.ERROR), (gr.NOT_LEXICALIZED, gr.WARNING)]
    assert diags[0].tree_id == "u"
    assert diags[1].tree_id == "u"


def test_empty_yield_two_cycle_named_once():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"].append(aux_doc("u", "S", site="U"))
    doc["trees"].append(aux_doc("v", "S", site="V"))
    doc["phi"] = [
        {"site": "R", "tree": "u", "prob": 1.0},
        {"site": "U", "tree": "v", "prob": 1.0},
        {"site": "V", "tree": "u", "prob": 1.0},
    ]
    diags = gr.detect_empty_yield_loops(parse(doc))
    loops = [d for d in diags if d.code == gr.EMPTY_YIELD_LOOP]
    assert len(loops) == 1
    assert "u" in loops[0].message and "v" in loops[0].message


def test_anchorless_without_loop_is_only_warning():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"].append(aux_doc("u", "S"))
    doc["phi"] = [{"site": "R", "tree": "u", "prob": 0.5},
                  {"site": "R", "tree": None, "prob": 0.5}]
    diags = gr.detect_empty_yield_loops(parse(doc))
    assert [d.code for d in diags] == [gr.NOT_LEXICALIZED]


def test_corpus_has_no_loops(grammar4, grammar2):
    assert gr.detect_empty_yield_loops(grammar4) == []
    assert gr.detect_empty_yield_loops(grammar2) == []


def test_properness_sums(grammar4, grammar2):
    for g in (grammar4, grammar2):
        for site in g.site_ids:
            assert abs(sum(p for _, p in g.phi[site]) - 1.0) <= 1e-9
