import dataclasses
import gc
import hashlib
import io
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from ptagcheck import cli
from ptagcheck import grammar as gr
from ptagcheck import branching as br
from ptagcheck.consistency import check_consistency
from ptagcheck.expectation import PROPERNESS_TOL, start_law
from ptagcheck.simulate import enumerate_derivations
from conftest import (GRAMMAR4, MASS_EDGE, mass_edge_document, minimal_document, parse,
                      pinned_grammar, random_proper_grammar, verdict_corpus)


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
    (foot,) = t2.feet
    assert foot.label == "S"
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
    (foot,) = t2.feet
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


# a hand-built Grammar is checked when it is built, since validate and the
# index look each site up in phi and each target up among the trees
@pytest.mark.parametrize("edit, message", [
    (lambda phi: {s: e for s, e in phi.items() if s != "A1"}, "phi leaves out site 'A1'"),
    (lambda phi: {**phi, "Z9": ((None, 1.0),)}, "phi names unknown site 'Z9'"),
    (lambda phi: {**phi, "A3": (("t2", 0.4), ("nope", 0.6))},
     "phi rewrites site 'A3' to unknown tree 'nope'"),
    # validate raised a bare TypeError on a string, and summed a bool as 1
    (lambda phi: {**phi, "A3": (("t2", "0.4"), (None, 0.6))},
     "phi gives site 'A3' the probability '0.4', which is not a real number"),
    (lambda phi: {**phi, "A3": (("t2", True), (None, 0.0))},
     "phi gives site 'A3' the probability True, which is not a real number"),
    (lambda phi: {**phi, "A3": (("t2", 0.4), (None, 0.6j))},
     "phi gives site 'A3' the probability 0.6j, which is not a real number"),
    (lambda phi: {**phi, "A3": (("t2", None), (None, 0.6))},
     "phi gives site 'A3' the probability None, which is not a real number"),
], ids=["site-left-out", "key-of-no-site", "target-of-no-tree", "string-prob", "bool-prob",
        "complex-prob", "none-prob"])
def test_grammar_rejects_malformed_phi(grammar4, edit, message):
    g = grammar4
    with pytest.raises(gr.GrammarError, match=re.escape(message)):
        gr.Grammar(g.start, g.nonterminals, g.terminals, g.trees, edit(g.phi))


def test_grammar_accepts_any_real_probability(grammar4):
    # ints, fractions and numpy floats are real numbers, counted at their value
    g = grammar4
    for entries in ((("t2", Fraction(2, 5)), (None, 0.6)), (("t2", 0), (None, 1)),
                    (("t2", np.float32(0.5)), (None, 0.5))):
        edited = gr.Grammar(g.start, g.nonterminals, g.terminals, g.trees,
                            {**g.phi, "A3": entries})
        assert gr.validate(edited) == []
        assert edited.index.mass[edited.index["A3"]] == 1.0


def test_validate_reads_the_site_mass_of_the_index():
    # at the PROPERNESS_TOL edge the order of the sum decides; both sides
    # read the one mass the index records, so they cannot disagree
    for name, (a, b, c) in MASS_EDGE.items():
        a, b, c = map(float.fromhex, (a, b, c))
        in_document_order = abs(a + b + c - 1.0) > PROPERNESS_TOL
        assert in_document_order == (name == "on")
    off = parse(mass_edge_document("off"))
    mass = float(off.index.mass[off.index["s0"]])
    assert mass == (float.fromhex(MASS_EDGE["off"][0]) + float.fromhex(MASS_EDGE["off"][2])
                    + float.fromhex(MASS_EDGE["off"][1]))
    diags = gr.validate(off)
    assert [(d.code, d.site_id) for d in diags] == [(gr.IMPROPER_SITE, "s0")]
    assert f"{mass:.12g}" in diags[0].message
    assert off.index.bad_site == "s0"
    with pytest.raises(ValueError, match=re.escape(f"(its entries sum to {mass!r})")):
        br.extinction(off)
    on = parse(mass_edge_document("on"))
    assert gr.validate(on) == [] and on.index.bad_site is None
    assert br.extinction(on).converged


def nudged(g, seed):
    """g with one site's entries scaled to a mass near the PROPERNESS_TOL edge."""
    rng = np.random.default_rng(seed)
    sites = [s for s in g.site_ids if g.phi[s]]
    if not sites:
        return g
    site = sites[rng.integers(len(sites))]
    factor = 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) * PROPERNESS_TOL
    phi = {**g.phi, site: tuple((t, p * factor) for t, p in g.phi[site])}
    return gr.Grammar(g.start, g.nonterminals, g.terminals, g.trees, phi)


def test_improper_site_names_exactly_the_sites_whose_index_mass_is_off():
    grammars = [random_proper_grammar(seed) for seed in range(200)]
    grammars += [g for _, g in verdict_corpus(1)]
    grammars += [pinned_grammar(name) for name in (
        "grammar2", "grammar4", "segment_edge", "duplicate_target", "two_site_start",
        "two_siteless_start")]
    grammars += [parse(mass_edge_document(name)) for name in MASS_EDGE]
    grammars += [nudged(g, seed) for seed, g in enumerate(grammars)]
    for g in grammars:
        idx = g.index
        named = {d.site_id for d in gr.validate(g) if d.code == gr.IMPROPER_SITE}
        assert named == {idx.ids[i] for i in np.flatnonzero(abs(idx.mass - 1.0) > PROPERNESS_TOL)}
        if not any(d.severity == gr.ERROR for d in gr.validate(g)):
            assert g.index.checked() is idx


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


DEEP = "trees[1].root.children[0].children[2]"


def deep_document(node=None):
    """A clean two-tree document whose node at DEEP is node (default an anchor)."""
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    doc["trees"].append({"id": "t2", "type": "initial", "root": {
        "label": "S", "children": [{"label": "B", "children": [
            {"anchor": "b"},
            {"label": "B", "site": "Y", "children": [{"anchor": "c"}]},
            {"anchor": "d"} if node is None else node]}]}})
    doc["phi"] = [{"site": "R", "tree": None, "prob": 1.0},
                  {"site": "Y", "tree": None, "prob": 1.0}]
    return doc


_GONE = object()


def edited(path, value=_GONE):
    """deep_document() with the item at path (a key sequence) set to value,
    or deleted when no value is given."""
    doc = deep_document()
    *head, last = path
    owner = doc
    for key in head:
        owner = owner[key]
    if value is _GONE:
        del owner[last]
    else:
        owner[last] = value
    return doc


FORMS = "('label', 'anchor', 'foot', 'subst', 'epsilon')"
ENTRY = 'phi entry must be {"site": ..., "tree": ..., "prob": ...}'

# (document, location, message): every located message of from_document,
# _parse_node, _require_symbol and _parse_phi, with its location
PARSE_ERRORS = [
    ([], None, "document root must be a JSON object"),
    (edited(["start"]), None, 'missing or empty "start" symbol'),
    (edited(["start"], ""), None, 'missing or empty "start" symbol'),
    (edited(["start"], 5), None, 'missing or empty "start" symbol'),
    (edited(["trees"]), None, '"trees" must be a nonempty array'),
    (edited(["trees"], []), None, '"trees" must be a nonempty array'),
    (edited(["trees"], {"t1": {}}), None, '"trees" must be a nonempty array'),
    (edited(["trees", 1], "t2"), "trees[1]", "tree must be an object"),
    (edited(["trees", 1, "id"]), "trees[1]", 'missing tree "id"'),
    (edited(["trees", 1, "id"], ""), "trees[1]", 'missing tree "id"'),
    (edited(["trees", 1, "id"], 2), "trees[1]", 'missing tree "id"'),
    (edited(["trees", 1, "id"], "t1"), "trees[1]", "duplicate tree id 't1'"),
    (edited(["trees", 1, "type"], "aux"), "trees[1]",
     "tree type must be \"initial\" or \"auxiliary\", got 'aux'"),
    (edited(["trees", 1, "type"]), "trees[1]",
     'tree type must be "initial" or "auxiliary", got None'),
    (edited(["trees", 1, "root"]), "trees[1]", 'missing "root" node'),
    (edited(["trees", 1, "root"], None), "trees[1].root", "node must be an object"),
    (deep_document(7), DEEP, "node must be an object"),
    (deep_document({"leaf": "a"}), DEEP, f"node must use exactly one of {FORMS}, got ['leaf']"),
    (deep_document({}), DEEP, f"node must use exactly one of {FORMS}, got []"),
    (deep_document({"anchor": "a", "foot": "S"}), DEEP,
     f"node must use exactly one of {FORMS}, got ['anchor', 'foot']"),
    (deep_document({"anchor": "a", "site": "Z"}), DEEP, "unknown node keys ['site']"),
    (deep_document({"epsilon": True, "x": 1, "a": 2}), DEEP, "unknown node keys ['a', 'x']"),
    (deep_document({"label": "B", "site": "", "children": [{"anchor": "a"}]}), DEEP,
     '"site" must be a nonempty string'),
    (deep_document({"subst": "S", "site": 3}), DEEP, '"site" must be a nonempty string'),
    (deep_document({"subst": "S", "site": "Y"}), DEEP, "duplicate site id 'Y'"),
    (deep_document({"label": "B", "site": "R", "children": [{"anchor": "a"}]}), DEEP,
     "duplicate site id 'R'"),
    (deep_document({"epsilon": False}), DEEP, '"epsilon" must be true'),
    (deep_document({"epsilon": 1}), DEEP, '"epsilon" must be true'),
    (deep_document({"subst": "S"}), DEEP, 'substitution leaf requires a "site" id'),
    (deep_document({"label": "B", "children": []}), DEEP,
     'interior node requires nonempty "children"'),
    (deep_document({"label": "B"}), DEEP, 'interior node requires nonempty "children"'),
    (deep_document({"label": "B", "children": {"anchor": "a"}}), DEEP,
     'interior node requires nonempty "children"'),
    (deep_document({"anchor": ""}), DEEP, "symbol must be a nonempty string"),
    (deep_document({"foot": 3}), DEEP, "symbol must be a nonempty string"),
    (deep_document({"subst": None, "site": "Z"}), DEEP, "symbol must be a nonempty string"),
    (deep_document({"label": ["B"], "children": [{"anchor": "a"}]}), DEEP,
     "symbol must be a nonempty string"),
    (deep_document({"label": "B", "children": [{"anchor": "a"}, {"anchor": 5}]}),
     f"{DEEP}.children[1]", "symbol must be a nonempty string"),
    (edited(["trees", 0, "root", "children", 0], {"anchor": "S"}), None,
     "symbols used both as terminals and nonterminals: S"),
    (deep_document({"label": "b", "children": [{"anchor": "S"}]}), None,
     "symbols used both as terminals and nonterminals: S, b"),
    (edited(["phi"], {}), None, '"phi" must be an array'),
    (edited(["phi", 1], ["Y", None, 1.0]), "phi[1]", ENTRY),
    (edited(["phi", 1, "prob"]), "phi[1]", ENTRY),
    (edited(["phi", 1, "weight"], 1), "phi[1]", ENTRY),
    (edited(["phi", 1, "site"], "ghost"), "phi[1]", "unknown site 'ghost'"),
    (edited(["phi", 1, "site"], 5), "phi[1]", "unknown site 5"),
    (edited(["phi", 1, "tree"], "ghost"), "phi[1]", "unknown target tree 'ghost'"),
    (edited(["phi", 1, "tree"], 7), "phi[1]", "unknown target tree 7"),
    (edited(["phi", 1, "prob"], "1.0"), "phi[1]", '"prob" must be a number'),
    (edited(["phi", 1, "prob"], True), "phi[1]", '"prob" must be a number'),
    (edited(["phi", 1, "prob"], None), "phi[1]", '"prob" must be a number'),
    (edited(["phi", 1, "prob"], 10**400), "phi[1]", '"prob" is beyond float range'),
]


@pytest.mark.parametrize("doc,location,message", PARSE_ERRORS,
                         ids=[f"{i}-{m[:24]}" for i, (_, _, m) in enumerate(PARSE_ERRORS)])
def test_parse_error_pinned(doc, location, message):
    with pytest.raises(gr.GrammarParseError) as info:
        parse(doc)
    assert info.value.location == location
    assert str(info.value) == (f"{location}: {message}" if location else message)
    with pytest.raises(gr.GrammarParseError) as direct:
        gr.from_document(json.loads(json.dumps(doc)))
    assert (direct.value.location, str(direct.value)) == (location, str(info.value))


@pytest.mark.parametrize("data,message", [
    (b'{"start": "S",', "invalid JSON at line 1 column 15: "
                        "Expecting property name enclosed in double quotes"),
    (b'{"start": "S"}\n]', "invalid JSON at line 2 column 1: Extra data"),
    (b'{"start": "\xff"}', "document is not UTF-8: invalid start byte at byte 11"),
    (b"[" * 100_000 + b"]" * 100_000, "document is nested too deeply"),
])
def test_undecodable_document_pinned(data, message):
    with pytest.raises(gr.GrammarParseError) as info:
        gr.parse_grammar(data)
    assert (info.value.location, str(info.value)) == (None, message)


def nested_document(depth):
    """minimal_document() with depth interior B nodes above its anchor."""
    node = {"anchor": "a"}
    for _ in range(depth):
        node = {"label": "B", "children": [node]}
    doc = minimal_document()
    doc["trees"][0]["root"]["children"] = [node]
    return doc


def test_from_document_too_deep_is_a_parse_error():
    # a document object built in Python never meets the JSON decoder's
    # depth limit, so the recursive node parser meets it instead
    with pytest.raises(gr.GrammarParseError) as info:
        gr.from_document(nested_document(3000))
    assert (info.value.location, str(info.value)) == (None, "document is nested too deeply")
    assert len(gr.from_document(nested_document(200)).trees[0].root.children) == 1


def test_deep_document_is_clean():
    # the error cases above differ from a clean grammar only where they say
    g = parse(deep_document())
    assert g.site_ids == ("R", "Y")
    assert gr.validate(g) == []



@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_collector_state(tmp_path, enabled):
    bad_json = tmp_path / "bad.json"
    bad_json.write_bytes(b'{"start": "S",')
    duplicate_site = deep_document({"subst": "S", "site": "Y"})
    builds = [lambda: gr.parse_grammar(GRAMMAR4.read_bytes()),
              lambda: gr.load_grammar(GRAMMAR4),
              lambda: gr.from_document(json.loads(GRAMMAR4.read_text()))]
    failures = [lambda: gr.parse_grammar(bad_json.read_bytes()),
                lambda: gr.load_grammar(bad_json),
                lambda: gr.parse_grammar(json.dumps(duplicate_site)),
                lambda: gr.from_document(duplicate_site)]
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for build in builds:
            build()
            assert gc.isenabled() is enabled
        for fail in failures:
            with pytest.raises(gr.GrammarParseError):
                fail()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


# -- serialization ----------------------------------------------------------

def test_round_trip_identity(grammar4, grammar2):
    for g in (grammar4, grammar2):
        text = json.dumps(gr.to_document(g), indent=2) + "\n"
        again = gr.parse_grammar(text)
        assert gr.to_document(again) == gr.to_document(g)
        assert again.site_ids == g.site_ids
        for site in g.site_ids:
            assert again.phi[site] == g.phi[site]


def test_round_trip_preserves_defaulted_entries():
    doc = minimal_document()
    doc["trees"][0]["root"]["site"] = "R"
    g = parse(doc)
    again = gr.parse_grammar(json.dumps(gr.to_document(g), indent=2) + "\n")
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
    messages = [d.message for d in gr.validate(parse(doc)) if d.code == gr.BAD_PROB]
    # both are out of range, and the second nil entry repeats a target
    assert messages == ["probability 1.5 outside [0, 1] for target None",
                        "probability -0.5 outside [0, 1] for target None",
                        "target None listed twice"]


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


def test_repeated_nil_entry_is_flagged(grammar4):
    # nil split into two entries is one outcome listed twice: the enumerator
    # lists the derivation that takes it once per entry
    phi = dict(grammar4.phi, A1=(("t2", 0.8), (None, 0.1), (None, 0.1)))
    g = dataclasses.replace(grammar4, phi=phi)
    assert [(d.code, d.site_id, d.message) for d in gr.validate(g)] == [
        (gr.BAD_PROB, "A1", "target None listed twice")]
    assert [(d.as_dict(), d.probability) for d in enumerate_derivations(g, 1)] == [
        ({"tree": "t1", "at": None, "children": {"A1": "nil"}}, 0.1)] * 2


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


def test_bad_foot_site_on_a_foot_node():
    # a foot leaf takes no "site" in a document, so the tree is built by hand
    leaf = gr.TreeNode(gr.ANCHOR, "b", (), None, "1")
    foot = gr.TreeNode(gr.FOOT, "S", (), "F", "2")
    aux = gr.ElementaryTree("t2", gr.AUXILIARY, gr.TreeNode(gr.INTERIOR, "S", (leaf, foot)))
    start = parse(minimal_document()).trees[0]
    g = gr.Grammar("S", frozenset({"S"}), frozenset({"a", "b"}), (start, aux),
                   {"F": ((None, 1.0),)})
    assert [d.as_dict() for d in gr.validate(g) if d.code == gr.BAD_FOOT] == [
        {"severity": gr.ERROR, "code": gr.BAD_FOOT, "tree": "t2", "site": "F",
         "message": "adjunction site on a foot node"}]


def test_no_start_tree():
    doc = {
        "start": "Z",
        "trees": [{"id": "t1", "type": "initial",
                   "root": {"label": "S", "children": [{"anchor": "a"}]}}],
        "phi": [],
    }
    g = parse(doc)
    assert gr.NO_START_TREE in [d.code for d in gr.validate(g)]
    with pytest.raises(ValueError, match="no initial tree rooted in 'Z'"):
        start_law(g)


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


# -- the front end's output, pinned -----------------------------------------

def front_end_digest(g):
    """sha256 of what parse, validate and index make of a grammar.

    Covers the canonical document, the validate JSON, each tree's preorder
    of (kind, label, site_id, address) with its sites, anchors and feet,
    phi with the exact bits of every probability, and every SiteIndex
    array with its dtype.
    """
    idx = g.index
    parts = [
        json.dumps(gr.to_document(g)),
        json.dumps([d.as_dict() for d in gr.validate(g)]),
        repr((g.start, sorted(g.nonterminals), sorted(g.terminals), g.site_ids)),
        repr([(t.tree_id, t.kind,
               [(n.kind, n.label, n.site_id, n.address) for n in t.root.preorder()],
               [n.address for n in t.sites], t.anchors, [n.address for n in t.feet])
              for t in g.trees]),
        repr([(site, [(target, p.hex()) for target, p in entries])
              for site, entries in g.phi.items()]),
        repr((idx.ids, idx.tree_ids)),
        *(f"{a.dtype.str}{a.shape}{a.tobytes().hex()}"
          for a in (idx.tree_start, idx.site, idx.tree, idx.prob, idx.nil, idx.anchors,
                    idx.starts, idx.owner, np.flatnonzero(np.diff(idx.tree_start)),
                    idx.bounds[:-1])),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


FRONT_END_DIGESTS = {
    "grammar2": "30eb147f3412be030bf86cbebda5b1cbf2854eed639dce630a4ec515a51a5eb2",
    "grammar4": "a9c8de5746edf78cee404483ed262130a1f7fa77ea718f9e29478da13b24044a",
    "syn130": "50a69fb860976772c31d477317ec6bcde156343a07fadb4578d7b2f67c5286f2",
    "segment_edge": "852f07aaa7a122ebda0caa537728d79347ccff074807062649c8743476afdb64",
    "random0": "8f567e06f7b9a8f085c13a7985830df25edb56de28bab716f0e3a0d00c3162b2",
    "random1": "bee003f197c65428b5af6ee03d5928003ac3ca3f3387ba12b24fb43f12277985",
    "random2": "94ca40a1a953c7c8fc56e8bcf98b9a05118d38530e76a6b36248ac38eff2bea1",
    "random3": "37550bd55a5acc369c8a43aa38c9152d85e9bcaf3e65bebc1a7249856629436c",
    "random4": "db26ffd5662771a9115c7c09879f837b1784c30471d419e4107fec5226a70c67",
    "random5": "4d08523e67e807db27f39db36e9fa18ecdc83de121464f80e7bbf4d3090648f0",
    "random6": "2f807c55a58c20fa8126323712871e6cde885c8d48c793338f31e6bd50e3b548",
    "random7": "f78a495eff91f832e22df8b6d76bc8d07761ce16cb663ef5634988a2d94901bb",
    "random8": "44557ade39825f4bf5eeb500d7051bcd2bf8e7c7d7f671b6389fd3286b1e6489",
    "random9": "8d2e23ba6f6230aac1f92b85ac6367c42fb6ba98db8652607452719509e08226",
    "random10": "3d590c6a026722f80fff64556c2c71add4f1c11c8bddef216a237c9e5af1bddc",
    "random11": "ae6b68566c4d7a4f298495cfede288a3c96f8e5ab424273d712e6f3db6456c27",
    "random12": "d3db3383e20b85e0b76b5350152ef0d0389e20e2bf0ac7016e0677e11f6b756f",
    "random13": "5b09e9db9d499f0a222c6b1e2d94dbd61deaf230460db43ede89023a736937b7",
    "random14": "74aa275fb488294dadb6f9c2fc06d6c8dff47eca96ece55de12bd1b75d904676",
    "random15": "495f1810bcb0e3ebead0287b7fc921de71c18ad3a78dbbfe9d722833942eef18",
    "random16": "47ec0c1e55e82c12fa8dea105dc4b29cb33d3f4c0f6d1f8ddaeba1b0c164382d",
    "random17": "e8f7258ad772224175abde9c6387659244f15415b3147a6e09ea4b47228e926a",
    "random18": "ac97a9d9d55c2b1838901a3f3377968e17fb28dd988871ce9001d22e4e53355a",
    "random19": "252c1c7e15c547d079f654ad106c6c62d414868ffd39d64dc103628eba8d0385",
    "random20": "6cb50e3ce1e6bb1cd273089f06ea6b58b4c749c44b3f2faea0e9f92e877c3501",
    "random21": "6e0ab61df7281de50d00818c3847b9238c6a02307473299e2a977443d7a305e0",
    "random22": "ceee645f642741d15ce794fa7169f895583ff07f302f075b18acf72802593741",
    "random23": "b524f3a13e1e09c8a56d27a218063fc7d64bbdfdf2a199f46f33d97031e25d7b",
    "random24": "975574fe00138928fdbdb8e143ce4b193057bd3af6d806dcd19af7064f8f39c5",
    "random25": "ac12de6f1ca0fd09921d9d6490e205c683d80b750c04eac73a2a98cf43bf0826",
    "random26": "2492307f06ac236d9a60ef41fbc1beaecd41e47225a69499427e2b4206c1b4c5",
    "random27": "626088dca3ad696df22d8c46dabac0dd52087f4b5ec239ad053a7028611a4250",
    "random28": "874ae0e0e29046b45238b311cc5b826b668483fc7ecefb0f88a102ae3ab64429",
    "random29": "cbdddbf924cb0532e3b6ce7c9e943ed7d8e0bf1e2e9ddfe67df3c6185247fd50",
    "random30": "42fe1a7841707b7ab795c27b8c170b72daeef73525ed23f24d5e5b6bbe245a43",
    "random31": "184bfef8c19ea0f969ac42457cde4c681d59e6722049e6a9f407d6559dcf535d",
    "random32": "369f51098df9ae4e75e68a97f741c984899e7a3b804b19234a3a81198a1e5d92",
    "random33": "ad11c6b93ca512c08eb8a6137576fb8d3555fbb32c75fddded8b03842792ed19",
    "random34": "fd465b32f196ed4a91b72abb748672e9eeefb8e6f71a85e77eddfda876bd5c5d",
    "random35": "e14845c04672dbcbeea089349dbbc37305fc9a66547f4553b398ac2660766db3",
    "random36": "5c03881241e3690c817e5af8ac45eb104f487f1e9b3169c39575f0d7f4f19689",
    "random37": "62cc8f3b6b8864c5f5f313f07532b054329dcb726505289b3ca2a551441bae76",
    "random38": "694861b9fe453dd1d8c061503cc835b306d025d0b23df6056a16ad8ce0ac09a9",
    "random39": "0e25bcd968a8cd8fa7a9f81e111f0c0842f60a9848c96e9aed2438faceeb5045",
    "random40": "ee5400c810e1d542b01b1cc1310708ca35d2efa0bf3c87cf5579018ec8978261",
    "random41": "f1a298cefc5f0a655452165a8afcc7d6596066e9562b6b42fb9842c67ef4d25e",
    "random42": "461785d7802a9a253404cea9fba6ad3a63a84b7602434345bc84f935919d7a5c",
    "random43": "62fbb1838e60726af088ad67bebff3ea1af982d7a29b9f833baf8df473b431f2",
    "random44": "075c798f91f7d9bbcb5c11b05246e6bd32a3775076a59c483808e2d0e31cf6c5",
    "random45": "3c8a91c84859bf9ab3cea6e1f435cadd5eee1f6308cb9db62bad69647e5090b4",
    "random46": "2c8a9e2d0936c2cf84d4e3c2d82dfaa29821bc411e5d6a88561a9d0e359f724d",
    "random47": "8a01e2bba6e4923eaab58f12ebd924857f4157c2f631e5ad7c008531e4bbf005",
    "random48": "22069690fb661e184abd552780b136563e11d5e405284a57b61b560f6ab28217",
    "random49": "7c0b0a226e84d5ac4f3b127ec440a88e2e33cf61230d43f0ac6f195327ca2b10",
    "random50": "76d05385ee98f29fcae022d0b3ed27f14af8cc46964bcc792ed7bb75671131f1",
    "random51": "6b0c02a9251890603269a01b392eb1a3ba5ceef0bd22cc22dd06d6b5e1b92981",
    "random52": "55dd172d50ce0d8bfd3b0b7884f53c7c92c73c17d3e254a0d61bb4c67a852afe",
    "random53": "9535a899750ea92fcf3d2c718c63ae307d718db25d11e70cd9bc137fd6cd46cd",
    "random54": "5af0158b9832938bd693c288c84f4b70b29bf663a5e6796f73954d4b74e72bcb",
    "random55": "ecace3e1b30695ae9b49da01f6ec2be62355324e438a2c289752aa56e9256787",
    "random56": "c80e731359cafc864623de2a0d129928bc518c8cf370855d45e83e748a717c34",
    "random57": "ea4347682be02f42ba38e49b3867d75197e074ed85d965bbcfc8abb81ffc42a6",
    "random58": "fe1901a9e1e7f350c2a153edf7baacea222c8556d0f35e0892aeb98a7b4fc46d",
    "random59": "eb0bd67f910263248a6741b180345fa6e5c7eb84ae33880f93089bdcae118d5e",
    "random60": "e57874e705b63a4390038522eb3c88ded9a97cd817b3c0db1475275c90acb35e",
    "random61": "986da2cb45e21e3a2237c9d0af7ea3666a587930e55fe6850bbf85fac3fca0dc",
    "random62": "d488b572a5a081db9e1d30c17b5254beb1a0627b9fad916e6f9a280d1cf82ed8",
    "random63": "dc79eab89f42d9dcc0a24dfc57e183cbfa91ac9929352f084cd97e7aa33b4291",
    "random64": "cb1f48977c87d3cd3590d9522e60534d35faa2c3a8775aa50009f3678606f9e4",
    "random65": "75d49c70deda7d5db2799536507217ca7d17c26a7f7b9a5a913b9faa8c71b630",
    "random66": "68b3e096a5ca5dc22da91938adecaad09513d30d61f7d36f296337cd968946e2",
    "random67": "9225673e9bfc71c244a2e3757fc217c13d9a9226bb7a4536d7a8b59e4e8436dd",
    "random68": "64ee7c5425051c60de31bcf0bc107c04b26eaa937abc48d38206b5d62aa83db4",
    "random69": "f8c914685d020e618e137e17969db4540aaebb6cf286030456d717cfd943e1a4",
    "random70": "3733c17e1deda5476dac482a19e7a3cb1c0bda6fc1821ae36ca13e61af47dfb4",
    "random71": "b7113f42b1aa7a793da3da22717a15ffe81cfe2a4293a6737bb55abebc9211aa",
    "random72": "0d9242547c27fb2cee8acfde5367ea34131f8d3b07e1a878863ea29a7dfbbe89",
    "random73": "808740226c8f9c50ee8fb78989b45e304d12f205702bcd26d86b766511cff46d",
    "random74": "fdd25cfacfdeac175314367fa96b9f73b20a2a1ccc818b4255ce2da6d20c3720",
    "random75": "2397c4c71b856d4505fff4ca7fc480f7a6018c7f6a2315e07a6d073d2bf0e501",
    "random76": "a05cdd2e2b2ac1968916b84ad42e1f3f59f2049d728a3f6a22ccb7a17b743c9e",
    "random77": "dc5f13fbc61c84a55bf275d03ce6e172422addb2de4e69f80df819f26f6a74df",
    "random78": "0bf976a6b7e622a13a3e26204e9cc423224503fc2fa254636e2086bdbe1d4772",
    "random79": "591a228dfdbf90b0cf932a9277fec30a09ffa54e6cb011810c5bc84f0ebc4274",
    "random80": "7753fa318b481d2d5a0d0db7901408cb27878ddfb01ab36f0ef48e43075b4eb1",
    "random81": "d6136cf06d159c607dd04f4e441a1c420620e817cc4180aaa5a978749e26f6d6",
    "random82": "b8871af943df17cfafd3751a198c5d4777db6b7aae5c91b293ccd023823003cb",
    "random83": "26b51846d12e976a938f2567fed3f8c6b6255139aa2ffeeaacc1a329cf483780",
    "random84": "692784c43094690471dba40920ca30ef1b37c926692d87cc26b8c219046be40d",
    "random85": "fcb513274052b23984aae29a654183a1428955ed78890db637e161e6a354e4bf",
    "random86": "712944ecba78b841f96596d3b1d00bf59c4da370cd0f6fa56caa607b99f7bf49",
    "random87": "661deb02880c2a1cb80307052685c287a7a74268f8c5e0bf23f7bfe934371fef",
    "random88": "bd5b3a058df1a337ae627fe38ff2e3f4d66477d25582e1cdcaf4612c99409fb4",
    "random89": "f8c7ba506b9a3093b84cd4caf0d786065d4383a885e308276d01ae1163b6081a",
    "random90": "8a93055beab46e6c7eec0c9db87d43ad93e5a0f64651a39167503e6460568c45",
    "random91": "0f581512a459849f85968dd6f8ef4996f6075392dd3ac0fd7e40aaea995bd59d",
    "random92": "ac69453029016875b1d8e4eb556856a2f40c70ba1bc8b117dd5fda5e70f7dae7",
    "random93": "8db7f56aa7bce2b1f81cde66adc69eb20ba4af06ec6730fc0612536048e95ade",
    "random94": "6c11f69dcad90c071975ff43d662887f2b59dd770bb403a9e2dc15eaed6926a7",
    "random95": "be149a50c241225712508813ee5291b55e0449112a716183507bb7612973c009",
    "random96": "b7901759e1d70539ad8830701d93dd1747d303cd9033e3876d2c127a9ffcddf9",
    "random97": "d18ca571275ef8b583c2fc2bf55db7f3da58200d81f6682058ada2dda8cf486b",
    "random98": "2217d0d0aef3af9cdf3cdcd9f9c9f8ea375749244934bfaeff77c86ff74f7dff",
    "random99": "86ef0aa4297e08c1d3d06d652c00e3881257d0cc0356a3dbfd7ba111737e8805",
}


def test_front_end_digests_cover_every_grammar():
    assert list(FRONT_END_DIGESTS) == (["grammar2", "grammar4", "syn130", "segment_edge"]
                                       + [f"random{seed}" for seed in range(100)])


@pytest.mark.parametrize("name", list(FRONT_END_DIGESTS))
def test_front_end_output_pinned(name):
    assert front_end_digest(pinned_grammar(name)) == FRONT_END_DIGESTS[name]
