import json
import random
from pathlib import Path

import pytest

from ptagcheck import grammar as gr

REPO = Path(__file__).resolve().parents[1]
GRAMMAR4 = REPO / "grammar4.json"
GRAMMAR2 = REPO / "grammar2.json"


@pytest.fixture(scope="session")
def grammar4():
    return gr.load_grammar(GRAMMAR4)


@pytest.fixture(scope="session")
def grammar2():
    return gr.load_grammar(GRAMMAR2)


@pytest.fixture(scope="session")
def corpus(grammar4, grammar2):
    return {"grammar4": grammar4, "grammar2": grammar2}


def minimal_document():
    return {
        "start": "S",
        "trees": [{"id": "t1", "type": "initial",
                   "root": {"label": "S", "children": [{"anchor": "a"}]}}],
        "phi": [],
    }


def parse(doc):
    return gr.parse_grammar(json.dumps(doc))


def two_siteless_start_grammar():
    """minimal_document() plus a second start tree; neither has a site."""
    doc = minimal_document()
    doc["trees"].append({"id": "t2", "type": "initial",
                         "root": {"label": "S", "children": [{"anchor": "b"}]}})
    return parse(doc)


def random_proper_grammar(seed, max_trees=10, max_sites=20):
    """A random structurally sound, proper grammar (warnings allowed).

    Every tree is anchored, auxiliary trees get a matching foot, substitution
    sites only target root labels that some initial tree provides, and each
    site's probabilities are normalized to sum to one.
    """
    rng = random.Random(seed)
    labels = ["S", "A", "B", "C"]
    terminals = ["a", "b", "c", "d"]

    n_init = rng.randint(1, 3)
    n_aux = rng.randint(0, max_trees - n_init - 1)
    kinds = [("initial", "S")]
    kinds += [("initial", rng.choice(labels)) for _ in range(n_init - 1)]
    kinds += [("auxiliary", rng.choice(labels)) for _ in range(n_aux)]
    init_labels = sorted({root for kind, root in kinds if kind == "initial"})

    site_counter = [0]
    sites_left = [max_sites]

    def new_site():
        site_counter[0] += 1
        sites_left[0] -= 1
        return f"X{site_counter[0]}"

    def leaf_choices(aux_foot_done):
        choices = ["anchor", "epsilon"]
        if sites_left[0] > 0:
            choices += ["interior_site", "subst"]
        return choices

    trees = []
    for i, (kind, root_label) in enumerate(kinds):
        children = []
        n_children = rng.randint(1, 3)
        for _ in range(n_children):
            choice = rng.choice(leaf_choices(kind == "initial"))
            if choice == "anchor":
                children.append({"anchor": rng.choice(terminals)})
            elif choice == "epsilon":
                children.append({"epsilon": True})
            elif choice == "subst":
                children.append({"subst": rng.choice(init_labels),
                                 "site": new_site()})
            else:
                children.append({"label": rng.choice(labels), "site": new_site(),
                                 "children": [{"anchor": rng.choice(terminals)}]})
        children.append({"anchor": rng.choice(terminals)})  # lexicalization
        if kind == "auxiliary":
            children.insert(rng.randrange(len(children) + 1), {"foot": root_label})
        root = {"label": root_label, "children": children}
        if i == 0 or (sites_left[0] > 0 and rng.random() < 0.5):
            root["site"] = new_site()
        trees.append({"id": f"t{i + 1}", "type": kind, "root": root})

    g_bare = parse({"start": "S", "trees": trees, "phi": []})
    aux_by_label = {}
    init_by_label = {}
    for t in g_bare.trees:
        group = aux_by_label if t.kind == "auxiliary" else init_by_label
        group.setdefault(t.root.label, []).append(t.tree_id)

    phi = []
    for site in g_bare.site_ids:
        node = g_bare.site_node(site)
        if node.kind == gr.SUBSTITUTION:
            targets = init_by_label[node.label]
            weights = [rng.random() + 0.05 for _ in targets]
            total = sum(weights)
            for target, w in zip(targets, weights):
                phi.append({"site": site, "tree": target, "prob": w / total})
        else:
            targets = aux_by_label.get(node.label, [])
            targets = rng.sample(targets, rng.randint(0, len(targets)))
            weights = [rng.random() for _ in targets] + [rng.random() + 0.1]
            total = sum(weights)
            for target, w in zip(targets, weights[:-1]):
                phi.append({"site": site, "tree": target, "prob": w / total})
            phi.append({"site": site, "tree": None, "prob": weights[-1] / total})

    g = parse({"start": "S", "trees": trees, "phi": phi})
    errors = [d for d in gr.validate(g) if d.severity == gr.ERROR]
    assert not errors, (seed, errors)
    return g


def segment_edge_grammar():
    """Shapes that trip per-tree site offsets.

    t2 (between two trees with sites) and t4 (declared last) have no sites,
    so adjoining them spawns nothing; B1 only ever adjoins t4, so its
    offspring function is constant.  A1 lists its nil entry before its
    targets and A2 carries a zero-probability entry.  A2 and A3 make the
    A-sites supercritical: their termination probability is 3/7.
    """
    def aux(tree_id, label, children, site=None):
        root = {"label": label, "children": children}
        if site:
            root["site"] = site
        return {"id": tree_id, "type": "auxiliary", "root": root}

    return parse({
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": {"label": "S", "children": [
                {"label": "A", "site": "A1", "children": [{"anchor": "a"}]}]}},
            aux("t2", "A", [{"anchor": "c"}, {"foot": "A"}]),
            aux("t3", "A", [{"foot": "A"}, {"label": "A", "site": "A3", "children": [
                {"label": "B", "site": "B1", "children": [{"anchor": "d"}]}]}],
                site="A2"),
            aux("t4", "B", [{"anchor": "e"}, {"foot": "B"}]),
        ],
        "phi": [
            {"site": "A1", "tree": None, "prob": 0.3},
            {"site": "A1", "tree": "t3", "prob": 0.5},
            {"site": "A1", "tree": "t2", "prob": 0.2},
            {"site": "A2", "tree": "t3", "prob": 0.7},
            {"site": "A2", "tree": "t2", "prob": 0.0},
            {"site": "A2", "tree": None, "prob": 0.3},
            {"site": "A3", "tree": "t3", "prob": 0.7},
            {"site": "A3", "tree": None, "prob": 0.3},
            {"site": "B1", "tree": "t4", "prob": 1.0},
        ],
    })


def duplicate_target_grammar():
    """Every site lists its one target twice; validate flags this as an error.

    Both entries of a site must count.  A2 and A3 each adjoin t2 with total
    probability 0.7, so their termination probability is 3/7 (the smaller
    root of q = 0.3 + 0.7 q^2); dropping one entry would make it 1.
    """
    return parse({
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": {"label": "S", "children": [
                {"label": "A", "site": "A1", "children": [{"anchor": "a"}]}]}},
            {"id": "t2", "type": "auxiliary", "root": {
                "label": "A", "site": "A2", "children": [
                    {"anchor": "b"},
                    {"label": "A", "site": "A3", "children": [{"foot": "A"}]}]}},
        ],
        "phi": [
            {"site": "A1", "tree": "t2", "prob": 0.4},
            {"site": "A1", "tree": None, "prob": 0.2},
            {"site": "A1", "tree": "t2", "prob": 0.4},
            {"site": "A2", "tree": "t2", "prob": 0.35},
            {"site": "A2", "tree": "t2", "prob": 0.35},
            {"site": "A2", "tree": None, "prob": 0.3},
            {"site": "A3", "tree": "t2", "prob": 0.35},
            {"site": "A3", "tree": "t2", "prob": 0.35},
            {"site": "A3", "tree": None, "prob": 0.3},
        ],
    })


def two_site_start_grammar():
    """A clean grammar whose start tree has two sites, each nil with 0.5.

    The derivation has finished by level 1 only when both start sites draw
    nil, so C_1 = 0.25; a level function built from the first start site
    alone would give 0.5.
    """
    def aux(tree_id, label, site, anchor):
        return {"id": tree_id, "type": "auxiliary", "root": {
            "label": label, "site": site,
            "children": [{"anchor": anchor}, {"foot": label}]}}

    return parse({
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": {"label": "S", "children": [
                {"label": "A", "site": "A1", "children": [{"anchor": "a"}]},
                {"label": "B", "site": "B1", "children": [{"anchor": "b"}]}]}},
            aux("t2", "A", "A2", "c"),
            aux("t3", "B", "B2", "d"),
        ],
        "phi": [
            {"site": "A1", "tree": "t2", "prob": 0.5},
            {"site": "A1", "tree": None, "prob": 0.5},
            {"site": "B1", "tree": "t3", "prob": 0.5},
            {"site": "B1", "tree": None, "prob": 0.5},
            {"site": "A2", "tree": "t2", "prob": 0.4},
            {"site": "A2", "tree": None, "prob": 0.6},
        ],
    })
