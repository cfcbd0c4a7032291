import copy
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from ptagcheck import grammar as gr

REPO = Path(__file__).resolve().parents[1]
GRAMMAR4 = REPO / "grammar4.json"
GRAMMAR2 = REPO / "grammar2.json"
BENCH = REPO / "bench"


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
    for node in [n for t in g_bare.trees for n in t.sites]:  # in g_bare.site_ids order
        site = node.site_id
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


def with_zero_entry(doc, g, seed):
    """doc with a zero-probability entry placed first among one site's
    entries, for a tree that the site could take (the kind and root label it
    needs) and does not list yet, or None when no site has such a tree."""
    rng = random.Random(f"zero-entry:{seed}")
    shapes = {t.tree_id: (t.kind, t.root.label) for t in g.trees}
    choices = []
    for tree in g.trees:
        for node in tree.sites:
            kind = gr.INITIAL if node.kind == gr.SUBSTITUTION else gr.AUXILIARY
            listed = {target for target, _ in g.phi[node.site_id]}
            choices += [(node.site_id, t) for t, shape in shapes.items()
                        if shape == (kind, node.label) and t not in listed]
    if not choices:
        return None
    site, target = rng.choice(choices)
    doc = copy.deepcopy(doc)
    first = next(k for k, e in enumerate(doc["phi"]) if e["site"] == site)
    doc["phi"].insert(first, {"site": site, "tree": target, "prob": 0.0})
    return doc


# Entries (b1, a), (nil, b), (b2, c) of the start site s0, whose mass lies
# at the PROPERNESS_TOL edge: a + b + c in document order and the index's
# (a + c) + b (bincount, then nil) fall on opposite sides of it.  "off" is
# off by the index's sum, "on" within it.
MASS_EDGE = {"off": ("0x1.132d8f91b7584p-4", "0x1.300c5f01d6618p-1", "0x1.5b1bde291372dp-2"),
             "on": ("0x1.fb5355e16737ap-3", "0x1.251ce39dbfe99p-1", "0x1.70391bc9f539cp-3")}


def mass_edge_document(name):
    a, b, c = map(float.fromhex, MASS_EDGE[name])
    aux = [{"id": tid, "type": "auxiliary",
            "root": {"label": "S", "children": [{"anchor": leaf}, {"foot": "S"}]}}
           for tid, leaf in (("b1", "b"), ("b2", "c"))]
    return {"start": "S",
            "trees": [{"id": "t1", "type": "initial",
                       "root": {"label": "S", "site": "s0", "children": [{"anchor": "a"}]}},
                      *aux],
            "phi": [{"site": "s0", "tree": "b1", "prob": a}, {"site": "s0", "tree": None, "prob": b},
                    {"site": "s0", "tree": "b2", "prob": c}]}


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


def doubling_grammar():
    """One initial tree with substitution sites B and C, each rewriting to
    that tree with probability 1: clean, and G_n = s[B]^(2^n) * s[C]^(2^n)."""
    return parse({
        "start": "S",
        "trees": [{"id": "t1", "type": "initial", "root": {"label": "S", "children": [
            {"subst": "S", "site": "B"}, {"anchor": "a"}, {"subst": "S", "site": "C"}]}}],
        "phi": [{"site": "B", "tree": "t1", "prob": 1.0},
                {"site": "C", "tree": "t1", "prob": 1.0}],
    })


def branching_family(p, sites=2):
    """t1's site adjoins t2 with probability p; t2's sites each adjoin t2 with p.

    Every site takes nil with 1 - p.  With two sites the offspring function
    is (1 - p) + p s^2: rho = 2p, extinction q = min(1, (1 - p)/p), and the
    death-by-level constants follow c_n = (1 - p) + p c_(n-1)^2 from c_0 = 0.
    p = 0.5 is critical.  With one site the grammar is a chain.
    """
    t2_sites = [{"label": "S", "site": f"B{i}", "children": [{"anchor": "b"}]}
                for i in range(1, sites + 1)]
    return parse({
        "start": "S",
        "trees": [{"id": "t1", "type": "initial", "root": {"label": "S", "children": [
                      {"label": "S", "site": "A1", "children": [{"anchor": "a"}]}]}},
                  {"id": "t2", "type": "auxiliary", "root": {"label": "S", "children": [
                      *t2_sites, {"foot": "S"}]}}],
        "phi": [entry for site in ["A1"] + [n["site"] for n in t2_sites]
                for entry in ({"site": site, "tree": "t2", "prob": p},
                              {"site": site, "tree": None, "prob": 1 - p})],
    })


def critical_chain(classes, period):
    """A chain of critical classes; clean, and start termination is 0.

    Class i is a cycle of period trees c{i}_j, each with one site that
    adjoins the next tree of the cycle with probability 1.  The first tree
    of each class but the last has a second site, L{i}, that adjoins the
    first tree of the next class with 0.5 (nil 0.5).  The start tree's site
    adjoins the first class.  M has rho 1 and row sums of M^n that grow
    like n^(classes - 1), while no derivation ever finishes.
    """
    def tree(i, j):
        cycle_site = {"label": "S", "site": f"C{i}_{j}", "children": [{"anchor": "a"}]}
        link = ([{"label": "S", "site": f"L{i}", "children": [{"anchor": "b"}]}]
                if j == 0 and i < classes else [])
        return {"id": f"c{i}_{j}", "type": "auxiliary",
                "root": {"label": "S", "children": [cycle_site, *link, {"foot": "S"}]}}

    phi = [{"site": "R", "tree": "c1_0", "prob": 1.0}]
    for i in range(1, classes + 1):
        phi += [{"site": f"C{i}_{j}", "tree": f"c{i}_{(j + 1) % period}", "prob": 1.0}
                for j in range(period)]
        if i < classes:
            phi += [{"site": f"L{i}", "tree": f"c{i + 1}_0", "prob": 0.5},
                    {"site": f"L{i}", "tree": None, "prob": 0.5}]
    start = {"id": "t0", "type": "initial", "root": {"label": "S", "children": [
        {"label": "S", "site": "R", "children": [{"anchor": "a"}]}]}}
    return parse({"start": "S", "phi": phi, "trees": [
        start, *(tree(i, j) for i in range(1, classes + 1) for j in range(period))]})


def finishing_sites(g):
    """T, the least set of sites with positive nil mass, or with a positive
    entry to a tree whose sites are all in T: the sites from which some
    derivation finishes.  The productive-symbol test for CFGs, read from
    g.phi and g.trees alone as an oracle for the numeric paths."""
    sites = {t.tree_id: [n.site_id for n in t.sites] for t in g.trees}
    finishing, grew = set(), True
    while grew:
        grew = False
        for site, entries in g.phi.items():
            if site not in finishing and any(
                    prob > 0 and (target is None or finishing.issuperset(sites[target]))
                    for target, prob in entries):
                finishing.add(site)
                grew = True
    return finishing


def spectral_radius(m):
    """Largest eigenvalue modulus of m by numpy, 0.0 for an empty matrix.

    The oracle the consistency tests check against: it shares no code with
    the row-sum squaring of check_consistency.
    """
    m = np.asarray(m, dtype=float)
    return float(np.abs(np.linalg.eigvals(m)).max()) if m.size else 0.0


def reference(g):
    """bench/oracle.py's Reference of g's document: M and its spectral radius
    built from the grammar alone, sharing no code with ptagcheck's numeric
    paths, as the judge of the matrix and of check."""
    _bench_importable()
    from oracle import Reference
    return Reference(gr.to_document(g))


def pinned_grammar(name):
    """A grammar whose outputs the tests pin, by name; randomN is seed N."""
    if name.startswith("random"):
        return random_proper_grammar(int(name.removeprefix("random")))
    return {"grammar4": lambda: gr.load_grammar(GRAMMAR4),
            "grammar2": lambda: gr.load_grammar(GRAMMAR2),
            "syn130": lambda: gr.load_grammar(REPO / "bench" / "data" / "syn130.json"),
            "segment_edge": segment_edge_grammar,
            "two_site_start": two_site_start_grammar,
            "two_siteless_start": two_siteless_start_grammar,
            "duplicate_target": duplicate_target_grammar}[name]()


def _bench_importable():
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))


def verdict_corpus(seed):
    """[(name, grammar)]: the benchmark's verdict-scale grammars for one seed."""
    _bench_importable()
    from workloads import verdict_corpus as documents
    return [(name, gr.from_document(doc)) for name, doc in documents(seed)]


def synth_grammar(seed, sites, **kwargs):
    """The benchmark's seeded synthetic grammar (bench/synth.py)."""
    _bench_importable()
    from synth import synth_document
    return gr.from_document(synth_document(seed, sites, **kwargs))
