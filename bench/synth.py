"""Seeded synthetic grammars in the style of a lexicalized TAG.

Each elementary tree has one anchor and zero to three rewrite sites, so a
site has only a few targets and phi stays sparse, as in XTAG-like grammars.
Substitution sites always carry full mass over initial trees of their label.
Adjunction sites spread a per-site share of the grammar's adjunction mass
over a few auxiliary trees of their label and keep the rest for nil.

Nonterminals are ranked, S first.  A substitution site mostly asks for a
label ranked below its tree's root, which keeps substitution mostly acyclic;
the remaining draws may close a substitution cycle.  Nothing is filtered on
outcome: unreachable supercritical trees (matrix verdict and extinction
disagree) and cycles of one-site trees (spectral radius exactly 1) stay in.

The same arguments always give the same document.
"""

from __future__ import annotations

import random

# number of rewrite sites per tree, drawn with these weights
_SITES_PER_TREE = (0, 1, 2, 3)
_SITES_WEIGHTS = (0.15, 0.40, 0.30, 0.15)
_INITIAL_SHARE = 0.4
_SUBST_SHARE = 0.35
_DOWNWARD_SUBST = 0.9


def default_labels(sites):
    """Nonterminal count that grows like sqrt(sites), at least 3."""
    return max(3, round(sites ** 0.5))


def synth_document(seed, sites, labels=None, targets_per_site=3, mass=0.5):
    """Grammar document with exactly ``sites`` rewrite sites.

    labels            number of nonterminals (S included)
    targets_per_site  most targets any site draws
    mass              mean adjunction mass of an adjunction site; each site
                      draws its own in [0.75 * mass, 1.25 * mass], capped at 0.9
    """
    if sites < 1:
        raise ValueError("sites must be >= 1")
    rng = random.Random(f"synth:{seed}:{sites}:{labels}:{targets_per_site}:{mass}")
    n_labels = labels or default_labels(sites)
    names = ["S"] + [f"N{i}" for i in range(1, n_labels)]

    trees = []  # (tree id, kind, root label, [site specs])
    left = sites
    while left > 0:
        first = not trees
        kind = "initial" if first or rng.random() < _INITIAL_SHARE else "auxiliary"
        root_rank = 0 if first else rng.randrange(n_labels)
        n_sites = min(left, rng.choices(_SITES_PER_TREE, _SITES_WEIGHTS)[0])
        if first:
            n_sites = max(1, n_sites)
        specs = []
        for j in range(n_sites):
            if j == 0 and rng.random() < 0.5:
                specs.append(("root", names[root_rank]))
            elif rng.random() < _SUBST_SHARE:
                if root_rank + 1 < n_labels and rng.random() < _DOWNWARD_SUBST:
                    rank = rng.randrange(root_rank + 1, n_labels)
                else:
                    rank = rng.randrange(n_labels)
                specs.append(("subst", names[rank]))
            else:
                specs.append(("interior", names[rng.randrange(n_labels)]))
        left -= len(specs)
        trees.append((f"t{len(trees) + 1}", kind, names[root_rank], specs))

    # every substitution label gets at least one initial tree to fill it
    initial_roots = {root for _, kind, root, _ in trees if kind == "initial"}
    for label in sorted({lab for *_, specs in trees for k, lab in specs if k == "subst"}):
        if label not in initial_roots:
            trees.append((f"t{len(trees) + 1}", "initial", label, []))
            initial_roots.add(label)

    initial_by = {}
    auxiliary_by = {}
    for tree_id, kind, root, _ in trees:
        (initial_by if kind == "initial" else auxiliary_by).setdefault(root, []).append(tree_id)

    doc_trees = []
    phi = []
    site_no = 0
    for tree_id, kind, root, specs in trees:
        children = [{"anchor": f"w{tree_id[1:]}"}]
        root_site = None
        for spec_kind, label in specs:
            site_no += 1
            site = f"s{site_no}"
            if spec_kind == "root":
                root_site = site
            elif spec_kind == "subst":
                children.append({"subst": label, "site": site})
            else:
                children.insert(rng.randrange(len(children) + 1),
                                {"label": label, "site": site,
                                 "children": [{"anchor": f"w{tree_id[1:]}x{site_no}"}]})
            if spec_kind == "subst":
                phi += _spread(rng, site, initial_by[label], targets_per_site, 1.0)
            else:
                share = min(0.9, mass * rng.uniform(0.75, 1.25))
                phi += _spread(rng, site, auxiliary_by.get(label, []),
                               targets_per_site, share)
        if kind == "auxiliary":
            children.insert(rng.randrange(len(children) + 1), {"foot": root})
        node = {"label": root, "children": children}
        if root_site is not None:
            node = {"label": root, "site": root_site, "children": children}
        doc_trees.append({"id": tree_id, "type": kind, "root": node})
    return {"start": "S", "trees": doc_trees, "phi": phi}


def _spread(rng, site, candidates, most, share):
    """phi entries of one site: ``share`` over a few candidates, rest to nil."""
    entries = []
    if candidates:
        chosen = rng.sample(candidates, min(len(candidates), rng.randint(1, most)))
        weights = [rng.random() + 0.05 for _ in chosen]
        total = sum(weights)
        entries = [{"site": site, "tree": t, "prob": share * w / total}
                   for t, w in zip(chosen, weights)]
    if share < 1.0 or not entries:
        entries.append({"site": site, "tree": None,
                        "prob": 1.0 - sum(e["prob"] for e in entries)})
    return entries


def relabel(doc, seed):
    """An isomorphic copy: trees reordered, every id, label and word renamed.

    Canonical site order follows tree order, so the matrices come out
    permuted; verdicts, termination probabilities and iteration counts stay
    the same up to rounding.
    """
    rng = random.Random(f"relabel:{seed}")
    trees = list(doc["trees"])
    rng.shuffle(trees)
    names = {}

    def fresh(old, prefix):
        if old not in names:
            names[old] = f"{prefix}{len(names)}_{rng.randrange(10**6)}"
        return names[old]

    def node(n):
        out = {}
        for key, value in n.items():
            if key == "children":
                out[key] = [node(c) for c in value]
            elif key == "site":
                out[key] = fresh(("site", value), "x")
            elif key == "anchor":
                out[key] = fresh(("word", value), "w")
            elif key in ("label", "foot", "subst"):
                out[key] = fresh(("label", value), "L")
            else:
                out[key] = value
        return out

    out_trees = [{"id": fresh(("tree", t["id"]), "e"), "type": t["type"],
                  "root": node(t["root"])} for t in trees]
    phi = [{"site": fresh(("site", e["site"]), "x"),
            "tree": None if e["tree"] is None else fresh(("tree", e["tree"]), "e"),
            "prob": e["prob"]} for e in doc["phi"]]
    rng.shuffle(phi)
    return {"start": fresh(("label", doc["start"]), "L"), "trees": out_trees, "phi": phi}


def shape(doc):
    """(sites, trees, phi entries) of a grammar document."""
    return (len({e["site"] for e in doc["phi"]}), len(doc["trees"]), len(doc["phi"]))
