"""Independent numeric reference for a grammar document.

Built straight from the JSON document with numpy, sharing no code with
``ptagcheck``: the expectation matrix by scattering phi through the
site-in-tree incidence, the offspring functions g(q) by a product over each
tree's sites, and the spectral radius by ``numpy.linalg.eigvals``.  The
benchmark checks the library's outputs against these.
"""

from __future__ import annotations

import numpy as np


def _preorder_sites(node, out):
    if "site" in node:
        out.append(node["site"])
    for child in node.get("children", ()):
        _preorder_sites(child, out)
    return out


class Reference:
    def __init__(self, doc):
        tree_sites = [_preorder_sites(t["root"], []) for t in doc["trees"]]
        self.site_ids = [s for sites in tree_sites for s in sites]
        pos = {s: i for i, s in enumerate(self.site_ids)}
        tree_pos = {t["id"]: i for i, t in enumerate(doc["trees"])}
        k = len(self.site_ids)
        self.k = k
        self.tree_sites = [np.array([pos[s] for s in sites], dtype=np.int64)
                           for sites in tree_sites]
        self.start_trees = [i for i, t in enumerate(doc["trees"])
                            if t["type"] == "initial" and t["root"]["label"] == doc["start"]]
        self.nil = np.zeros(k)
        rows, cols, probs = [], [], []
        for e in doc["phi"]:
            if e["tree"] is None:
                self.nil[pos[e["site"]]] += e["prob"]
            else:
                rows.append(pos[e["site"]])
                cols.append(tree_pos[e["tree"]])
                probs.append(e["prob"])
        self.rows = np.array(rows, dtype=np.int64)
        self.cols = np.array(cols, dtype=np.int64)
        self.probs = np.array(probs)

    def matrix(self):
        m = np.zeros((self.k, self.k))
        for i, t, p in zip(self.rows, self.cols, self.probs):
            m[i, self.tree_sites[t]] += p
        return m

    def spectral_radius(self):
        return float(np.abs(np.linalg.eigvals(self.matrix())).max()) if self.k else 0.0

    def tree_products(self, q):
        return np.array([q[sites].prod() for sites in self.tree_sites])

    def offspring(self, q):
        """g(q): per site, nil mass plus phi times each target's site product."""
        prods = self.tree_products(q)
        return self.nil + np.bincount(self.rows, weights=self.probs * prods[self.cols],
                                      minlength=self.k)

    def start_products(self, q):
        return [float(q[self.tree_sites[t]].prod()) for t in self.start_trees]
