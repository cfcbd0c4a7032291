"""Probabilistic tree adjoining grammar model, document parsing and validation.

A grammar document is a JSON object with a start symbol, a list of elementary
trees (initial and auxiliary) and a probability table ``phi`` mapping each
rewrite site to a distribution over target trees plus ``null`` ("no
adjunction").  Only nodes that carry a ``site`` id participate in rewriting;
id-less nodes are inert structure.  Node object forms, one per object:

    interior       {"label": L, "children": [...], "site"?: ID}
    anchor         {"anchor": TERMINAL}
    foot           {"foot": NONTERMINAL}
    substitution   {"subst": NONTERMINAL, "site": ID}
    epsilon        {"epsilon": true}

Terminal and nonterminal alphabets are inferred: anchor labels are terminals,
all other labels are nonterminals, and the two sets must be disjoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .expectation import SiteIndex

# node kinds
INTERIOR = "interior"
ANCHOR = "anchor"
FOOT = "foot"
SUBSTITUTION = "substitution"
EPSILON = "epsilon"

# tree kinds
INITIAL = "initial"
AUXILIARY = "auxiliary"

# diagnostic severities and codes
ERROR = "error"
WARNING = "warning"

IMPROPER_SITE = "IMPROPER_SITE"
LABEL_MISMATCH = "LABEL_MISMATCH"
BAD_FOOT = "BAD_FOOT"
NOT_LEXICALIZED = "NOT_LEXICALIZED"
UNREACHABLE_TREE = "UNREACHABLE_TREE"
EMPTY_YIELD_LOOP = "EMPTY_YIELD_LOOP"
NO_START_TREE = "NO_START_TREE"
DUPLICATE_ID = "DUPLICATE_ID"
BAD_PROB = "BAD_PROB"

PROPERNESS_TOL = 1e-9

_NODE_FORM_KEYS = ("label", "anchor", "foot", "subst", "epsilon")


class GrammarError(Exception):
    """Base class for grammar construction problems."""


class GrammarParseError(GrammarError):
    """Malformed grammar document.  ``location`` is a JSON-path-like string."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


@dataclass
class TreeNode:
    """One node of an elementary (or derived) tree.

    ``label`` is None exactly for epsilon leaves.  ``address`` is the Gorn
    address: "" for the root, "2.1" for the first child of the second child.
    """

    kind: str
    label: str | None
    children: tuple["TreeNode", ...] = ()
    site_id: str | None = None
    address: str = ""

    def preorder(self):
        yield self
        for child in self.children:
            yield from child.preorder()


@dataclass
class ElementaryTree:
    tree_id: str
    kind: str  # "initial" | "auxiliary"
    root: TreeNode
    sites: tuple[TreeNode, ...] = field(init=False)
    anchors: tuple[str, ...] = field(init=False)
    feet: tuple[TreeNode, ...] = field(init=False)

    def __post_init__(self):
        nodes = tuple(self.root.preorder())
        self.sites = tuple(n for n in nodes if n.site_id is not None)
        self.anchors = tuple(n.label for n in nodes if n.kind == ANCHOR)
        self.feet = tuple(n for n in nodes if n.kind == FOOT)

    @property
    def foot(self):
        return self.feet[0] if len(self.feet) == 1 else None


@dataclass
class Grammar:
    """An immutable probabilistic TAG.  Do not mutate after construction.

    ``phi`` maps each site id, in canonical site order, to a tuple of
    (target, prob) entries in document order; a target is a tree id, or
    None for "no adjunction".  An adjunction site the document leaves out
    gets ((None, 1.0),), a substitution site ().  The distinguished wrapper
    tree accepting any start-rooted initial tree is implicit: it
    contributes no site, no matrix row and no probability.
    """

    start: str
    nonterminals: frozenset
    terminals: frozenset
    trees: tuple[ElementaryTree, ...]
    phi: dict

    def __post_init__(self):
        self._tree_by_id = {t.tree_id: t for t in self.trees}
        self._site_node = {node.site_id: node
                           for tree in self.trees for node in tree.sites}
        # canonical site order: tree declaration order, preorder within a tree
        self.site_ids = tuple(self._site_node)

    def tree(self, tree_id):
        return self._tree_by_id[tree_id]

    def site_node(self, site_id):
        return self._site_node[site_id]

    @cached_property
    def index(self):
        """The grammar's numeric form, built on first use and then shared."""
        return SiteIndex.from_grammar(self)

    def start_trees(self):
        """Initial trees rooted in the start symbol, in declaration order."""
        return tuple(t for t in self.trees
                     if t.kind == INITIAL and t.root.label == self.start)


@dataclass
class Diagnostic:
    severity: str
    code: str
    message: str
    tree_id: str | None = None
    site_id: str | None = None

    def as_dict(self):
        return {"severity": self.severity, "code": self.code,
                "tree": self.tree_id, "site": self.site_id,
                "message": self.message}


# ---------------------------------------------------------------------------
# parsing

def parse_grammar(data):
    """Parse a grammar document (bytes or str of JSON) into a Grammar."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GrammarParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return from_document(doc)


def load_grammar(path):
    with open(path, "rb") as handle:
        return parse_grammar(handle.read())


def from_document(doc):
    """Build a Grammar from an already-decoded document object."""
    if not isinstance(doc, dict):
        raise GrammarParseError("document root must be a JSON object")
    start = doc.get("start")
    if not isinstance(start, str) or not start:
        raise GrammarParseError("missing or empty \"start\" symbol")
    tree_docs = doc.get("trees")
    if not isinstance(tree_docs, list) or not tree_docs:
        raise GrammarParseError("\"trees\" must be a nonempty array")

    nonterminals = {start}
    terminals = set()
    seen_tree_ids = set()
    seen_site_ids = set()
    trees = []
    for i, tdoc in enumerate(tree_docs):
        where = f"trees[{i}]"
        if not isinstance(tdoc, dict):
            raise GrammarParseError("tree must be an object", where)
        tree_id = tdoc.get("id")
        if not isinstance(tree_id, str) or not tree_id:
            raise GrammarParseError("missing tree \"id\"", where)
        if tree_id in seen_tree_ids:
            raise GrammarParseError(f"duplicate tree id {tree_id!r}", where)
        seen_tree_ids.add(tree_id)
        kind = tdoc.get("type")
        if kind not in (INITIAL, AUXILIARY):
            raise GrammarParseError(
                f"tree type must be \"initial\" or \"auxiliary\", got {kind!r}", where)
        if "root" not in tdoc:
            raise GrammarParseError("missing \"root\" node", where)
        root = _parse_node(tdoc["root"], "", f"{where}.root",
                           nonterminals, terminals, seen_site_ids)
        trees.append(ElementaryTree(tree_id, kind, root))

    overlap = nonterminals & terminals
    if overlap:
        raise GrammarParseError(
            "symbols used both as terminals and nonterminals: "
            + ", ".join(sorted(overlap)))

    phi = _parse_phi(doc.get("phi", []), trees, seen_site_ids)
    return Grammar(start=start, nonterminals=frozenset(nonterminals),
                   terminals=frozenset(terminals), trees=tuple(trees), phi=phi)


def _parse_node(obj, address, where, nonterminals, terminals, seen_site_ids):
    if not isinstance(obj, dict):
        raise GrammarParseError("node must be an object", where)
    forms = [k for k in _NODE_FORM_KEYS if k in obj]
    if len(forms) != 1:
        raise GrammarParseError(
            f"node must use exactly one of {_NODE_FORM_KEYS}, got {sorted(obj)}", where)
    form = forms[0]
    allowed = {form} | ({"children", "site"} if form == "label" else
                        {"site"} if form == "subst" else set())
    extra = set(obj) - allowed
    if extra:
        raise GrammarParseError(f"unknown node keys {sorted(extra)}", where)

    site_id = obj.get("site")
    if site_id is not None:
        if not isinstance(site_id, str) or not site_id:
            raise GrammarParseError("\"site\" must be a nonempty string", where)
        if site_id in seen_site_ids:
            raise GrammarParseError(f"duplicate site id {site_id!r}", where)
        seen_site_ids.add(site_id)

    if form == "anchor":
        label = _require_symbol(obj["anchor"], where)
        terminals.add(label)
        return TreeNode(ANCHOR, label, address=address)
    if form == "foot":
        label = _require_symbol(obj["foot"], where)
        nonterminals.add(label)
        return TreeNode(FOOT, label, address=address)
    if form == "epsilon":
        if obj["epsilon"] is not True:
            raise GrammarParseError("\"epsilon\" must be true", where)
        return TreeNode(EPSILON, None, address=address)
    if form == "subst":
        label = _require_symbol(obj["subst"], where)
        nonterminals.add(label)
        if site_id is None:
            raise GrammarParseError("substitution leaf requires a \"site\" id", where)
        return TreeNode(SUBSTITUTION, label, site_id=site_id, address=address)

    # interior
    label = _require_symbol(obj["label"], where)
    nonterminals.add(label)
    children_doc = obj.get("children")
    if not isinstance(children_doc, list) or not children_doc:
        raise GrammarParseError("interior node requires nonempty \"children\"", where)
    children = tuple(
        _parse_node(child, f"{address}.{j + 1}" if address else str(j + 1),
                    f"{where}.children[{j}]", nonterminals, terminals, seen_site_ids)
        for j, child in enumerate(children_doc))
    return TreeNode(INTERIOR, label, children=children, site_id=site_id,
                    address=address)


def _require_symbol(value, where):
    if not isinstance(value, str) or not value:
        raise GrammarParseError("symbol must be a nonempty string", where)
    return value


def _parse_phi(phi_doc, trees, site_ids):
    if not isinstance(phi_doc, list):
        raise GrammarParseError("\"phi\" must be an array")
    tree_ids = {t.tree_id for t in trees}
    entries = {}
    for i, edoc in enumerate(phi_doc):
        where = f"phi[{i}]"
        if not isinstance(edoc, dict) or set(edoc) != {"site", "tree", "prob"}:
            raise GrammarParseError(
                "phi entry must be {\"site\": ..., \"tree\": ..., \"prob\": ...}", where)
        site = edoc["site"]
        if site not in site_ids:
            raise GrammarParseError(f"unknown site {site!r}", where)
        target = edoc["tree"]
        if target is not None and target not in tree_ids:
            raise GrammarParseError(f"unknown target tree {target!r}", where)
        prob = edoc["prob"]
        if isinstance(prob, bool) or not isinstance(prob, (int, float)):
            raise GrammarParseError("\"prob\" must be a number", where)
        entries.setdefault(site, []).append((target, float(prob)))

    # canonical site order + default {nil: 1.0} for adjunction sites; an
    # unfilled substitution site gets no entry, which validate flags
    return {node.site_id: tuple(entries.get(
                node.site_id, () if node.kind == SUBSTITUTION else [(None, 1.0)]))
            for tree in trees for node in tree.sites}


# ---------------------------------------------------------------------------
# serialization

def to_document(g):
    """Canonical document form of a Grammar (inverse of from_document)."""
    return {
        "start": g.start,
        "trees": [{"id": t.tree_id, "type": t.kind, "root": _node_doc(t.root)}
                  for t in g.trees],
        "phi": [{"site": site, "tree": t, "prob": p}
                for site in g.site_ids for t, p in g.phi[site]],
    }


def _node_doc(node):
    if node.kind == ANCHOR:
        return {"anchor": node.label}
    if node.kind == FOOT:
        return {"foot": node.label}
    if node.kind == EPSILON:
        return {"epsilon": True}
    if node.kind == SUBSTITUTION:
        return {"subst": node.label, "site": node.site_id}
    doc = {"label": node.label}
    if node.site_id is not None:
        doc["site"] = node.site_id
    doc["children"] = [_node_doc(c) for c in node.children]
    return doc


def serialize_grammar(g, indent=2):
    return json.dumps(to_document(g), indent=indent) + "\n"


# ---------------------------------------------------------------------------
# validation

def validate(g):
    """All well-formedness findings for a grammar, deterministically ordered.

    Structural findings come first (tree declaration order, preorder within a
    tree), then unreachable trees, then empty-yield loops with their
    lexicalization warnings.  Empty result means a clean, proper grammar.
    """
    diags = []

    if not g.start_trees():
        diags.append(Diagnostic(ERROR, NO_START_TREE,
                                f"no initial tree rooted in start symbol {g.start!r}"))

    seen_trees = set()
    seen_sites = set()
    for tree in g.trees:
        if tree.tree_id in seen_trees:
            diags.append(Diagnostic(ERROR, DUPLICATE_ID,
                                    f"duplicate tree id {tree.tree_id!r}",
                                    tree_id=tree.tree_id))
        seen_trees.add(tree.tree_id)

        if tree.kind == AUXILIARY:
            if len(tree.feet) != 1:
                diags.append(Diagnostic(
                    ERROR, BAD_FOOT,
                    f"auxiliary tree has {len(tree.feet)} foot nodes, expected 1",
                    tree_id=tree.tree_id))
            else:
                foot = tree.feet[0]
                if foot.label != tree.root.label:
                    diags.append(Diagnostic(
                        ERROR, BAD_FOOT,
                        f"foot label {foot.label!r} differs from root label "
                        f"{tree.root.label!r}", tree_id=tree.tree_id))
                if foot.site_id is not None:
                    diags.append(Diagnostic(
                        ERROR, BAD_FOOT, "adjunction site on a foot node",
                        tree_id=tree.tree_id, site_id=foot.site_id))
        elif tree.feet:
            diags.append(Diagnostic(ERROR, BAD_FOOT,
                                    "initial tree contains a foot node",
                                    tree_id=tree.tree_id))

        for node in tree.sites:
            site = node.site_id
            if site in seen_sites:
                diags.append(Diagnostic(ERROR, DUPLICATE_ID,
                                        f"duplicate site id {site!r}",
                                        tree_id=tree.tree_id, site_id=site))
                continue
            seen_sites.add(site)
            diags.extend(_site_diagnostics(g, tree, node))

    for tree_id in detect_unreachable(g):
        diags.append(Diagnostic(WARNING, UNREACHABLE_TREE,
                                f"tree {tree_id!r} is never used from the start trees",
                                tree_id=tree_id))
    diags.extend(detect_empty_yield_loops(g))
    return diags


def _site_diagnostics(g, tree, node):
    site = node.site_id
    substitution = node.kind == SUBSTITUTION
    diags = []
    entries = g.phi.get(site, ())

    total = sum(p for _, p in entries)
    if abs(total - 1.0) > PROPERNESS_TOL:
        diags.append(Diagnostic(
            ERROR, IMPROPER_SITE,
            f"site probabilities sum to {total:.12g}, expected 1",
            tree_id=tree.tree_id, site_id=site))

    seen_targets = set()
    for target_id, prob in entries:
        if not 0.0 <= prob <= 1.0:
            diags.append(Diagnostic(
                ERROR, BAD_PROB,
                f"probability {prob!r} outside [0, 1] for target "
                f"{target_id!r}", tree_id=tree.tree_id, site_id=site))
        if target_id is None:
            if substitution:
                diags.append(Diagnostic(
                    ERROR, BAD_PROB,
                    "substitution site cannot stay unfilled (nil target)",
                    tree_id=tree.tree_id, site_id=site))
            continue
        if target_id in seen_targets:
            diags.append(Diagnostic(
                ERROR, BAD_PROB, f"target {target_id!r} listed twice",
                tree_id=tree.tree_id, site_id=site))
        seen_targets.add(target_id)
        target = g.tree(target_id)
        want_kind = INITIAL if substitution else AUXILIARY
        if target.kind != want_kind:
            diags.append(Diagnostic(
                ERROR, LABEL_MISMATCH,
                f"{'substitution' if substitution else 'adjunction'} target "
                f"{target_id!r} is {target.kind}, expected {want_kind}",
                tree_id=tree.tree_id, site_id=site))
        elif target.root.label != node.label:
            diags.append(Diagnostic(
                ERROR, LABEL_MISMATCH,
                f"target {target_id!r} has root label {target.root.label!r} "
                f"but the site is labeled {node.label!r}",
                tree_id=tree.tree_id, site_id=site))
    return diags


def detect_unreachable(g):
    """Tree ids never used in a derivation started from a start tree.

    Edges follow positive-probability phi entries only; zero-probability
    entries are kept in the model but carry no reachability.
    """
    reachable = set()
    frontier = [t.tree_id for t in g.start_trees()]
    while frontier:
        tree_id = frontier.pop()
        if tree_id in reachable:
            continue
        reachable.add(tree_id)
        frontier += [t for t in _rewrites(g, tree_id) if t not in reachable]
    return [t.tree_id for t in g.trees if t.tree_id not in reachable]


def detect_empty_yield_loops(g):
    """Flag cycles of anchorless trees (which can loop without generating).

    Returns one EMPTY_YIELD_LOOP error per strongly connected component of
    anchorless trees in the positive-probability rewrite graph, followed by a
    NOT_LEXICALIZED warning per anchorless tree.
    """
    anchorless = [t.tree_id for t in g.trees if not t.anchors]
    order = {tid: i for i, tid in enumerate(anchorless)}
    edges = {tid: [t for t in _rewrites(g, tid) if t in order] for tid in anchorless}

    diags = []
    for component in _strongly_connected(anchorless, edges):
        looping = len(component) > 1 or component[0] in edges[component[0]]
        if looping:
            members = sorted(component, key=order.get)
            diags.append(Diagnostic(
                ERROR, EMPTY_YIELD_LOOP,
                "anchorless trees can adjoin in a cycle without generating: "
                + ", ".join(members), tree_id=members[0]))
    for tid in anchorless:
        diags.append(Diagnostic(WARNING, NOT_LEXICALIZED,
                                f"tree {tid!r} has no anchor", tree_id=tid))
    return diags


def _rewrites(g, tree_id):
    """Targets of the positive-probability phi entries at tree_id's sites,
    in site order; zero-probability entries stay in phi but rewrite nothing."""
    return [t for node in g.tree(tree_id).sites
            for t, p in g.phi[node.site_id] if t is not None and p > 0.0]


def _strongly_connected(nodes, edges):
    """Tarjan's algorithm, iterative; components in deterministic order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    def visit(root):
        work = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            for i in range(child_i, len(edges[node])):
                succ = edges[node][i]
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if recurse:
                continue
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for node in nodes:
        if node not in index:
            visit(node)
    return components
