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

import gc
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, wraps
from numbers import Real

from .expectation import SiteIndex, _inverse_cdf, start_law

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
BAD_PROB = "BAD_PROB"

_NODE_FORMS = {"label": {"label", "children", "site"}, "anchor": {"anchor"},
               "foot": {"foot"}, "subst": {"subst", "site"}, "epsilon": {"epsilon"}}


class GrammarError(Exception):
    """Base class for grammar construction problems."""


class GrammarParseError(GrammarError):
    """Malformed grammar document.  ``location`` is a JSON-path-like string."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


@dataclass(slots=True)
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
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(reversed(node.children))


@dataclass(slots=True)
class ElementaryTree:
    tree_id: str
    kind: str  # "initial" | "auxiliary"
    root: TreeNode
    sites: tuple[TreeNode, ...] = field(init=False)
    anchors: tuple[str, ...] = field(init=False)
    feet: tuple[TreeNode, ...] = field(init=False)

    def __post_init__(self):
        sites, anchors, feet = [], [], []
        for node in self.root.preorder():
            if node.site_id is not None:
                sites.append(node)
            if node.kind == ANCHOR:
                anchors.append(node.label)
            elif node.kind == FOOT:
                feet.append(node)
        self.sites, self.anchors, self.feet = tuple(sites), tuple(anchors), tuple(feet)


@dataclass
class Grammar:
    """An immutable probabilistic TAG.  Do not mutate after construction.

    Tree ids and site ids are unique.  ``phi`` maps each site id, in
    canonical site order, to a tuple of (target, prob) entries in document
    order; a target is a tree id, or None for "no adjunction", and a prob a
    real number (not a bool).  phi has a key for every site and no other
    key, and every target names a tree of the grammar.  Construction raises
    GrammarError naming the first repeated id, or the first site, target or
    prob that breaks this.  An
    adjunction site the document leaves out gets ((None, 1.0),), a
    substitution site ().
    The distinguished wrapper tree accepting any start-rooted initial tree
    is implicit: it contributes no site, no matrix row and no probability.
    ``start_weights``, tree ids to weights or None for the uniform law, is
    the start law that every method weighs its start trees by; only
    expectation.start_law reads and checks it.  Set it with dataclasses.replace.
    """

    start: str
    nonterminals: frozenset
    terminals: frozenset
    trees: tuple[ElementaryTree, ...]
    phi: dict
    start_weights: dict | None = None

    def __post_init__(self):
        self._tree_by_id = {t.tree_id: t for t in self.trees}
        # canonical site order: tree declaration order, preorder within a tree
        self.site_ids = tuple(node.site_id for tree in self.trees for node in tree.sites)
        for kind, ids in (("tree", [t.tree_id for t in self.trees]),
                          ("site", self.site_ids)):
            seen = set()
            for i in ids:
                if i in seen:
                    raise GrammarError(f"duplicate {kind} id {i!r}")
                seen.add(i)
        phi = self.phi
        if phi.keys() != seen:  # seen holds the site ids
            s = next(s for s in (*self.site_ids, *phi) if (s in phi) != (s in seen))
            raise GrammarError(f"phi {'leaves out' if s in seen else 'names unknown'} site {s!r}")
        trees = self._tree_by_id
        for s in self.site_ids:
            for target, p in phi[s]:
                if target is not None and target not in trees:
                    raise GrammarError(f"phi rewrites site {s!r} to unknown tree {target!r}")
                if type(p) is not float and (isinstance(p, bool) or not isinstance(p, Real)):
                    raise GrammarError(f"phi gives site {s!r} the probability {p!r}, "
                                       "which is not a real number")

    def tree(self, tree_id):
        return self._tree_by_id[tree_id]

    @cached_property
    def index(self):
        """The grammar's numeric form, built on first use and then shared."""
        return SiteIndex(self)

    @cached_property
    def start_draw(self):
        """*_inverse_cdf of start_law(self)'s (start tree position, prob)
        choices: the sampler's start draw, built once per grammar."""
        positions, probs = start_law(self)
        return _inverse_cdf(zip(positions.tolist(), probs.tolist()))

    @cached_property
    def diagnostics(self):
        """validate's findings as a tuple, computed on first use."""
        return _diagnose(self)


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

def _collector_paused(func):
    """Run func with the cyclic garbage collector paused.

    For builders that create no reference cycles: reference counting frees
    all they allocate, so collections would only walk their live objects.
    The caller's state comes back afterwards, also when func raises; a
    collector the caller had disabled stays disabled.  The state is
    process-wide.
    """
    @wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused
def parse_grammar(data):
    """Parse a grammar document (bytes or str of JSON) into a Grammar.

    The cyclic garbage collector is paused while the document is decoded
    and the grammar built, and comes back as the caller had it, also when
    GrammarParseError is raised.  A grammar holds no reference cycles, so
    reference counting frees all that the parse drops.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
        return from_document(doc)
    except json.JSONDecodeError as exc:
        raise GrammarParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise GrammarParseError(
            f"document is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise GrammarParseError("document is nested too deeply") from None


def load_grammar(path):
    """parse_grammar of the file at path."""
    with open(path, "rb") as handle:
        return parse_grammar(handle.read())


@_collector_paused
def from_document(doc):
    """Build a Grammar from an already-decoded document object.

    The collector is paused while it builds, and a tree nested too deeply
    raises GrammarParseError, as in parse_grammar.
    """
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
        if not isinstance(tdoc, dict):
            raise GrammarParseError("tree must be an object", f"trees[{i}]")
        tree_id = tdoc.get("id")
        if not isinstance(tree_id, str) or not tree_id:
            raise GrammarParseError("missing tree \"id\"", f"trees[{i}]")
        if tree_id in seen_tree_ids:
            raise GrammarParseError(f"duplicate tree id {tree_id!r}", f"trees[{i}]")
        seen_tree_ids.add(tree_id)
        kind = tdoc.get("type")
        if kind not in (INITIAL, AUXILIARY):
            raise GrammarParseError(
                f"tree type must be \"initial\" or \"auxiliary\", got {kind!r}", f"trees[{i}]")
        if "root" not in tdoc:
            raise GrammarParseError("missing \"root\" node", f"trees[{i}]")
        try:
            root = _parse_node(tdoc["root"], i, "", nonterminals, terminals, seen_site_ids)
        except RecursionError:
            raise GrammarParseError("document is nested too deeply") from None
        trees.append(ElementaryTree(tree_id, kind, root))

    overlap = nonterminals & terminals
    if overlap:
        raise GrammarParseError(
            "symbols used both as terminals and nonterminals: "
            + ", ".join(sorted(overlap)))

    phi = _parse_phi(doc.get("phi", []), trees, seen_tree_ids)
    return Grammar(start=start, nonterminals=frozenset(nonterminals),
                   terminals=frozenset(terminals), trees=tuple(trees), phi=phi)


# every key set a node may have, mapped to its form
_FORM_OF = {frozenset((form, *extra)): form
            for form, allowed in _NODE_FORMS.items()
            for n in range(len(allowed))
            for extra in itertools.combinations(sorted(allowed - {form}), n)}


def _node_error(message, tree_pos, address):
    """GrammarParseError located at the node with this Gorn address."""
    steps = "".join(f".children[{int(k) - 1}]" for k in address.split(".")) if address else ""
    return GrammarParseError(message, f"trees[{tree_pos}].root{steps}")


def _parse_node(obj, tree_pos, address, nonterminals, terminals, seen_site_ids):
    """The TreeNode of obj, the node at Gorn address in tree tree_pos.

    Adds the node's labels to nonterminals or terminals and its site id to
    seen_site_ids.
    """
    if not isinstance(obj, dict):
        raise _node_error("node must be an object", tree_pos, address)
    form = _FORM_OF.get(frozenset(obj))
    if form is None:
        forms = [k for k in _NODE_FORMS if k in obj]
        if len(forms) != 1:
            raise _node_error(f"node must use exactly one of {tuple(_NODE_FORMS)}, "
                              f"got {sorted(obj)}", tree_pos, address)
        raise _node_error(f"unknown node keys {sorted(set(obj) - _NODE_FORMS[forms[0]])}",
                          tree_pos, address)

    site_id = obj.get("site")
    if site_id is not None:
        if not isinstance(site_id, str) or not site_id:
            raise _node_error("\"site\" must be a nonempty string", tree_pos, address)
        if site_id in seen_site_ids:
            raise _node_error(f"duplicate site id {site_id!r}", tree_pos, address)
        seen_site_ids.add(site_id)

    if form == "epsilon":
        if obj["epsilon"] is not True:
            raise _node_error("\"epsilon\" must be true", tree_pos, address)
        return TreeNode(EPSILON, None, (), None, address)
    label = obj[form]
    if not isinstance(label, str) or not label:
        raise _node_error("symbol must be a nonempty string", tree_pos, address)
    if form == "anchor":
        terminals.add(label)
        return TreeNode(ANCHOR, label, (), None, address)
    nonterminals.add(label)
    if form == "foot":
        return TreeNode(FOOT, label, (), None, address)
    if form == "subst":
        if site_id is None:
            raise _node_error("substitution leaf requires a \"site\" id", tree_pos, address)
        return TreeNode(SUBSTITUTION, label, (), site_id, address)

    children_doc = obj.get("children")
    if not isinstance(children_doc, list) or not children_doc:
        raise _node_error("interior node requires nonempty \"children\"", tree_pos, address)
    prefix = f"{address}." if address else ""
    children = tuple([_parse_node(child, tree_pos, f"{prefix}{j}", nonterminals, terminals,
                                  seen_site_ids)
                      for j, child in enumerate(children_doc, 1)])
    return TreeNode(INTERIOR, label, children, site_id, address)


_PHI_KEYS = frozenset(("site", "tree", "prob"))


def _parse_phi(phi_doc, trees, tree_ids):
    if not isinstance(phi_doc, list):
        raise GrammarParseError("\"phi\" must be an array")
    # one bucket per site, in canonical site order
    entries = {node.site_id: [] for tree in trees for node in tree.sites}
    for i, edoc in enumerate(phi_doc):
        if not isinstance(edoc, dict) or edoc.keys() != _PHI_KEYS:
            raise GrammarParseError(
                "phi entry must be {\"site\": ..., \"tree\": ..., \"prob\": ...}", f"phi[{i}]")
        site = edoc["site"]
        bucket = entries.get(site) if isinstance(site, str) else None
        if bucket is None:
            raise GrammarParseError(f"unknown site {site!r}", f"phi[{i}]")
        target = edoc["tree"]
        if target is not None and (not isinstance(target, str) or target not in tree_ids):
            raise GrammarParseError(f"unknown target tree {target!r}", f"phi[{i}]")
        prob = edoc["prob"]
        if type(prob) is not float:
            if isinstance(prob, bool) or not isinstance(prob, (int, float)):
                raise GrammarParseError("\"prob\" must be a number", f"phi[{i}]")
            try:
                prob = float(prob)
            except OverflowError:
                raise GrammarParseError("\"prob\" is beyond float range", f"phi[{i}]") from None
        bucket.append((target, prob))

    # a site the document leaves out: {nil: 1.0} for adjunction; none for
    # substitution, which validate flags
    return {node.site_id: tuple(entries[node.site_id])
            or (() if node.kind == SUBSTITUTION else ((None, 1.0),))
            for tree in trees for node in tree.sites}


# ---------------------------------------------------------------------------
# serialization

def to_document(g):
    """Canonical document form of a Grammar (inverse of from_document); the
    format carries no start law, so g.start_weights is left out."""
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


# ---------------------------------------------------------------------------
# validation

def validate(g):
    """All well-formedness findings for a grammar, deterministically ordered.

    Structural findings come first (tree declaration order, preorder within a
    tree), then unreachable trees, then empty-yield loops with their
    lexicalization warnings.  Empty result means a clean, proper grammar.
    They are computed once per grammar, as ``g.diagnostics``; each call
    returns a fresh list of them.
    """
    return list(g.diagnostics)


def _diagnose(g):
    diags = []
    shapes = {t.tree_id: (t.kind, t.root.label) for t in g.trees}
    idx = g.index
    masses, improper = idx.mass.tolist(), idx.improper.tolist()

    if not len(idx.starts):
        diags.append(Diagnostic(ERROR, NO_START_TREE,
                                f"no initial tree rooted in start symbol {g.start!r}"))

    for tree in g.trees:
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
            if improper[j := idx[node.site_id]]:
                diags.append(Diagnostic(
                    ERROR, IMPROPER_SITE, f"site probabilities sum to {masses[j]:.12g}, expected 1",
                    tree_id=tree.tree_id, site_id=node.site_id))
            _site_diagnostics(diags, tree.tree_id, node, g.phi[node.site_id], shapes)

    for tree, reachable in zip(g.trees, idx.reachable.tolist()):
        if not reachable:  # no positive-probability path from a start tree
            diags.append(Diagnostic(WARNING, UNREACHABLE_TREE,
                                    f"tree {tree.tree_id!r} is never used from the start trees",
                                    tree_id=tree.tree_id))
    diags.extend(detect_empty_yield_loops(g))
    return tuple(diags)


def _site_diagnostics(diags, tree_id, node, entries, shapes):
    """Append the findings at one site's phi entries; shapes maps each tree
    id to its (kind, root label)."""
    site = node.site_id
    substitution = node.kind == SUBSTITUTION
    want_kind = INITIAL if substitution else AUXILIARY
    seen_targets = set()
    for target_id, prob in entries:
        if not 0.0 <= prob <= 1.0:
            diags.append(Diagnostic(
                ERROR, BAD_PROB,
                f"probability {prob!r} outside [0, 1] for target "
                f"{target_id!r}", tree_id=tree_id, site_id=site))
        if target_id in seen_targets:  # nil included
            diags.append(Diagnostic(
                ERROR, BAD_PROB, f"target {target_id!r} listed twice",
                tree_id=tree_id, site_id=site))
        seen_targets.add(target_id)
        if target_id is None:
            if substitution:
                diags.append(Diagnostic(
                    ERROR, BAD_PROB,
                    "substitution site cannot stay unfilled (nil target)",
                    tree_id=tree_id, site_id=site))
            continue
        kind, label = shapes[target_id]
        if kind != want_kind:
            diags.append(Diagnostic(
                ERROR, LABEL_MISMATCH,
                f"{'substitution' if substitution else 'adjunction'} target "
                f"{target_id!r} is {kind}, expected {want_kind}",
                tree_id=tree_id, site_id=site))
        elif label != node.label:
            diags.append(Diagnostic(
                ERROR, LABEL_MISMATCH,
                f"target {target_id!r} has root label {label!r} "
                f"but the site is labeled {node.label!r}",
                tree_id=tree_id, site_id=site))


def detect_empty_yield_loops(g):
    """Flag cycles of anchorless trees (which can loop without generating).

    Returns one EMPTY_YIELD_LOOP error per strongly connected component of
    anchorless trees in the positive-probability rewrite graph, followed by a
    NOT_LEXICALIZED warning per anchorless tree.
    """
    anchorless = [j for j, t in enumerate(g.trees) if not t.anchors]
    kept = set(anchorless)
    graph = g.index.rewrite_graph
    edges = {j: [k for k in graph[j] if k in kept] for j in anchorless}

    diags = []
    for component in _strongly_connected(anchorless, edges):
        looping = len(component) > 1 or component[0] in edges[component[0]]
        if looping:
            members = [g.trees[j].tree_id for j in sorted(component)]
            diags.append(Diagnostic(
                ERROR, EMPTY_YIELD_LOOP,
                "anchorless trees can adjoin in a cycle without generating: "
                + ", ".join(members), tree_id=members[0]))
    for j in anchorless:
        tree_id = g.trees[j].tree_id
        diags.append(Diagnostic(WARNING, NOT_LEXICALIZED,
                                f"tree {tree_id!r} has no anchor", tree_id=tree_id))
    return diags


def _strongly_connected(nodes, edges):
    """Tarjan's algorithm, iterative; components in deterministic order.  Each
    node on the depth-first path (work) resumes its iterator of successors."""
    index, low, successors = {}, {}, {}
    on_stack, stack, components = set(), [], []
    for root in nodes:
        if root in index:
            continue
        work = [root]
        while work:
            node = work[-1]
            if node not in index:
                index[node] = low[node] = len(index)
                successors[node] = iter(edges[node])
                stack.append(node)
                on_stack.add(node)
            for succ in successors[node]:
                if succ not in index:
                    work.append(succ)
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
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
                    low[work[-1]] = min(low[work[-1]], low[node])
    return components
