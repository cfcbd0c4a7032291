"""Scaling contracts, measured in traced bytes.

A stage whose work is linear in the grammar must take at most LINEAR_BOUND
times the memory when the grammar grows fourfold.  Bytes are traced by
tracemalloc, which numpy reports its buffers to; unlike times, they do not
swing with the load of a shared machine, so the tests assert no time.
"""

import json
import tracemalloc

import pytest

from ptagcheck import branching as br
from ptagcheck import consistency as cons
from ptagcheck import grammar as gr
from ptagcheck import simulate as sim
from ptagcheck.expectation import SiteIndex
from conftest import synth_grammar

# 4x the bytes for 4x the grammar, plus a margin for the fixed costs that
# weigh more on the smaller grammar
LINEAR_BOUND = 6.0


def traced_peak(stage, g):
    """The most bytes tracemalloc saw allocated during one stage(g) call; g
    may be any argument of stage."""
    tracemalloc.start()
    try:
        stage(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def index_and_layouts(g):
    """A fresh SiteIndex of g with the layouts that are built on first use."""
    idx = SiteIndex(g)
    return idx.rewrite_graph, idx.reachable, idx.finishes, idx.draw_table


def test_site_index_and_its_layouts_scale_linearly():
    # 1.9 MB at 2,000 sites and 7.7 MB at 8,000, a ratio of 4.2 (Python 3.11)
    small, large = synth_grammar(1, 2000), synth_grammar(1, 8000)
    index_and_layouts(small)  # warm-up: first-call costs stay out of the ratio
    ratio = traced_peak(index_and_layouts, large) / traced_peak(index_and_layouts, small)
    assert ratio <= LINEAR_BOUND


def warm_ratio(stage, small, large):
    """traced_peak of stage on large over that on small, after one warm-up
    call on each: a first call on a grammar can trace more than the next
    ones (74 KB more for validate at 4,000 sites, Python 3.11), as the
    interpreter's free lists fill."""
    stage(small), stage(large)
    return traced_peak(stage, large) / traced_peak(stage, small)


@pytest.fixture(scope="module")
def grammars():
    """synth_grammar(1, 1000) and synth_grammar(1, 4000), each with its
    index, the index's lazy layouts and its diagnostics built, so that no
    stage pays for them."""
    pair = synth_grammar(1, 1000), synth_grammar(1, 4000)
    for g in pair:
        g.diagnostics, g.index.finishes, g.index.draw_table
    return pair


# peak MB traced at 1,000 -> 4,000 sites (Python 3.11, numpy 2.4): parse
# 2.60 -> 11.37, validate 0.08 -> 0.44, extinction 0.16 -> 0.26,
# death_by_level 0.11 -> 0.26, estimate_termination 0.33 -> 0.49
LINEAR_STAGES = {
    "validate": gr._diagnose,
    "extinction": lambda g: br.extinction(g, tol=0.0, max_iter=200),
    "death_by_level": lambda g: br.death_by_level(g, 50),
    "estimate_termination": lambda g: sim.estimate_termination(g, 200, 20, seed=0),
}


@pytest.mark.parametrize("stage", LINEAR_STAGES.values(), ids=LINEAR_STAGES.keys())
def test_numeric_stages_scale_linearly(stage, grammars):
    assert warm_ratio(stage, *grammars) <= LINEAR_BOUND


def test_parse_scales_linearly(grammars):
    small, large = (json.dumps(gr.to_document(g)) for g in grammars)
    assert warm_ratio(gr.parse_grammar, small, large) <= LINEAR_BOUND


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: check squares the dense k x k "
                   "M, whose traced peak grows 16x when the grammar grows 4x")
def test_check_scales_linearly():
    # 1.0 MB at 250 sites and 16.0 MB at 1,000, a ratio of 16 (Python 3.11);
    # the warm-up is on the smaller grammar alone, so that the 1,000-site
    # squaring runs once
    small, large = synth_grammar(1, 250), synth_grammar(1, 1000)
    small.index, large.index
    cons.check_consistency(small)
    ratio = traced_peak(cons.check_consistency, large) / traced_peak(cons.check_consistency, small)
    assert ratio <= LINEAR_BOUND
