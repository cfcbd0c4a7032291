"""Scaling contracts, measured in traced bytes.

A stage whose work is linear in the grammar must take at most LINEAR_BOUND
times the memory when the grammar grows fourfold.  Bytes are traced by
tracemalloc, which numpy reports its buffers to; unlike times, they do not
swing with the load of a shared machine, so the tests assert no time.
"""

import tracemalloc

from ptagcheck.expectation import SiteIndex
from conftest import synth_grammar

# 4x the bytes for 4x the grammar, plus a margin for the fixed costs that
# weigh more on the smaller grammar
LINEAR_BOUND = 6.0


def traced_peak(stage, g):
    """The most bytes tracemalloc saw allocated during one stage(g) call."""
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
