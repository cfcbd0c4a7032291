import random
import struct
from operator import add

import numpy as np
import pytest

from ptagcheck import branching as br
from ptagcheck.expectation import start_law
from ptagcheck.polynomials import SparsePolynomial, TermCapExceeded
from conftest import all_nil_grammar, parse, pinned_grammar


def poly(nvars, coeffs):
    return SparsePolynomial(nvars, coeffs)


def test_constant_and_variable():
    c = SparsePolynomial.constant(0.25, 3)
    assert c.constant_term == 0.25
    assert c.evaluate([9, 9, 9]) == 0.25
    v = SparsePolynomial.monomial(1.0, [1], 3)
    assert v.evaluate([5, 7, 11]) == 7
    assert v.constant_term == 0.0


def test_zero_terms_pruned():
    p = poly(2, {(1, 0): 0.0, (0, 1): 2.0})
    assert len(p) == 1
    q = p + poly(2, {(0, 1): -2.0})
    assert len(q) == 0
    assert not q
    assert str(q) == "0"


def test_addition_and_scalar_multiplication():
    p = poly(2, {(1, 0): 2.0}) + poly(2, {(1, 0): 3.0, (0, 0): 1.0})
    assert p.coefficient((1, 0)) == 5.0
    assert p.constant_term == 1.0
    assert (p * 2.0).coefficient((1, 0)) == 10.0
    assert (0.5 * p).constant_term == 0.5


def test_product_collects_exponents():
    x = SparsePolynomial.monomial(1.0, [0], 2)
    y = SparsePolynomial.monomial(1.0, [1], 2)
    p = (x + y) * (x + y)
    assert p.coefficient((2, 0)) == 1.0
    assert p.coefficient((1, 1)) == 2.0
    assert p.coefficient((0, 2)) == 1.0


def test_monomial_constructor():
    p = SparsePolynomial.monomial(0.8, [1, 2, 3], 5)
    assert p.coefficient((0, 1, 1, 1, 0)) == 0.8
    assert p.evaluate([1, 2, 3, 4, 1]) == pytest.approx(0.8 * 24)


def test_canonical_term_order_descending_graded_lex():
    p = poly(2, {(0, 0): 1.0, (2, 0): 2.0, (1, 1): 3.0, (0, 1): 4.0})
    orders = [tuple(sorted(exponents.items())) for exponents, _ in p.terms]
    assert orders == [((0, 2),), ((0, 1), (1, 1)), ((1, 1),), ()]
    # degree-2 terms: (2,0) > (1,1) lexicographically
    assert p.terms[0][1] == 2.0
    assert p.terms[1][1] == 3.0


def test_evaluate_at_ones_is_coefficient_sum():
    p = poly(3, {(1, 2, 0): 0.25, (0, 0, 1): 0.5, (0, 0, 0): 0.25})
    assert p.evaluate([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_partial_derivative():
    # d/dx (3 x^2 y + 2 y) = 6 x y
    p = poly(2, {(2, 1): 3.0, (0, 1): 2.0})
    d = p.partial(0)
    assert d.coefficient((1, 1)) == 6.0
    assert len(d) == 1
    assert p.partial(1).coefficient((2, 0)) == 3.0


def test_partial_of_constant_is_zero():
    p = SparsePolynomial.constant(4.0, 2)
    assert not p.partial(0)
    assert p.partials_at_ones() == {}


def test_partials_at_ones_match_each_partial_bit_for_bit():
    # powers above 1, signed coefficients and sums that cancel: the one
    # pass over the terms adds what each partial's evaluate adds
    rng = random.Random(7)
    for _ in range(300):
        nvars = rng.randint(1, 6)
        p = poly(nvars, {tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars)):
                         rng.choice((rng.uniform(-1, 1), 0.1, -0.1, 0.3))
                         for _ in range(rng.randint(0, 12))})
        got = p.partials_at_ones()
        assert sorted(got) == p.variables()
        ones = [1.0] * nvars
        assert all(struct.pack("<d", value) == struct.pack("<d", p.partial(j).evaluate(ones))
                   for j, value in got.items())


def test_substitute_simultaneous():
    # p(x, y) = x*y; substitute x <- x + 1, y <- y + 1 simultaneously
    p = poly(2, {(1, 1): 1.0})
    x1 = SparsePolynomial.monomial(1.0, [0], 2) + SparsePolynomial.constant(1.0, 2)
    y1 = SparsePolynomial.monomial(1.0, [1], 2) + SparsePolynomial.constant(1.0, 2)
    q = p.substitute([x1, y1])
    assert q.coefficient((1, 1)) == 1.0
    assert q.coefficient((1, 0)) == 1.0
    assert q.coefficient((0, 1)) == 1.0
    assert q.constant_term == 1.0


def test_substitute_powers_cached_correctly():
    p = poly(1, {(3,): 2.0})
    r = SparsePolynomial.monomial(1.0, [0], 1) + SparsePolynomial.constant(1.0, 1)
    q = p.substitute([r])
    # 2(x+1)^3 = 2x^3 + 6x^2 + 6x + 2
    assert [q.coefficient((e,)) for e in (3, 2, 1, 0)] == [2.0, 6.0, 6.0, 2.0]


def test_substitute_term_cap():
    nvars = 6
    big = SparsePolynomial.constant(0.0, nvars)
    for i in range(nvars):
        big = big + SparsePolynomial.monomial(1.0, [i], nvars)
    p = poly(nvars, {tuple([3] + [0] * (nvars - 1)): 1.0})
    with pytest.raises(TermCapExceeded):
        p.substitute([big] * nvars, term_cap=10)


def test_substitute_refuses_a_power_above_the_term_cap():
    # x^p stays one term at every power p, so only the power stops it
    x = SparsePolynomial.monomial(0.5, [0], 1)
    for power in (3, 4):
        assert dense_items(poly(1, {(power,): 1.0}).substitute([x], term_cap=4)) == \
            [((power,), (0.5 ** power).hex())]
    with pytest.raises(TermCapExceeded, match=r"power 5 of a replacement \(cap 4\)"):
        poly(1, {(5,): 1.0}).substitute([x], term_cap=4)
    assert dense_items(poly(1, {(5,): 1.0}).substitute([x])) == [((5,), (0.5 ** 5).hex())]


def test_format_with_names():
    p = poly(3, {(0, 1, 1): 0.8, (0, 0, 0): 0.2})
    assert p.format(["A1", "A2", "B1"]) == "0.8*s[A2]*s[B1] + 0.2"
    assert str(p) == "0.8*s2*s3 + 0.2"


def test_format_powers():
    p = poly(2, {(2, 1): 0.5})
    assert p.format(["u", "v"]) == "0.5*s[u]^2*s[v]"


def test_equality_and_hash():
    a = poly(2, {(1, 0): 0.5})
    b = poly(2, {(1, 0): 0.5})
    c = poly(2, {(1, 0): 0.5 + 1e-13})
    assert a == b
    assert a != c
    assert a != poly(3, {(1, 0, 0): 0.5})  # another number of variables
    # equal polynomials hash equal, so a set keeps one of them
    assert hash(a) == hash(b)
    assert len({a, b, c}) == 2


def test_substitution_identity():
    p = poly(3, {(1, 2, 0): 0.3, (0, 0, 1): 0.7})
    identity = [SparsePolynomial.monomial(1.0, [i], 3) for i in range(3)]
    assert p.substitute(identity) == p
    with pytest.raises(ValueError, match="one replacement polynomial per variable"):
        p.substitute(identity[:2])


def test_repr_shows_exponent_tuples():
    p = poly(2, {(2, 1): 0.5, (0, 0): 0.25})
    assert repr(p) == "SparsePolynomial(2, {(2, 1): 0.5, (0, 0): 0.25})"


MALFORMED = {
    "variable_negative": lambda: SparsePolynomial.monomial(1.0, [-1], 3),
    "variable_past_end": lambda: SparsePolynomial.monomial(1.0, [3], 3),
    "variable_float": lambda: SparsePolynomial.monomial(1.0, [1.0], 3),
    "short_exponents": lambda: poly(2, {(1,): 1.0}),
    "long_exponents": lambda: poly(2, {(1, 0, 0): 1.0}),
    "negative_power": lambda: poly(2, {(-1, 0): 1.0}),
    "fractional_power": lambda: poly(2, {(0.5, 0): 1.0}),
    "float_power": lambda: poly(2, {(1.0, 0): 1.0}),
    "power_at_cap": lambda: poly(1, {(2**32,): 1.0}),
    "negative_nvars": lambda: SparsePolynomial(-1),
    "monomial_negative": lambda: SparsePolynomial.monomial(1.0, [0, -1], 3),
    "monomial_past_end": lambda: SparsePolynomial.monomial(1.0, [3], 3),
    "partial_negative": lambda: SparsePolynomial.monomial(1.0, [0], 2).partial(-1),
    "partial_past_end": lambda: SparsePolynomial.monomial(1.0, [0], 2).partial(2),
    "coefficient_short": lambda: SparsePolynomial.monomial(1.0, [0], 2).coefficient((1,)),
    "coefficient_negative": lambda: SparsePolynomial.monomial(1.0, [0], 2).coefficient((-1, 2)),
    "product_across_spaces": lambda: (SparsePolynomial.monomial(1.0, [0], 2)
                                      * SparsePolynomial.monomial(1.0, [0], 3)),
    "sum_across_spaces": lambda: (SparsePolynomial.monomial(1.0, [0], 2)
                                  + SparsePolynomial.monomial(1.0, [0], 3)),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_exponents_refused(name):
    # packed keys would alias each of these to another monomial
    with pytest.raises(ValueError):
        MALFORMED[name]()


def test_numpy_integer_positions_act_as_ints():
    # a numpy int64 shift count wraps: 1 << np.int64(128) would alias s1 of five
    # variables to the constant monomial
    p = SparsePolynomial.monomial(0.5, [0, 3], 5) + SparsePolynomial.monomial(1.0, [1], 5)
    for position in (np.int64(0), np.int32(1), np.uint8(3)):
        assert SparsePolynomial.monomial(1.0, [position], 5) == SparsePolynomial.monomial(
            1.0, [int(position)], 5)
        assert dense_items(p.partial(position)) == dense_items(p.partial(int(position)))
    assert SparsePolynomial.monomial(0.5, np.array([0, 3]), 5) == SparsePolynomial.monomial(
        0.5, [0, 3], 5)
    with pytest.raises(ValueError):
        SparsePolynomial.monomial(1.0, [np.int64(5)], 5)


@pytest.mark.parametrize("position,nvars", [(0, 1), (1, 2), (0, 2)])
def test_degree_cap_raises_before_a_carry(position, nvars):
    p = SparsePolynomial.monomial(1.0, [position], nvars)
    for _ in range(31):
        p = p * p
    exponents = [0] * nvars
    exponents[position] = 2**31
    assert dense_items(p) == [(tuple(exponents), (1.0).hex())]
    with pytest.raises(OverflowError):
        p * p
    # the bound survives sums, scaling and partials
    for q in (p + 1.0, 0.5 * p, p.partial(position)):
        with pytest.raises(OverflowError):
            q * p


# -- the dense-tuple reference ---------------------------------------------
# SparsePolynomial's arithmetic as it was on {exponent tuple: coefficient}
# dicts, zero coefficients pruned after every operation.  The packed keys
# must give the same keys, the same coefficient bits and the same insertion
# order.

def dense_items(p):
    """(exponent tuple, coefficient hex) in insertion order, decoded from the
    packed keys byte-wise, independently of the class's digit walk."""
    n = p.nvars
    return [(struct.unpack(f">{n}I", key.to_bytes(4 * n, "big")), c.hex())
            for key, c in p._coeffs.items()]


def ref_items(coeffs):
    return [(e, c.hex()) for e, c in coeffs.items()]


def _pruned(coeffs):
    return {e: c for e, c in coeffs.items() if c != 0.0}


def ref_constant(value, nvars):
    return _pruned({(0,) * nvars: float(value)} if value else {})


def ref_monomial(coefficient, positions, nvars):
    exps = [0] * nvars
    for position in positions:
        exps[position] = 1
    return _pruned({tuple(exps): float(coefficient)})


def ref_add(a, b):
    coeffs = dict(a)
    for e, c in b.items():
        coeffs[e] = coeffs.get(e, 0.0) + c
    return _pruned(coeffs)


def ref_mul(a, b):
    coeffs = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            coeffs[e] = coeffs.get(e, 0.0) + c1 * c2
    return _pruned(coeffs)


def ref_evaluate(a, values):
    total = 0.0
    for e, c in a.items():
        term = c
        for position, power in enumerate(e):
            if power:
                term *= values[position] ** power
        total += term
    return total


def ref_partial(a, position):
    coeffs = {}
    for e, c in a.items():
        power = e[position]
        if not power:
            continue
        reduced = list(e)
        reduced[position] = power - 1
        key = tuple(reduced)
        coeffs[key] = coeffs.get(key, 0.0) + c * power
    return _pruned(coeffs)


def ref_substitute(a, replacements, nvars, term_cap=None):
    def capped(coeffs):
        if term_cap is not None and len(coeffs) > term_cap:
            raise TermCapExceeded(len(coeffs))
        return coeffs

    power_cache = {}

    def powered(position, power):
        if term_cap is not None and power > term_cap:
            raise TermCapExceeded(power)
        key = (position, power)
        if key not in power_cache:
            if power == 1:
                power_cache[key] = replacements[position]
            else:
                power_cache[key] = capped(
                    ref_mul(powered(position, power - 1), replacements[position]))
        return power_cache[key]

    result = {}
    for e, c in a.items():
        term = ref_constant(c, nvars)
        for position, power in enumerate(e):
            if power:
                term = capped(ref_mul(term, powered(position, power)))
        result = capped(ref_add(result, term))
    return result


def ref_adjunction_gf(g, site):
    idx = g.index
    k = len(idx)
    f = {}
    for target, prob in g.phi[site]:
        f = ref_add(f, ref_constant(prob, k) if target is None else ref_monomial(
            prob, [idx[node.site_id] for node in g.tree(target).sites], k))
    return f


def ref_level_gf(g, n):
    idx = g.index
    k = len(idx)
    result = {}
    for t, w in zip(*start_law(g)):
        result = ref_add(result, ref_monomial(
            w, range(idx.tree_start[t], idx.tree_start[t + 1]), k))
    gfs = [ref_adjunction_gf(g, site) for site in idx.ids]
    for _ in range(n):
        result = ref_substitute(result, gfs, k)
    return result


def random_dense(rng, nvars, terms, max_power, scale=1.0):
    """A random {exponent tuple: coefficient} on at most three variables a term."""
    coeffs = {}
    for _ in range(terms):
        exps = [0] * nvars
        for position in rng.sample(range(nvars), min(nvars, rng.randint(0, 3))):
            exps[position] = rng.randint(1, max_power)
        coeffs[tuple(exps)] = scale * rng.uniform(-1.0, 1.0)
    return coeffs


@pytest.mark.parametrize("seed", range(40))
def test_arithmetic_matches_dense_tuple_reference(seed):
    rng = random.Random(seed)
    nvars = 130 if seed == 0 else rng.randint(1, 130)
    a = random_dense(rng, nvars, rng.randint(1, 12), 4)
    b = random_dense(rng, nvars, rng.randint(0, 12), 4)
    # some of a's terms cancelled exactly, others shifted by a tiny amount
    for e in rng.sample(list(a), rng.randint(0, len(a))):
        b[e] = -a[e] if rng.random() < 0.7 else -a[e] * (1 + 2**-50)
    pa, pb = SparsePolynomial(nvars, a), SparsePolynomial(nvars, b)
    assert dense_items(pa) == ref_items(_pruned(a))
    assert dense_items(pa + pb) == ref_items(ref_add(a, b))
    assert dense_items(pb + pa) == ref_items(ref_add(b, a))
    assert dense_items(pa * pb) == ref_items(ref_mul(a, b))
    assert dense_items(pa * pa) == ref_items(ref_mul(a, a))
    assert dense_items(pa * 0.3) == ref_items(_pruned({e: c * 0.3 for e, c in a.items()}))
    positions = {i for e in a for i, p in enumerate(e) if p} | {rng.randrange(nvars)}
    for position in sorted(positions):
        assert dense_items(pa.partial(position)) == ref_items(ref_partial(a, position))
    values = [rng.uniform(-2.0, 2.0) for _ in range(nvars)]
    assert pa.evaluate(values).hex() == ref_evaluate(a, values).hex()
    assert (pa * pb).evaluate(values).hex() == ref_evaluate(ref_mul(a, b), values).hex()
    reps = [random_dense(rng, nvars, rng.randint(1, 3), 1, 0.5) for _ in range(nvars)]
    substituted = pa.substitute([SparsePolynomial(nvars, r) for r in reps])
    assert dense_items(substituted) == ref_items(ref_substitute(a, reps, nvars))


@pytest.mark.parametrize("term_cap", [0, 50, 500, 662, None])
def test_term_cap_matches_dense_tuple_reference(term_cap):
    # the full substitution has 662 terms
    rng = random.Random(1)
    nvars = 6
    a = random_dense(rng, nvars, 8, 3)
    reps = [random_dense(rng, nvars, 3, 1) for _ in range(nvars)]
    try:
        want = ref_items(ref_substitute(a, reps, nvars, term_cap))
    except TermCapExceeded:
        want = TermCapExceeded
    try:
        got = dense_items(SparsePolynomial(nvars, a).substitute(
            [SparsePolynomial(nvars, r) for r in reps], term_cap=term_cap))
    except TermCapExceeded:
        got = TermCapExceeded
    assert got == want


def test_substitute_prunes_a_cancelled_term_before_it_returns():
    # x + y + z with x <- t, y <- u - t, z <- t: t cancels after the second
    # term and comes back after u, so it ends up last
    xyz = {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0}
    t, u = {(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}
    reps = [t, ref_add(u, {(1, 0, 0): -1.0}), t]
    got = poly(3, xyz).substitute([SparsePolynomial(3, r) for r in reps])
    assert dense_items(got) == ref_items(ref_substitute(xyz, reps, 3))
    assert [e for e, _ in dense_items(got)] == [(0, 1, 0), (1, 0, 0)]


LEVEL_CASES = ([("grammar2", n) for n in range(5)] + [("grammar4", n) for n in range(6)]
               + [("syn130", 2)] + [(f"random{seed}", 2) for seed in range(50)])


@pytest.mark.parametrize("name,level", LEVEL_CASES)
def test_level_gf_matches_dense_tuple_reference(name, level):
    g = pinned_grammar(name)
    assert dense_items(br.level_gf(g, level)) == ref_items(ref_level_gf(g, level))


def test_terms_list_positions_ascending():
    # the gf command writes each term's exponents in the order terms gives
    # them, so its site order rests on this
    others = ("segment_edge", "two_site_start", "two_siteless_start", "duplicate_target")
    products = 0
    for name, level in [*LEVEL_CASES, *((name, 2) for name in others)]:
        for exponents, _ in br.level_gf(pinned_grammar(name), level).terms:
            assert list(exponents) == sorted(exponents)
            products += len(exponents) > 1
    assert products > 1000


def hand_gf_grammar(entries):
    """Site A1 of t1 rewrites by ``entries`` [(tree, prob)]: t2 holds the
    sites A2 and A3, and t3 no site, so it shares nil's constant key."""
    def aux(tree_id, children):
        return {"id": tree_id, "type": "auxiliary",
                "root": {"label": "A", "children": children + [{"foot": "A"}]}}

    return parse({
        "start": "S",
        "trees": [
            {"id": "t1", "type": "initial", "root": {"label": "S", "children": [
                {"label": "A", "site": "A1", "children": [{"anchor": "a"}]}]}},
            aux("t2", [{"label": "A", "site": "A2", "children": [{"anchor": "b"}]},
                       {"label": "A", "site": "A3", "children": [{"anchor": "c"}]}]),
            aux("t3", [{"anchor": "d"}]),
        ],
        "phi": [{"site": "A1", "tree": tree, "prob": prob} for tree, prob in entries]
               + [{"site": "A2", "tree": None, "prob": 1.0}],
    })


ADJUNCTION_CASES = {name: lambda name=name: pinned_grammar(name)
                    for name in dict.fromkeys(name for name, _ in LEVEL_CASES)}
ADJUNCTION_CASES.update({
    # a first entry of probability 0 must not take the key's place in the order
    "zero_prob_entry": lambda: hand_gf_grammar([("t2", 0.0), (None, 0.3), ("t2", 0.7)]),
    "zero_prob_siteless": lambda: hand_gf_grammar([("t3", 0.0), ("t2", 0.4), (None, 0.6)]),
    "siteless_shares_nil_key": lambda: hand_gf_grammar(
        [("t3", 0.25), ("t2", 0.25), (None, 0.5), ("t3", 0.125)]),
    # parsed but invalid: a sum that cancels to zero midway is pruned there
    "cancelled_entry": lambda: hand_gf_grammar(
        [("t2", 0.5), ("t2", -0.5), (None, 0.3), ("t2", 0.7)]),
    "all_nil_site": all_nil_grammar,
})


@pytest.mark.parametrize("name", list(ADJUNCTION_CASES))
def test_adjunction_gf_matches_dense_tuple_reference(name):
    g = ADJUNCTION_CASES[name]()
    for site in g.index.ids:
        assert dense_items(br.adjunction_gf(g, site)) == ref_items(ref_adjunction_gf(g, site))


@pytest.mark.parametrize("seed", range(40))
def test_variables_match_terms(seed):
    # a and b as in test_arithmetic_matches_dense_tuple_reference
    rng = random.Random(seed)
    nvars = 130 if seed == 0 else rng.randint(1, 130)
    a = random_dense(rng, nvars, rng.randint(1, 12), 4)
    b = random_dense(rng, nvars, rng.randint(0, 12), 4)
    for p in (SparsePolynomial(nvars, a), SparsePolynomial(nvars, b)):
        assert p.variables() == sorted({j for exponents, _ in p.terms for j in exponents})
    assert SparsePolynomial(nvars, {}).variables() == []


def test_evaluate_needs_one_value_per_variable():
    f = br.adjunction_gf(pinned_grammar("grammar4"), "A1")
    assert f.nvars == 5 and f.evaluate([1.0] * 5) == 1.0
    for count in (0, 4, 6, 7):
        with pytest.raises(ValueError, match=f"need 5 values, got {count}"):
            f.evaluate([1.0] * count)
