import pytest

from ptagcheck.polynomials import SparsePolynomial, TermCapExceeded


def poly(nvars, coeffs):
    return SparsePolynomial(nvars, coeffs)


def test_constant_and_variable():
    c = SparsePolynomial.constant(0.25, 3)
    assert c.constant_term == 0.25
    assert c.evaluate([9, 9, 9]) == 0.25
    v = SparsePolynomial.variable(1, 3)
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
    x = SparsePolynomial.variable(0, 2)
    y = SparsePolynomial.variable(1, 2)
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


def test_substitute_simultaneous():
    # p(x, y) = x*y; substitute x <- x + 1, y <- y + 1 simultaneously
    p = poly(2, {(1, 1): 1.0})
    x1 = SparsePolynomial.variable(0, 2) + SparsePolynomial.constant(1.0, 2)
    y1 = SparsePolynomial.variable(1, 2) + SparsePolynomial.constant(1.0, 2)
    q = p.substitute([x1, y1])
    assert q.coefficient((1, 1)) == 1.0
    assert q.coefficient((1, 0)) == 1.0
    assert q.coefficient((0, 1)) == 1.0
    assert q.constant_term == 1.0


def test_substitute_powers_cached_correctly():
    p = poly(1, {(3,): 2.0})
    r = SparsePolynomial.variable(0, 1) + SparsePolynomial.constant(1.0, 1)
    q = p.substitute([r])
    # 2(x+1)^3 = 2x^3 + 6x^2 + 6x + 2
    assert [q.coefficient((e,)) for e in (3, 2, 1, 0)] == [2.0, 6.0, 6.0, 2.0]


def test_substitute_term_cap():
    nvars = 6
    big = SparsePolynomial.zero(nvars)
    for i in range(nvars):
        big = big + SparsePolynomial.variable(i, nvars)
    p = poly(nvars, {tuple([3] + [0] * (nvars - 1)): 1.0})
    with pytest.raises(TermCapExceeded):
        p.substitute([big] * nvars, term_cap=10)


def test_format_with_names():
    p = poly(3, {(0, 1, 1): 0.8, (0, 0, 0): 0.2})
    assert p.format(["A1", "A2", "B1"]) == "0.8*s[A2]*s[B1] + 0.2"
    assert str(p) == "0.8*s2*s3 + 0.2"


def test_format_powers():
    p = poly(2, {(2, 1): 0.5})
    assert p.format(["u", "v"]) == "0.5*s[u]^2*s[v]"


def test_equality_and_allclose():
    a = poly(2, {(1, 0): 0.5})
    b = poly(2, {(1, 0): 0.5})
    c = poly(2, {(1, 0): 0.5 + 1e-13})
    assert a == b
    assert a != c
    assert a.allclose(c, tol=1e-12)
    assert not a.allclose(c, tol=1e-14)


def test_substitution_identity():
    p = poly(3, {(1, 2, 0): 0.3, (0, 0, 1): 0.7})
    identity = [SparsePolynomial.variable(i, 3) for i in range(3)]
    assert p.substitute(identity) == p
