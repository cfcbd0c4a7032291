"""Sparse multivariate polynomials over the site variables.

Terms are stored as {exponent tuple: coefficient} with zero coefficients
pruned.  The canonical term order is graded lexicographic on the exponent
vectors, largest first, so a polynomial prints with its constant term last:

    0.8*s[A2]*s[B1]*s[A3] + 0.2
"""

from __future__ import annotations

from operator import add


class TermCapExceeded(RuntimeError):
    """Symbolic blowup: an intermediate polynomial outgrew the term cap."""


class SparsePolynomial:
    """Immutable polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "_coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self._coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0.0}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, value, nvars):
        return cls(nvars, {(0,) * nvars: float(value)} if value else {})

    @classmethod
    def variable(cls, position, nvars):
        exps = [0] * nvars
        exps[position] = 1
        return cls(nvars, {tuple(exps): 1.0})

    @classmethod
    def monomial(cls, coefficient, positions, nvars):
        """coefficient * product of the variables at ``positions`` (0/1 powers)."""
        exps = [0] * nvars
        for position in positions:
            exps[position] = 1
        return cls(nvars, {tuple(exps): float(coefficient)})

    # -- inspection --------------------------------------------------------

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    @property
    def terms(self):
        """(exponents, coefficient) pairs in canonical (descending graded lex)
        order; exponents is a sparse {position: power} map."""
        ordered = sorted(self._coeffs, key=lambda e: (sum(e), e), reverse=True)
        return [({i: p for i, p in enumerate(e) if p}, self._coeffs[e])
                for e in ordered]

    @property
    def constant_term(self):
        return self._coeffs.get((0,) * self.nvars, 0.0)

    def coefficient(self, exponents):
        return self._coeffs.get(tuple(exponents), 0.0)

    def __eq__(self, other):
        return (isinstance(other, SparsePolynomial)
                and self.nvars == other.nvars and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self.nvars, frozenset(self._coeffs.items())))

    def allclose(self, other, tol=1e-12):
        if self.nvars != other.nvars:
            return False
        for e in self._coeffs.keys() | other._coeffs.keys():
            if abs(self._coeffs.get(e, 0.0) - other._coeffs.get(e, 0.0)) > tol:
                return False
        return True

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(other, self.nvars)
        coeffs = dict(self._coeffs)
        for e, c in other._coeffs.items():
            coeffs[e] = coeffs.get(e, 0.0) + c
        return SparsePolynomial(self.nvars, coeffs)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return SparsePolynomial(
                self.nvars, {e: c * other for e, c in self._coeffs.items()})
        coeffs = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = tuple(map(add, e1, e2))
                coeffs[e] = coeffs.get(e, 0.0) + c1 * c2
        return SparsePolynomial(self.nvars, coeffs)

    __rmul__ = __mul__

    def evaluate(self, values):
        total = 0.0
        for e, c in self._coeffs.items():
            term = c
            for position, power in enumerate(e):
                if power:
                    term *= values[position] ** power
            total += term
        return total

    def partial(self, position):
        """Symbolic partial derivative with respect to one variable."""
        coeffs = {}
        for e, c in self._coeffs.items():
            power = e[position]
            if not power:
                continue
            reduced = list(e)
            reduced[position] = power - 1
            key = tuple(reduced)
            coeffs[key] = coeffs.get(key, 0.0) + c * power
        return SparsePolynomial(self.nvars, coeffs)

    def substitute(self, replacements, term_cap=None):
        """Simultaneous substitution of one polynomial per variable.

        Raises TermCapExceeded as soon as any intermediate product holds
        more than term_cap terms.
        """
        if len(replacements) != self.nvars:
            raise ValueError("need one replacement polynomial per variable")
        power_cache = {}

        def powered(position, power):
            key = (position, power)
            if key not in power_cache:
                if power == 1:
                    power_cache[key] = replacements[position]
                else:
                    power_cache[key] = _capped(
                        powered(position, power - 1) * replacements[position],
                        term_cap)
            return power_cache[key]

        result = SparsePolynomial.zero(self.nvars)
        for e, c in self._coeffs.items():
            term = SparsePolynomial.constant(c, self.nvars)
            for position, power in enumerate(e):
                if power:
                    term = _capped(term * powered(position, power), term_cap)
            result = _capped(result + term, term_cap)
        return result

    # -- formatting --------------------------------------------------------

    def format(self, names=None):
        """Text form, e.g. ``0.8*s[A2]*s[B1]*s[A3] + 0.2`` for named variables."""
        if not self._coeffs:
            return "0"
        parts = []
        for exponents, coefficient in self.terms:
            factors = [f"{coefficient!r}"]
            for position, power in sorted(exponents.items()):
                name = f"s[{names[position]}]" if names else f"s{position + 1}"
                factors.append(name if power == 1 else f"{name}^{power}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"SparsePolynomial({self.nvars}, {self._coeffs!r})"


def _capped(poly, term_cap):
    if term_cap is not None and len(poly) > term_cap:
        raise TermCapExceeded(
            f"polynomial grew to {len(poly)} terms (cap {term_cap})")
    return poly
