"""Sparse multivariate polynomials over the site variables.

Terms are stored as {packed monomial: coefficient} with zero coefficients
pruned.  The canonical term order is graded lexicographic on the exponent
vectors, largest first, so a polynomial prints with its constant term last:

    0.8*s[A2]*s[B1]*s[A3] + 0.2
"""

from __future__ import annotations

from operator import index

# Each variable's power is one DIGIT_BITS-wide digit of the packed key.
DIGIT_BITS = 32
DEGREE_CAP = 1 << DIGIT_BITS
_DIGIT_MASK = DEGREE_CAP - 1


class TermCapExceeded(RuntimeError):
    """Symbolic blowup: an intermediate polynomial outgrew the term cap."""


def _count(value, what):
    """value as a nonnegative int, or ValueError naming what it is."""
    try:
        number = index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if number < 0:
        raise ValueError(f"{what} must be >= 0, got {value!r}")
    return number


def _shift(position, nvars):
    """The bit offset of a variable's digit, variable 0 the most significant."""
    if type(position) is not int:
        position = _count(position, "position")
    if not 0 <= position < nvars:
        raise ValueError(f"position {position!r} out of range for {nvars} variables")
    return DIGIT_BITS * (nvars - 1 - position)


def _pack(exponents, nvars):
    """(key, largest power) of one exponent tuple of length nvars."""
    exponents = tuple(exponents)
    if len(exponents) != nvars:
        raise ValueError(f"exponents {exponents!r} need {nvars} entries")
    key = top = 0
    for power in exponents:
        power = _count(power, "exponent")
        if power >= DEGREE_CAP:
            raise ValueError(f"exponent {power} reaches the degree cap 2**{DIGIT_BITS}")
        key = key << DIGIT_BITS | power
        top = max(top, power)
    return key, top


def _powers(key, nvars):
    """{position: power} of a packed key, positions ascending."""
    found = {}
    while key:
        shift = (key.bit_length() - 1) & -DIGIT_BITS
        power = key >> shift
        found[nvars - 1 - shift // DIGIT_BITS] = power
        key ^= power << shift
    return found


class SparsePolynomial:
    """Immutable polynomial in a fixed number of variables.

    Each monomial is one int: variable i's power is the DIGIT_BITS-wide
    digit at bit offset DIGIT_BITS * (nvars - 1 - i), so variable 0 holds the
    most significant digit, the constant monomial is 0, a product of
    monomials is the sum of their keys, and int order is the lexicographic
    order of the exponent tuples.  The constructor and ``coefficient`` take
    exponent tuples of nonnegative ints; ``terms`` yields sparse maps.

    ``_degree`` bounds the power of every variable in every term.  A product
    whose bound would reach DEGREE_CAP = 2**32 raises OverflowError before
    it is formed, so a digit never carries into its neighbour.
    """

    __slots__ = ("nvars", "_coeffs", "_degree")

    def __init__(self, nvars, coeffs=None):
        self.nvars = _count(nvars, "nvars")
        packed = {}
        self._degree = 0
        for exponents, c in (coeffs or {}).items():
            key, top = _pack(exponents, self.nvars)
            packed[key] = c
            self._degree = max(self._degree, top)
        self._coeffs = {e: c for e, c in packed.items() if c != 0.0}

    @classmethod
    def _of(cls, nvars, coeffs, degree):
        """A polynomial of packed terms, zero coefficients pruned."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        # copied only when a sum or product cancelled to zero
        poly._coeffs = ({e: c for e, c in coeffs.items() if c != 0.0}
                        if 0.0 in coeffs.values() else coeffs)
        poly._degree = degree
        return poly

    @classmethod
    def constant(cls, value, nvars):
        return cls._of(_count(nvars, "nvars"), {0: float(value)} if value else {}, 0)

    @classmethod
    def monomial(cls, coefficient, positions, nvars):
        """coefficient * product of the variables at ``positions`` (0/1 powers)."""
        nvars = _count(nvars, "nvars")
        key = 0
        for position in positions:
            key |= 1 << _shift(position, nvars)
        return cls._of(nvars, {key: float(coefficient)}, 1 if key else 0)

    # -- inspection --------------------------------------------------------

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    @property
    def terms(self):
        """(exponents, coefficient) pairs in canonical (descending graded lex)
        order; exponents is a sparse {position: power} map, positions ascending."""
        rows = []
        for e, c in self._coeffs.items():
            powers = _powers(e, self.nvars)
            rows.append((sum(powers.values()), e, powers, c))
        rows.sort(key=lambda row: row[:2], reverse=True)
        return [(powers, c) for _, _, powers, c in rows]

    def variables(self):
        """Positions of the variables that occur in some term, ascending."""
        used = 0
        for e in self._coeffs:
            used |= e
        return list(_powers(used, self.nvars))

    @property
    def constant_term(self):
        return self._coeffs.get(0, 0.0)

    def coefficient(self, exponents):
        return self._coeffs.get(_pack(exponents, self.nvars)[0], 0.0)

    def __eq__(self, other):
        return (isinstance(other, SparsePolynomial)
                and self.nvars == other.nvars and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self.nvars, frozenset(self._coeffs.items())))

    # -- arithmetic --------------------------------------------------------

    def _same_space(self, other):
        if other.nvars != self.nvars:
            raise ValueError(f"polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(other, self.nvars)
        self._same_space(other)
        coeffs = dict(self._coeffs)
        for e, c in other._coeffs.items():
            coeffs[e] = coeffs.get(e, 0.0) + c
        return SparsePolynomial._of(self.nvars, coeffs, max(self._degree, other._degree))

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return SparsePolynomial._of(
                self.nvars, {e: c * other for e, c in self._coeffs.items()}, self._degree)
        self._same_space(other)
        degree = self._degree + other._degree
        if degree >= DEGREE_CAP:
            raise OverflowError(
                f"a product of degree up to {degree} reaches the cap 2**{DIGIT_BITS}")
        coeffs = {}
        get = coeffs.get
        right = list(other._coeffs.items())
        for e1, c1 in self._coeffs.items():
            for e2, c2 in right:
                e = e1 + e2
                coeffs[e] = get(e, 0.0) + c1 * c2
        return SparsePolynomial._of(self.nvars, coeffs, degree)

    __rmul__ = __mul__

    def evaluate(self, values):
        """The value at ``values``, one per variable, each term's factors
        multiplied in ascending variable order."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        total = 0.0
        for e, c in self._coeffs.items():
            term = c
            for position, power in _powers(e, self.nvars).items():
                term *= values[position] ** power
            total += term
        return total

    def partial(self, position):
        """Symbolic partial derivative with respect to one variable."""
        shift = _shift(position, self.nvars)
        unit = 1 << shift
        coeffs = {}
        for e, c in self._coeffs.items():
            power = e >> shift & _DIGIT_MASK
            if not power:
                continue
            key = e - unit
            coeffs[key] = coeffs.get(key, 0.0) + c * power
        return SparsePolynomial._of(self.nvars, coeffs, self._degree)

    def partials_at_ones(self):
        """{position: the partial derivative by that variable at all-ones}
        for each variable that occurs, in one pass over the terms: each term
        adds coefficient * power to the sum of each of its variables, from
        0.0 and in term order, which are the additions that
        partial(position).evaluate([1.0] * nvars) makes."""
        top = self.nvars - 1
        sums = {}
        get = sums.get
        for e, c in self._coeffs.items():
            while e:
                shift = (e.bit_length() - 1) & -DIGIT_BITS
                power = e >> shift
                position = top - shift // DIGIT_BITS
                sums[position] = get(position, 0.0) + c * power
                e ^= power << shift
        return sums

    def substitute(self, replacements, term_cap=None):
        """Simultaneous substitution of one polynomial per variable.

        Each term starts from its first variable's power scaled by its
        coefficient and multiplies in the other variables' powers in
        ascending variable order; a variable's power p is the cached power
        p - 1 times its replacement.  Raises TermCapExceeded as soon as any
        intermediate product holds more than term_cap terms, or a power above
        term_cap is asked of a replacement: one with two or more positive
        terms has at least p + 1 terms at power p, so only a power of one
        term (or of none) is stopped by the power alone, before it is built.
        """
        if len(replacements) != self.nvars:
            raise ValueError("need one replacement polynomial per variable")
        powers = {}  # position -> [None, r, r^2, ...] as far as needed

        def powered(position, power):
            if term_cap is not None and power > term_cap:
                raise TermCapExceeded(f"power {power} of a replacement (cap {term_cap})")
            cached = powers.setdefault(position, [None, replacements[position]])
            while len(cached) <= power:
                cached.append(_capped(cached[-1] * replacements[position], term_cap))
            return cached[power]

        coeffs, degree = {}, 0
        for e, c in self._coeffs.items():
            factors = iter(_powers(e, self.nvars).items())
            if e:
                # scaled, not multiplied by constant(c): v * c has the bits
                # of 0.0 + c * v
                term = _capped(powered(*next(factors)) * float(c), term_cap)
            else:
                term = SparsePolynomial.constant(c, self.nvars)
            for position, power in factors:
                term = _capped(term * powered(position, power), term_cap)
            # result + term in place: the same sums, zeros pruned as they arise
            for key, value in term._coeffs.items():
                total = coeffs.get(key, 0.0) + value
                if total != 0.0:
                    coeffs[key] = total
                else:
                    del coeffs[key]
            degree = max(degree, term._degree)
            _capped(coeffs, term_cap)
        return SparsePolynomial._of(self.nvars, coeffs, degree)

    # -- formatting --------------------------------------------------------

    def format(self, names=None):
        """Text form, e.g. ``0.8*s[A2]*s[B1]*s[A3] + 0.2`` for named variables."""
        if not self._coeffs:
            return "0"
        parts = []
        for exponents, coefficient in self.terms:
            factors = [f"{coefficient!r}"]
            for position, power in exponents.items():
                name = f"s[{names[position]}]" if names else f"s{position + 1}"
                factors.append(name if power == 1 else f"{name}^{power}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        dense = {}
        for e, c in self._coeffs.items():
            exponents = [0] * self.nvars
            for position, power in _powers(e, self.nvars).items():
                exponents[position] = power
            dense[tuple(exponents)] = c
        return f"SparsePolynomial({self.nvars}, {dense!r})"


def _capped(poly, term_cap):
    if term_cap is not None and len(poly) > term_cap:
        raise TermCapExceeded(
            f"polynomial grew to {len(poly)} terms (cap {term_cap})")
    return poly
