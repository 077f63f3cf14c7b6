"""Exact arithmetic: finite abelian groups, the group ring QG, cyclotomic fields.

Conventions.  A finite abelian group Z_{n1} x ... x Z_{nk} is written
additively; its elements are exponent tuples (e1,...,ek) with 0 <= ei < ni.
Group-ring coefficients are fractions.Fraction, never floats.  Character
values live in the exact field Q(zeta_m), represented as polynomial residues
mod the m-th cyclotomic polynomial, reduced with one table per conductor of
the residues of z^k, k < m; a decimal rendering exists for display only.
The isomorphism with the multiplicative picture (roots of unity) is
g = (e1,...,ek)  <->  zeta^(sum ei*gi*(m/ni)) under a character with
exponents (g1,...,gk).

Products are summed in integers: each operand's coefficients become
numerators over the lcm of its denominators (_numerators), products of
numerators are added per output key (_accumulate), and each output
coefficient is one Fraction (_over); over Q(zeta_m) the sums are kept per
unreduced power of z and reduced once (_reduce).  A character image adds
numerators per exponent, and gspan's matrix product takes the same steps.
The public constructors check every key and convert every coefficient; the
result of an operation on elements already made (sum, negation, product,
scaling, reduction) is built by the class's one private constructor,
_closed, which checks nothing again.

Every label, naturality square and fibre count is a sum in G, so each group
keeps its own sum and negation tables, filled on first use; no table is
shared between groups, even equal ones.
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache


class GroupMismatchError(ValueError):
    """Operands live over different groups."""


class NotASubgroupError(ValueError):
    """A subset that was required to be a subgroup is not one."""


# ---------------------------------------------------------------------------
# finite abelian groups


class AbelianGroup:
    """Z_{n1} x ... x Z_{nk}; elements are exponent tuples, added mod n_i.

    Enumeration order is lexicographic on tuples.  The empty list of orders
    gives the trivial group.

    Each order is an int >= 1 (TypeError for another type, bool included;
    ValueError below 1).

    Sums and negatives are read from two tables of this instance, filled on
    first use by the coordinatewise formula.  The tables stop growing at
    min(|G|^2, 65536) and |G| entries, at most as many as the elements fill;
    an unhashable operand, such as a list, gets the formula.  The cap bounds
    the sum table near 12 MB (a tuple-pair key costs about 180 bytes); every
    group of order <= 256 still keeps all its sums.
    """

    def __init__(self, orders):
        orders = tuple(orders)
        for n in orders:
            if isinstance(n, bool) or not isinstance(n, int):
                raise TypeError("cyclic order must be an int, not %r" % (n,))
            if n < 1:
                raise ValueError("cyclic order must be >= 1, got %r" % (n,))
        self.orders = orders
        self.order = math.prod(orders)
        self.identity = (0,) * len(orders)
        self._sums = {}  # (a, b) -> a + b, at most _max_sums entries
        self._negs = {}  # a -> -a, at most |G| entries
        self._max_sums = min(self.order**2, 1 << 16)

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "AbelianGroup(%r)" % (list(self.orders),)

    def check(self, g):
        if len(g) != len(self.orders) or any(
            not (0 <= gi < ni) for gi, ni in zip(g, self.orders)
        ):
            raise ValueError("%r is not an element of %r" % (g, self))
        return tuple(g)

    # map over operator functions: no Python frame per coordinate
    def add(self, a, b):
        try:
            return self._sums[a, b]
        except KeyError:
            s = tuple(map(operator.mod, map(operator.add, a, b), self.orders))
            if len(self._sums) < self._max_sums:
                self._sums[a, b] = s
            return s
        except TypeError:  # an unhashable operand, such as a list
            return tuple(map(operator.mod, map(operator.add, a, b), self.orders))

    def neg(self, a):
        try:
            return self._negs[a]
        except KeyError:
            n = tuple(map(operator.mod, map(operator.neg, a), self.orders))
            if len(self._negs) < self.order:
                self._negs[a] = n
            return n
        except TypeError:  # an unhashable operand
            return tuple(map(operator.mod, map(operator.neg, a), self.orders))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    # aliases so an AbelianGroup can act as the group of an action groupoid
    op = add
    inv = neg

    def elements(self):
        return [tuple(t) for t in itertools.product(*[range(n) for n in self.orders])]

    def generators(self):
        gens = []
        for i, n in enumerate(self.orders):
            if n > 1:
                gens.append(tuple(1 if j == i else 0 for j in range(len(self.orders))))
        return gens

    def is_subgroup(self, subset):
        subset = set(subset)
        if self.identity not in subset:
            return False
        for a in subset:
            if self.neg(a) not in subset:
                return False
            for b in subset:
                if self.add(a, b) not in subset:
                    return False
        return True

    def subgroup_closure(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        gens = [tuple(g) for g in gens]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.add(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def all_subgroups(self):
        """All subgroups, found as closures of generating sets of size <= k."""
        els = self.elements()
        found = {self.subgroup_closure([])}
        # every subgroup of a product of k cyclic groups needs <= k generators
        k = max(1, len(self.orders))
        for r in range(1, k + 1):
            for gens in itertools.combinations(els, r):
                found.add(self.subgroup_closure(gens))
        return sorted(found, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# the group ring QG


def _numerators(terms):
    """(den, [(key, numerator)]) for (key, Fraction) pairs: den is the lcm
    of their denominators and each numerator is over den.  One pass: when
    den grows, the numerators made so far are rescaled."""
    den, out = 1, []
    for g, c in terms:
        n, d = c.as_integer_ratio()
        if den % d:
            s = d // math.gcd(den, d)
            den *= s
            out = [(h, k * s) for h, k in out]
        out.append((g, n * (den // d)))
    return den, out


def _accumulate(acc, add, xs, ys):
    """acc[add(g, h)] += m * n for (g, m) in xs and (h, n) in ys, xs in the
    outer loop: the integer core of every product, keys first met first."""
    for g, m in xs:
        for h, n in ys:
            k = add(g, h)
            acc[k] = acc.get(k, 0) + m * n
    return acc


class GroupRingElement:
    """Finitely supported Fraction-valued function on an AbelianGroup.

    Zero coefficients are never stored, so == is structural equality.  The
    constructor checks every key to be an element of the group, keeps a
    Fraction coefficient and converts the others; operations build their
    results with _closed.  Multiplication is the convolution product
    (commutative here), summed in integers with one Fraction per output
    term, in the order the loop over the left operand's terms, then the
    right's, first reaches them.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=()):
        self.group = group
        clean = {}
        for g, c in dict(terms).items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c != 0:
                clean[group.check(g)] = c
        self.terms = clean

    @classmethod
    def _closed(cls, group, terms):
        """The element with terms {g: nonzero Fraction}, taken as they are:
        each g is an element of group already."""
        x = object.__new__(cls)
        x.group = group
        x.terms = terms
        return x

    @classmethod
    def _over(cls, group, nums, den):
        """The element sum_g (nums[g] / den) g from integer numerators whose
        keys are elements of group: one Fraction per nonzero term."""
        return cls._closed(
            group, {g: Fraction(k, den) for g, k in nums.items() if k}
        )

    def _numerators(self):
        """_numerators of the terms, in term order."""
        return _numerators(self.terms.items())

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def basis(cls, group, g, coeff=1):
        return cls(group, {tuple(g): Fraction(coeff)})

    @classmethod
    def one(cls, group):
        return cls.basis(group, group.identity)

    def coefficient(self, g):
        return self.terms.get(tuple(g), Fraction(0))

    def support(self):
        return sorted(self.terms)

    def is_zero(self):
        return not self.terms

    def _require_same_group(self, other):
        if self.group != other.group:
            raise GroupMismatchError(
                "group mismatch: %r vs %r" % (self.group, other.group)
            )

    def __add__(self, other):
        self._require_same_group(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            x = terms.get(g)
            terms[g] = c if x is None else x + c
        terms = {g: c for g, c in terms.items() if c}
        return GroupRingElement._closed(self.group, terms)

    def __neg__(self):
        return GroupRingElement._closed(
            self.group, {g: -c for g, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._require_same_group(other)
        den1, xs = self._numerators()
        den2, ys = other._numerators()
        nums = _accumulate({}, self.group.add, xs, ys)
        return GroupRingElement._over(self.group, nums, den1 * den2)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c):
        c = Fraction(c)
        terms = {g: c * x for g, x in self.terms.items()} if c else {}
        return GroupRingElement._closed(self.group, terms)

    def augmentation(self):
        """Sum of coefficients (the image under the trivial character)."""
        return sum(self.terms.values(), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.group, frozenset(self.terms.items())))

    def render(self):
        """Canonical text form: lexicographic terms "<num>[/<den>]*g(e1,...,ek)"."""
        if not self.terms:
            return "0"
        parts = []
        for g in sorted(self.terms):
            c = self.terms[g]
            num = str(c.numerator) if c.denominator == 1 else "%d/%d" % (
                c.numerator,
                c.denominator,
            )
            parts.append("%s*g(%s)" % (num, ",".join(str(e) for e in g)))
        return " + ".join(parts)

    def __repr__(self):
        return "<QG %s>" % self.render()


def average_idempotent(group, subgroup_elements):
    """(1/|U|) sum of the elements of a subgroup U; an idempotent of QG."""
    subset = {group.check(g) for g in subgroup_elements}
    if not group.is_subgroup(subset):
        raise NotASubgroupError("%r is not a subgroup of %r" % (sorted(subset), group))
    c = Fraction(1, len(subset))
    return GroupRingElement(group, {g: c for g in subset})


# ---------------------------------------------------------------------------
# cyclotomic polynomials and Q(zeta_m)
#
# Polynomials are tuples of coefficients, index = degree.


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_divmod(num, den):
    """Exact-arithmetic long division; den need not be monic."""
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = Fraction(den[-1])
    while len(num) >= len(den) and _poly_trim(num):
        num = list(_poly_trim(num))
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        coef = Fraction(num[-1]) / lead
        q[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
    return _poly_trim(q), _poly_trim(num)


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def euler_phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Phi_m as an integer coefficient tuple, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in divisors(m):
        if d < m:
            q, r = _poly_divmod(num, cyclotomic_polynomial(d))
            if r != ():
                raise ArithmeticError(
                    "x^%d - 1 is not divisible by Phi_%d: remainder %r" % (m, d, r)
                )
            num = q
    if any(Fraction(c).denominator != 1 for c in num):
        raise ArithmeticError("Phi_%d has a non-integer coefficient: %r" % (m, num))
    return tuple(int(c) for c in num)


@lru_cache(maxsize=None)
def residue_table(m):
    """z^k mod Phi_m for 0 <= k < m, as integer coefficient tuples of length
    phi(m): row k+1 is z times row k with its z^phi(m) term replaced by
    Phi_m's lower terms (Phi_m is monic with integer coefficients).  Since
    Phi_m divides z^m - 1, z^k reduces to row k mod m for every k >= 0."""
    modulus = cyclotomic_polynomial(m)
    deg = len(modulus) - 1
    row = (1,) + (0,) * (deg - 1)
    rows = [row]
    for _ in range(m - 1):
        top = row[-1]
        row = tuple(
            x - top * c for x, c in zip((0,) + row[:-1], modulus)
        )
        rows.append(row)
    return tuple(rows)


def _reduce(m, terms, zero=0):
    """sum of x z^k over the (k, x) pairs, mod Phi_m: its phi(m)
    coefficients, each starting at zero.  A term with k >= phi(m) adds x
    times row k mod m of residue_table(m), so nothing is divided and
    integer numerators stay integers."""
    rows = residue_table(m)
    deg = len(rows[0])
    out = [zero] * deg
    for k, x in terms:
        if k < deg:
            out[k] += x
        elif x:
            for i, r in enumerate(rows[k % m]):
                if r:
                    out[i] += r * x
    return out


class CyclotomicNumber:
    """Element of Q(zeta_m): a Fraction polynomial of degree < phi(m) mod Phi_m.

    Equality is exact polynomial equality; z^m reduces to 1.  The conductor
    m is an int >= 1 (TypeError for another type, bool included).  The
    constructor keeps Fraction coefficients, converts the others and
    reduces the terms of degree >= phi(m) (_reduce); operations build their
    results with _closed.  A product is summed in integers per unreduced
    power of z and reduced once, one Fraction per coefficient.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs=()):
        if isinstance(conductor, bool) or not isinstance(conductor, int):
            raise TypeError("conductor must be an int, not %r" % (conductor,))
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        self.conductor = conductor
        self.coeffs = tuple(_reduce(conductor, enumerate(c), Fraction(0)))

    @classmethod
    def _closed(cls, conductor, coeffs):
        """The number with the given phi(conductor) Fraction coefficients,
        taken as they are."""
        x = object.__new__(cls)
        x.conductor = conductor
        x.coeffs = coeffs
        return x

    @classmethod
    def _over(cls, conductor, nums, den):
        """sum_k (nums[k] / den) z^k from integer numerators per power k of
        z, reduced in integers (_reduce): one Fraction per coefficient."""
        return cls._closed(
            conductor,
            tuple([Fraction(k, den) for k in _reduce(conductor, nums.items())]),
        )

    def _numerators(self):
        """_numerators of the nonzero coefficients, keyed by degree."""
        return _numerators((k, c) for k, c in enumerate(self.coeffs) if c)

    @classmethod
    def zero(cls, conductor):
        return cls(conductor, ())

    @classmethod
    def one(cls, conductor):
        return cls(conductor, (1,))

    @classmethod
    def from_rational(cls, conductor, q):
        return cls(conductor, (Fraction(q),))

    @classmethod
    def zeta_power(cls, conductor, e):
        e = e % conductor
        return cls(conductor, (0,) * e + (1,))

    def _require_same_field(self, other):
        if self.conductor != other.conductor:
            raise ValueError(
                "conductor mismatch: %d vs %d" % (self.conductor, other.conductor)
            )

    def __add__(self, other):
        self._require_same_field(other)
        return CyclotomicNumber._closed(
            self.conductor, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return CyclotomicNumber._closed(self.conductor, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CyclotomicNumber._closed(
                self.conductor, tuple(c * a for a in self.coeffs)
            )
        self._require_same_field(other)
        den1, xs = self._numerators()
        den2, ys = other._numerators()
        nums = _accumulate({}, operator.add, xs, ys)
        return CyclotomicNumber._over(self.conductor, nums, den1 * den2)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CyclotomicNumber)
            and self.conductor == other.conductor
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def approx(self):
        """Floating complex value; display only, never used in comparisons."""
        z = complex(math.cos(2 * math.pi / self.conductor),
                    math.sin(2 * math.pi / self.conductor))
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + complex(c)
        return out

    def render(self):
        """Polynomial in z plus a 12-digit decimal hint."""
        parts = []
        for deg, c in enumerate(self.coeffs):
            if c == 0:
                continue
            num = str(c.numerator) if c.denominator == 1 else "%d/%d" % (
                c.numerator,
                c.denominator,
            )
            parts.append(num if deg == 0 else "%s*z^%d" % (num, deg))
        poly = " + ".join(parts) if parts else "0"
        v = self.approx()
        return "%s (%.12f%+.12fi)" % (poly, v.real, v.imag)

    def __repr__(self):
        return "<Q(zeta_%d) %s>" % (self.conductor, self.render())


class Character:
    """Character of an abelian group: rho(g) = zeta_m^(sum e_i g_i (m/n_i)).

    m = lcm of the cyclic orders, so every character of G arises from some
    exponent tuple.  rho extends Q-linearly to GroupRingElements.
    """

    def __init__(self, group, exponents):
        if len(exponents) != len(group.orders):
            raise ValueError("need one exponent per cyclic factor")
        self.group = group
        self.exponents = tuple(
            e % n for e, n in zip(exponents, group.orders)
        )
        self.conductor = math.lcm(*group.orders) if group.orders else 1
        self._exponents = {}  # g -> exponent_of(g), filled by apply

    @classmethod
    def trivial(cls, group):
        return cls(group, (0,) * len(group.orders))

    def exponent_of(self, g):
        m = self.conductor
        g = self.group.check(g)
        return sum(
            e * gi * (m // n) for e, gi, n in zip(self.exponents, g, self.group.orders)
        ) % m

    def value(self, g):
        return CyclotomicNumber.zeta_power(self.conductor, self.exponent_of(g))

    def apply(self, x):
        """rho(x) = sum_g x_g zeta^(exponent of g), in integers: x's
        coefficients are numerators over the lcm of their denominators, added
        by exponent and reduced once, one Fraction per coefficient.  The
        exponent of each g is read from this character's table, where g is
        checked once, when it first enters."""
        if x.group != self.group:
            raise GroupMismatchError("character and element over different groups")
        table = self._exponents
        den, nums = x._numerators()
        by_exponent = {}
        for g, k in nums:
            e = table.get(g)
            if e is None:
                e = table[g] = self.exponent_of(g)
            by_exponent[e] = by_exponent.get(e, 0) + k
        return CyclotomicNumber._over(self.conductor, by_exponent, den)

    def is_injective(self):
        seen = set()
        for g in self.group.elements():
            e = self.exponent_of(g)
            if e in seen:
                return False
            seen.add(e)
        return True

    def __repr__(self):
        return "Character(%r, %r)" % (self.group, list(self.exponents))
