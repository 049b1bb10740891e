"""Exact coefficient rings: Z, Q, Z/n, and F_q for small prime powers.

Ring elements are plain hashable Python values (int, Fraction, or tuple of
ints for proper extension fields); every Ring instance knows how to combine
them.  No floating point anywhere.
"""

from fractions import Fraction

# Conway-style irreducible polynomials, low degree coefficient first, monic.
# The (p, k) entry defines F_{p^k} = F_p[x]/(poly).  Fixed so that element
# tables and all downstream computations are bit-for-bit reproducible.
CONWAY = {
    (2, 2): (1, 1, 1),           # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),        # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),     # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 2): (2, 2, 1),           # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),        # x^3 + 2x + 1
    (5, 2): (2, 4, 1),           # x^2 + 4x + 2
    (5, 3): (3, 3, 1),           # x^3 + 3x + 3
    (7, 2): (3, 6, 1),           # x^2 + 6x + 3
    (7, 3): (4, 0, 6, 1),        # x^3 + 6x^2 + 4
}


def factorize(n):
    """Prime factorization of n >= 1 as a dict prime -> exponent."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_prime(n):
    return factorize(n) == {n: 1}


def _power(mul, one, x, n):
    """x^n for n >= 0 by square-and-multiply."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


class Ring:
    """Base for exact coefficient rings; subclasses fix the element type."""

    kind = "?"
    finite = False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def from_int(self, n):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero()

    def is_unit(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def elements(self):
        """All elements; only for finite rings."""
        raise NotImplementedError("infinite ring")

    def units(self):
        return [a for a in self.elements() if self.is_unit(a)]

    def is_field(self):
        return False

    def is_domain(self):
        raise NotImplementedError

    def is_reduced(self):
        raise NotImplementedError

    def fmt(self, a):
        return str(a)

    def __repr__(self):
        return self.kind


class IntegerRing(Ring):
    kind = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return n

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ZeroDivisionError("nonunit in Z")

    def is_domain(self):
        return True

    def is_reduced(self):
        return True

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class RationalRing(Ring):
    kind = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return Fraction(n)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return Fraction(1) / a

    def is_field(self):
        return True

    def is_domain(self):
        return True

    def is_reduced(self):
        return True

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("Q")


class IntegerModRing(Ring):
    """Z/n with elements 0..n-1."""

    finite = True

    def __init__(self, n):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        self.kind = f"Z/{n}"
        self._factors = factorize(n)

    def zero(self):
        return 0

    def one(self):
        return 1 % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def from_int(self, m):
        return m % self.n

    def is_unit(self, a):
        from math import gcd

        return gcd(a, self.n) == 1

    def inv(self, a):
        return pow(a, -1, self.n)

    def elements(self):
        return list(range(self.n))

    def is_field(self):
        return _is_prime(self.n)

    def is_domain(self):
        return _is_prime(self.n)

    def is_reduced(self):
        return all(e == 1 for e in self._factors.values())

    def size(self):
        return self.n

    def __eq__(self, other):
        return isinstance(other, IntegerModRing) and other.n == self.n

    def __hash__(self):
        return hash(("Zmod", self.n))


class GaloisField(Ring):
    """F_{p^k}; elements are ints for k = 1 and coefficient tuples for k > 1.

    Multiplication reduces modulo the fixed CONWAY polynomial, so element
    tables are reproducible across runs.
    """

    finite = True

    def __init__(self, p, k=1):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > 1 and (p, k) not in CONWAY:
            raise ValueError(f"no fixed polynomial table entry for ({p},{k})")
        self.p = p
        self.k = k
        self.q = p**k
        self.kind = f"F{self.q}"
        if k > 1:
            self.poly = CONWAY[(p, k)]

    def zero(self):
        return 0 if self.k == 1 else (0,) * self.k

    def one(self):
        return 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the defining polynomial (monic of degree k)
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * self.poly[j]) % p
        return tuple(prod[:k])

    def from_int(self, n):
        if self.k == 1:
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    def is_unit(self, a):
        return a != self.zero()

    def inv(self, a):
        if a == self.zero():
            raise ZeroDivisionError("zero in a field")
        return _power(self.mul, self.one(), a, self.q - 2)

    def elements(self):
        if self.k == 1:
            return list(range(self.p))
        out = [()]
        for _ in range(self.k):
            out = [t + (c,) for t in out for c in range(self.p)]
        return sorted(out)

    def is_field(self):
        return True

    def is_domain(self):
        return True

    def is_reduced(self):
        return True

    def size(self):
        return self.q

    def fmt(self, a):
        if self.k == 1:
            return str(a)
        return "(" + ",".join(map(str, a)) + ")"

    def __eq__(self, other):
        return isinstance(other, GaloisField) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("GF", self.p, self.k))


ZZ = IntegerRing()
QQ = RationalRing()


def GF(q):
    """The field with q elements (q a prime power covered by the table)."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac.items()
    return GaloisField(p, k)


def ring_from_name(name):
    """Parse 'Z', 'Q', 'Z/6', 'F9' into a Ring."""
    name = name.strip()
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("Z/"):
        return IntegerModRing(int(name[2:]))
    if name.startswith("F"):
        return GF(int(name[1:]))
    raise ValueError(f"unknown ring {name!r}")
