"""Certified evaluation of the continued fraction G(m, lam).

G(m, lam) is the limit of the fraction whose j-th partial quotient is
(m + j) * lam, for m > -1 and lam > 0:

    G(m, lam) = m*lam + 1/((m+1)*lam + 1/((m+2)*lam + ...))

Every evaluator returns a two-sided enclosure that is guaranteed to contain
the limit.  The guarantee comes from the classical alternation of convergents
for positive partial quotients (even convergents increase, odd convergents
decrease, the limit sits strictly between consecutive ones) applied to the
shifted tail at m + 1, where every term is positive, and mapped back through
the shift identity G(m, lam) = m*lam + 1/G(m+1, lam).

Two modes are provided.  Exact mode runs the convergent recurrence over big
rationals; it is the reference semantics.  A closed-form depth model,
shared with directed mode, places the start; one product tree of the step
matrices (packed leaves, seven-product merges) builds the
convergents just below it; integer tests, each side first bounded to 64
bits, settle the minimal depth; the ends' order check bounds both sides to
tops sized by the pair's known width.  Directed mode runs a
backward interval pass from the same start: its deep end runs in binary64
with outward factors, and the rest over integers scaled by D * 2**bits
(D = b*d at m = a/b, lam = c/d), where every term is exact and only the
reciprocals round, outward; S has bitlen(1/tol) bits plus a guard sized by
the number of those roundings.  It serves small lam, where exact numerators
get impractically large.

The one setting is the depth budget ``max_depth`` (at least 1): every
evaluation stops there, and every layer above takes it as a keyword.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from math import asinh, ceil, gcd, hypot, log, log1p, log2, prod, sqrt

from .errors import BudgetExceededError, DomainError, NotConvergedError

RationalLike = Fraction | int | str | float

DEFAULT_TOL = Fraction(1, 10**12)
DEFAULT_MAX_DEPTH = 10_000
#: below this lam, exact numerators blow up (the depth that meets tol grows
#: like sqrt(2 ln(1/tol) / lam), see _depth_model)
DIRECTED_LAMBDA_CUTOFF = Fraction(1, 64)


def _exact_routed(lam: Fraction) -> bool:
    """lam >= DIRECTED_LAMBDA_CUTOFF, as a cross product of integers."""
    cut = DIRECTED_LAMBDA_CUTOFF
    return lam.numerator * cut.denominator >= cut.numerator * lam.denominator


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction; floats convert to their exact binary value."""
    return value if type(value) is Fraction else Fraction(value)


class EvalMode(str, Enum):
    EXACT = "exact"
    DIRECTED = "directed-fixed-precision"


def _sci(value: Fraction) -> str:
    """value > 0 as f"{float(value):.3e}" prints it, also where a float overflows."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 4, MAX_EMAX, MIN_EMIN
        mant, _, exp = f"{Decimal(value.numerator) / value.denominator:.3e}".partition("e")
    return f"{mant}e{int(exp):+03d}"


def _rational_str(value: object) -> str:
    """str(value) for an int or Fraction, with no limit on its digits: Decimal
    converts integers of any length, where str(int) refuses more digits than
    sys.get_int_max_str_digits() (4300 by default).  Anything else is str(value).
    Every message that prints a rational goes through here."""
    if type(value) not in (int, Fraction):
        return str(value)
    num, den = value.as_integer_ratio()
    return f"{Decimal(num)}" if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def _check_budget(max_depth: int) -> None:
    if max_depth < 1:
        raise DomainError(f"max_depth must be >= 1, got {_rational_str(max_depth)}")


class _Checked:
    """Base for a named tuple whose __new__ checks its fields: _make, which
    _replace and copy.replace build through, goes through __new__ too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CFPoint(_Checked, namedtuple("CFPoint", "m lam")):
    """Parameter pair (m, lam); the fraction's j-th term is (m + j) * lam.

    An immutable named tuple.  Construction coerces both to Fraction and
    rejects m <= -1 and lam <= 0, on numerators and positive denominators,
    so downstream code never has to re-check the standing hypotheses.
    """

    __slots__ = ()

    def __new__(cls, m: RationalLike, lam: RationalLike) -> CFPoint:
        m, lam = as_fraction(m), as_fraction(lam)
        if m.numerator <= -m.denominator:
            raise DomainError(f"m must exceed -1, got {_rational_str(m)}")
        if lam.numerator <= 0:
            raise DomainError(f"lam must be positive, got {_rational_str(lam)}")
        return tuple.__new__(cls, (m, lam))

    def shifted(self) -> CFPoint:
        """The (m + 1, lam) point whose fraction is the all-positive tail."""
        a, b = self.m.as_integer_ratio()
        return CFPoint(_coprime(a + b, b), self.lam)


class Enclosure(_Checked, namedtuple("Enclosure", "lo hi depth mode tol")):
    """Closed interval [lo, hi] certified to contain G at some point.

    An immutable named tuple; construction rejects lo > hi, by cross products
    of integers where both ends are int or Fraction.  ``depth`` is the
    convergent index (exact mode) or backward-pass length (directed mode)
    that produced the bounds.  ``tol`` is the Fraction a directed evaluation
    ran at, and None otherwise: with the depth as budget, it rebuilds the
    same enclosure (eval_directed).
    """

    __slots__ = ()

    def __new__(
        cls, lo: Fraction, hi: Fraction, depth: int, mode: EvalMode, tol: Fraction | None = None
    ) -> Enclosure:
        exact = type(lo) in (int, Fraction) and type(hi) in (int, Fraction)
        if (lo.numerator * hi.denominator > hi.numerator * lo.denominator) if exact else lo > hi:
            raise ValueError(f"malformed enclosure: {_rational_str(lo)} > {_rational_str(hi)}")
        return tuple.__new__(cls, (lo, hi, depth, mode, tol))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: RationalLike) -> bool:
        value = as_fraction(value)
        return self.lo <= value <= self.hi

    # ``value in enc`` tests the interval, not the tuple's fields
    __contains__ = contains

    def encloses(self, other: Enclosure) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


# ---------------------------------------------------------------------------
# exact mode
# ---------------------------------------------------------------------------


def _terms(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """(u_0, du, D) with g = gcd(b, c), D = (b/g)*d and u_j = u_0 + j*du =
    (a + j*b) * (c/g): the terms at the point (a/b, c/d) are u_j / D.

    The scaled convergents (p_n, q_n) are the classical recurrence scaled by
    D**(n+1), which keeps every state integral:
    p_n = u_n * p_{n-1} + D**2 * p_{n-2}, the same for q, from the depth-0
    pair (p_0, q_0, p_{-1}, q_{-1}) = (u_0, D, 1, 0).  The scale cancels in
    the ratio, so p_n/q_n is exactly the convergent G_n; the fractions need
    not be reduced.

    Dividing g out of the terms keeps it out of the states: at scale b*d
    every term and D**2 share g, so p_n and q_n would each carry about g**n.
    What is left satisfies p_n*q_{n-1} - p_{n-1}*q_n = +-D**(2n+1), so
    gcd(p_n, q_n) has only primes of D.
    """
    g = gcd(b, c)
    c //= g
    return a * c, b * c, b // g * d


def _coprime(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, with no gcd and no type
    dispatch: the slots are set as CPython 3.12's Fraction._from_coprime_ints
    sets them, on every version pyproject.toml admits (3.10 to 3.13)."""
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def _reduced(num: int, den: int, k: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0 when every prime of
    gcd(num, den) divides k.

    h = gcd(k, num, den) holds every common prime.  After dividing by h,
    every common prime left divides h, so the next round takes
    gcd(h**2, num, den), and the exponents it removes can double from round
    to round.  Each round costs remainders by a modulus no wider than the
    square of the common factor, linear in the width of num, where the gcd
    that Fraction(num, den) runs is quadratic.
    """
    h = gcd(k, num % k, den % k)
    while h > 1:
        num //= h
        den //= h
        h *= h
        h = gcd(h, num % h, den % h)
    return num, den


def _from_tail(
    point: CFPoint, t_lo: tuple[int, int], t_hi: tuple[int, int], depth: int, mode: EvalMode,
    tol: Fraction | None = None,
) -> Enclosure:
    """Map tail bounds t_lo <= G(m+1, lam) <= t_hi to G(m, lam) = m*lam + 1/tail.

    Each tail bound is an integer pair (p, q) standing for p/q > 0, with
    q >= 0.  With m*lam = ac/bd, the image of p/q is N/M = (ac*p + bd*q) /
    (bd*p).  The map is decreasing, so the tail's upper bound gives the
    lower one.

    The order check runs on the tail ends, before mapping: with p_lo and
    p_hi positive, the images are ordered exactly when
    q_hi/p_hi <= q_lo/p_lo, that is p_lo*q_hi <= p_hi*q_lo, so it raises
    exactly where Enclosure.__new__ would on the images, with the same
    ValueError, and it also confirms that the ends are positive.  Ends that
    share a denominator (directed (t, S)) need one integer comparison.  Exact
    pairs past _BOUND_BITS across one side's two factors go to _product_ge
    with tops sized to the bits the two sides share: the scaled convergents
    of _terms differ by exactly |p_hi*q_lo - p_lo*q_hi| = D**(2n+1) at
    depth n, so with gap the floor of (2n+1)*log2(D) and size the bits of
    the two factors, tops of size - gap + 8 bits bound each side to within
    2**(gap - 5) and decide.
    Any other pair only places work there: _product_ge's exact products
    decide where the bounds overlap.

    Each end is reduced by _reduced with k = 2*bd, with no gcd as wide as N:
    every prime of gcd(N, M) divides k.  A prime r that does not divide bd
    but divides N and M divides p, hence bd*q, hence gcd(p, q).  Every
    caller's gcd(p, q) has only primes of 2*bd:
    - exact tail pairs, the scaled convergents of _terms, where it
      divides D**(2n+1) and D divides bd;
    - directed ends (t, S) with S = D * 2**bits;
    - _mapped's (num, den) of a reduced Fraction, which are coprime.
    So both ends come out coprime, _coprime builds them, and the enclosure
    is built once, without a second pass through __new__.
    """
    (a, b), (c, d) = point.m.as_integer_ratio(), point.lam.as_integer_ratio()
    (p_lo, q_lo), (p_hi, q_hi) = t_lo, t_hi
    size = p_hi.bit_length() + q_lo.bit_length()
    if q_lo == q_hi:
        ordered = 0 < p_lo <= p_hi
    elif size <= _BOUND_BITS:
        ordered = 0 < p_lo and p_lo * q_hi <= p_hi * q_lo
    else:
        gap = int((2 * depth + 1) * log2(b // gcd(b, c) * d))  # D of _terms
        ordered = 0 < min(p_lo, p_hi) and _product_ge(
            (p_hi, q_lo), (p_lo, q_hi), bits=max(size - gap + 8, 64))
    ac, bd = a * c, b * d
    k = 2 * bd
    ln, ld = _reduced(ac * p_hi + bd * q_hi, bd * p_hi, k)
    hn, hd = _reduced(ac * p_lo + bd * q_lo, bd * p_lo, k)
    lo, hi = _coprime(ln, ld), _coprime(hn, hd)
    if not ordered:
        raise ValueError(f"malformed enclosure: {_rational_str(lo)} > {_rational_str(hi)}")
    return tuple.__new__(Enclosure, (lo, hi, depth, mode, tol))


def _mapped(point: CFPoint, tail: Enclosure) -> Enclosure:
    """G(point) by _from_tail from ``tail``, an enclosure of G(m+1, lam),
    with the tail's depth, mode and tol."""
    lo, hi = tail.lo.as_integer_ratio(), tail.hi.as_integer_ratio()
    return _from_tail(point, lo, hi, tail.depth, tail.mode, tail.tol)


#: matrices per leaf of _step_product's tree, multiplied in sequence
_LEAF = 48


def _step_product(u: int, du: int, big_d: int, lo: int, hi: int) -> tuple[int, int, int, int]:
    """(A, B, C, E) = M_{hi-1} ... M_lo for the terms (u, du, D) of _terms,
    with M_0 = [[u_0, D], [1, 0]] and M_j = [[u_j, D**2], [1, 0]]: from lo = 0
    to n + 1 it is [[p_n, q_n], [p_{n-1}, q_{n-1}]] (see eval_enclosure).

    A balanced tree over runs of _LEAF, so wide products pair equal sizes
    (binary splitting).  Each merge multiplies by Winograd's form of
    Strassen's product (S. Winograd, 1971): seven wide products and fifteen
    additions instead of eight products, with the same integers.

    A leaf carries both columns packed, one integer per row: x = (A << k) + B
    and y = (C << k) + E, and a step is x, y = u_j*x + D**2*y, x.  Every
    entry is a nonnegative integer.  Conjugated by T = diag(D, 1), M_j
    becomes T**-1 M_j T = [[u_j, D], [D, 0]] (M_0: [[u_0, 1], [D, 0]]),
    whose rows sum to at most X = u_last + D, u_last the leaf's last term.
    So a product Q of s of them has entries at most X**s, and the product
    of the M_j, T Q T**-1, has B = D*Q_12 <= D * X**s and E = Q_22 <= X**s.
    With k = bitlen(D) + s*bitlen(X), every B and E the run passes through
    is below 2**k, so u_j*B + D**2*E, the next B, never carries across
    bit k, and the high and low parts of each row stay exactly (A, B) and
    (C, E).
    """
    if hi - lo > _LEAF:
        mid = (lo + hi) // 2
        a1, b1, c1, e1 = _step_product(u, du, big_d, lo, mid)
        a2, b2, c2, e2 = _step_product(u, du, big_d, mid, hi)
        s1 = c2 + e2
        s2 = s1 - a2
        t1 = b1 - a1
        t2 = e1 - t1
        m1, m5 = a2 * a1, s1 * t1
        u2 = m1 + s2 * t2
        u3 = u2 + (a2 - c2) * (e1 - b1)
        return m1 + b2 * c1, u2 + m5 + (b2 - s2) * e1, u3 - e2 * (t2 - c1), u3 + m5
    dd = big_d * big_d
    u += lo * du
    s = hi - lo
    k = big_d.bit_length() + s * (u + (s - 1) * du + big_d).bit_length()
    x, y = (u << k) + (dd if lo else big_d), 1 << k
    for _ in range(lo + 1, hi):
        u += du
        x, y = u * x + dd * y, x
    low = (1 << k) - 1
    return x >> k, x & low, y >> k, y & low


#: ln 4: the measured offset of the width at small x0 (see _depth_model)
_LN4 = log(4)


def _depth_model(point: CFPoint, tol: Fraction, max_depth: int) -> int:
    """Where every evaluation of G(point) to width tol starts: the least n in
    [1, max_depth] with (F(x0 + (n + 1/2)*lam) - F(x0 + lam/2)) / lam >=
    ln(1/tol) + ln 4, or max_depth, where x0 = (m+1)*lam and
    F(x) = 2x*asinh(x/2) - 2*sqrt(x**2 + 4).

    The tail's width at depth n is 1/(P_n P_{n-1}).  Where the terms
    x_j = x0 + j*lam vary slowly, P_j / P_{j-1} is near the root of
    r = x_j + 1/r, so ln(P_n P_{n-1}) grows by about F'(x_j) = 2*asinh(x_j/2)
    a step: the integral above, with an offset ln 4 measured at small x0.

    In y = x/lam the integral is grow(n), from ya = m + 3/2 to ya + n.  With
    u, v the halves of its two ends, so u - v = lam*n/2, it is
    2n(asinh u - r) + 2 ya (asinh u - asinh v) with
    r = (u+v) / (hypot(u, 1) + hypot(v, 1)), and the last difference is a
    log1p of positive parts.  So nothing cancels, no square overflows, and
    n*lam below x0's float resolution gives the mean value n * 2*asinh(v).
    From v >= 2**26 the integrand is 2*ln(lam*y) to 2**-53, integrated in
    closed form.  grow is increasing and convex in n, and as asinh(z) <= z,
    grow(n) <= lam/2 * n * (2ya + n), so every integer below that bound's
    root falls short.  The first trial takes three fixed-point steps of the
    midpoint rule n * 2*asinh(lam/2 * (ya + n/2)) = need, from the first
    integer past that root.  The rule's mean rises with n, so the steps
    alternate about the rule's root and the third ends just above it; as
    asinh is concave, grow's root lies above the rule's too, and close to
    where the third step ends.

    Each evaluation also bounds its neighbours.  The slope 2*asinh(lam*y/2)
    rises by at most lam a step (in the closed form, 2*ln(lam*y) rises by
    2/ya <= lam), so grow(n + 1) >= grow(n) + slope(n) and
    grow(n - 1) <= grow(n) - slope(n) + lam.  A bound can decide otherwise
    than evaluating the neighbour only where need lies within grow's
    rounding, about 2**-52 of it, of the neighbour's value: on every call
    of the certify-mix, exact-deep and small-lam-sweep passes of seeds 1-3
    and on 47,000 random cases (m up to 1e12, lam 1e-24 to 1e19, tol down
    to 1e-3000) the start equals the one found by evaluating every trial.
    Past the first trial, Newton steps on integers, each clamped inside the
    bracket of integers known to fall short and to meet need, narrow it to
    one step.  The first trial alone closes the bracket on most calls:
    1.04 evaluations a call on certify-mix, 1.0 on small-lam-sweep and 2.16
    on exact-deep (seeds 1-3), where a first trial at the first integer
    past the bound's root took 2.94, 1.33 and 4.48.
    Where m + 3/2 or lam overflows a float the start is 1, and where lam/2
    is 0.0 it is max_depth.

    The start only places the work: eval_enclosure's exact test settles the
    minimal depth from any start, and eval_directed's retry rule goes on
    from it.
    """
    (a, b), (c, d) = point.m.as_integer_ratio(), point.lam.as_integer_ratio()
    try:
        ya, lam = (2 * a + 3 * b) / (2 * b), c / d  # m + 3/2 and lam, one rounding each
    except OverflowError:
        return 1
    s = lam / 2
    if not s:
        return max_depth
    cap = min(max_depth, 2**53)  # every depth up to cap is one float
    tn, td = tol.as_integer_ratio()
    need = log(td) - log(tn) + _LN4
    v, ya2 = s * ya, 2 * ya
    closed = v >= 2.0**26  # grow's closed log form
    if closed:
        log_lam = log(lam)
    else:
        hv = hypot(v, 1)
        vh = v + hv

    # grow(lo) < need <= grow(hi), hi = cap + 1 standing for "past cap"
    want = max(need, 0.0)
    lo = max(ceil(min(hypot(ya, sqrt(want / s)) - ya, cap)) - 1, 0)
    hi = cap + 1
    # the midpoint rule's steps, n * asinh(v + s*n/2) = want/2
    half_want, quarter = want / 2, s / 2
    n = half_want / asinh(v + quarter * (lo + 1))
    n = half_want / asinh(v + quarter * n)
    n = min(max(ceil(min(half_want / asinh(v + quarter * n), cap)), lo + 1), cap)
    while True:
        # g = grow(n) and its slope 2*asinh(lam*(ya + n)/2), in either form
        if closed:
            slope = 2 * (log_lam + log(ya + n))
            g = n * (slope - 2) + ya2 * log1p(n / ya)
        else:
            half = s * n
            u = v + half
            r = (u + v) / (hypot(u, 1) + hv)
            slope = 2 * asinh(u)
            g = n * (slope - 2 * r) + ya2 * log1p(half * (1 + r) / vh)
        # grow's slope rises by at most lam a step, so a trial short by at
        # most its slope has a successor that meets need, and one that meets
        # it by less than its slope less lam has a predecessor that falls short
        if g < need:
            lo = n
            if g + slope >= need:
                hi = min(hi, n + 1)
        else:
            hi = n
            if g - slope + lam < need:
                lo = max(lo, n - 1)
        if hi - lo == 1:
            return min(hi, cap)
        # the tangent at n crosses need past the root, from either side
        n = min(max(ceil(n - (g - need) / slope), lo + 1), hi - 1)


#: from this many bits on, a comparison of products bounds both sides
#: before it multiplies: _meets's dd**n, and one side's two factors in
#: _from_tail's order check
_BOUND_BITS = 4096


def _meets(p: int, pp: int, tn: int, x: int, dd: int, n: int) -> bool:
    """p * pp * tn >= x * dd**n for positive integers and n >= 0.  Below
    _BOUND_BITS, with s the sum of the three bit lengths on the left and r
    that of rhs = x * dd**n, the product is in [2**(s-3), 2**s) and rhs in
    [2**(r-1), 2**r), so only r <= s <= r + 2 needs the product.  Above it,
    _product_ge bounds both sides before it multiplies."""
    if n * dd.bit_length() < _BOUND_BITS:
        rhs = x * dd**n
        s = p.bit_length() + pp.bit_length() + tn.bit_length() - rhs.bit_length()
        return p * pp * tn >= rhs if 0 <= s <= 2 else s > 2
    return _product_ge((p, pp, tn), (x,), dd, n)


def _product_ge(
    left: tuple[int, ...], right: tuple[int, ...], dd: int = 1, n: int = 0, bits: int = 64
) -> bool:
    """prod(left) >= prod(right) * dd**n for positive integers and n >= 0.

    Both sides are first bounded by [lo, hi] * 2**e: each factor v cut to
    its top ``bits`` bits, t = v >> s with c = 1 where s > 0, so that
    t * 2**s <= v <= (t + c) * 2**s; dd**n by square and multiply, cut back
    to ``bits`` bits after each step, lo down and hi up.  Each side's upper
    bound costs no second product: hi*(t + c) is formed as
    lo*t + (hi - lo)*t + c*hi, and for two cut factors a and b that is
    ab + a + b + 1.  Only bounds that overlap, where the sides agree to
    about 2**(4 - bits) of themselves, leave the exact products to decide,
    so ``bits`` only places work and never changes a verdict.
    """
    ed = max(dd.bit_length() - bits, 0)
    d = dd >> ed
    d1 = d + (ed > 0)
    lo, hi, e = 1, 1, 0
    for bit in bin(n)[2:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi, e = lo * d, hi * d1, e + ed
        s = hi.bit_length() - bits
        if s > 0:
            lo, hi, e = lo >> s, -(-hi >> s), e + s
    # (s and hi) is c*hi: hi where v was cut
    for v in right:
        s = max(v.bit_length() - bits, 0)
        t = v >> s
        p = lo * t
        lo, hi, e = p, p + (hi - lo) * t + (s and hi), e + s
    left_lo, left_hi, k = 1, 1, -e
    for v in left:
        s = max(v.bit_length() - bits, 0)
        t = v >> s
        p = left_lo * t
        left_lo, left_hi, k = p, p + (left_hi - left_lo) * t + (s and left_hi), k + s
    # both sides at the smaller of their two exponents
    left_lo, left_hi = left_lo << max(k, 0), left_hi << max(k, 0)
    lo, hi = lo << max(-k, 0), hi << max(-k, 0)
    if left_lo >= hi or left_hi < lo:
        return left_lo >= hi
    return prod(left) >= prod(right) * dd**n


def eval_enclosure(
    point: CFPoint,
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Enclosure:
    """Exact enclosure of G(point) of width <= tol, at the minimal depth.

    Evaluation always runs on the shifted tail at m + 1 (all terms positive
    there for any m > -1) and maps back through m*lam + 1/tail.  For the
    consecutive tail convergents (n-1, n) the mapped width is exactly
    1 / (P_n * P_{n-1}), and with the scaled convergents p_n = D**(n+1) * P_n
    of _terms the test width <= tol reads
    p_n * p_{n-1} * tol_num >= D * tol_den * (D**2)**n.

    One product tree (_step_product) builds the pair at s = n - 1, a step
    below the start n of _depth_model (measured from one below to two above
    the minimal depth), and the test (_meets) bounds its sides before it
    multiplies.  While the test holds at s >= 1 the start ran long: s steps
    back, by the recurrence run backwards, whose divisions by D**2 are
    exact, and after two such steps it halves and the pair is built again.
    From s the recurrence steps forward, testing each depth, to the first
    that meets tol or to max_depth.  That is the depth and pair of a walk
    from depth 1 that tests every step:
    - The tree's integers, and so those of the steps back, equal the
      walk's.  One step of the recurrence is
      [[p_n, q_n], [p_{n-1}, q_{n-1}]] = M_n [[p_{n-1}, q_{n-1}],
      [p_{n-2}, q_{n-2}]] with M_n = [[u_n, D**2], [1, 0]], so the pair at
      depth n is M_n ... M_1 [[u_0, D], [1, 0]], and integer matrix
      products are associative: every bracketing gives the same integers.
    - The widths strictly decrease.  Every P_n is positive, and
      P_n = x_n P_{n-1} + P_{n-2} > P_{n-2}, so P_n * P_{n-1} strictly
      increases with n.  The test therefore holds from the minimal depth on
      and at no depth before it, so the first depth past s that meets tol,
      where s = 0 or the test fails at s, is the minimal one, whatever n the
      model gave.

    Raises BudgetExceededError with the enclosure at ``max_depth``
    attached when the tolerance is unreachable within it.
    """
    tol = as_fraction(tol)
    if tol.numerator <= 0:
        raise DomainError(f"tol must be positive, got {_rational_str(tol)}")
    _check_budget(max_depth)
    m, lam = point.m, point.lam
    u, du, big_d = _terms(m.numerator + m.denominator, m.denominator, *lam.as_integer_ratio())
    dd = big_d * big_d
    tn, x = tol.numerator, big_d * tol.denominator
    n = max(_depth_model(point, tol, max_depth) - 1, 0)
    p, q, pp, qq = _step_product(u, du, big_d, 0, n + 1)
    back = 0
    while n and _meets(p, pp, tn, x, dd, n):
        if back < 2:
            # p_n = u_n p_{n-1} + D**2 p_{n-2} run backwards, exactly
            un = u + n * du
            p, q, pp, qq = pp, qq, (p - un * pp) // dd, (q - un * qq) // dd
            n, back = n - 1, back + 1
        else:
            n //= 2
            p, q, pp, qq = _step_product(u, du, big_d, 0, n + 1)
    u += n * du
    met = False
    while not met and n < max_depth:
        n, u = n + 1, u + du
        p, q, pp, qq = u * p + dd * pp, u * q + dd * qq, p, q
        met = _meets(p, pp, tn, x, dd, n)
    enc = _pair_enclosure(point, (n, p, q, pp, qq))
    if met:
        return enc
    raise BudgetExceededError(
        f"width {_sci(enc.width)} > tol {_sci(tol)} "
        f"at max_depth={max_depth}; raise the budget or use directed mode",
        best=enc,
    )


def _side_of_one(
    a: int, b: int, c: int, d: int, max_depth: int
) -> tuple[int, tuple[int, int, int, int, int]]:
    """Side of G(a/b, c/d) relative to 1 (-1 below, 1 above, 0 undecided),
    and the tail pair (n, p, q, pp, qq) that decides it.

    Walks eval_enclosure's exact tail pairs (n-1, n), n >= 1, by the
    scaled recurrence of _terms, one flat loop on integers, and stops at the
    first whose mapped enclosure excludes 1 (the pairs are nested, so every
    deeper one agrees), or gives up (0) at ``max_depth`` with that pair.  A
    verdict at n = 0 is returned with the pair at n = 1.  The fractions need
    not be reduced.

    With t = p/q a tail convergent, bd = b*d and e = bd - a*c, the mapped
    value m*lam + 1/t is 1 - r/(bd*p) with r = p*e - q*bd, so it is below 1
    exactly when r > 0 and above when r < 0.  Only an even convergent (the
    lower tail bound) can newly put a pair below 1 and only an odd one
    above, so each step tests just the newest one.
    """
    _check_budget(max_depth)
    bd = b * d
    e = bd - a * c
    u, du, big_d = _terms(a + b, b, c, d)
    dd = big_d * big_d
    p, q, pp, qq = u, big_d, 1, 0
    side = -1 if p * e > q * bd else 0
    n = 0
    while True:
        n += 1
        u += du
        p, pp = u * p + dd * pp, p
        q, qq = u * q + dd * qq, q
        if (p * e < q * bd) if n & 1 else (p * e > q * bd):
            side = 1 if n & 1 else -1
        if side or n >= max_depth:
            return side, (n, p, q, pp, qq)


def _pair_enclosure(point: CFPoint, pair: tuple[int, int, int, int, int]) -> Enclosure:
    """Exact enclosure of G(point) from the tail pair (n, p, q, pp, qq) at m + 1."""
    n, p, q, pp, qq = pair
    # even tail convergents are lower bounds, odd ones upper bounds
    ends = ((p, q), (pp, qq)) if n % 2 == 0 else ((pp, qq), (p, q))
    return _from_tail(point, *ends, n, EvalMode.EXACT)


def _exact_at(point: CFPoint, depth: int) -> Enclosure:
    """Exact enclosure of G(point) from the tail pair (depth - 1, depth) at m + 1."""
    m, lam = point.m, point.lam
    terms = _terms(m.numerator + m.denominator, m.denominator, *lam.as_integer_ratio())
    return _pair_enclosure(point, (depth, *_step_product(*terms, 0, depth + 1)))


# ---------------------------------------------------------------------------
# directed mode
# ---------------------------------------------------------------------------

#: outward factors of the float stage of _directed_tail
_DOWN, _UP = 1 - 2.0**-50, 1 + 2.0**-50
#: the float stage hands over below this width relative to its upper end
_NARROW = 2.0**-36
#: the float stage's range guard keeps every value normal
_TINY, _HUGE = 2.0**-900, 2.0**900


def _directed_tail(
    a: int, b: int, c: int, big_d: int, depth: int, bits: int
) -> tuple[int, int, int]:
    """Backward interval pass over the tail terms x_j = u_j / D, u_j = (a + j*b) * c.

    Returns integers (lo, hi, S) with lo/S <= tail value <= hi/S, where
    S = D * 2**bits.  The seed uses T_depth in (x_depth, x_depth + 1/x_{depth+1}),
    and each step T_j = x_j + 1/T_{j+1}: the old upper bound feeds the new
    lower one and vice versa.  The pass runs in two stages.

    Deep steps run in binary64 on x_j = (m1 + j) * lam, from m1 = a/b and
    lam = b*c/D, which int true division rounds correctly.  Each new lower
    bound is multiplied by 1 - 2**-50 and each new upper bound by
    1 + 2**-50, both exact.  Every float bound stays on its side:
    - Every value is positive and, by the range guard, normal, so each
      round-to-nearest operation multiplies its exact result by some 1 + e
      with |e| <= u = 2**-53.  A sum of positive parts carries the worst
      factor of its parts, then its own.  The reciprocal of a value that
      carries at most (1 + u)**k carries at least 1/(1 + u)**k >= (1 - u)**k,
      then its own: the one direction the seed's upper bound needs.
    - A term carries at most (1 -+ u)**4: m1, m1 + j, lam and the product.
      A loop step's new bound carries at most (1 -+ u)**6: four from the
      term (the reciprocal of a float bound carries one), then the sum and
      the product by the factor.  The seed's lower bound carries five, and
      its upper bound seven, since 1/x_{depth+1} carries five.
    - (1 + u)**7 * (1 - 2**-50) < 1 < (1 - u)**7 * (1 + 2**-50).  So each new
      lower bound lies below x_j + 1/hi <= T_j, and each upper bound above
      x_j + 1/lo >= T_j, with lo, hi the float bounds of T_{j+1}.
    The range guard: m1, lam and the first term m1*lam are at least 2**-900,
    the term past the seed is at most 2**900, and depth is below 2**52, so
    m1 + j is one rounding.  Then every term, bound and reciprocal lies in
    [2**-902, 2**902].  Otherwise the float stage runs no step.

    The float stage hands over at the first step whose width is below
    2**-36 of its upper end, before its own rounding (about 2**-50 relative
    a step) shows in the width.  The bounds convert exactly, lo down and hi
    up, to scale S, where every term is the exact integer u_j << bits, so no
    term rounds.  Only the reciprocals round, outward: 1/(hi/S) is S*S/hi at
    scale S and rounds down, 1/(lo/S) rounds up.  lo/S stays above x_j / 2,
    at least 2**(bits - 1) / S, so lo is a positive integer.  When the float
    stage runs no step, the integer stage takes the seed itself.
    """
    scale = big_d << bits
    j = depth
    try:
        m1, lam = a / b, b * c / big_d
    except OverflowError:
        m1 = lam = 0.0
    if min(m1, lam, m1 * lam) >= _TINY and (m1 + depth + 1) * lam <= _HUGE and depth < 2**52:
        down, up, narrow = _DOWN, _UP, _NARROW
        x = (m1 + j) * lam
        lo, hi = x * down, (x + 1 / ((m1 + j + 1) * lam)) * up
        while j and hi - lo >= hi * narrow:
            j -= 1
            x = (m1 + j) * lam
            lo, hi = (x + 1 / hi) * down, (x + 1 / lo) * up
    sq = scale * scale
    sq1 = sq - 1  # ceil(sq / x) = (sq - 1) // x + 1
    step = (b * c) << bits
    t = ((a + j * b) * c) << bits
    if j < depth:
        n, d = lo.as_integer_ratio()
        lo = n * scale // d
        n, d = hi.as_integer_ratio()
        hi = -(-n * scale // d)
    else:
        lo, hi = t, t + sq1 // (t + step) + 1
    for _ in range(j):
        t -= step
        # old hi feeds the new lower bound and vice versa (reciprocal flips order)
        lo, hi = t + sq // hi, t + sq1 // lo + 1
    return lo, hi, scale


#: ln(2**36): the float stage hands over below _NARROW = 2**-36 relative width
_LN_NARROW = 36 * log(2)


def _rounding_steps(point: CFPoint, tol: Fraction, depth: int) -> int:
    """Steps, from 0 to depth, that a directed first pass at the model's
    start ``depth`` adds for the rounding of _directed_tail's float stage.

    The float stage's outward factors widen each step by about 2**-49 (its
    values are near 1 at small x), and the backward map shrinks a width by
    about e**-x_j a step.  So a stage that hands over at term h carries
    about 2**-49 / x_h of rounding, a share eps = 2**-13 / x_h of the
    2**-36 width it hands over, and every later step shrinks both alike.
    The integer stage shrinks the width to G by about
    exp(-lam*h*(2ya + h)/2), ya = m + 3/2 as in _depth_model, so the
    handover lies where that leaves 2**36 * tol:
    x_h = lam*(ya + h) = hypot(lam*ya, sqrt(2*lam*ln(2**-36/tol))).  The
    pass is then 1/(1 - eps) wider than the model counts: ln(1/(1 - eps))
    more, at 2*asinh(x_n/2) a step, less one step, which the pass's seed
    (x_n, x_n + 1/x_{n+1}), tighter than the convergent pair the model
    counts, covers (1.3 to 2 steps, measured from lam = 1e-5 to 1e-7).  eps
    is capped at 1/2, past which the retry rule goes on, and nothing is
    added where tol is above 2**-36, as no width-driven handover happens.

    Against passes with no float stage, ln(1/(1 - eps)) was within 7% of the
    rounding's share of the log width: 0.0146 at lam = 1e-5, tol 1e-12, and
    0.090 at lam = 1e-7, tol = lam * 2**-26, where 35 steps are added (4 at
    lam = 1e-6).  Nothing is added from DIRECTED_LAMBDA_CUTOFF up: there
    x_h >= lam*ya >= 2**-7, so ln(1/(1 - eps)) < 0.016, less than one step,
    2*asinh(x_n/2) > 2*asinh(3/256) > 0.023.
    """
    (a, b), (c, d) = point.m.as_integer_ratio(), point.lam.as_integer_ratio()
    try:
        ya, lam = (2 * a + 3 * b) / (2 * b), c / d
    except OverflowError:
        return 0
    tn, td = tol.as_integer_ratio()
    rest = log(td) - log(tn) - _LN_NARROW
    drop = 2 * asinh(lam * (ya + depth) / 2)
    if rest <= 0 or not drop:
        return 0
    eps = min(2.0**-13 / hypot(lam * ya, sqrt(2 * lam * rest)), 0.5)
    return min(max(ceil(-log1p(-eps) / drop) - 1, 0), depth)


def eval_directed(
    point: CFPoint,
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Enclosure:
    """Directed-rounding enclosure of G(point), for deep (small lam) evaluation.

    Same bracketing contract as eval_enclosure, but the tail runs as a
    backward interval pass (see _directed_tail): its deep end in binary64
    with outward factors, the rest on integers scaled by S = D * 2**bits,
    where the terms are exact and the reciprocal that feeds each lower bound
    rounds down and the one that feeds each upper bound rounds up.  So the
    result remains rigorous at any depth.

    bits is worked out from tol and the number of integer roundings.  A pass
    of depth n rounds each end under one unit of 1/S per step, plus once at
    the handover: at most 2*n + 2 units.  Consecutive tail values have
    T_j * T_{j+1} = x_j * T_{j+1} + 1 >= 1, so the reciprocals that carry an
    error back to G grow it over no two steps, and in all by at most
    max(1, 1/T_0**2).  Since G(k, lam) < B(k, lam) <= k*lam + 1 for k >= 0
    (the sandwich), T_0 = G(m+1, lam) > 1/G(m+2, lam) > 1/((m+2)*lam + 1):
    that factor is below 4**bitlen(floor((m+2)*lam)), and below 4 and near
    1 at small lam, where the floor is 0.  The unit counts D's own bits:
    bits = bitlen(1/tol) + bitlen(2*n + 2) + 24 + 2*bitlen(floor((m+2)*lam))
    - (bitlen(D) - 1), at least 1, makes S >= 2**(bitlen(1/tol) +
    bitlen(2*n + 2) + 24) times that bound on the factor, which keeps the
    rounding about 2**-24 below tol.  S is still a multiple of D, so every
    term stays an exact integer, and bits >= 1 keeps lo a positive integer.

    The first pass runs at _depth_model's start, raised by _rounding_steps
    for the float stage's own rounding, which adds nothing from lam = 1e-5
    up at tol <= 1e-12.  It was measured at or up to 3 steps above the least
    depth where one pass meets tol from lam = 1e-5 to 1000 and m = -1/2 to
    10**6, and 1 to 3 above at lam = 1e-6 and 1e-7, tol = lam * 2**-26 and
    1e-30.  It lies below that depth where x0 = (m+1)*lam is far below 1 at
    large lam, since the model leaves out P_0 = x0.  A pass at depth n that
    leaves the intersection of the passes w wider than tol is followed by
    one at n + k, capped at
    max_depth, with k = ceil(ln(w/tol) / (2*asinh(lam*n/2))): past n the
    log of 1/(P_j P_{j-1}) falls by ln(P_{j+1}/P_{j-1}), about
    2*asinh(x_j/2) or more a step, and x_j >= lam*n.  k is raised to twice
    the k of the retry before, so a width that depth does not narrow reaches
    max_depth in few passes, and kept from 1 to n.  Each depth depends only
    on the point, tol and the widths before it, and a lower budget only caps
    it.  So the result, which carries tol, is rebuilt bit for bit by this
    call at its own tol with max_depth set to its depth.

    Raises NotConvergedError with the best enclosure attached when the width
    is still above tol at ``max_depth``.
    """
    tol = as_fraction(tol)
    if tol.numerator <= 0:
        raise DomainError(f"tol must be positive, got {_rational_str(tol)}")
    _check_budget(max_depth)
    (a, b), (c, d) = point.m.as_integer_ratio(), point.lam.as_integer_ratio()
    a, big_d = a + b, b * d  # the tail at m + 1 = a/b
    guard = (tol.denominator // tol.numerator).bit_length() + 24 - (big_d.bit_length() - 1)
    guard += 2 * ((a + b) * c // big_d).bit_length()  # 2*bitlen(floor((m+2)*lam))
    best: Enclosure | None = None
    more = 0
    depth = _depth_model(point, tol, max_depth)
    depth = min(depth + _rounding_steps(point, tol, depth), max_depth)
    while True:
        bits = max(guard + (2 * depth + 2).bit_length(), 1)
        t_lo, t_hi, scale = _directed_tail(a, b, c, big_d, depth, bits)
        enc = _from_tail(point, (t_lo, scale), (t_hi, scale), depth, EvalMode.DIRECTED, tol)
        # successive passes both contain G, so the intersection does too
        best = enc if best is None else Enclosure(
            max(enc.lo, best.lo), min(enc.hi, best.hi), depth, EvalMode.DIRECTED, tol)
        if best.width <= tol:
            return best
        if depth >= max_depth:
            raise NotConvergedError(
                f"width {_sci(best.width)} > tol {_sci(tol)} "
                f"at max_depth={max_depth}",
                best=best,
            )
        # past depth the log width falls by about drop or more a step (lam is
        # cut to 2**20 to convert to a double; the cut can only add steps)
        drop = 2 * asinh(min(c, d << 20) / d * depth / 2)
        w = best.width
        deficit = log(w.numerator * tol.denominator) - log(w.denominator * tol.numerator)
        fits = drop * depth > max(deficit, 0)  # and so drop > 0
        more = min(max(ceil(deficit / drop), 2 * more, 1), depth) if fits else depth
        depth = min(depth + more, max_depth)


def evaluate(
    point: CFPoint,
    tol: RationalLike = DEFAULT_TOL,
    *,
    mode: str | EvalMode = "auto",
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Enclosure:
    """Evaluate with mode routing: exact for ordinary lam, directed below the cutoff."""
    if mode == "auto":
        mode = EvalMode.EXACT if _exact_routed(point.lam) else EvalMode.DIRECTED
    elif mode in ("directed", EvalMode.DIRECTED):
        mode = EvalMode.DIRECTED
    elif mode in ("exact", EvalMode.EXACT):
        mode = EvalMode.EXACT
    else:
        raise DomainError(f"unknown mode {mode!r}")
    if mode is EvalMode.EXACT:
        return eval_enclosure(point, tol, max_depth=max_depth)
    return eval_directed(point, tol, max_depth=max_depth)


def _best(
    point: CFPoint, tol: RationalLike, max_depth: int, mode: str | EvalMode = "auto"
) -> tuple[Enclosure, NotConvergedError | BudgetExceededError | None]:
    """(enclosure, None) when evaluate meets tol; out of budget, (its best
    enclosure, still rigorous, and the error)."""
    try:
        return evaluate(point, tol, mode=mode, max_depth=max_depth), None
    except (BudgetExceededError, NotConvergedError) as exc:
        return exc.best, exc


def _tightened(
    points: list[CFPoint], tol: RationalLike, max_depth: int
) -> Iterator[tuple[Fraction, list[Enclosure]]]:
    """Enclosures of G at ``points``, at tol, tol/10, tol/100, ...

    Yields (t, enclosures) per tolerance, evaluating the points in order;
    the caller stops when its predicate decides.  An evaluation out of
    budget contributes its best enclosure (_best) and makes that tolerance
    the last one, since no tighter tolerance can go deeper.
    """
    t = as_fraction(tol)
    while True:
        found = [_best(point, t, max_depth) for point in points]
        yield t, [enc for enc, _ in found]
        if any(exc for _, exc in found):
            return
        t = t / 10
