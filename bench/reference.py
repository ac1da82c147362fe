"""Independent reference values for the benchmark's correctness gate.

Nothing here imports cfcert.  G(m, lam) is enclosed by the plain forward
recurrence P_n = x_n P_{n-1} + P_{n-2} that ``tests/conftest.py`` runs over
``Fraction`` objects, applied to the all-positive tail at m + 1 and mapped
back through G(m) = m*lam + 1/G(m+1).  Here the common denominator D of the
terms x_n = u_n / D is cleared (p_n = D**(n+1) P_n), so every step is plain
integer arithmetic: the ``Fraction`` form costs about 3 s per point at
lam = 1e-5 and would dominate a run.  ``test_bench.py`` checks that both
forms give the same enclosure.

B(m, lam), the positive root of y**2 - m*lam*y - 1, is enclosed with
``math.isqrt`` instead of the library's ``theorem_bound``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class WrongCertificate(Exception):
    """A certified output contradicts the reference: the one unacceptable bug."""


#: a reference stops tightening at this depth; no workload needs half of it
REF_MAX_DEPTH = 40_000
SERIES_MIN_LAM = Fraction(1, 64)


class RefG:
    """Extendable reference enclosure of G(m, lam) for m > -1, lam > 0."""

    def __init__(self, m: Fraction, lam: Fraction):
        if m <= -1 or lam <= 0:
            raise ValueError(f"reference needs m > -1 and lam > 0, got {m}, {lam}")
        self.x0 = m * lam
        tail_m = m + 1
        big_d = tail_m.denominator * lam.denominator
        self._dd = big_d * big_d
        self._du = tail_m.denominator * lam.numerator
        self._u = tail_m.numerator * lam.numerator  # u_0 = D * x_0 of the tail
        # (p, q) at n = 0 and (pp, qq) at n = -1, both scaled by powers of D
        self._p, self._q, self._pp, self._qq = self._u, big_d, 1, 0
        self.depth = 0
        self._step()

    def _step(self) -> None:
        self._u += self._du
        self._p, self._pp = self._u * self._p + self._dd * self._pp, self._p
        self._q, self._qq = self._u * self._q + self._dd * self._qq, self._q
        self.depth += 1

    def _wider_than(self, width: Fraction) -> bool:
        # the mapped width of the pair is |1/T_n - 1/T_{n-1}| with T_n = p/q
        det = abs(self._q * self._pp - self._p * self._qq)
        return det * width.denominator > width.numerator * self._p * self._pp

    def tighten(self, width: Fraction) -> "RefG":
        while self.depth < REF_MAX_DEPTH and self._wider_than(width):
            # the check multiplies big numbers; spacing it out keeps it off the profile
            for _ in range(max(16, self.depth // 16)):
                self._step()
        return self

    def bounds(self) -> tuple[Fraction, Fraction]:
        a = self.x0 + Fraction(self._q, self._p)
        b = self.x0 + Fraction(self._qq, self._pp)
        return (a, b) if a <= b else (b, a)


class RefB:
    """Reference enclosure of B(m, lam) = (c + sqrt(c**2 + 4)) / 2, c = m*lam."""

    def __init__(self, m: Fraction, lam: Fraction):
        c = m * lam
        self._e, self._f = c.numerator, c.denominator
        self._n = self._e * self._e + 4 * self._f * self._f
        self._k = 0
        self.tighten(Fraction(1, 10**6))

    def tighten(self, width: Fraction) -> "RefB":
        # width of the enclosure below is 1 / (2 f 2**k)
        while Fraction(1, 2 * self._f << self._k) > width:
            self._k += 32
        return self

    def bounds(self) -> tuple[Fraction, Fraction]:
        k = self._k
        s = isqrt(self._n << (2 * k))
        den = (2 * self._f) << k
        lo = Fraction((self._e << k) + s, den)
        if s * s == self._n << (2 * k):
            return lo, lo
        return lo, Fraction((self._e << k) + s + 1, den)


class Const:
    """A known exact value, so claims against 1 use the same comparison code."""

    def __init__(self, value: Fraction):
        self.value = Fraction(value)

    def tighten(self, width: Fraction) -> "Const":
        return self

    def bounds(self) -> tuple[Fraction, Fraction]:
        return self.value, self.value


class References:
    """Per-run cache of reference enclosures, keyed by point."""

    def __init__(self, series=None):
        """``series(m, lam, terms)`` is the library's series oracle: an
        enclosure ``(lo, hi)`` of G(m, lam) for integer m, or None when the
        truncation is too short to bound the tail."""
        self._g: dict[tuple[Fraction, Fraction], RefG] = {}
        self._b: dict[tuple[Fraction, Fraction], RefB] = {}
        self._series_cache: dict[tuple[int, Fraction], tuple[Fraction, Fraction]] = {}
        self._series = series

    def g(self, m, lam, width) -> RefG:
        key = (Fraction(m), Fraction(lam))
        ref = self._g.get(key)
        if ref is None:
            ref = self._g[key] = RefG(*key)
        return ref.tighten(Fraction(width))

    def b(self, m, lam, width) -> RefB:
        key = (Fraction(m), Fraction(lam))
        ref = self._b.get(key)
        if ref is None:
            ref = self._b[key] = RefB(*key)
        return ref.tighten(Fraction(width))

    def series(self, m: int, lam: Fraction) -> tuple[Fraction, Fraction]:
        """Series-oracle enclosure of G(m, lam) for integer m, width <= 1e-30."""
        key = (m, lam)
        if key not in self._series_cache:
            target = Fraction(1, 10**30)
            terms = max(8, int(2 / lam) + 8)
            while True:
                enc = self._series(m, lam, terms)
                if enc is not None and enc[1] - enc[0] <= target:
                    break
                terms *= 2
            self._series_cache[key] = enc
        return self._series_cache[key]

    # -- checks ---------------------------------------------------------------

    def check_encloses_g(self, what: str, lo, hi, m, lam, width) -> None:
        """[lo, hi] claims to contain G(m, lam): it must meet the references."""
        m, lam = Fraction(m), Fraction(lam)
        rlo, rhi = self.g(m, lam, width).bounds()
        if max(lo, rlo) > min(hi, rhi):
            raise WrongCertificate(
                f"{what}: [{float(lo)!r}, {float(hi)!r}] misses reference "
                f"G({m}, {lam}) in [{float(rlo)!r}, {float(rhi)!r}]"
            )
        # the series needs about 2/lam terms, which is too slow below lam = 1/64
        if self._series is not None and m.denominator == 1 and m >= 0 and lam >= SERIES_MIN_LAM:
            slo, shi = self.series(int(m), lam)
            if max(lo, slo) > min(hi, shi):
                raise WrongCertificate(
                    f"{what}: [{float(lo)!r}, {float(hi)!r}] misses the series "
                    f"oracle for G({m}, {lam})"
                )

    def check_above(self, what: str, big, small, width) -> None:
        """A certificate says value(big) > value(small); the references must not refute it.

        Both references are tightened until they separate; a separation in
        the wrong direction is a wrong certificate, and no separation within
        the depth cap leaves the claim unrefuted.
        """
        w = Fraction(width)
        for _ in range(8):
            blo, bhi = big.tighten(w).bounds()
            slo, shi = small.tighten(w).bounds()
            if blo > shi:
                return
            if bhi <= slo:
                raise WrongCertificate(
                    f"{what}: reference shows the reverse, "
                    f"[{float(blo)!r}, {float(bhi)!r}] <= [{float(slo)!r}, {float(shi)!r}]"
                )
            w = w * w
