"""Exact rational scalars, open enclosures and the long square.

Scalars are stdlib ``fractions.Fraction`` values, which already guarantee
reduced form and a positive denominator. This module adds the pieces the
rest of the package needs on top of that type: strict "P/Q" serialization,
the greedy denominator map, and the open bounded ``RationalInterval``
that every emitted enclosure takes.

``_square`` is the long square under every expansion step and the greedy
growth check, exact in two bands of operand length. Below ``_SSA_BITS``
(124 kbit) it is x*x, CPython's Karatsuba. From there on it is
``_ssa_square``, a Schönhage–Strassen square: a transform of length
2K over the ring Z/(2**n + 1), where 2**(n/K) is a root of unity of
order 2K, so that every twiddle is a shift, with one short square per
point. Its interpreter cost per butterfly is why it only wins past
about 120 kbit, and, past the 131 kbit where its number of points
doubles, again only from about 185 kbit. Its traced peak memory stays
below that of x*x, about 0.8 times it at 1 Mbit. ``_square`` keeps
nothing: the walks of ``greedy`` keep the long squares they form, under
the rule written in that module's docstring.

For loops that keep rationals as plain int pairs (numerator, denominator)
in lowest terms with a positive denominator, ``_pair_sum`` adds two
such pairs with ``Fraction``'s own two gcds, and ``_coprime`` turns a
finished pair into a ``Fraction`` without reducing it again, by setting
the two slots ``Fraction`` sets itself (``_numerator`` and
``_denominator``, on CPython 3.10 to 3.13). ``greedy._walk`` subtracts
1/b from its residual pair through ``_pair_sum`` wherever its word-size
step does not apply, and makes each residual a Fraction through
``_coprime``, as ``construct`` makes its slacks, budget and certificates.
``_unit_sums`` rounds a sum of unit fractions down and up onto a grid
1/scale: ``construct`` rounds its enclosure onto 2**-k, and ``families``
its enclosures onto 2**-96.

The package bypasses a stdlib path, such as the constructor of
``Fraction`` or of a result record, only inside a loop that measured a
gain: ``_coprime`` here, the ``tuple.__new__`` rows and verdicts of
``uniqueness``, and ``uniqueness.sample_pairs``, which draws randint's
pairs by its rejection from ``getrandbits``: 0.33-0.37 against
1.37-1.47 ms for the draws of 2040 pairs on CPython 3.11.

It also holds the input contract of every entry point. ``positive_int``
refuses a bool, a non-``int`` or a value below the least one allowed,
and ``positive_ints`` the same in a list with 1 as the least, with a
ValueError naming the argument and the 1-based list index. ``exact``
refuses a float, a bool or text where a rational goes. Text becomes a
number only here: ``parse_int`` reads ASCII digits after an optional
minus, whitespace around stripped, ``parse_ints`` reads each of a list
of lines that way, and ``parse_rational`` reads its numerator and
denominator the same way.

No floating point is used anywhere here; every comparison is exact.
"""
import contextlib
import itertools
import math
import re
from fractions import Fraction
from typing import NamedTuple

_INT = "-?[0-9]+"  # ASCII digits only: int() also takes "1_0", "+5", "٣"
_INT_RE = re.compile(_INT)
_RATIONAL_RE = re.compile(f"({_INT})(?:/({_INT}))?")


def positive_int(x, what: str, least: int = 1) -> int:
    """x if it is an int >= least, else a ValueError naming ``what``.
    A bool is refused too: True would run as 1."""
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {x!r}")
    return x


def positive_ints(values, what: str) -> tuple:
    """The values as a tuple, each checked by ``positive_int``; the error
    ends with the 1-based index of the first bad value."""
    values = tuple(values)
    # plain ints from 1 pass in one C pass; anything else (a bool,
    # another int subclass, a bad value) is judged by the loop
    if set(map(type, values)) == {int} and min(values) >= 1:
        return values
    for n, x in enumerate(values, start=1):
        try:
            positive_int(x, what)
        except ValueError as exc:
            raise ValueError(f"{exc} at {n}") from None
    return values


def parse_int(text: str) -> int:
    """ASCII digits after an optional minus, surrounding whitespace cut."""
    digits = text.strip()
    if not _INT_RE.fullmatch(digits):
        raise ValueError(f"not an integer: {text!r}")
    return int(digits)


def parse_ints(lines: list[str]) -> list[int]:
    """``parse_int`` of each line. The first line it refuses raises its
    ValueError, the message led by the 1-based line number: "2: ..."."""
    # every line is checked in one pass at C speed; the loop runs only to
    # name the first line refused, by parse_int's message (digit limit too)
    stripped = list(map(str.strip, lines))
    with contextlib.suppress(ValueError):
        if all(map(_INT_RE.fullmatch, stripped)):
            return list(map(int, stripped))
    for n, line in enumerate(lines, 1):
        try:
            parse_int(line)
        except ValueError as exc:
            raise ValueError(f"{n}: {exc}") from None


def parse_rational(text: str) -> Fraction:
    """Parse "P/Q" or a bare decimal integer into an exact rational.

    Raises ValueError for anything else, including a zero denominator.
    """
    m = _RATIONAL_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def exact(x) -> Fraction:
    """x as a Fraction. Floats, bools and text are refused: Fraction(0.1)
    is the binary value of the float, not 1/10, Fraction(True) is 1, and
    Fraction's own reading of text differs from ``parse_rational``'s and
    between interpreters ("1_9/48" only from CPython 3.11)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool, str)):
        raise ValueError(f"need an exact rational, got {x!r}")
    return Fraction(x)


def format_rational(x: Fraction) -> str:
    """Serialize as "P/Q", reduced, with Q >= 1. Integers render as "P/1";
    floats, bools and text are refused, as by ``exact``."""
    if type(x) is not Fraction:
        x = exact(x)
    return f"{x.numerator}/{x.denominator}"


def _coprime(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator, for ints already in lowest terms
    with denominator >= 1, built without a gcd.

    ``Fraction(n, d)`` would reduce the pair again, and a gcd of two
    coprime 10 kbit ints costs quadratic time; so its two slots are set
    directly, as ``Fraction`` sets them itself.
    """
    x = object.__new__(Fraction)
    x._numerator = numerator
    x._denominator = denominator
    return x


def _pair_sum(na, da, nb, db):
    """na/da + nb/db as a pair in lowest terms with a positive denominator,
    for two such pairs.

    It takes the two gcds of ``Fraction``'s own addition: g of the
    denominators, and then only g's gcd with the new numerator, which is
    all a common factor can come from.
    """
    g = math.gcd(db, da % db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(g, t % g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _unit_sums(scale: int, denominators) -> tuple[int, int]:
    """(sum of floor(scale/d), sum of ceil(scale/d)) over the ints d >= 1:
    a sum of the 1/d rounded down and up onto the grid 1/scale.

    One divmod per d gives both, since ceil(s/d) is floor(s/d) + 1 where
    d does not divide s. Two sums of ``//`` took 6.2 against 2.4 ms at
    scale 2**96 over 16 500 terms of ``arithmetic:a=5,d=3``, and 2.1
    against 1.0 s at 2**31 700 over 5000 of ``geometric:a=2,r=3``
    (CPython 3.11.7).
    """
    below = inexact = 0
    for q, r in map(divmod, itertools.repeat(scale), denominators):
        below += q
        inexact += r != 0
    return below, below + inexact


def greedy_denominator(theta: Fraction) -> int:
    """Smallest admissible unit-fraction denominator for theta in (0, 1].

    Returns the unique integer a >= 2 with 1/a < theta <= 1/(a - 1). Because
    Fraction is always reduced with positive denominator, floor(1/theta) is
    one exact integer division.
    """
    theta = _unit_target(theta)
    return theta.denominator // theta.numerator + 1


def _unit_target(theta) -> Fraction:
    """theta as a Fraction if it lies in (0, 1], else a ValueError naming
    it."""
    theta = exact(theta)
    if not 0 < theta <= 1:
        raise ValueError(f"target must lie in (0, 1], got {theta}")
    return theta


class RationalInterval(NamedTuple("RationalInterval", [("lo", Fraction),
                                                       ("hi", Fraction)])):
    """Open bounded interval (lo, hi) of rationals, with lo < hi.

    This is the shape of every enclosure the package emits; both ends are
    excluded. It is an immutable named tuple whose constructor checks its
    ends, and ``_make``, so also ``_replace``, goes through that check.
    """

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction) -> "RationalInterval":
        lo, hi = exact(lo), exact(hi)
        if lo >= hi:
            raise ValueError(f"empty interval: lo={lo} >= hi={hi}")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable) -> "RationalInterval":
        return cls(*iterable)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


_SSA_BITS = 124_000
"""Operand length from which ``_square`` squares by Schönhage–Strassen.

CPython multiplies long integers by Karatsuba, whose square of n bits
costs about n**1.58; the transform's arithmetic grows about as n log n,
but each of its K*log K butterflies pays a fixed interpreter cost, so it
only wins once the squares it saves are long. Timed against x*x on
CPython 3.11.7 (x86-64, a shared 2-vCPU VM), alternated, as the medians
of 123 squares of three operands per length: x*x leads up to about
122 kbit (3.61 against 4.07 ms at 115 kbit, 3.70 against 3.79 at 120
kbit), and the transform from 124 kbit (3.60 against 3.68 ms at 127
kbit, 4.05 against 4.35 at 130 kbit). The cutoff is the first length
measured with a lead. At 2**17 bits ``_ssa_shape`` doubles K, and from
there to about 185 kbit x*x leads again (4.2 against 5.7 ms at 132
kbit, 5.9 against 6.8 at 170 kbit); the transform leads from about 185
kbit on, by 1.4x at 250 kbit. The deep benchmark's squares near the
cutoff have 125 to 130 kbit.
"""


def _square(x: int) -> int:
    """x*x: ``x * x`` below ``_SSA_BITS`` bits of x, ``_ssa_square(x)``
    from there on."""
    return x * x if x.bit_length() < _SSA_BITS else _ssa_square(x)


def _ssa_shape(bits: int) -> tuple[int, int]:
    """(k, bytes per piece) of ``_ssa_square`` for an operand of ``bits``
    bits, bits >= 2: K = 2**k pieces of the fewest whole bytes that hold
    it, where k grows by one for every two bits of the length of bits."""
    k = bits.bit_length() // 2 - 1
    return k, -(-bits // (8 << k))


def _ssa_square(x: int) -> int:
    """x*x by a Schönhage–Strassen transform over Z/(2**n + 1).

    |x| of N bits is cut into K = 2**k pieces x_i of M bits, M a multiple
    of 8 with K*M >= N, so x = sum x_i 2**(i*M) with 0 <= x_i < 2**M and
    x*x = sum c_j 2**(j*M) over j < 2K - 1, where c_j = sum x_i x_l over
    i + l = j. Each c_j has at most K terms below 2**(2M), so
    0 <= c_j < K * 2**(2M) = 2**(2M + k) < 2**n with n >= 2M + k + 2.

    In Z/(2**n + 1), 2**n = -1, so with n a multiple of K the element
    w = 2**(n/K) has w**K = -1. For a power of two 2K that makes w a
    principal root of unity of order 2K (sum over j of w**(i*j) is 0 for
    0 < i < 2K), and 2 is a unit, so the length-2K transform by w is
    inverted by the one by 1/w and a division by 2K. The pieces, padded
    with K zeros, have the c_j as their cyclic convolution of length 2K,
    since 2K - 1 coefficients do not wrap around; so the transform, a
    square at each point and the inverse transform give each c_j modulo
    2**n + 1, which is c_j itself by the bound above.

    Every power of w is a shift, and t = hi * 2**n + lo is t = lo - hi
    modulo 2**n + 1, so a product by a power of w is a shift and one
    fold. Values are not brought into [0, 2**n] between levels, where
    each level at most doubles them and adds 2**n, so the one ``%`` per
    coefficient at the end reads a value at most about 3k + 7 bits
    longer than 2**n + 1, which keeps it linear. The forward transform
    runs in decimation-in-frequency order and the inverse in
    decimation-in-time order, so the points stay in bit-reversed order
    in between and no permutation is needed. Each point is squared in
    place by ``_square``, and the coefficients are carried, M bits at a
    time, into one byte buffer while the list of points is emptied.

    ``_ssa_shape`` takes k = N.bit_length() // 2 - 1, so K lies between
    sqrt(N/8) and sqrt(N)/2, each point has about 2N/K bits and the two
    transforms run (k + 1)*2K butterflies. The traced peak memory is
    about 0.8 times that of x*x from 0.25 to 2 Mbit (0.85 against 1.06
    MB at 1 Mbit, CPython 3.11).
    """
    x = abs(x)
    k, size = _ssa_shape(x.bit_length())
    K, M = 1 << k, 8 * size
    n = -(-(2 * M + k + 2) // K) * K
    mask = (1 << n) - 1
    modulus = mask + 2
    view = memoryview(x.to_bytes(K * size, "little"))
    a = [int.from_bytes(view[i * size:(i + 1) * size], "little")
         for i in range(K)]
    del view
    # forward, decimation in frequency: at half-length h, the pair u, v at
    # i, i + h of each block of 2h becomes u + v, (u - v) * 2**(j*n/h),
    # where j is i's place in its block.
    a += [0] * K
    h = K
    while h:
        step = n // h
        for s in range(0, 2 * K, 2 * h):
            u, v = a[s], a[s + h]
            a[s], a[s + h] = u + v, u - v
            for i in range(s + 1, s + h):
                u, v = a[i], a[i + h]
                a[i] = u + v
                t = (u - v) << (i - s) * step
                a[i + h] = (t & mask) - (t >> n)
        h //= 2
    for i in range(2 * K):
        t = _square(a[i])
        a[i] = (t & mask) - (t >> n)
    # inverse, decimation in time: w**-m = 2**(2n - m) = -2**(n - m)
    h = 1
    while h < 2 * K:
        step = n // h
        for s in range(0, 2 * K, 2 * h):
            u, v = a[s], a[s + h]
            a[s], a[s + h] = u + v, u - v
            for i in range(s + 1, s + h):
                t = a[i + h] << n - (i - s) * step
                t = (t & mask) - (t >> n)
                u = a[i]
                a[i], a[i + h] = u - t, u + t
        h *= 2
    # c_j is a_j / 2K = -a_j * 2**(n - k - 1); x*x < 2**(2K*M), so the
    # carry is spent by the last of the 2K pieces
    out = bytearray(2 * K * size)
    low = (1 << M) - 1
    carry = 0
    for j in range(2 * K):
        t = a[j] << n - k - 1
        a[j] = None
        carry += ((t >> n) - (t & mask)) % modulus
        out[j * size:(j + 1) * size] = (carry & low).to_bytes(size, "little")
        carry >>= M
    return int.from_bytes(out, "little")

