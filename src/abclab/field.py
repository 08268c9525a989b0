"""Modular arithmetic kernel: prime field mod p, scalar ring mod q, big naturals.

Field elements and scalars are plain ints kept in canonical reduced form
([0, p) resp. [0, q)) at every operation boundary.  Inversion is extended
Euclid (``mod_inv``) and exponentiation one interleaved square-and-multiply
loop (``multi_mod_pow``, whose one-term case is ``mod_pow``), both explicit
interpreted loops with no built-in pow and no precomputed tables.  All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

# Prime field modulus.
P = 2**255 - 19

# Order of the base point; modulus of the scalar ring.
Q = 2**252 + 27742317777372353535851937790883648493


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 in the field."""


class BadModulus(ValueError):
    """Raised when a modular exponentiation is asked for a modulus < 2."""


class BadLength(ValueError):
    """Raised for byte strings of unsupported length."""


def mod_inv(a: int, m: int) -> int:
    """a^-1 mod m by the extended Euclidean algorithm; ValueError if
    gcd(a, m) != 1.

    The one inversion routine: the field inverse and the RSA key's secret
    exponent and CRT coefficient all come from here.  Its loop is the same
    interpreted big-int arithmetic as mod_pow, and no built-in pow.
    """
    old_r, r = a % m, m
    old_s, s = 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    if old_r != 1:
        raise ValueError("not invertible")
    return old_s % m


def fe_inv(a: int) -> int:
    """Multiplicative inverse mod p, by mod_inv; ZeroInverse for a == 0 mod p.

    Every conversion to affine coordinates pays one: ``to_affine``, and so
    each ``point_bytes`` in the ecc160 challenge (three per issue and three
    per verify) and each point the wire codecs encode.
    """
    if a % P == 0:
        raise ZeroInverse("0 has no inverse mod p")
    return mod_inv(a, P)


def mod_pow(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus as the one-term multi_mod_pow, whose loop and
    errors it shares: 1 for exp == 0.  Deliberately that explicit loop
    rather than built-in pow(), so the modexp scheme pays the same
    per-operation interpretation cost as the curve kernel it is measured
    against."""
    return multi_mod_pow([(base, exp)], modulus)


def multi_mod_pow(terms, modulus: int) -> int:
    """prod(b_i**e_i) mod modulus for (b_i, e_i) in terms, by interleaved
    (Straus, width 1) square-and-multiply.

    All terms share one chain of max(bit_length(e_i)) - 1 squarings, and
    each term multiplies its base, reduced mod modulus first, in wherever
    its exponent bit is set.  The one exponentiation loop of the module:
    mod_pow is its one-term case.  Zero exponents contribute nothing; an
    empty or all-zero term list gives 1; BadModulus for a modulus < 2 and
    ValueError for a negative exponent.
    """
    if modulus < 2:
        raise BadModulus(f"modulus must be >= 2, got {modulus}")
    terms = [(base % modulus, exp) for base, exp in terms if exp]
    if any(exp < 0 for _, exp in terms):
        raise ValueError("exponents must be non-negative")
    if not terms:
        return 1
    top = max(exp.bit_length() for _, exp in terms) - 1
    acc = 1
    for base, exp in terms:
        if exp >> top:
            acc = acc * base % modulus
    for i in range(top - 1, -1, -1):
        acc = acc * acc % modulus
        for base, exp in terms:
            if (exp >> i) & 1:
                acc = acc * base % modulus
    return acc


def sc_reduce_wide(data: bytes) -> int:
    """Reduce a 32- or 64-byte big-endian string into the scalar ring [0, q)."""
    if len(data) not in (32, 64):
        raise BadLength(f"expected 32 or 64 bytes, got {len(data)}")
    return int.from_bytes(data, "big") % Q


def encode32(v: int) -> bytes:
    """32-byte big-endian encoding; the one byte order used everywhere."""
    return v.to_bytes(32, "big")
