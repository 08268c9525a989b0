"""Modular arithmetic kernel: prime field mod p, scalar ring mod q, big naturals.

Field elements and scalars are plain ints kept in canonical reduced form
([0, p) resp. [0, q)) at every operation boundary.  Inversion is extended
Euclid (``mod_inv``) and exponentiation one square-and-multiply loop by
Straus's simultaneous method (``multi_mod_pow``, whose one-term case is
``mod_pow``), both explicit interpreted loops with no built-in pow.  The
method's subset tables (``straus_groups``, which the curve's double-and-add
loop shares) are built inside each call; nothing is kept across calls.  All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

# Prime field modulus.
P = 2**255 - 19

# Order of the base point; modulus of the scalar ring.
Q = 2**252 + 27742317777372353535851937790883648493

# Terms per group in Straus's simultaneous method: a group of g terms
# tabulates its 2^g - 1 subset products once per call, then pays at most one
# table multiplication (or point addition) per bit position.
STRAUS_GROUP = 5


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


def straus_groups(terms, combine):
    """The per-call tables of Straus's simultaneous method ("Addition chains
    of vectors", 1964) for (exponent, element) terms.

    Terms with a zero exponent are dropped and the rest split, in order,
    into groups of at most STRAUS_GROUP.  A group of g elements gets a table
    whose entry at index s combines the elements picked by the bits of s:
    each new entry is a smaller subset's entry combined with one element, so
    the table costs 2^g - g - 1 calls to combine, and entry 0, the empty
    subset, is None.  Its column list holds, for each bit position i, the
    index of the subset whose exponents have bit i set.  Returns (top,
    groups): the highest set bit position of any exponent (-1 if none is
    left) and the (table, columns) of each group.  ValueError for a
    negative exponent.
    """
    terms = [(exp, elem) for exp, elem in terms if exp]
    if any(exp < 0 for exp, _ in terms):
        raise ValueError("exponents and scalars must be non-negative")
    top = max((exp.bit_length() for exp, _ in terms), default=0) - 1
    groups = []
    for start in range(0, len(terms), STRAUS_GROUP):
        table, columns = [None], [0] * (top + 1)
        for j, (exp, elem) in enumerate(terms[start:start + STRAUS_GROUP]):
            table += [elem] + [combine(entry, elem) for entry in table[1:]]
            # Binary digits least significant first: digit i is bit i.
            for i, digit in enumerate(format(exp, "b")[::-1]):
                if digit == "1":
                    columns[i] |= 1 << j
        groups.append((table, columns))
    return top, groups


def multi_mod_pow(terms, modulus: int) -> int:
    """prod(b_i**e_i) mod modulus for (b_i, e_i) in terms, by Straus's
    simultaneous square-and-multiply over the groups of ``straus_groups``.

    Each base is reduced mod modulus first.  All groups share one chain of
    max(bit_length(e_i)) - 1 squarings; at each bit position, top bit first,
    each group multiplies in the table entry its column of exponent bits
    selects, if that column is not zero.  The loop starts from 1, so the
    product costs the tables' 2^g - g - 1 multiplications per group of g
    terms plus one per (bit position, group) with a non-zero column.  A
    one-term call is a group of one with no table work: mod_pow is that
    case, with popcount(e) multiplications.  Zero exponents contribute
    nothing; an empty or all-zero term list gives 1; BadModulus for a
    modulus < 2 and ValueError for a negative exponent.
    """
    if modulus < 2:
        raise BadModulus(f"modulus must be >= 2, got {modulus}")
    top, groups = straus_groups(((exp, base % modulus) for base, exp in terms),
                                lambda a, b: a * b % modulus)
    acc = 1
    for table, columns in groups:
        if columns[top]:
            acc = acc * table[columns[top]] % modulus
    for i in range(top - 1, -1, -1):
        acc = acc * acc % modulus
        for table, columns in groups:
            index = columns[i]
            if index:
                acc = acc * table[index] % modulus
    return acc


def sc_reduce_wide(data: bytes) -> int:
    """Reduce a 32- or 64-byte big-endian string into the scalar ring [0, q)."""
    if len(data) not in (32, 64):
        raise BadLength(f"expected 32 or 64 bytes, got {len(data)}")
    return int.from_bytes(data, "big") % Q


def encode32(v: int) -> bytes:
    """32-byte big-endian encoding; the one byte order used everywhere."""
    return v.to_bytes(32, "big")
