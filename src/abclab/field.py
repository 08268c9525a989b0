"""Modular arithmetic kernel: prime field mod p, scalar ring mod q, big naturals.

Field elements and scalars are plain ints kept in canonical reduced form
([0, p) resp. [0, q)) at every operation boundary.  Inversion is extended
Euclid (``mod_inv``).  Exponentiation is the package's one square-and-combine
loop, ``straus``: Straus's simultaneous method over any group given its
combine and square.  ``multi_mod_pow`` (whose one-term case is ``mod_pow``)
runs it mod m, and the curve's ``multi_scalar_mul`` on points.  Both loops
are explicit interpreted code with no built-in pow, and the subset tables
are built inside each call; nothing is kept across calls.  All functions
are pure and safe to call concurrently.
"""

from __future__ import annotations

# Prime field modulus.
P = 2**255 - 19

# Order of the base point; modulus of the scalar ring.
Q = 2**252 + 27742317777372353535851937790883648493

# Terms per group in Straus's simultaneous method: a group of g terms
# tabulates its 2^g - 1 subset combinations once per call, then pays at most
# one table combine per bit position.
STRAUS_GROUP = 5


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 in the field."""


class BadModulus(ValueError):
    """Raised when a modular exponentiation is asked for a modulus < 2."""


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


def straus(terms, combine, square):
    """The combination of each term's element raised to its exponent, for
    (exponent, element) terms, by Straus's simultaneous method ("Addition
    chains of vectors", 1964): combine(a, b) is the group operation and
    square(a) combines a with itself.  None if no term has a non-zero
    exponent; ValueError for a negative exponent.

    Terms with a zero exponent are dropped and the rest split, in order,
    into groups of at most STRAUS_GROUP.  A group of g elements tabulates
    the combination of each subset of its elements, each entry one smaller
    subset's entry combined with one element, and records for each bit
    position the subset whose exponents have that bit set.  All groups then
    share one chain, top bit first: square once per bit position below the
    top, and combine in each group's non-empty subset at that position.
    The first selected entry starts the result, so a call costs
    2^g - g - 1 table combines per group of g, plus one per (bit position,
    group) whose subset is not empty, minus 1; and max(bit_length) - 1
    squarings.  A one-term call has no table work: bit_length - 1 squarings
    and popcount - 1 combines.
    """
    terms = [(exp, elem) for exp, elem in terms if exp]
    if any(exp < 0 for exp, _ in terms):
        raise ValueError("exponents and scalars must be non-negative")
    if not terms:
        return None
    top = max(exp.bit_length() for exp, _ in terms) - 1
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
    acc = None
    for table, columns in groups:
        if columns[top]:
            entry = table[columns[top]]
            acc = entry if acc is None else combine(acc, entry)
    for i in range(top - 1, -1, -1):
        acc = square(acc)
        for table, columns in groups:
            index = columns[i]
            if index:
                acc = combine(acc, table[index])
    return acc


def multi_mod_pow(terms, modulus: int) -> int:
    """prod(b_i**e_i) mod modulus for (b_i, e_i) in terms, by ``straus``
    with one modular multiplication per combine and per square.

    Each base is reduced mod modulus first.  An empty or all-zero term list
    gives 1; BadModulus for a modulus < 2.
    """
    if modulus < 2:
        raise BadModulus(f"modulus must be >= 2, got {modulus}")
    acc = straus(((exp, base % modulus) for base, exp in terms),
                 lambda a, b: a * b % modulus, lambda a: a * a % modulus)
    return 1 if acc is None else acc


def sc_reduce_wide(data: bytes) -> int:
    """Reduce a big-endian SHA-256 digest into the scalar ring [0, q)."""
    return int.from_bytes(data, "big") % Q


def encode32(v: int) -> bytes:
    """32-byte big-endian encoding; the one byte order used everywhere."""
    return v.to_bytes(32, "big")
