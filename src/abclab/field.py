"""Modular arithmetic kernel: prime field mod p, scalar ring mod q, big naturals.

Field elements and scalars are plain ints kept in canonical reduced form
([0, p) resp. [0, q)) at every operation boundary.  Inversion is extended
Euclid (``mod_inv``).  Exponentiation is the package's one square-and-combine
loop, ``straus``: Straus's simultaneous method over any group given its
combine, its square and, for table entries in a form of their own, its
start.  ``multi_mod_pow`` (whose one-term case is ``mod_pow``)
runs it mod m, and the curve's ``multi_scalar_mul`` on points.  Both loops
are explicit interpreted code with no built-in pow.  No call builds a
table: a ``Comb`` term brings the ones its caller built once and keeps, and
any other term becomes its own one-entry ``Comb``, so the loop makes one
pass over one kind of term.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

from typing import NamedTuple

# Prime field modulus.
P = 2**255 - 19

# Order of the base point; modulus of the scalar ring.
Q = 2**252 + 27742317777372353535851937790883648493

# Index bits of one kept table: a Comb of k elements keeps the subset
# combinations of max(1, 8 // k) powers of each, in two tables up to k = 4,
# so a one-element comb runs a b-bit exponent as sixteen ceil(b / 16)-bit
# pieces, with at most one combine per bit position of a piece and table.
COMB_BITS = 8


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
    """Multiplicative inverse mod p, by mod_inv; ZeroInverse for a == 0 mod p."""
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


class Comb(NamedTuple):  # kept fixed-base tables; see comb()
    count: int
    pieces: int   # per table
    width: int
    tables: tuple


def _subsets(elems, combine) -> list:
    """Entry m > 0 combines the elems[j] with bit j set in m, by one combine."""
    table = [None]
    for elem in elems:
        table += [elem] + [combine(entry, elem) for entry in table[1:]]
    return table


def comb(elems, bits, combine, power, form=lambda entries: entries) -> Comb:
    """Tables to keep for elems fixed in advance, for exponents of up to
    bits bits (Lim and Lee, CRYPTO '94; Moller, SAC 2001): table h is the
    _subsets of the powers elem^(2^(j*width)) of each element, by power(a,
    e) = a^e, for the pieces = max(1, COMB_BITS // count) j from h*pieces
    on.  Up to four elements two tables, the low and the high half of an
    exponent, share a chain of width = ceil(bits / (2*pieces)) bits, each
    of 256 entries (64 for three); from five on one table of 2^count, width
    = bits.  form(entries) turns the entries but the Nones into their kept
    form, in place."""
    pieces = max(1, COMB_BITS // len(elems))
    tables = 2 if pieces > 1 else 1
    width = -(-bits // (tables * pieces))
    rows = [[elem] for elem in elems]
    for row in rows:
        while len(row) < tables * pieces:
            row.append(power(row[-1], 1 << width))
    entries = []
    for h in range(tables):
        entries += _subsets([row[j] for row in rows for j in range(h * pieces, (h + 1) * pieces)],
                            combine)[1:]
    form(entries)
    size = len(entries) // tables
    return Comb(len(elems), pieces, width,
                tuple([None] + entries[h * size:(h + 1) * size] for h in range(tables)))


def straus(terms, combine, square, start=lambda entry: entry):
    """The combination of each term's element raised to its exponent, for
    (exponent, element) terms, by Straus's simultaneous method ("Addition
    chains of vectors", 1964): combine(a, b) is the group operation,
    square(a) combines a with itself, and start(entry) is a table entry as
    a result, for tables whose entries have a form of their own (the
    curve's cached points).  None if no term has a non-zero exponent;
    ValueError for a negative exponent, one too wide for its Comb, or more
    exponents than a Comb term's table has elements.

    Every term is a Comb: any other element is its own one-entry comb,
    Comb(1, 1, bit_length, ([None, elem],)).  A term gives one group per
    table whose pieces are not all zero, with an int or one exponent per
    element, each exponent's width-bit pieces the exponents of the table's
    powers.  One pass over the bit positions, top bit first, serves all
    groups: square once the result is set, then combine in each group's
    entry for the exponents with that bit set, if any; the first selected
    entry starts the result, through start.  So a call costs
    max(bit_length) - 1 squarings over the exponents and comb pieces, and
    one combine per (bit position, group) whose column is not zero, minus
    1.  No call makes a table combine.  A one-term call without a kept
    table costs bit_length - 1 squarings and popcount - 1 combines.
    """
    groups = []   # (table, the exponent of each of its elements)
    for exp, elem in terms:
        if not isinstance(elem, Comb):
            elem = Comb(1, 1, exp.bit_length(), ([None, elem],))
        exps = (exp,) if isinstance(exp, int) else tuple(exp)
        if any(e < 0 for e in exps):
            raise ValueError("exponents and scalars must be non-negative")
        if len(exps) > elem.count:
            raise ValueError("more exponents than its table has elements")
        pieces, width = elem.pieces, elem.width
        if any(e >> len(elem.tables) * pieces * width for e in exps):
            raise ValueError("exponent too wide for its comb")
        mask = (1 << width) - 1
        for h, table in enumerate(elem.tables):
            split = [e >> (h * pieces + j) * width & mask for e in exps for j in range(pieces)]
            if any(split):
                groups.append((table, split))
    top = max((exp.bit_length() for _, exps in groups for exp in exps), default=0)
    for g, (table, exps) in enumerate(groups):
        columns = [0] * top
        for j, exp in enumerate(exps):
            # Binary digits least significant first: digit i is bit i.
            for i, digit in enumerate(format(exp, "b")[::-1]):
                if digit == "1":
                    columns[i] |= 1 << j
        groups[g] = table, columns
    acc = None
    for i in range(top - 1, -1, -1):
        if acc is not None:
            acc = square(acc)
        for table, columns in groups:
            index = columns[i]
            if index:
                acc = start(table[index]) if acc is None else combine(acc, table[index])
    return acc


def multi_mod_pow(terms, modulus: int) -> int:
    """prod(b_i**e_i) mod modulus for (b_i, e_i) in terms, by ``straus``
    with one modular multiplication per combine and per square.

    Each base is reduced mod modulus first, except a mod_comb for modulus.
    An empty or all-zero term list gives 1; BadModulus for a modulus < 2.
    """
    if modulus < 2:
        raise BadModulus(f"modulus must be >= 2, got {modulus}")
    acc = straus(((exp, base if isinstance(base, Comb) else base % modulus)
                  for base, exp in terms),
                 lambda a, b: a * b % modulus, lambda a: a * a % modulus)
    return 1 if acc is None else acc


def mod_comb(base: int, bits: int, modulus: int) -> Comb:
    """The Comb of base mod modulus for exponents of up to bits bits."""
    return comb([base % modulus], bits, lambda a, b: a * b % modulus,
                lambda b, e: mod_pow(b, e, modulus))


def sc_reduce_wide(data: bytes) -> int:
    """Reduce a big-endian SHA-256 digest into the scalar ring [0, q)."""
    return int.from_bytes(data, "big") % Q


def encode32(v: int) -> bytes:
    """32-byte big-endian encoding; the one byte order used everywhere."""
    return v.to_bytes(32, "big")
