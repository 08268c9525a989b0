"""Two credential schemes behind one issue/verify interface.

``ecc160``     -- attribute commitment on the Edwards curve plus a
                  Schnorr-style issuer signature; the lightweight scheme.
``modexp1024`` -- RSA-style full-domain-hash signature over an
                  attribute-bound representative mod a 1024-bit modulus;
                  the heavyweight baseline.  Both its exponents are
                  full-width so that issuance and verification each pay a
                  genuine full-width exponentiation (the issuer's by CRT,
                  as two 512-bit halves), and the representative
                  binds every attribute through its own base and a 256-bit
                  exponent, so cost scales with attribute count like the
                  multi-base modexp credential systems it stands in for.

Both schemes compute their per-attribute product -- the commitment
sum(a_i * H_i) and the representative's prod(R_i ^ digest_i) -- as one
multi-exponentiation by Straus's simultaneous method, so the attribute
terms share one chain of doublings or squarings.  The ecc160 verifier
checks its signature equation the same way, as one two-term sum
z*B - c*Q_pub.  No request builds a table; the kept ones are:

- B's comb (``field.Comb``), built at import;
- per attribute count k, the comb of the system parameters H_0..H_{k-1},
  built on the first commitment to k attributes: the k terms then add at
  most once per bit position of a piece;
- per scheme, the latest key's state -- -Q_pub's comb and point_bytes, or
  the R_i's combs, each built on the first representative that uses it --
  in ``Scheme.load_public``, its one per-key cache, which checks the public
  part.  ``Scheme.check_key`` checks an issuer key's private half, then
  loads its public part; keygen and the loaders fill the cache, issue and
  verify read it.

Every comb has the same shape (``field.comb``): the subset combinations of
max(1, 8 // k) powers of each of its k elements, in two tables, over the
low and the high half of each exponent, up to four elements, so a
one-element comb holds twice 256 entries and runs a 253-bit scalar in 15
doublings.  A curve comb keeps its entries in the cached affine form of
``curve.point_comb``, so each of its additions costs 7 multiplications mod
p, not 9.

Field inversions (``field.fe_inv``) come only from ``curve.to_affine_all``,
one per list of points converted.  Per ecc160 operation:

- issue: one, the challenge's, for the commitment and the nonce point
  together; ecc_issue returns both with Z = 1 from it;
- verify: one, the challenge's, of 1, as issue and the wire decoder give
  points with Z = 1;
- keygen: three, x*B to Z = 1, -Q_pub's comb, and the encoding of the
  Z = 1 public point, which inverts 1; keygen returns that point, the form
  its key document decodes to;
- a kept curve comb: one per build, so the first commitment to k
  attributes pays one more;
- the wire codecs: one per point encoded, of 1 for points with Z = 1;
  decoding pays none.

An inversion of 1 is two steps of ``field.mod_inv``'s loop.

Each scheme is one ``Scheme`` object in the ``SCHEMES`` registry: its
protocol functions, its key check and the wire layouts of its documents.
The codecs, the benchmark and the CLI read every scheme fact from there.

Neither scheme claims cryptographic hiding or unlinkability; they exist to
give the benchmark two honest, verifiable cost profiles.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Callable, NamedTuple

from .curve import (
    BASE,
    NEUTRAL,
    ExtendedPoint,
    check_point,
    from_affine,
    multi_scalar_mul,
    point_comb,
    point_equal,
    point_negate,
    scalar_mul,  # not called here; perfbench's traced run wraps it by this name
    to_affine,
    to_affine_all,
)
from .field import (
    Comb, Q, encode32, mod_comb, mod_inv, mod_pow, multi_mod_pow, sc_reduce_wide,
)

MAX_ATTRIBUTES = 10

# Standard attribute fixtures used by the CLI and benchmark defaults.
DEFAULT_ATTRIBUTES = (
    3022871045856445402,
    2303921356947,
    63990592803,
    63188281798077,
    2334544185927680150715,
    72478959060716899515,
    132108418240270107954363,
    53359477949683103,
    393090009322226684739352798186683,
    2930303348526267,
)

# Domain-separation tags for every hash the schemes compute.
_TAG_GENERATOR = b"abc-gen-v1"
_TAG_SIGNATURE = b"abc-sig-v1"
_TAG_MODEXP_BASE = b"abc-base-v1"
_TAG_ATTR_DIGEST = b"abc-attr-v1"

_SYSTEM_RNG = random.SystemRandom()


class EmptyAttributes(ValueError):
    """An attribute set must contain at least one attribute."""


class TooManyAttributes(ValueError):
    """An attribute set may contain at most MAX_ATTRIBUTES attributes."""


class AttributeOutOfRange(ValueError):
    """Attribute values live in [0, q)."""


class UnknownScheme(ValueError):
    """Scheme tag is not one of SCHEME_NAMES."""


class InconsistentKey(ValueError):
    """An issuer key's fields do not belong together."""


class PrimeSearchExhausted(RuntimeError):
    """Prime generation hit its attempt bound."""


@dataclass(frozen=True)
class EccIssuerKey:
    secret: int                 # x in [1, q)
    public: ExtendedPoint       # x * B


@dataclass(frozen=True)
class EccCredential:
    attributes: tuple[int, ...]
    commitment: ExtendedPoint   # sum of a_i * H_i
    nonce_point: ExtendedPoint  # k * B from the signature
    response: int               # (k + c*x) mod q


class ModexpPublic(NamedTuple):
    n: int
    e: int


@dataclass(frozen=True)
class ModexpIssuerKey:
    p1: int
    p2: int
    n: int
    e: int
    d: int

    @property
    def public(self) -> ModexpPublic:
        return ModexpPublic(self.n, self.e)


@dataclass(frozen=True)
class ModexpCredential:
    attributes: tuple[int, ...]
    signature: int


def check_attributes(attrs) -> tuple[int, ...]:
    """Validate an attribute list: 1..10 values, each in [0, q)."""
    attrs = tuple(attrs)
    if not attrs:
        raise EmptyAttributes("need at least one attribute")
    if len(attrs) > MAX_ATTRIBUTES:
        raise TooManyAttributes(f"at most {MAX_ATTRIBUTES} attributes, got {len(attrs)}")
    for a in attrs:
        if not 0 <= a < Q:
            raise AttributeOutOfRange(f"attribute {a} not in [0, q)")
    return attrs


def encode_attributes(attrs: tuple[int, ...]) -> bytes:
    """Canonical byte form of a checked tuple: a count byte, then 32-byte values.

    Injective over valid attribute sets, so it is safe to hash.
    """
    return bytes([len(attrs)]) + b"".join(encode32(a) for a in attrs)


def point_bytes(affine) -> bytes:
    """The uncompressed 64-byte encodings of affine (x, y) points, used in
    hash inputs."""
    return b"".join(encode32(x) + encode32(y) for x, y in affine)


# ---------------------------------------------------------------------------
# ecc160: commitment + Schnorr-style signature
# ---------------------------------------------------------------------------

_B_COMB = point_comb(BASE)


@functools.lru_cache(maxsize=1)  # kept for the latest ecc160 key only
def load_ecc_public(public: ExtendedPoint) -> tuple[Comb, bytes]:
    """The comb of -public, for ecc_verify, and the point_bytes of public,
    for _challenge; InvalidPoint unless public is on the curve, and
    InconsistentKey if 8 * public is the neutral point: c * public then
    takes at most eight values, and at the neutral point z * B passes as
    the nonce point for any z."""
    if point_equal(multi_scalar_mul([(8, check_point(public))]), NEUTRAL):
        raise InconsistentKey("public is a point of order dividing 8")
    return point_comb(point_negate(public)), point_bytes([to_affine(public)])


@functools.cache
def derive_generator(i: int) -> ExtendedPoint:
    """Per-attribute commitment base H_i = h_i * B, h_i from a tagged hash.

    The discrete logs h_i are knowable by construction; commitment hiding
    is explicitly not a goal here.
    """
    if not 0 <= i < MAX_ATTRIBUTES:
        raise IndexError(f"generator index {i} out of range 0..{MAX_ATTRIBUTES - 1}")
    h = sc_reduce_wide(hashlib.sha256(_TAG_GENERATOR + bytes([i])).digest())
    return multi_scalar_mul([(h, _B_COMB)])


def ecc_keygen(rng=None) -> EccIssuerKey:
    """A random secret x and its public x * B with Z = 1, the form its key
    document decodes to, so both load as one kept key, and the load's
    encoding of it inverts only 1."""
    rng = rng or _SYSTEM_RNG
    x = rng.randrange(1, Q)
    public = from_affine(to_affine(multi_scalar_mul([(x, _B_COMB)])))
    key = EccIssuerKey(secret=x, public=public)
    load_ecc_public(key.public)
    return key


def check_ecc_key(key: EccIssuerKey) -> None:
    """Raise InconsistentKey unless public == secret * B, then keep the
    public part by load_ecc_public: a key that fails builds no comb."""
    if not point_equal(key.public, multi_scalar_mul([(key.secret, _B_COMB)])):
        raise InconsistentKey("public is not secret * B")
    load_ecc_public(key.public)


@functools.cache  # one per attribute count, kept for the process
def commit_table(count: int) -> Comb:
    """The comb of H_0..H_{count-1}, for ecc_commit: from five attributes
    on, their 2^count subset sums alone."""
    return point_comb(*map(derive_generator, range(count)))


def ecc_commit(attrs: tuple[int, ...]) -> ExtendedPoint:
    """C = sum(a_i * H_i) over a checked tuple, as one multi-scalar
    multiplication on the kept commit_table of its attribute count."""
    return multi_scalar_mul([(attrs, commit_table(len(attrs)))])


def _challenge(public: ExtendedPoint, affine, attrs) -> int:
    """c for the affine (x, y) of the commitment and the nonce point."""
    digest = hashlib.sha256(
        _TAG_SIGNATURE
        + load_ecc_public(public)[1]
        + point_bytes(affine)
        + encode_attributes(attrs)
    ).digest()
    return sc_reduce_wide(digest)


def ecc_issue(key: EccIssuerKey, attrs, rng=None) -> EccCredential:
    """Commit to the attributes and sign the commitment Schnorr-style.  The
    challenge's one fe_inv also gives the credential its points with Z = 1."""
    rng = rng or _SYSTEM_RNG
    attrs = check_attributes(attrs)
    commitment = ecc_commit(attrs)
    k = rng.randrange(1, Q)
    affine = to_affine_all([commitment, multi_scalar_mul([(k, _B_COMB)])])
    c = _challenge(key.public, affine, attrs)
    z = (k + c * key.secret) % Q
    return EccCredential(attrs, *map(from_affine, affine), z)


def ecc_verify(public: ExtendedPoint, cred: EccCredential) -> bool:
    """Recompute the commitment and check z*B == R + c*Q_pub.

    The check is computed as z*B + c*(-Q_pub) == R, one multi-scalar
    multiplication whose two terms share one doubling chain.  Moving c*Q_pub
    across is exact in the group, so the verdict is the same for any
    on-curve inputs, small-order components included.
    """
    public_comb = load_ecc_public(public)[0]  # raises for a bad key, whatever the credential
    try:
        check_point(cred.commitment)
        check_point(cred.nonce_point)
        attrs = check_attributes(cred.attributes)
    except ValueError:
        return False
    if not 0 <= cred.response < Q:
        return False
    if not point_equal(ecc_commit(attrs), cred.commitment):
        return False
    c = _challenge(public, to_affine_all([cred.commitment, cred.nonce_point]), attrs)
    lhs = multi_scalar_mul([(cred.response, _B_COMB), (c, public_comb)])
    return point_equal(lhs, cred.nonce_point)


# ---------------------------------------------------------------------------
# modexp1024: FDH-RSA over an attribute-bound representative
# ---------------------------------------------------------------------------

MODULUS_BITS = 1024
PUBLIC_EXPONENT_MIN_BITS = 1000
_PRIME_BITS = 512
_PRIME_ATTEMPTS = 100_000   # sieve windows per prime
_MR_ROUNDS = 6              # HAC Table 4.4 for random 512-bit candidates

_SIEVE_BOUND = 1 << 16
_SIEVE_WINDOW = 4096        # odd offsets per window


def _odd_primes_below(bound: int) -> array:
    """The odd primes below bound, by the sieve of Eratosthenes."""
    odd = bytearray([1]) * (bound // 2)   # odd[j] stands for 2j + 1
    odd[0] = 0
    for j in range(1, (math.isqrt(bound) + 1) // 2):
        if odd[j]:
            p = 2 * j + 1
            odd[p * p // 2::p] = bytes(len(range(p * p // 2, bound // 2, p)))
    return array("H", compress(range(1, bound, 2), odd))


_SMALL_PRIMES = _odd_primes_below(_SIEVE_BOUND)


def _miller_rabin(n: int, rng) -> bool:
    """Miller-Rabin on odd n > 3 with _MR_ROUNDS random witnesses.

    For a random 512-bit odd candidate, the average-case bound of Damgard,
    Landrock and Pomerance ("Average case error estimates for the strong
    probable prime test", 1993) puts the error of 6 rounds below 2^-80
    (HAC, Menezes et al. 1996, Table 4.4).  Brandt and Damgard ("On
    generation of probable primes by incremental search", CRYPTO '92) show
    a comparable bound for candidates from an incremental search, such as
    _random_prime's.  On a chosen n the bound is only 4^-6.
    """
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = mod_pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sieve(start: int) -> bytearray:
    """window[i] is 0 if an odd prime below 2^16 divides start + 2*i, else 1."""
    window = bytearray([1]) * _SIEVE_WINDOW
    for p in _SMALL_PRIMES:
        # start + 2*i == 0 mod p  <=>  i == -start / 2 mod p
        i = (p - start % p) * (p + 1 >> 1) % p
        if i < _SIEVE_WINDOW:
            window[i::p] = bytes(len(range(i, _SIEVE_WINDOW, p)))
    return window


def _random_prime(rng) -> int:
    """A _PRIME_BITS-bit probable prime with the top two bits set, by
    incremental search (HAC section 4.4.1).

    Each window starts at a random odd start with the top two bits set, so
    the product of two such primes always fills exactly MODULUS_BITS.
    _sieve marks the candidates start + 2*i, 0 <= i < 4096, that an odd
    prime below 2^16 divides; the others get Miller-Rabin in order.  A
    candidate longer than _PRIME_BITS ends the window.
    """
    bits = _PRIME_BITS
    for _ in range(_PRIME_ATTEMPTS):
        # A marked candidate is a multiple of a sieve prime, never (at 512 bits) the prime.
        start = rng.getrandbits(bits) | (1 << bits - 1) | (1 << bits - 2) | 1
        for i in compress(range(_SIEVE_WINDOW), _sieve(start)):
            cand = start + 2 * i
            if cand.bit_length() > bits:
                break
            if _miller_rabin(cand, rng):
                return cand
    raise PrimeSearchExhausted(
        f"no {bits}-bit prime in {_PRIME_ATTEMPTS} windows of {_SIEVE_WINDOW}")


def rsa_keygen(rng=None) -> ModexpIssuerKey:
    """1024-bit modulus from two 512-bit probable primes.

    Each prime comes from _random_prime's sieved incremental search with 6
    Miller-Rabin rounds per candidate (error below 2^-80, see _miller_rabin).

    The public exponent is drawn full-width (not a small Fermat number) so
    that verification costs a full modular exponentiation, matching the
    cost profile of the credential systems this scheme represents.
    """
    rng = rng or _SYSTEM_RNG
    p1 = _random_prime(rng)
    p2 = _random_prime(rng)
    while p2 == p1:  # pragma: no cover - 2^-500 event
        p2 = _random_prime(rng)
    n = p1 * p2
    lam = math.lcm(p1 - 1, p2 - 1)
    floor = 1 << PUBLIC_EXPONENT_MIN_BITS
    while True:
        e = rng.randrange(floor, lam - 1) | 1
        if math.gcd(e, lam) != 1:
            continue
        d = mod_inv(e, lam)
        if d >= floor:
            break
    key = ModexpIssuerKey(p1=p1, p2=p2, n=n, e=e, d=d)
    check_rsa_key(key)
    return key


def check_rsa_key(key: ModexpIssuerKey) -> None:
    """Raise InconsistentKey unless p1 != p2, n == p1 * p2, load_rsa_public
    accepts and keeps the public part, e * d == 1 mod lcm(p1 - 1, p2 - 1),
    which rsa_issue's CRT and fdh rely on, and d >= 2^PUBLIC_EXPONENT_MIN_BITS
    as rsa_keygen draws it: a short d changes the cost profile that issue
    measures."""
    if key.p1 == key.p2:
        raise InconsistentKey("p1 == p2")
    if key.n != key.p1 * key.p2:
        raise InconsistentKey("n is not p1 * p2")
    load_rsa_public(key.public)
    lam = math.lcm(key.p1 - 1, key.p2 - 1)
    if not lam or key.e * key.d % lam != 1:
        raise InconsistentKey("e * d is not 1 mod lcm(p1 - 1, p2 - 1)")
    if key.d < 1 << PUBLIC_EXPONENT_MIN_BITS:
        raise InconsistentKey(f"d is below 2^{PUBLIC_EXPONENT_MIN_BITS}")


def _expand_1016(seed: bytes) -> int:
    """Four SHA-256 blocks of seed + j, cut to 1016 bits: below any 1024-bit n."""
    blocks = b"".join(hashlib.sha256(seed + bytes([j])).digest() for j in range(4))
    return int.from_bytes(blocks[:127], "big")


def fdh(attrs: tuple[int, ...]) -> int:
    """Full-domain hash of a checked tuple, 1016 bits wide."""
    return _expand_1016(encode_attributes(attrs))


def derive_modexp_base(n: int, i: int) -> int:
    """Public per-attribute base: a hash-derived quadratic residue mod n."""
    if not 0 <= i < MAX_ATTRIBUTES:
        raise IndexError(f"base index {i} out of range 0..{MAX_ATTRIBUTES - 1}")
    r = _expand_1016(_TAG_MODEXP_BASE + bytes([i]) + n.to_bytes(128, "big"))
    return r * r % n


def _attr_digest(i: int, value: int) -> int:
    """Fixed-width (256-bit) exponent binding attribute i."""
    return int.from_bytes(
        hashlib.sha256(_TAG_ATTR_DIGEST + bytes([i]) + encode32(value)).digest(), "big"
    )


@functools.lru_cache(maxsize=1)  # kept for the latest modexp1024 key only
def load_rsa_public(public: ModexpPublic) -> Callable[[int], Comb]:
    """What a request needs of a public key: i -> the comb of R_i, for
    modexp_representative, each built on its first use and kept with the
    key.  InconsistentKey unless n has exactly MODULUS_BITS bits and e is
    odd with 2^PUBLIC_EXPONENT_MIN_BITS <= e < n, rsa_keygen's rule: an e of
    1 accepts the representative as its own signature, and a short e
    changes the cost profile that verify measures."""
    n, e = public
    if n.bit_length() != MODULUS_BITS:
        raise InconsistentKey(f"n is not {MODULUS_BITS} bits")
    if not (e & 1 and 1 << PUBLIC_EXPONENT_MIN_BITS <= e < n):
        raise InconsistentKey(f"e is not odd in [2^{PUBLIC_EXPONENT_MIN_BITS}, n)")
    return functools.cache(lambda i: mod_comb(derive_modexp_base(n, i), 256, n))


def modexp_representative(attrs: tuple[int, ...], public: ModexpPublic) -> int:
    """fdh(attrs) * prod(R_i ^ digest(a_i)) mod n for a checked tuple: the
    signed quantity.  InconsistentKey unless load_rsa_public accepts public.

    One 256-bit-exponent term per attribute, computed as one
    multi-exponentiation, makes both protocol phases scale with attribute
    count.
    """
    n = public.n
    base_comb = load_rsa_public(public)
    terms = [(base_comb(i), _attr_digest(i, a)) for i, a in enumerate(attrs)]
    return fdh(attrs) * multi_mod_pow(terms, n) % n


def rsa_issue(key: ModexpIssuerKey, attrs) -> ModexpCredential:
    """Deterministic signature: representative raised to the secret exponent.

    rep^d mod n is computed by the CRT (Quisquater-Couvreur): one half-width
    exponentiation mod each prime with d reduced mod p - 1, then Garner's
    recombination.  That equals the full-width rep^d mod n for distinct
    primes p1, p2 with n == p1 * p2 and e * d == 1 mod lcm(p1 - 1, p2 - 1).
    rsa_keygen makes such keys, and check_rsa_key checks all but the
    primality for every loaded key.  Like constant time, a fault-attack
    check (verifying the signature before returning it) is out of scope.
    """
    attrs = check_attributes(attrs)
    rep = modexp_representative(attrs, key.public)
    p1, p2 = key.p1, key.p2
    sig1 = mod_pow(rep, key.d % (p1 - 1), p1)
    sig2 = mod_pow(rep, key.d % (p2 - 1), p2)
    sig = sig2 + (sig1 - sig2) * mod_inv(p2, p1) % p1 * p2
    return ModexpCredential(attrs, sig)


def rsa_verify(public: ModexpPublic, cred: ModexpCredential) -> bool:
    load_rsa_public(public)  # InconsistentKey for a bad key, whatever the credential
    n, e = public
    try:
        attrs = check_attributes(cred.attributes)
    except ValueError:
        return False
    if not 0 < cred.signature < n:
        return False
    return mod_pow(cred.signature, e, n) == modexp_representative(attrs, public)


# ---------------------------------------------------------------------------
# The registry: one object per scheme, and the uniform entry points over it
# ---------------------------------------------------------------------------


class Hex(NamedTuple):
    """A wire int: exactly `width` lowercase hex chars, below `bound` if given."""
    width: int
    bound: int | None = None


POINT = "point"  # a wire field holding a curve point as affine x and y


class Layout(NamedTuple):
    """The fields of one wire document, by name, in document order, and the
    type that holds them.  Without a type, the value is the one field itself."""
    fields: dict
    record: type | None = None


@dataclass(frozen=True)
class Scheme:
    name: str
    keygen: Callable      # (rng) -> issuer key
    issue: Callable       # (key, attrs, rng) -> credential
    verify: Callable      # (public part, credential) -> bool; raises for a bad public part
    check_key: Callable   # (key) -> None; raises InconsistentKey, else load_public(key.public)
    load_public: Callable  # (public part) -> what a request needs of it, kept; raises if bad
    credential: Layout    # every credential also carries its attributes
    public: Layout
    key: Layout


ECC160 = Scheme(
    "ecc160", ecc_keygen, ecc_issue, ecc_verify, check_ecc_key, load_ecc_public,
    credential=Layout(
        {"commitment": POINT, "nonce_point": POINT, "response": Hex(64, Q)}, EccCredential),
    public=Layout({"public": POINT}),
    key=Layout({"secret": Hex(64, Q), "public": POINT}, EccIssuerKey),
)

MODEXP1024 = Scheme(
    "modexp1024", rsa_keygen,
    lambda key, attrs, rng=None: rsa_issue(key, attrs),  # deterministic: draws no rng
    rsa_verify, check_rsa_key, load_rsa_public,
    credential=Layout({"signature": Hex(256)}, ModexpCredential),
    public=Layout({"n": Hex(256), "e": Hex(256)}, ModexpPublic),
    key=Layout({"p1": Hex(128), "p2": Hex(128), "n": Hex(256), "e": Hex(256),
                "d": Hex(256)}, ModexpIssuerKey),
)

SCHEMES = {s.name: s for s in (ECC160, MODEXP1024)}
SCHEME_NAMES = tuple(SCHEMES)


def lookup(name) -> Scheme:
    """The scheme registered under name; UnknownScheme for anything else."""
    try:
        return SCHEMES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable tag from a JSON document
        raise UnknownScheme(f"unknown scheme {name!r}") from None


def keygen(scheme: str, rng=None):
    return lookup(scheme).keygen(rng)


def public_part(scheme: str, key):
    lookup(scheme)
    return key.public


def issue(scheme: str, key, attrs, rng=None):
    return lookup(scheme).issue(key, attrs, rng)


def verify(scheme: str, public, cred) -> bool:
    return lookup(scheme).verify(public, cred)
