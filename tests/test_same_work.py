"""Same work: seeded credentials hash to pinned values.

A kernel change (inversion, exponentiation, scalar multiplication) must give
the same credentials as the code these digests were recorded from.  If a
digest moves, the change computes something else, and its benchmark numbers
are not comparable with the earlier ones.

The seeded digests also cover key generation, because the key is drawn from
the same rng.  The fixed-key case issues under a key written out below, so
it moves only when issuance itself computes something else.
"""

import hashlib
import json
import math
import random

import pytest

from abclab import scheme, wire

import oracles

ATTR_COUNTS = (1, 5, 10)

# SHA-256 of the canonical JSON of the credential documents below.
PINNED = {
    "ecc160": "bbe8a83fe850024f69373c9508abe50b72299b87d3a7e1bd7a4cbf4f479acf98",
    "modexp1024": "f4abc16b0a352e15f0a1246528243b356c02a9163432ed48d4a9087b61e15123",
}
PINNED_FIXED_KEY = "b8f910a4e07f29da63276fc9f10c620ec976d8495d9743241556e5211033d615"

# Two 512-bit primes with the top two bits set and a full-width public
# exponent coprime to lcm(p1 - 1, p2 - 1).
FIXED_P1 = int(
    "f2b686094eac20266a13b80301683a08506db58f6bb39924983177f9f4a9c0df"
    "df446fed81e641430669b47d7ecdacc7d1217094a228dbfdb6d549eb9701f55f",
    16)
FIXED_P2 = int(
    "f6a3e5cfd328797f5cb5fd5ee92ff190e9b78c73584e683012e6eadb7837568f"
    "28afddb3445cca86c370795446c6dded1ffeb6c59a0bf4c420cae18639ff4067",
    16)
FIXED_E = int(
    "685c834d696d5b108f98ee8c7c95553cc1a9bafebe288db5ae8499050bb9576d"
    "b42edf99a7d0e277fe2265bff65c5e6a93c969e31a9e731ad7d954630bddbc0b"
    "c74820e40bef481c970408d92c6c8d94370c75fc2ac3941da9046d350544634e"
    "e553bd0697d34c578c441167e1e44047fbd323381a95029c9d027f7400216c93",
    16)


def documents_digest(name, key, rng):
    """SHA-256 over the wire documents of credentials issued under key at 1, 5
    and 10 fixture attributes, with rng drawing the ecc160 nonces."""
    docs = []
    for count in ATTR_COUNTS:
        cred = scheme.issue(name, key, scheme.DEFAULT_ATTRIBUTES[:count], rng)
        assert scheme.verify(name, scheme.public_part(name, key), cred)
        docs.append(wire.credential_to_wire(name, cred))
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", scheme.SCHEME_NAMES)
def test_seeded_credentials_are_unchanged(name):
    rng = random.Random(f"same-work/{name}")
    key = scheme.keygen(name, rng)
    assert documents_digest(name, key, rng) == PINNED[name]


def test_credentials_under_a_fixed_key_are_unchanged():
    for p in (FIXED_P1, FIXED_P2):
        assert p.bit_length() == 512 and p >> 510 == 3
        assert all(oracles.strong_probable_prime(p, a) for a in oracles.PRIME_BASES_TO_37)
    lam = math.lcm(FIXED_P1 - 1, FIXED_P2 - 1)
    key = scheme.ModexpIssuerKey(p1=FIXED_P1, p2=FIXED_P2, n=FIXED_P1 * FIXED_P2,
                                 e=FIXED_E, d=oracles.egcd_inverse(FIXED_E, lam))
    scheme.check_rsa_key(key)
    assert documents_digest("modexp1024", key, None) == PINNED_FIXED_KEY
