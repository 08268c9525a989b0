"""Same work: seeded credentials hash to pinned values.

A kernel change (inversion, exponentiation, scalar multiplication) must give
the same credentials as the code these digests were recorded from.  If a
digest moves, the change computes something else, and its benchmark numbers
are not comparable with the earlier ones.
"""

import hashlib
import json
import random

import pytest

from abclab import scheme, wire

ATTR_COUNTS = (1, 5, 10)

# SHA-256 of the canonical JSON of the credential documents below.
PINNED = {
    "ecc160": "bbe8a83fe850024f69373c9508abe50b72299b87d3a7e1bd7a4cbf4f479acf98",
    "modexp1024": "69e3b0f088df82d3aa153dad0f1e52b5479673e0001b7ebc24505b54dde8de65",
}


def credential_documents(name):
    """Wire documents of credentials issued at 1, 5 and 10 fixture attributes,
    under a key drawn from a seeded rng that also draws the ecc160 nonces."""
    rng = random.Random(f"same-work/{name}")
    key = scheme.keygen(name, rng)
    docs = []
    for count in ATTR_COUNTS:
        cred = scheme.issue(name, key, scheme.DEFAULT_ATTRIBUTES[:count], rng)
        assert scheme.verify(name, scheme.public_part(name, key), cred)
        docs.append(wire.credential_to_wire(name, cred))
    return docs


@pytest.mark.parametrize("name", scheme.SCHEME_NAMES)
def test_seeded_credentials_are_unchanged(name):
    encoded = json.dumps(credential_documents(name), sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == PINNED[name]
