import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from abclab import curve, field, scheme, wire
from abclab.curve import (
    BASE,
    NEUTRAL,
    ExtendedPoint,
    InvalidPoint,
    check_point,
    point_add,
    point_equal,
    scalar_mul,
    to_affine,
)
from abclab.field import P, Q, mod_inv, mod_pow, sc_reduce_wide
from abclab.scheme import (
    DEFAULT_ATTRIBUTES,
    AttributeOutOfRange,
    EmptyAttributes,
    TooManyAttributes,
    UnknownScheme,
    check_attributes,
    derive_generator,
    derive_modexp_base,
    ecc_commit,
    ecc_issue,
    ecc_keygen,
    ecc_verify,
    encode_attributes,
    fdh,
    rsa_issue,
    rsa_keygen,
    rsa_verify,
)

import oracles

# The point (0, -1) of order 2.
TORSION_2 = ExtendedPoint(0, P - 1, 1, 0)


@pytest.fixture(scope="module")
def ecc_key():
    return ecc_keygen(random.Random(0xECC))


@pytest.fixture(scope="module")
def rsa_key():
    return rsa_keygen(random.Random(0x45A))


class TestCheckAttributes:
    def test_returns_a_tuple(self):
        assert check_attributes([0, Q - 1]) == (0, Q - 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyAttributes):
            check_attributes([])

    def test_too_many_rejected(self):
        with pytest.raises(TooManyAttributes):
            check_attributes(list(range(11)))

    def test_out_of_range_rejected(self):
        with pytest.raises(AttributeOutOfRange):
            check_attributes([Q])
        with pytest.raises(AttributeOutOfRange):
            check_attributes([-1])


class TestEncodeAttributes:
    def test_single_fixture_attribute(self):
        out = encode_attributes((DEFAULT_ATTRIBUTES[0],))
        assert out == bytes([1]) + DEFAULT_ATTRIBUTES[0].to_bytes(32, "big")
        assert len(out) == 33

    def test_order_matters(self):
        assert encode_attributes([1, 2]) != encode_attributes([2, 1])

    def test_injective_on_samples(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(100):
            attrs = tuple(rng.randrange(Q) for _ in range(rng.randrange(1, 11)))
            enc = encode_attributes(attrs)
            assert enc not in seen
            seen.add(enc)


class TestDeriveGenerator:
    def test_deterministic(self):
        assert derive_generator(0) == derive_generator(0)

    def test_distinct(self):
        pts = [derive_generator(i) for i in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not point_equal(pts[i], pts[j])

    def test_on_curve(self):
        for i in range(10):
            check_point(derive_generator(i))

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            derive_generator(10)
        with pytest.raises(IndexError):
            derive_generator(-1)


class TestEccKeygen:
    def test_reproducible_under_seed(self):
        k1 = ecc_keygen(random.Random(123))
        k2 = ecc_keygen(random.Random(123))
        assert k1 == k2

    def test_public_matches_secret(self, ecc_key):
        assert point_equal(ecc_key.public, scalar_mul(ecc_key.secret, BASE))

    def test_distinct_across_seeds(self):
        secrets = {ecc_keygen(random.Random(seed)).secret for seed in range(100)}
        assert len(secrets) == 100


class TestEccCommit:
    def test_zero_gives_neutral(self):
        assert point_equal(ecc_commit([0]), NEUTRAL)

    def test_zero_attributes_contribute_nothing(self):
        assert point_equal(ecc_commit([0] * 10), NEUTRAL)
        h0, h2 = derive_generator(0), derive_generator(2)
        assert point_equal(ecc_commit([5, 0, 7]),
                           point_add(scalar_mul(5, h0), scalar_mul(7, h2)))

    def test_one_gives_first_generator(self):
        assert point_equal(ecc_commit([1]), derive_generator(0))

    def test_small_scalars_against_repeated_addition(self):
        h0, h1 = derive_generator(0), derive_generator(1)
        want = point_add(point_add(h0, h0), point_add(h1, point_add(h1, h1)))
        assert point_equal(ecc_commit([2, 3]), want)

    def test_homomorphic_per_slot(self):
        rng = random.Random(12)
        for _ in range(10):
            a, b = rng.randrange(Q), rng.randrange(Q)
            lhs = ecc_commit([(a + b) % Q])
            rhs = point_add(ecc_commit([a]), ecc_commit([b]))
            assert point_equal(lhs, rhs)

    @pytest.mark.parametrize("count", range(1, scheme.MAX_ATTRIBUTES + 1))
    def test_kept_table_matches_the_sum_of_single_multiples(self, count):
        # Each slot holds 0, q - 1, a value of up to 252 bits or one of up to
        # 64, taken in turn, so every count mixes widths and edge values.
        rng = random.Random(count)
        kinds = (lambda: 0, lambda: Q - 1, lambda: rng.getrandbits(rng.randrange(1, 253)),
                 lambda: rng.getrandbits(rng.randrange(1, 65)))
        attrs = [kinds[(i + count) % len(kinds)]() for i in range(count)]
        want = NEUTRAL
        for i, a in enumerate(attrs):
            want = point_add(want, scalar_mul(a, derive_generator(i)))
        assert point_equal(ecc_commit(attrs), want)


class TestEccIssueVerify:
    def test_round_trip(self, ecc_key):
        cred = ecc_issue(ecc_key, [1, 2, 3], random.Random(1))
        assert ecc_verify(ecc_key.public, cred)

    def test_round_trip_all_fixture_counts(self, ecc_key):
        for count in (1, 5, 10):
            cred = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:count], random.Random(count))
            assert ecc_verify(ecc_key.public, cred)

    def test_deterministic_under_seed(self, ecc_key):
        c1 = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:3], random.Random(7))
        c2 = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:3], random.Random(7))
        assert c1 == c2

    def test_attribute_increment_fails(self, ecc_key):
        cred = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:2], random.Random(2))
        tampered = scheme.EccCredential(
            (cred.attributes[0] + 1, cred.attributes[1]),
            cred.commitment, cred.nonce_point, cred.response,
        )
        assert not ecc_verify(ecc_key.public, tampered)

    def test_response_increment_fails(self, ecc_key):
        cred = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:2], random.Random(3))
        tampered = scheme.EccCredential(
            cred.attributes, cred.commitment, cred.nonce_point,
            (cred.response + 1) % Q,
        )
        assert not ecc_verify(ecc_key.public, tampered)

    def test_wrong_issuer_fails(self, ecc_key):
        other = ecc_keygen(random.Random(999))
        cred = ecc_issue(ecc_key, [5], random.Random(4))
        assert not ecc_verify(other.public, cred)

    def test_off_curve_point_rejected(self, ecc_key):
        cred = ecc_issue(ecc_key, [5], random.Random(5))
        bad = scheme.EccCredential(
            cred.attributes,
            cred.commitment._replace(X=(cred.commitment.X + 1) % P),
            cred.nonce_point,
            cred.response,
        )
        assert ecc_verify(ecc_key.public, bad) is False

    def test_off_curve_public_key_raises(self, ecc_key):
        cred = ecc_issue(ecc_key, [5], random.Random(5))
        with pytest.raises(InvalidPoint):
            ecc_verify(ecc_key.public._replace(X=(ecc_key.public.X + 1) % P), cred)


# Full-width attribute values, as a scheme that hashes its attributes into
# [0, q) would commit to: 250 to 252 bits, where the fixtures have 36 to 109.
FULL_WIDTH_ATTRIBUTES = tuple(
    sc_reduce_wide(hashlib.sha256(b"abc-wide-v1" + bytes([i])).digest()) for i in range(10))


class TestChallengeInversions:
    """The issuer's public point is encoded once per key, by keygen or the
    key loader: each challenge then inverts only the product of the
    commitment's and the nonce point's Z, in the first issue under a fresh
    key too.  ecc_issue returns both points with Z = 1, so a verify or an
    encoding of its credential inverts only 1."""

    @pytest.mark.parametrize("phase", ["issue", "verify", "first-issue-after-keygen",
                                       "first-issue-after-key_from_wire"])
    def test_one_fe_inv_per_request(self, ecc_key, monkeypatch, phase):
        cred = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:2], random.Random(3))
        key = ecc_key
        if phase == "first-issue-after-keygen":
            key = ecc_keygen(random.Random(31))
        elif phase == "first-issue-after-key_from_wire":
            doc = wire.key_to_wire("ecc160", ecc_keygen(random.Random(32)))
            ecc_keygen(random.Random(33))  # so the loader cannot find the key kept
            key = wire.key_from_wire(doc)[1]
        calls = []
        real = curve.fe_inv
        monkeypatch.setattr(curve, "fe_inv", lambda a: calls.append(a) or real(a))
        if phase == "verify":
            assert ecc_verify(ecc_key.public, cred)
        else:
            ecc_issue(key, DEFAULT_ATTRIBUTES[:2], random.Random(3))
        assert len(calls) == 1
        if phase == "verify":
            assert calls == [1]

    def test_issued_points_have_z_1(self, ecc_key, monkeypatch):
        attrs = DEFAULT_ATTRIBUTES[:2]
        cred = ecc_issue(ecc_key, attrs, random.Random(3))
        assert (cred.commitment.Z, cred.nonce_point.Z) == (1, 1)
        check_point(cred.commitment)
        check_point(cred.nonce_point)
        assert point_equal(cred.commitment, ecc_commit(attrs))
        assert ecc_keygen(random.Random(31)).public.Z == 1
        calls = []
        real = curve.fe_inv
        monkeypatch.setattr(curve, "fe_inv", lambda a: calls.append(a) or real(a))
        wire.credential_to_wire("ecc160", cred)  # what the issuer service sends
        assert calls == [1, 1]


class TestEccPointOpCounts:
    """The doublings and additions of the ecc160 products, pinned: they are
    the same on every host, and they follow the multi_scalar_mul rule.  The
    key comes from keygen, which builds its comb tables, the fixture builds
    each attribute count's commit_table, and every point operation of a
    request falls inside the pinned calls, so no request builds a table."""

    @pytest.fixture
    def key(self):
        scheme.load_ecc_public.cache_clear()  # so only keygen can have built the combs
        return ecc_keygen(random.Random(0xECC))

    @pytest.fixture
    def per_call(self, key, point_op_counts, monkeypatch):
        """(doublings, additions) of each multi_scalar_mul the scheme makes;
        point_op_counts then holds the request's totals."""
        calls = []

        def counted(terms):
            before = point_op_counts["double"], point_op_counts["add"]
            result = curve.multi_scalar_mul(terms)
            calls.append((point_op_counts["double"] - before[0],
                          point_op_counts["add"] - before[1]))
            return result

        for count in range(1, scheme.MAX_ATTRIBUTES + 1):  # keep every commit_table first
            ecc_commit(DEFAULT_ATTRIBUTES[:count])
        point_op_counts.update(double=0, add=0)
        monkeypatch.setattr(scheme, "multi_scalar_mul", counted)
        return calls

    @staticmethod
    def assert_pinned(calls, point_op_counts, pins):
        assert calls == pins
        assert (point_op_counts["double"], point_op_counts["add"]) == tuple(map(sum, zip(*pins)))

    # One group per kept table with a non-zero piece: one addition per
    # (bit position of a piece, table) where some attribute has a 1, minus
    # 1.  One attribute runs as two tables of eight 16-bit pieces, so at
    # most 15 doublings, and the 62-bit fixture never reaches the high
    # table; from five attributes on the comb is the subset table alone.
    # One table of eight 32-bit pieces gave (30, 23) at 1 attribute, and a
    # 2-entry subset table (61, 30).
    @pytest.mark.parametrize("count, ops", [(1, (14, 13)), (5, (70, 65)), (10, (108, 92))])
    def test_commitment_on_fixture_attributes(self, per_call, point_op_counts, count, ops):
        ecc_commit(DEFAULT_ATTRIBUTES[:count])
        self.assert_pinned(per_call, point_op_counts, [ops])

    # Past 5 attributes nearly every one of the 251 columns is non-empty;
    # one attribute's sixteen pieces fill all 16 columns of both its
    # tables, where one table gave (31, 31) and a 2-entry subset table
    # (251, 128).
    @pytest.mark.parametrize("count, ops", [(1, (15, 31)), (5, (251, 242)), (10, (251, 251))])
    def test_commitment_on_full_width_attributes(self, per_call, point_op_counts, count, ops):
        ecc_commit(FULL_WIDTH_ATTRIBUTES[:count])
        self.assert_pinned(per_call, point_op_counts, [ops])

    def test_issue_nonce(self, key, per_call, point_op_counts):
        # The commitment, then k*B on B's two tables: k is sixteen 16-bit
        # pieces, so 15 doublings, and all 2 * 16 columns are non-empty,
        # minus 1.  One table of eight 32-bit pieces gave (31, 31), and five
        # 51-bit pieces (50, 49).
        ecc_issue(key, DEFAULT_ATTRIBUTES[:1], random.Random(1))
        self.assert_pinned(per_call, point_op_counts, [(14, 13), (15, 31)])

    def test_verify_joint_sum(self, key, per_call, point_op_counts):
        # The commitment, then z*B - c*Q_pub on the combs of B and -Q_pub:
        # four groups, one per table, of eight 16-bit pieces, so 15
        # doublings, and all 64 columns are non-empty, minus 1.  One table
        # per comb gave (31, 63), and five 51-bit pieces (50, 94).
        cred = ecc_issue(key, DEFAULT_ATTRIBUTES[:1], random.Random(1))
        del per_call[:]
        point_op_counts.update(double=0, add=0)
        assert ecc_verify(key.public, cred)
        self.assert_pinned(per_call, point_op_counts, [(14, 13), (15, 63)])


class TestModexpMulmodCounts:
    """The squarings and multiplications of the modexp1024 representative,
    pinned: they follow the same field.straus rule as the curve sums.  The
    fixture's first representative builds every R_i comb, and a table built
    in a pinned request would add straus calls, so none is."""

    @pytest.fixture
    def public(self, rsa_key):
        scheme.modexp_representative(DEFAULT_ATTRIBUTES, rsa_key.public)
        return rsa_key.public

    @pytest.fixture
    def per_call(self, public, monkeypatch):
        """(squarings, multiplications) of each field.straus call that
        multi_mod_pow makes, counted through the callables it passes."""
        calls = []
        straus = field.straus

        def counted(terms, combine, square):
            counts = {"square": 0, "mul": 0}

            def mul(a, b):
                counts["mul"] += 1
                return combine(a, b)

            def sq(a):
                counts["square"] += 1
                return square(a)

            result = straus(terms, mul, sq)
            calls.append((counts["square"], counts["mul"]))
            return result

        monkeypatch.setattr(field, "straus", counted)
        return calls

    # The exponents are the attribute digests, which do not depend on the
    # modulus.  On the R_i combs each is sixteen 16-bit pieces over two
    # tables, so every count makes 15 squarings and one multiplication per
    # non-empty column of each table, minus 1.  One table of eight 32-bit
    # pieces gave (31, 31), (31, 159) and (31, 317), and five 52-bit pieces
    # (51, 51), (51, 254) and (51, 500).
    @pytest.mark.parametrize("count, ops", [(1, (15, 31)), (5, (15, 159)), (10, (15, 318))])
    def test_representative_on_fixture_attributes(self, public, per_call, count, ops):
        scheme.modexp_representative(DEFAULT_ATTRIBUTES[:count], public)
        assert per_call == [ops]


class TestCombs:
    """A comb term gives what the binary chain of scalar_mul or mod_pow
    gives, for every exponent below 2^(tables*pieces*width), and raises
    ValueError for the rest rather than computing a wrong result."""

    @staticmethod
    def check(comb, chain, combed, rng):
        w, pieces = comb.width, len(comb.tables) * comb.pieces
        h = comb.pieces * w  # the split bit: the high table's first piece
        # Edge cases, the top piece of the low and of the high table, then
        # exponents around the split, with a zero high and a zero low half,
        # then exponents whose top pieces - 1, ..., 1 pieces are zero, then
        # full-width ones.
        exps = ([0, 1, 2**w - 1, 2**w, Q - 1, 2**256 - 1,
                 2**((comb.pieces - 1) * w), 2**((pieces - 1) * w),
                 2**h - 1, 2**h, 2**h + 1, rng.getrandbits(h), rng.getrandbits(h) << h]
                + [rng.getrandbits(j * w) for j in range(1, pieces)]
                + [rng.getrandbits(pieces * w) for _ in range(3)])
        for e in exps:
            if e >> pieces * w:
                with pytest.raises(ValueError):
                    combed(e)
            else:
                assert combed(e) == chain(e), e
        for e in (-1, 1 << pieces * w, (1 << pieces * w) + 1):
            with pytest.raises(ValueError):
                combed(e)

    def test_point_combs_of_b_and_a_public_key(self):
        rng = random.Random(0xC0B)
        for pt in (BASE, ecc_keygen(rng).public):
            comb = curve.point_comb(pt)
            assert (comb.count, comb.pieces, comb.width) == (1, 8, 16)
            assert [len(table) for table in comb.tables] == [256, 256]
            self.check(comb, lambda k: to_affine(scalar_mul(k, pt)),
                       lambda k: to_affine(curve.multi_scalar_mul([(k, comb)])), rng)

    def test_mod_comb_of_a_modexp_base(self, rsa_key):
        n = rsa_key.n
        base = derive_modexp_base(n, 3)
        comb = field.mod_comb(base, 256, n)
        assert (comb.pieces, comb.width, len(comb.tables)) == (8, 16, 2)
        self.check(comb, lambda e: mod_pow(base, e, n),
                   lambda e: field.multi_mod_pow([(comb, e)], n), random.Random(0xC0C))

    def test_comb_terms_share_a_call_with_per_call_terms(self, rsa_key):
        rng = random.Random(0xC0D)
        pt = scalar_mul(rng.randrange(1, Q), BASE)
        k1, k2, k3 = (rng.randrange(Q) for _ in range(3))
        got = curve.multi_scalar_mul(
            [(k1, pt), (k2, curve.point_comb(BASE)), (0, BASE), (k3, curve.point_comb(pt))])
        assert point_equal(got, point_add(scalar_mul(k1 + k3, pt), scalar_mul(k2, BASE)))
        n, r = rsa_key.n, derive_modexp_base(rsa_key.n, 0)
        e1, e2 = rng.getrandbits(256), rng.getrandbits(1024)
        assert field.multi_mod_pow([(field.mod_comb(r, 256, n), e1), (r, e2)], n) \
            == mod_pow(r, e1 + e2, n)

    # Each draw runs up to ten chains of scalar_mul, about 3 ms each.
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0, 1, Q - 1, 2**252]),
                              st.integers(0, 2**64),
                              st.integers(0, Q - 1)),
                    min_size=1, max_size=scheme.MAX_ATTRIBUTES))
    def test_comb_of_k_generators_is_the_sum_of_their_multiples(self, scalars):
        # k = 1..4 combs split each scalar into two tables of 8 // k pieces;
        # from five on the comb is the subset table of the generators alone.
        got = curve.multi_scalar_mul([(scalars, scheme.commit_table(len(scalars)))])
        want = NEUTRAL
        for i, a in enumerate(scalars):
            want = point_add(want, scalar_mul(a, derive_generator(i)))
        assert point_equal(got, want)


def kept_entry(pt):
    """The form a point_comb keeps pt in."""
    return oracles.ge_precomp(tuple(to_affine(pt)))


class TestKeptTables:
    """Beside B's comb and one commit_table per attribute count, each scheme
    keeps the combs of its latest key only."""

    def test_one_commit_table_per_attribute_count(self):
        kept = scheme.commit_table(3)
        assert scheme.commit_table(3) is kept
        # Two tables of two 64-bit pieces of each generator: the low one
        # over H_i and 2^64 * H_i, the high one over 2^128 * H_i and
        # 2^192 * H_i, at bits 2i, 2i + 1, each entry in cached affine form.
        assert (kept.count, kept.pieces, kept.width) == (3, 2, 64)
        assert [len(table) for table in kept.tables] == [2**6, 2**6]
        low, high = kept.tables
        assert low[0b010001] == kept_entry(point_add(derive_generator(0), derive_generator(2)))
        assert low[0b000010] == kept_entry(scalar_mul(2**64, derive_generator(0)))
        assert high[0b000001] == kept_entry(scalar_mul(2**128, derive_generator(0)))
        assert high[0b100000] == kept_entry(scalar_mul(2**192, derive_generator(2)))
        # From five attributes on, the subset sums of the generators alone.
        kept = scheme.commit_table(5)
        assert (kept.count, kept.pieces, [len(table) for table in kept.tables]) == (5, 1, [2**5])
        assert kept.tables[0][0b101] == kept_entry(
            point_add(derive_generator(0), derive_generator(2)))

    @pytest.mark.parametrize("count", [1, 3, 10])
    def test_each_base_comb_is_built_on_its_first_use(self, rsa_key, comb_builds, count):
        scheme.load_rsa_public.cache_clear()
        attrs = DEFAULT_ATTRIBUTES[:count]
        rep = scheme.modexp_representative(attrs, rsa_key.public)
        assert len(comb_builds) == count
        assert scheme.modexp_representative(attrs, rsa_key.public) == rep
        assert len(comb_builds) == count

    def test_a_bad_key_raises_before_any_comb(self, rsa_key, comb_builds):
        scheme.load_rsa_public.cache_clear()
        with pytest.raises(scheme.InconsistentKey):
            scheme.modexp_representative(DEFAULT_ATTRIBUTES[:1], scheme.ModexpPublic(rsa_key.n, 3))
        assert comb_builds == []

    @pytest.mark.parametrize("name", scheme.SCHEME_NAMES)
    def test_one_key_and_a_rebuild_on_a_miss(self, name):
        load = scheme.lookup(name).load_public
        rng = random.Random(0x7AB)
        keys = [scheme.keygen(name, rng) for _ in range(20)]
        assert load.cache_info().currsize == 1
        hits, misses = load.cache_info()[:2]
        assert load(keys[-1].public) is load(keys[-1].public)
        assert load.cache_info()[:2] == (hits + 2, misses)
        # A credential under the first key: its combs are built again.
        cred = scheme.issue(name, keys[0], DEFAULT_ATTRIBUTES[:3], rng)
        assert scheme.verify(name, scheme.public_part(name, keys[0]), cred)
        assert load.cache_info().misses == misses + 1
        assert load.cache_info().currsize == 1


class TestMillerRabin:
    """_miller_rabin's 6 rounds with seeded random witnesses on odd n > 3."""

    @staticmethod
    def odd_composite(n, factors):
        """n is the product of the given odd primes: odd, above 3 and composite."""
        return math.prod(factors) == n and all(
            f > 2 and oracles.is_prime_below_3e23(f) for f in factors)

    def test_rejects_a_carmichael_number(self):
        n, factors = 65_700_513_721, (2221, 4441, 6661)
        assert self.odd_composite(n, factors)
        # Korselt: p - 1 divides n - 1 for each p, so n fools Fermat's test.
        assert all((n - 1) % (p - 1) == 0 for p in factors)
        assert not scheme._miller_rabin(n, random.Random(0x3A7))

    def test_rejects_a_strong_pseudoprime_to_small_bases(self):
        n, factors = 3_825_123_056_546_413_051, (149_491, 747_451, 34_233_211)
        assert self.odd_composite(n, factors)
        assert all(oracles.strong_probable_prime(n, a)
                   for a in oracles.PRIME_BASES_TO_37 if a <= 31)
        assert not scheme._miller_rabin(n, random.Random(0x3A7))

    def test_agrees_with_deterministic_oracle(self):
        rng = random.Random(0x64B)
        verdicts = []
        for _ in range(400):
            n = rng.getrandbits(64) | 1 << 63 | 1
            verdicts.append(oracles.is_prime_below_3e23(n))
            assert scheme._miller_rabin(n, rng) == verdicts[-1], n
        assert True in verdicts and False in verdicts


class TestPrimeSearch:
    """The small-prime table and _random_prime's sieved 512-bit search,
    against the oracles."""

    def test_small_prime_tables(self):
        assert list(scheme._SMALL_PRIMES) == oracles.primes_below(1 << 16)[1:]

    def test_sieve_marks_exactly_the_multiples_of_small_primes(self):
        primorial = math.prod(oracles.primes_below(1 << 16)[1:])
        rng = random.Random(0x51E)
        for start in (rng.getrandbits(64) | 1, (1 << 64) - 1):
            window = scheme._sieve(start)
            assert len(window) == 4096
            assert [math.gcd(start + 2 * i, primorial) == 1 for i in range(4096)] \
                == [bool(w) for w in window]

    @staticmethod
    def check_prime(p):
        """512 bits, the top two set, and a strong probable prime to every
        prime base up to 37."""
        assert p.bit_length() == 512 and p >> 510 == 3
        assert all(oracles.strong_probable_prime(p, a) for a in oracles.PRIME_BASES_TO_37)

    @pytest.mark.parametrize("seed", [24, 32, 64])
    def test_random_prime(self, seed):
        rng = random.Random(seed)
        for _ in range(7):
            self.check_prime(scheme._random_prime(rng))

    @pytest.mark.parametrize("seed", [24, 32, 64])
    def test_window_that_overflows(self, seed):
        class AllOnesStart(random.Random):
            """The first draw, the first window's start, is all ones; 2^512 - 1
            is divisible by 3 and every later candidate has 513 bits."""
            draws = 0

            def getrandbits(self, k):
                self.draws += 1
                return (1 << k) - 1 if self.draws == 1 else super().getrandbits(k)

        rng = AllOnesStart(seed)
        self.check_prime(scheme._random_prime(rng))
        assert rng.draws > 1

    def test_search_without_a_prime_is_exhausted(self, monkeypatch):
        monkeypatch.setattr(scheme, "_PRIME_ATTEMPTS", 2)
        monkeypatch.setattr(scheme, "_miller_rabin", lambda n, rng: False)
        with pytest.raises(scheme.PrimeSearchExhausted,
                           match="^no 512-bit prime in 2 windows of 4096$"):
            scheme._random_prime(random.Random(7))

    def test_keygen_primes_pass_every_base_to_37(self):
        key = rsa_keygen(random.Random(0x5EE))
        for p in (key.p1, key.p2):
            self.check_prime(p)


def sign_by_hand(secret, public, attrs, k, nonce_point):
    """An ecc160 credential signed outside ecc_issue, so that the public key
    and the nonce point in the challenge may carry a torsion component that
    secret * B and k * B lack."""
    commitment = ecc_commit(attrs)
    c = scheme._challenge(public, curve.to_affine_all([commitment, nonce_point]), attrs)
    return scheme.EccCredential(tuple(attrs), commitment, nonce_point, (k + c * secret) % Q)


class TestEccVerifyEquation:
    """ecc_verify checks z*B + c*(-Q_pub) == R as one joint multiplication;
    the oracle checks z*B == R + c*Q_pub with two separate affine ones."""

    @staticmethod
    def oracle(public, cred):
        if not point_equal(ecc_commit(cred.attributes), cred.commitment):
            return False
        c = scheme._challenge(public, curve.to_affine_all([cred.commitment, cred.nonce_point]),
                              cred.attributes)
        return oracles.schnorr_equation_holds(
            cred.response, c, to_affine(cred.nonce_point), to_affine(public))

    def verdict(self, public, cred):
        valid = ecc_verify(public, cred)
        assert valid == self.oracle(public, cred)
        return valid

    def test_genuine(self, ecc_key):
        for count in (1, 5, 10):
            cred = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:count], random.Random(count))
            assert self.verdict(ecc_key.public, cred)

    def test_mutated(self, ecc_key):
        cred = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:3], random.Random(0xD06))
        for mutant in (
            dataclasses.replace(cred, response=(cred.response + 1) % Q),
            dataclasses.replace(cred, response=(cred.response - 1) % Q),
            dataclasses.replace(cred, nonce_point=point_add(cred.nonce_point, BASE)),
            dataclasses.replace(cred, attributes=(cred.attributes[0] ^ 1,) + cred.attributes[1:]),
        ):
            assert not self.verdict(ecc_key.public, mutant)

    def test_torsion_shifted_nonce_or_public(self, ecc_key):
        cred = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:2], random.Random(0xD07))
        shifted = dataclasses.replace(cred, nonce_point=point_add(cred.nonce_point, TORSION_2))
        assert not self.verdict(ecc_key.public, shifted)
        assert not self.verdict(point_add(ecc_key.public, TORSION_2), cred)

    def test_torsion_signed_into_the_challenge(self, ecc_key):
        # With Q_pub = x*B + s*T and R = k*B + t*T for the order-2 point T,
        # z*B == R + c*Q_pub holds exactly when c*s + t is even.
        rng = random.Random(0xD08)
        verdicts = set()
        for s, t in [(1, 0), (0, 1), (1, 1)] * 4:
            public = point_add(ecc_key.public, TORSION_2) if s else ecc_key.public
            k = rng.randrange(1, Q)
            nonce_point = scalar_mul(k, BASE)
            if t:
                nonce_point = point_add(nonce_point, TORSION_2)
            cred = sign_by_hand(ecc_key.secret, public, [rng.randrange(Q)], k, nonce_point)
            c = scheme._challenge(public, curve.to_affine_all([cred.commitment, nonce_point]),
                                  cred.attributes)
            valid = self.verdict(public, cred)
            assert valid == ((c * s + t) % 2 == 0)
            verdicts.add(valid)
        assert verdicts == {True, False}


class TestRsaKeygen:
    def test_shape(self, rsa_key):
        assert rsa_key.n.bit_length() == 1024
        assert rsa_key.p1 * rsa_key.p2 == rsa_key.n
        assert rsa_key.p1 != rsa_key.p2
        # Full-width exponents on both sides.
        assert rsa_key.e.bit_length() >= scheme.PUBLIC_EXPONENT_MIN_BITS
        assert rsa_key.d.bit_length() >= scheme.PUBLIC_EXPONENT_MIN_BITS

    def test_round_trip_identity(self, rsa_key):
        rng = random.Random(13)
        for _ in range(20):
            m = rng.randrange(2, rsa_key.n)
            assert mod_pow(mod_pow(m, rsa_key.d, rsa_key.n), rsa_key.e, rsa_key.n) == m

    def test_deterministic_under_seed(self):
        k1 = rsa_keygen(random.Random(77))
        k2 = rsa_keygen(random.Random(77))
        assert k1 == k2


class TestCheckRsaKey:
    def test_equal_primes_rejected(self, rsa_key):
        # Consistent in n and e*d, but the CRT needs two distinct primes.
        p = rsa_key.p1
        key = scheme.ModexpIssuerKey(p1=p, p2=p, n=p * p, e=rsa_key.e, d=mod_inv(rsa_key.e, p - 1))
        with pytest.raises(scheme.InconsistentKey, match="p1 == p2"):
            scheme.check_rsa_key(key)

    @pytest.mark.parametrize("short, message", [("e", "e is not odd"), ("d", "d is below")])
    def test_short_exponent_rejected(self, rsa_key, short, message):
        # Consistent in n and e*d, but off rsa_keygen's exponent rules.
        inverse = mod_inv(65537, math.lcm(rsa_key.p1 - 1, rsa_key.p2 - 1))
        exponents = {"e": 65537, "d": inverse} if short == "e" else {"e": inverse, "d": 65537}
        with pytest.raises(scheme.InconsistentKey, match=message):
            scheme.check_rsa_key(dataclasses.replace(rsa_key, **exponents))


class TestFdh:
    def test_deterministic(self):
        assert fdh((1, 2)) == fdh((1, 2))

    def test_below_truncation_bound(self, rsa_key):
        rng = random.Random(14)
        for _ in range(50):
            attrs = tuple(rng.randrange(Q) for _ in range(rng.randrange(1, 11)))
            assert fdh(attrs) < 1 << 1016 < rsa_key.n

    def test_distinct_attributes_distinct_digests(self):
        assert fdh(DEFAULT_ATTRIBUTES[:1]) != fdh(DEFAULT_ATTRIBUTES[1:2])


class TestModexpRepresentative:
    def test_rejects_wrong_modulus_width(self):
        with pytest.raises(scheme.InconsistentKey):
            scheme.modexp_representative((1,), scheme.ModexpPublic(1 << 512, 65537))


class TestModexpBases:
    def test_deterministic_and_distinct(self, rsa_key):
        bases = [derive_modexp_base(rsa_key.n, i) for i in range(10)]
        assert bases == [derive_modexp_base(rsa_key.n, i) for i in range(10)]
        assert len(set(bases)) == 10

    def test_in_range(self, rsa_key):
        for i in range(10):
            assert 0 < derive_modexp_base(rsa_key.n, i) < rsa_key.n

    def test_index_bounds(self, rsa_key):
        with pytest.raises(IndexError):
            derive_modexp_base(rsa_key.n, 10)


class TestRsaIssueVerify:
    def test_round_trip(self, rsa_key):
        cred = rsa_issue(rsa_key, [1, 2, 3])
        assert rsa_verify(rsa_key.public, cred)

    def test_round_trip_all_fixture_counts(self, rsa_key):
        for count in (1, 5, 10):
            cred = rsa_issue(rsa_key, DEFAULT_ATTRIBUTES[:count])
            assert rsa_verify(rsa_key.public, cred)

    def test_deterministic(self, rsa_key):
        assert rsa_issue(rsa_key, [9, 8]) == rsa_issue(rsa_key, [9, 8])

    def test_tampered_attribute_fails(self, rsa_key):
        cred = rsa_issue(rsa_key, DEFAULT_ATTRIBUTES[:5])
        tampered = scheme.ModexpCredential(
            cred.attributes[:4] + (cred.attributes[4] ^ 1,), cred.signature
        )
        assert not rsa_verify(rsa_key.public, tampered)

    def test_signature_increment_fails(self, rsa_key):
        cred = rsa_issue(rsa_key, DEFAULT_ATTRIBUTES[:1])
        tampered = scheme.ModexpCredential(cred.attributes, cred.signature + 1)
        assert not rsa_verify(rsa_key.public, tampered)

    def test_out_of_range_signature_fails(self, rsa_key):
        cred = rsa_issue(rsa_key, [1])
        for sig in (0, rsa_key.n, rsa_key.n + cred.signature):
            assert not rsa_verify(rsa_key.public, scheme.ModexpCredential(cred.attributes, sig))

    def test_public_key_of_the_wrong_width_raises(self, rsa_key):
        """So does each exponent off rsa_keygen's rule: under e = 1 the
        representative is its own signature."""
        cred = rsa_issue(rsa_key, [1])
        n, e = rsa_key.public
        forged = scheme.ModexpCredential(
            cred.attributes, scheme.modexp_representative(cred.attributes, rsa_key.public))
        short = scheme.ModexpPublic(n >> 8, e)
        assert short.n.bit_length() == 1016
        for public in (short, (n, 1), (n, e + 1), (n, 65537), (n, n)):
            with pytest.raises(scheme.InconsistentKey):
                rsa_verify(scheme.ModexpPublic(*public), forged)


class TestRsaCrtSigning:
    """rsa_issue signs by CRT; the signature is the full-width rep^d mod n."""

    @pytest.mark.parametrize("seed", [0x45A, 0xC27, 0x5EED])
    def test_matches_full_width_exponentiation(self, seed):
        key = rsa_keygen(random.Random(seed))
        for count in (1, 5, 10):
            attrs = DEFAULT_ATTRIBUTES[:count]
            rep = scheme.modexp_representative(attrs, key.public)
            assert rsa_issue(key, attrs).signature == mod_pow(rep, key.d, key.n)

    @pytest.mark.parametrize("prime", ["p1", "p2"])
    def test_representative_sharing_a_prime(self, rsa_key, monkeypatch, prime):
        rep = getattr(rsa_key, prime) * 0xC0FFEE
        monkeypatch.setattr(scheme, "modexp_representative", lambda attrs, public: rep)
        assert rsa_issue(rsa_key, [1]).signature == mod_pow(rep, rsa_key.d, rsa_key.n)


def mutate_ecc(cred, rng):
    """Flip one random bit in one random field of an ECC credential."""
    field_name = rng.choice(["attributes", "response", "commitment", "nonce_point"])
    if field_name == "attributes":
        idx = rng.randrange(len(cred.attributes))
        flipped = cred.attributes[idx] ^ (1 << rng.randrange(253))
        attrs = cred.attributes[:idx] + (flipped,) + cred.attributes[idx + 1:]
        return scheme.EccCredential(attrs, cred.commitment, cred.nonce_point, cred.response)
    if field_name == "response":
        return scheme.EccCredential(
            cred.attributes, cred.commitment, cred.nonce_point,
            cred.response ^ (1 << rng.randrange(253)),
        )
    pt = getattr(cred, field_name)
    coord = rng.randrange(4)
    mutated = pt._replace(**{pt._fields[coord]: pt[coord] ^ (1 << rng.randrange(255))})
    if field_name == "commitment":
        return scheme.EccCredential(cred.attributes, mutated, cred.nonce_point, cred.response)
    return scheme.EccCredential(cred.attributes, cred.commitment, mutated, cred.response)


def mutate_modexp(cred, rng):
    if rng.random() < 0.5:
        idx = rng.randrange(len(cred.attributes))
        flipped = cred.attributes[idx] ^ (1 << rng.randrange(253))
        attrs = cred.attributes[:idx] + (flipped,) + cred.attributes[idx + 1:]
        return scheme.ModexpCredential(attrs, cred.signature)
    return scheme.ModexpCredential(cred.attributes, cred.signature ^ (1 << rng.randrange(1024)))


class TestMutationSoundness:
    def test_ecc_single_bit_mutations(self, ecc_key):
        rng = random.Random(0xBEEF)
        cred = ecc_issue(ecc_key, DEFAULT_ATTRIBUTES[:5], rng)
        assert ecc_verify(ecc_key.public, cred)
        for _ in range(60):
            assert scheme.verify("ecc160", ecc_key.public, mutate_ecc(cred, rng)) is False

    def test_modexp_single_bit_mutations(self, rsa_key):
        rng = random.Random(0xFACE)
        cred = rsa_issue(rsa_key, DEFAULT_ATTRIBUTES[:5])
        assert rsa_verify(rsa_key.public, cred)
        for _ in range(60):
            assert scheme.verify("modexp1024", rsa_key.public, mutate_modexp(cred, rng)) is False


class TestChecksPerCall:
    """Each entry point checks its attributes once, and once a key is kept,
    a request loads it no more, so it checks no modulus or public point: an
    ecc160 verify checks only the credential's two points."""

    @pytest.mark.parametrize("phase", ["issue", "verify"])
    @pytest.mark.parametrize("name", scheme.SCHEME_NAMES)
    def test_one_attribute_check_and_no_key_load(
            self, ecc_key, rsa_key, monkeypatch, name, phase):
        key = {"ecc160": ecc_key, "modexp1024": rsa_key}[name]
        public = scheme.public_part(name, key)
        load = scheme.lookup(name).load_public
        load(public)
        cred = scheme.issue(name, key, DEFAULT_ATTRIBUTES, random.Random(16))
        misses = load.cache_info().misses
        counts = {"check_attributes": 0, "check_point": 0}
        for check in counts:
            def counted(*args, check=check, real=getattr(scheme, check)):
                counts[check] += 1
                return real(*args)
            monkeypatch.setattr(scheme, check, counted)
        if phase == "issue":
            scheme.issue(name, key, DEFAULT_ATTRIBUTES, random.Random(16))
        else:
            assert scheme.verify(name, public, cred)
        points = 2 if (name, phase) == ("ecc160", "verify") else 0
        assert counts == {"check_attributes": 1, "check_point": points}
        assert load.cache_info().misses == misses


class TestDispatch:
    def test_keygen_issue_verify_by_name(self):
        rng = random.Random(15)
        for name in scheme.SCHEME_NAMES:
            key = scheme.keygen(name, rng)
            cred = scheme.issue(name, key, DEFAULT_ATTRIBUTES[:2], rng)
            assert scheme.verify(name, scheme.public_part(name, key), cred)

    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme):
            scheme.keygen("rot13", random.Random(0))
