import random

import pytest
from hypothesis import given, settings, strategies as st

from abclab.curve import (
    BASE,
    BASE_X,
    BASE_Y,
    D,
    NEUTRAL,
    P,
    Q,
    AffinePoint,
    ExtendedPoint,
    InvalidPoint,
    check_point,
    from_affine,
    from_cached,
    multi_scalar_mul,
    point_add,
    point_add_cached,
    point_comb,
    point_double,
    point_equal,
    point_negate,
    scalar_mul,
    scalar_mul_counted,
    to_affine,
    to_affine_all,
    to_cached,
)
from abclab.field import ZeroInverse

import oracles

# Frozen from the affine doubling oracle (tests/oracles.py).
GOLDEN_2B = AffinePoint(
    24727413235106541002554574571675588834622768167397638456726423682521233608206,
    15549675580280190176352668710449542251549572066445060580507079593062643049417,
)
GOLDEN_5B = AffinePoint(
    33467004535436536005251147249499675200073690106659565782908757308821616914995,
    43097193783671926753355113395909008640284023746042808659097434958891230611693,
)

# The point (0, -1) of order 2: its own negative.
TORSION_2 = ExtendedPoint(0, P - 1, 1, 0)


def random_point(rng):
    return scalar_mul(rng.randrange(1, Q), BASE)


def scaled(pt, lam):
    """pt with its coordinates times lam: the same point, Z no longer 1."""
    return ExtendedPoint(*(lam * c % P for c in pt))


# A point in a projective form of its own: a multiple of B, scaled.
projective_points = st.builds(
    lambda k, lam: scaled(scalar_mul(k, BASE), lam),
    st.integers(min_value=0, max_value=Q - 1), st.integers(min_value=1, max_value=P - 1))


def assert_valid(pt):
    """Every point the module returns keeps Z != 0 and X*Y == T*Z."""
    assert pt.Z % P != 0
    assert (pt.X * pt.Y - pt.T * pt.Z) % P == 0


class TestIsOnCurve:
    """check_point: the one validity check for extended points."""

    def test_neutral(self):
        assert check_point(NEUTRAL) == NEUTRAL

    def test_base_point_by_substitution(self):
        x, y = BASE_X, BASE_Y
        lhs = (-x * x + y * y) % P
        rhs = (1 + D * x * x % P * y * y) % P
        assert lhs == rhs
        assert check_point(BASE) == BASE

    def test_one_one_off_curve(self):
        # -1 + 1 == 0 while 1 + d != 0.
        with pytest.raises(InvalidPoint):
            check_point(ExtendedPoint(1, 1, 1, 1))

    def test_projective_scaling_accepted(self):
        lam = 123456789
        scaled = ExtendedPoint(lam * BASE.X % P, lam * BASE.Y % P, lam, lam * BASE.T % P)
        assert check_point(scaled) == scaled

    def test_zero_z_and_inconsistent_t_rejected(self):
        for pt in (ExtendedPoint(0, 1, 0, 0), ExtendedPoint(0, P + 1, P, 0),
                   BASE._replace(T=(BASE.T + 1) % P)):
            with pytest.raises(InvalidPoint):
                check_point(pt)


class TestFromAffine:
    def test_neutral(self):
        assert from_affine(AffinePoint(0, 1)) == ExtendedPoint(0, 1, 1, 0)

    def test_base(self):
        assert from_affine(AffinePoint(BASE_X, BASE_Y)) == ExtendedPoint(
            BASE_X, BASE_Y, 1, BASE_X * BASE_Y % P
        )
        assert BASE == from_affine(AffinePoint(BASE_X, BASE_Y))

    def test_rejects_off_curve(self):
        with pytest.raises(InvalidPoint):
            from_affine(AffinePoint(1, 1))


class TestToAffine:
    def test_scaled_neutral(self):
        assert to_affine(ExtendedPoint(0, 5, 5, 0)) == AffinePoint(0, 1)

    def test_base_round_trip(self):
        assert to_affine(BASE) == AffinePoint(BASE_X, BASE_Y)

    def test_lambda_scaling_invisible(self):
        rng = random.Random(0x1AB)
        for _ in range(10):
            lam = rng.randrange(1, P)
            scaled = ExtendedPoint(
                lam * BASE.X % P, lam * BASE.Y % P, lam % P, lam * BASE.T % P
            )
            assert to_affine(scaled) == AffinePoint(BASE_X, BASE_Y)
            assert point_equal(scaled, BASE)

    def test_zero_z_rejected(self):
        with pytest.raises(ZeroInverse):
            to_affine(ExtendedPoint(0, 1, 0, 0))


class TestToAffineAll:
    """One inversion for a list of points, by Montgomery's trick, which
    converts the list in place."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(projective_points, min_size=1, max_size=5))
    def test_matches_to_affine_point_by_point(self, points):
        converted = list(points)
        assert to_affine_all(converted) is converted
        assert converted == [to_affine(pt) for pt in points]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(projective_points, min_size=1, max_size=5), st.data())
    def test_any_zero_z_raises(self, points, data):
        i = data.draw(st.integers(min_value=0, max_value=len(points) - 1))
        points[i] = points[i]._replace(Z=data.draw(st.sampled_from([0, P, 3 * P])))
        before = list(points)
        with pytest.raises(ZeroInverse):
            to_affine_all(points)
        assert points == before


class TestCachedForm:
    """point_add_cached against a kept entry, (y+x, y-x, 2, 2d*x*y), and
    against a bare term's to_cached, (Y+X, Y-X, 2Z, 2d*T): both give
    point_add's sum, which the affine oracle gives too."""

    @staticmethod
    def check(p1, p2):
        want = point_add(p1, p2)
        assert tuple(to_affine(want)) == oracles.affine_add(tuple(to_affine(p1)),
                                                            tuple(to_affine(p2)))
        for addend in (oracles.ge_precomp(tuple(to_affine(p2))), to_cached(p2)):
            got = point_add_cached(p1, addend)
            assert_valid(got)
            assert point_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(projective_points, projective_points)
    def test_random_points(self, p1, p2):
        self.check(p1, p2)

    @settings(max_examples=15, deadline=None)
    @given(projective_points)
    def test_neutral_doubling_and_inverse(self, pt):
        for p1, p2 in ((pt, NEUTRAL), (NEUTRAL, pt), (pt, pt), (pt, point_negate(pt)),
                       (pt, TORSION_2)):
            self.check(p1, p2)

    @settings(max_examples=25, deadline=None)
    @given(projective_points)
    def test_straus_start_is_the_entry(self, pt):
        for addend in (oracles.ge_precomp(tuple(to_affine(pt))), to_cached(pt)):
            start = from_cached(addend)
            assert_valid(start)
            assert point_equal(start, pt)

    def test_base_comb_entries(self):
        # Entry m of B's table h is the sum of 2^(16 (8h + j)) * B over the
        # bits j of m.
        for h, table in enumerate(point_comb(BASE).tables):
            for m in (0b1, 0b10, 0b101, 0b10000000, 0b11111111):
                k = sum(1 << 16 * (8 * h + j) for j in range(8) if m >> j & 1)
                assert table[m] == oracles.ge_precomp(
                    oracles.affine_double_and_add(k, oracles.BASE))


class TestPointAdd:
    def test_identity_element(self):
        assert point_equal(point_add(NEUTRAL, BASE), BASE)
        assert point_equal(point_add(BASE, NEUTRAL), BASE)

    def test_inverse_law(self):
        assert point_equal(point_add(BASE, scalar_mul(Q - 1, BASE)), NEUTRAL)

    def test_unified_with_double(self):
        assert point_equal(point_add(BASE, BASE), point_double(BASE))

    def test_matches_affine_oracle(self):
        rng = random.Random(0xADD)
        for _ in range(20):
            p1, p2 = random_point(rng), random_point(rng)
            got = to_affine(point_add(p1, p2))
            want = oracles.affine_add(tuple(to_affine(p1)), tuple(to_affine(p2)))
            assert tuple(got) == want

    def test_commutative(self):
        rng = random.Random(1)
        for _ in range(20):
            p1, p2 = random_point(rng), random_point(rng)
            assert point_equal(point_add(p1, p2), point_add(p2, p1))

    def test_associative(self):
        rng = random.Random(2)
        for _ in range(10):
            p1, p2, p3 = (random_point(rng) for _ in range(3))
            assert point_equal(
                point_add(point_add(p1, p2), p3), point_add(p1, point_add(p2, p3))
            )

    def test_outputs_valid(self):
        rng = random.Random(3)
        for _ in range(20):
            assert_valid(point_add(random_point(rng), random_point(rng)))


class TestPointDouble:
    def test_neutral(self):
        assert point_equal(point_double(NEUTRAL), NEUTRAL)

    def test_base_against_affine_oracle(self):
        assert to_affine(point_double(BASE)) == GOLDEN_2B

    def test_double_double_is_times_four(self):
        assert point_equal(point_double(point_double(BASE)), scalar_mul(4, BASE))

    def test_unified_formula_many_points(self):
        rng = random.Random(4)
        for _ in range(100):
            pt = random_point(rng)
            assert point_equal(point_add(pt, pt), point_double(pt))

    def test_outputs_valid(self):
        rng = random.Random(5)
        for _ in range(20):
            assert_valid(point_double(random_point(rng)))


class TestPointNegate:
    def test_sum_with_negative_is_neutral(self):
        rng = random.Random(0x9E6)
        for pt in [BASE, NEUTRAL, TORSION_2] + [random_point(rng) for _ in range(10)]:
            assert point_equal(point_add(pt, point_negate(pt)), NEUTRAL)

    def test_negating_twice_gives_the_point_back(self):
        rng = random.Random(0x9E7)
        for pt in [BASE, NEUTRAL, TORSION_2] + [random_point(rng) for _ in range(10)]:
            assert point_negate(point_negate(pt)) == pt

    def test_matches_order_minus_one_multiple(self):
        assert point_equal(check_point(point_negate(BASE)), scalar_mul(Q - 1, BASE))


class TestPointEqual:
    def test_reflexive(self):
        assert point_equal(BASE, BASE)

    def test_lambda_equivalence(self):
        lam = 123456789
        scaled = ExtendedPoint(
            lam * BASE.X % P, lam * BASE.Y % P, lam % P, lam * BASE.T % P
        )
        assert point_equal(BASE, scaled)

    def test_distinct_points(self):
        assert not point_equal(BASE, point_double(BASE))


class TestScalarMul:
    def test_one(self):
        assert point_equal(scalar_mul(1, BASE), BASE)

    def test_zero(self):
        assert point_equal(scalar_mul(0, BASE), NEUTRAL)

    def test_five_against_repeated_addition(self):
        assert to_affine(scalar_mul(5, BASE)) == GOLDEN_5B
        acc = NEUTRAL
        for _ in range(5):
            acc = point_add(acc, BASE)
        assert point_equal(scalar_mul(5, BASE), acc)

    def test_order(self):
        assert point_equal(scalar_mul(Q, BASE), NEUTRAL)
        assert point_equal(scalar_mul(Q + 1, BASE), BASE)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scalar_mul(-1, BASE)

    def test_small_range_against_repeated_addition(self):
        acc = NEUTRAL
        for k in range(1, 100):
            acc = point_add(acc, BASE)
            assert point_equal(scalar_mul(k, BASE), acc)

    def test_homomorphism(self):
        rng = random.Random(7)
        for _ in range(25):
            k1, k2 = rng.randrange(Q), rng.randrange(Q)
            lhs = scalar_mul((k1 + k2) % Q, BASE)
            rhs = point_add(scalar_mul(k1, BASE), scalar_mul(k2, BASE))
            assert point_equal(lhs, rhs)

    def test_outputs_valid(self):
        rng = random.Random(8)
        for _ in range(10):
            assert_valid(scalar_mul(rng.randrange(1, Q), BASE))


class TestScalarMulCounted:
    def test_power_of_two(self):
        pt, doubles, adds = scalar_mul_counted(2**40, BASE)
        assert (doubles, adds) == (40, 0)
        assert point_equal(pt, scalar_mul(2**40, BASE))

    def test_one(self):
        pt, doubles, adds = scalar_mul_counted(1, BASE)
        assert (doubles, adds) == (0, 0)
        assert point_equal(pt, BASE)

    def test_eleven(self):
        # 0b1011: three doubles, two adds.
        _, doubles, adds = scalar_mul_counted(11, BASE)
        assert (doubles, adds) == (3, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            scalar_mul_counted(0, BASE)

    def test_counts_forced_by_bits(self, point_op_counts):
        # The reported counts are the point operations scalar_mul performs.
        rng = random.Random(9)
        for _ in range(50):
            k = rng.randrange(1, 1 << rng.randrange(1, 161))
            point_op_counts.update(double=0, add=0)
            pt, doubles, adds = scalar_mul_counted(k, BASE)
            assert (doubles, adds) == (point_op_counts["double"], point_op_counts["add"])
            assert point_equal(pt, scalar_mul(k, BASE))

    def test_average_add_ratio(self):
        # Lighter version of the acceptance check: random 160-bit scalars
        # should average about one add per two doubles.
        rng = random.Random(10)
        total_d = total_a = 0
        for _ in range(200):
            k = rng.randrange(1 << 159, 1 << 160)
            _, doubles, adds = scalar_mul_counted(k, BASE)
            total_d += doubles
            total_a += adds
        assert 0.45 <= total_a / total_d <= 0.55


def per_term_oracle(terms):
    """The affine sum of independent affine double-and-add multiplications:
    scalar_mul is itself the one-term multi_scalar_mul, so it cannot serve."""
    acc = (0, 1)
    for k, pt in terms:
        acc = oracles.affine_add(acc, oracles.affine_double_and_add(k, tuple(to_affine(pt))))
    return acc


def straus_counts(scalars):
    """(doublings, additions) of multi_scalar_mul by field.straus's rule: each
    non-zero scalar is a group of its own over a one-entry table, so it adds
    once per set bit; the chain doubles once per bit below the top, and the
    first entry is free."""
    scalars = [k for k in scalars if k]
    top = max(k.bit_length() for k in scalars)
    return top - 1, sum(bin(k).count("1") for k in scalars) - 1


class TestMultiScalarMul:
    # Up to 45 ms per full-width affine multiplication: scalars below 2^128
    # keep 15 examples of up to 11 terms to about 4 s.
    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=(1 << 128) - 1),
                  st.integers(min_value=1, max_value=Q - 1).map(lambda h: scalar_mul(h, BASE))),
        min_size=1, max_size=11))
    def test_matches_per_term_oracle(self, terms):
        got = multi_scalar_mul(terms)
        assert_valid(got)
        assert tuple(to_affine(got)) == per_term_oracle(terms)

    def test_three_groups_of_full_width_scalars(self):
        rng = random.Random(0x57A)
        terms = [(rng.randrange(Q), random_point(rng)) for _ in range(11)]
        terms[3] = (terms[3][0], terms[8][1])  # one point in two terms
        terms.insert(6, (0, BASE))  # dropped before the chain
        got = multi_scalar_mul(terms)
        assert_valid(got)
        assert tuple(to_affine(got)) == per_term_oracle(terms)

    def test_empty_is_neutral(self):
        assert point_equal(multi_scalar_mul([]), NEUTRAL)

    def test_zero_scalars(self):
        pt = scalar_mul(5, BASE)
        assert point_equal(multi_scalar_mul([(0, BASE)]), NEUTRAL)
        assert point_equal(multi_scalar_mul([(0, BASE), (0, pt)]), NEUTRAL)
        assert point_equal(multi_scalar_mul([(0, BASE), (3, pt), (0, pt)]),
                           scalar_mul(15, BASE))

    def test_repeated_point(self):
        pt = scalar_mul(7, BASE)
        assert point_equal(multi_scalar_mul([(3, pt), (4, pt), (Q - 7, pt)]), NEUTRAL)

    def test_negative_rejected(self):
        for terms in ([(-1, BASE)], [(3, BASE), (-2, BASE)]):
            with pytest.raises(ValueError):
                multi_scalar_mul(terms)

    def test_shares_one_doubling_chain(self, point_op_counts):
        # Zero scalars are dropped before the chain, so one is mixed in.
        rng = random.Random(12)
        for count in (1, 2, 5, 6, 10, 12):
            scalars = [rng.randrange(1, 1 << rng.randrange(1, 120)) for _ in range(count)]
            scalars.insert(count // 2, 0)
            point_op_counts.update(double=0, add=0)
            multi_scalar_mul([(k, BASE) for k in scalars])
            assert (point_op_counts["double"], point_op_counts["add"]) == straus_counts(scalars)

    def test_kept_subsets_term(self, point_op_counts):
        # One group over the kept table, which for five points or more is
        # their subset sums alone, so the call adds nothing to it: one
        # addition per bit position where some scalar has a 1, minus 1.
        rng = random.Random(0x5B5)
        points = [random_point(rng) for _ in range(7)]
        kept = point_comb(*points)
        assert (kept.pieces, [len(table) for table in kept.tables]) == (1, [2**7])
        scalars = [rng.getrandbits(rng.randrange(1, 200)) for _ in points]
        scalars[2] = 0
        point_op_counts.update(double=0, add=0)
        got = multi_scalar_mul([(scalars, kept)])
        top = max(k.bit_length() for k in scalars)
        columns = sum(1 for i in range(top) if any(k >> i & 1 for k in scalars))
        assert (point_op_counts["double"], point_op_counts["add"]) == (top - 1, columns - 1)
        assert tuple(to_affine(got)) == per_term_oracle(zip(scalars, points))
        # Fewer scalars than points, beside a per-call and a comb term.
        k1, k2 = rng.randrange(Q), rng.randrange(Q)
        got = multi_scalar_mul([(k1, points[0]), (scalars[:3], kept), (k2, point_comb(BASE))])
        want = per_term_oracle([(k1, points[0]), *zip(scalars[:3], points), (k2, BASE)])
        assert tuple(to_affine(got)) == want

    def test_kept_subsets_term_edge_cases(self):
        kept = point_comb(BASE, scalar_mul(3, BASE))  # two tables of four 32-bit pieces each
        assert point_equal(multi_scalar_mul([([0, 0], kept)]), NEUTRAL)
        assert point_equal(multi_scalar_mul([([0, 0], kept), (2, BASE)]), scalar_mul(2, BASE))
        assert point_equal(multi_scalar_mul([([Q - 1, 1], kept)]), scalar_mul(2, BASE))
        assert point_equal(multi_scalar_mul([([2**256 - 1], kept)]), scalar_mul(2**256 - 1, BASE))
        assert point_equal(multi_scalar_mul([(5, kept)]), scalar_mul(5, BASE))
        for exps in ([1, 2, 3], [1, -1], [0, 2**256], -1):
            with pytest.raises(ValueError):
                multi_scalar_mul([(exps, kept)])

    def test_five_terms_by_hand(self, point_op_counts):
        # Scalars 8, 6, 1, 4, 9, one group each: 3 doublings below the top
        # bit of 8 and 9, and one addition per set bit, 7, minus 1.
        got = multi_scalar_mul([(k, BASE) for k in (8, 6, 1, 4, 9)])
        assert (point_op_counts["double"], point_op_counts["add"]) == (3, 6)
        assert point_equal(got, scalar_mul(28, BASE))
