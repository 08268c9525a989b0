"""Twisted Edwards group: -x^2 + y^2 = 1 + d*x^2*y^2 over GF(2^255-19).

Points are held in extended homogeneous coordinates (X:Y:Z:T) with
x = X/Z, y = Y/Z, xy = T/Z, so addition and doubling need no field
inversions; the one inversion, in ``to_affine_all``, is ``field.fe_inv``,
one for a whole list of points by Montgomery's trick (``to_affine`` is its
one-point case).  A sum of scalar multiples (``multi_scalar_mul``), which
also gives the verifier its joint z*B - c*Q_pub, is the field's one
exponentiation loop, Straus's simultaneous method, run with point doubling
and ``point_add_cached``: the addition of Hisil, Wong, Carter and Dawson
("Twisted Edwards curves revisited", 2008) to an addend in cached form
(Y+X, Y-X, 2Z, 2d*T).  A bare point term is converted once per call, so its
additions cost 8 multiplications.  The comb tables (``point_comb``) that
callers keep for fixed points hold their entries in that form with Z = 1,
the ``ge_precomp`` form of Bernstein, Duif, Lange, Schwabe and Yang
("High-speed high-security signatures", CHES 2011): Z1 * 2 is a one-word
product, so a table addition costs 7, where ``point_add`` costs 9.  A
single scalar multiple (``scalar_mul``) is the loop's one-term case.  There
are no window tables, no signed recoding, and nothing here is constant-time.
"""

from __future__ import annotations

from typing import NamedTuple

from .field import P, Q, Comb, comb, fe_inv, straus

# Curve coefficient d; the twist coefficient a is -1 (folded into the
# formulas below, which only hold for a = -1).
D = 37095705934669439343138083508754565189542113879843219016388785533085940283555

# Base point of order Q.
BASE_X = 15112221349535400772501151409588531511454012693041857206046113283949847762202
BASE_Y = 46316835694926478169428394003475163141307993866256225615783033603165251855960


class InvalidPoint(ValueError):
    """Raised for coordinates that are not a consistent point on the curve."""


class AffinePoint(NamedTuple):
    x: int
    y: int


class ExtendedPoint(NamedTuple):
    X: int
    Y: int
    Z: int
    T: int


NEUTRAL = ExtendedPoint(0, 1, 1, 0)
BASE = ExtendedPoint(BASE_X, BASE_Y, 1, BASE_X * BASE_Y % P)

_D2 = 2 * D % P        # the T factor of the cached form
_D_INV = fe_inv(D)     # takes it back out in from_cached


def check_point(pt: ExtendedPoint) -> ExtendedPoint:
    """pt if Z != 0, XY == TZ and the projective curve equation
    (-X^2 + Y^2) Z^2 == Z^4 + d X^2 Y^2 hold; InvalidPoint if not."""
    X, Y, Z, T = pt
    if Z % P == 0:
        raise InvalidPoint("Z == 0")
    if (X * Y - T * Z) % P != 0:
        raise InvalidPoint("T is inconsistent with X, Y, Z")
    xx = X * X % P
    yy = Y * Y % P
    zz = Z * Z % P
    if (yy - xx) * zz % P != (zz * zz + D * xx % P * yy) % P:
        raise InvalidPoint("coordinates are off the curve")
    return pt


def from_affine(pt: AffinePoint) -> ExtendedPoint:
    """Lift (x, y) to (x : y : 1 : xy); InvalidPoint if it is off the curve."""
    return check_point(ExtendedPoint(pt.x, pt.y, 1, pt.x * pt.y % P))


def to_affine_all(points: list, form=AffinePoint) -> list:
    """points with each point replaced in place by form(X/Z, Y/Z), walking
    back, by Montgomery's trick: one fe_inv of the product of the Zs, which
    raises ZeroInverse, points unchanged, if any Z == 0 mod p, and three
    multiplications more per point.  So no second list is ever built."""
    prefix = [1]  # prefix[i] is the product of the first i Zs
    for pt in points:
        prefix.append(prefix[-1] * pt.Z % P)
    inv = fe_inv(prefix.pop())  # 1 / (the product of all the Zs)
    # Walking back, inv is 1 / (the product of the Zs up to this point's).
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z, _ = points[i]
        z_inv = inv * prefix.pop() % P
        inv = inv * Z % P
        points[i] = form(X * z_inv % P, Y * z_inv % P)
    return points


def to_affine(pt: ExtendedPoint) -> AffinePoint:
    """(X/Z, Y/Z); fe_inv raises ZeroInverse for Z == 0."""
    return to_affine_all([pt])[0]


def to_cached(pt: ExtendedPoint) -> tuple:
    """pt as an addend of point_add_cached, (Y+X, Y-X, 2Z, 2d*T): one mulmod."""
    X, Y, Z, T = pt
    return (Y + X) % P, (Y - X) % P, 2 * Z % P, _D2 * T % P


def from_cached(c: tuple) -> ExtendedPoint:
    """The point of a cached addend as (2X, 2Y, 2Z, 2T): one mulmod."""
    yp, ym, z2, t2d = c
    return ExtendedPoint((yp - ym) % P, (yp + ym) % P, z2, t2d * _D_INV % P)


def point_add_cached(p1: ExtendedPoint, c2: tuple) -> ExtendedPoint:
    """p1 + p2 for p2 in cached form (to_cached, or a point_comb entry);
    unified, so also valid for p1 == p2."""
    X1, Y1, Z1, T1 = p1
    yp, ym, z2, t2d = c2
    A = (Y1 - X1) * ym % P
    B = (Y1 + X1) * yp % P
    C = T1 * t2d % P
    Dv = Z1 * z2 % P
    E, F, G, H = B - A, Dv - C, Dv + C, B + A
    return tuple.__new__(ExtendedPoint, (E * F % P, G * H % P, F * G % P, E * H % P))


def point_add(p1: ExtendedPoint, p2: ExtendedPoint) -> ExtendedPoint:
    """Unified extended-coordinate addition; also valid for p1 == p2."""
    return point_add_cached(p1, to_cached(p2))


def point_negate(pt: ExtendedPoint) -> ExtendedPoint:
    """-pt: (x, y) -> (-x, y) on a twisted Edwards curve, so X and T flip."""
    X, Y, Z, T = pt
    return ExtendedPoint(-X % P, Y, Z, -T % P)


def point_double(pt: ExtendedPoint) -> ExtendedPoint:
    X1, Y1, Z1, _ = pt
    A = X1 * X1 % P
    B = Y1 * Y1 % P
    C = 2 * Z1 * Z1 % P
    Dv = (X1 + Y1) * (X1 + Y1) % P
    H = B + A
    E = H - Dv
    G = A - B
    F = C + G
    return tuple.__new__(ExtendedPoint, (E * F % P, G * H % P, F * G % P, E * H % P))


def point_equal(p1: ExtendedPoint, p2: ExtendedPoint) -> bool:
    """Projective equality by cross-multiplication; no inversions."""
    return (
        (p1.X * p2.Z - p2.X * p1.Z) % P == 0
        and (p1.Y * p2.Z - p2.Y * p1.Z) % P == 0
    )


def scalar_mul(k: int, pt: ExtendedPoint) -> ExtendedPoint:
    """k*pt as the one-term multi_scalar_mul, whose loop and errors it
    shares: NEUTRAL for k == 0, and k may exceed the group order."""
    return multi_scalar_mul([(k, pt)])


def multi_scalar_mul(terms) -> ExtendedPoint:
    """sum(k_i * P_i) for (k_i, P_i) in terms, by the field's loop with
    point_add_cached as its combine, point_double as its square and
    from_cached as its start, so table building never doubles.  The only
    user of point_double.  P_i may be a point_comb; any other P_i is
    converted by to_cached.  An empty or all-zero term list gives the
    neutral point.
    """
    acc = straus(((k, pt if isinstance(pt, Comb) else to_cached(pt)) for k, pt in terms),
                 point_add_cached, point_double, from_cached)
    return NEUTRAL if acc is None else acc


def point_comb(*points: ExtendedPoint) -> Comb:
    """The comb of the points for scalars below 2^256, and 2^253 from five
    points on: two tables of eight 16-bit pieces for one point, four of 32
    for two, two of 64 for three or four, and one of one piece from five.
    Each entry (x, y) is kept as to_cached of (x : y : 1 : xy), by one
    to_affine_all over both tables."""
    entry = lambda x, y: to_cached((x, y, 1, x * y % P))
    return comb(points, Q.bit_length(), point_add, lambda p, k: scalar_mul(k, p),
                lambda entries: to_affine_all(entries, entry))


def scalar_mul_counted(k: int, pt: ExtendedPoint) -> tuple[ExtendedPoint, int, int]:
    """scalar_mul plus its (doubles, adds) counts, for the complexity checks:
    the one-term multi_scalar_mul starts from pt at the top bit of k, so it
    makes bit_length(k) - 1 doublings and popcount(k) - 1 adds."""
    if k < 1:
        raise ValueError("counted multiplication needs k >= 1")
    return scalar_mul(k, pt), k.bit_length() - 1, k.bit_count() - 1
