"""Twisted Edwards group: -x^2 + y^2 = 1 + d*x^2*y^2 over GF(2^255-19).

Points are held in extended homogeneous coordinates (X:Y:Z:T) with
x = X/Z, y = Y/Z, xy = T/Z, so addition and doubling need no field
inversions; the one inversion, in ``to_affine``, is ``field.fe_inv``.
A sum of scalar multiples (``multi_scalar_mul``), which also gives the
verifier its joint z*B - c*Q_pub, is the field's one exponentiation loop,
Straus's simultaneous method, run with point addition and doubling; a
single scalar multiple (``scalar_mul``) is its one-term case.  Callers
keep the comb tables (``point_comb``) of fixed points; there are no window
tables, no signed recoding, and nothing here is constant-time.
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


def to_affine(pt: ExtendedPoint) -> AffinePoint:
    """(X/Z, Y/Z); fe_inv raises ZeroInverse for Z == 0."""
    z_inv = fe_inv(pt.Z)
    return AffinePoint(pt.X * z_inv % P, pt.Y * z_inv % P)


def point_add(p1: ExtendedPoint, p2: ExtendedPoint) -> ExtendedPoint:
    """Unified extended-coordinate addition; also valid for p1 == p2."""
    X1, Y1, Z1, T1 = p1
    X2, Y2, Z2, T2 = p2
    A = (Y1 - X1) * (Y2 - X2) % P
    B = (Y1 + X1) * (Y2 + X2) % P
    C = 2 * D * T1 % P * T2 % P
    Dv = 2 * Z1 * Z2 % P
    E = (B - A) % P
    F = (Dv - C) % P
    G = (Dv + C) % P
    H = (B + A) % P
    return ExtendedPoint(E * F % P, G * H % P, F * G % P, E * H % P)


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
    H = (B + A) % P
    E = (H - Dv) % P
    G = (A - B) % P
    F = (C + G) % P
    return ExtendedPoint(E * F % P, G * H % P, F * G % P, E * H % P)


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
    point_add as its combine and point_double as its square, so table
    building never doubles.  The only user of point_double.  P_i may be a
    point_comb.  An empty or all-zero term list gives the neutral point.
    """
    acc = straus(terms, point_add, point_double)
    return NEUTRAL if acc is None else acc


def point_comb(*points: ExtendedPoint) -> Comb:
    """The comb of the points for scalars of up to Q's 253 bits: eight
    pieces of 32 bits for one point, four of 64 for two, two of 127 for
    three or four, and one for five or more."""
    return comb(points, Q.bit_length(), point_add, lambda p, k: scalar_mul(k, p))


def scalar_mul_counted(k: int, pt: ExtendedPoint) -> tuple[ExtendedPoint, int, int]:
    """scalar_mul plus its (doubles, adds) counts, for the complexity checks:
    the one-term multi_scalar_mul starts from pt at the top bit of k, so it
    makes bit_length(k) - 1 doublings and popcount(k) - 1 adds."""
    if k < 1:
        raise ValueError("counted multiplication needs k >= 1")
    return scalar_mul(k, pt), k.bit_length() - 1, k.bit_count() - 1
