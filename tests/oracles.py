"""Independent reference implementations used only to cross-check the package.

Everything here deliberately avoids the production code paths: inversion is
extended Euclid, exponentiation is repeated multiplication, and curve
doubling/addition use the affine division formulas instead of extended
coordinates.
"""

P = 2**255 - 19
Q = 2**252 + 27742317777372353535851937790883648493
D = 37095705934669439343138083508754565189542113879843219016388785533085940283555
BASE = (
    15112221349535400772501151409588531511454012693041857206046113283949847762202,
    46316835694926478169428394003475163141307993866256225615783033603165251855960,
)


def egcd_inverse(a, m):
    """Modular inverse via extended Euclid; raises on non-invertible input."""
    old_r, r = a % m, m
    old_s, s = 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    if old_r != 1:
        raise ValueError("not invertible")
    return old_s % m


def repeated_mul_pow(base, exp, m):
    """base**exp mod m by exp-1 explicit multiplications (small exp only)."""
    result = 1 % m
    for _ in range(exp):
        result = result * base % m
    return result


def affine_add(p1, p2):
    """Twisted Edwards addition (a = -1) with field divisions."""
    x1, y1 = p1
    x2, y2 = p2
    dxy = D * x1 % P * x2 % P * y1 % P * y2 % P
    x3 = (x1 * y2 + y1 * x2) * egcd_inverse((1 + dxy) % P, P) % P
    y3 = (y1 * y2 + x1 * x2) * egcd_inverse((1 - dxy) % P, P) % P
    return x3, y3


def affine_double(p1):
    """Doubling via the curve-equation substitution: the denominators
    1 + d*x^2*y^2 and 1 - d*x^2*y^2 equal -x^2+y^2 and 2-(-x^2+y^2)."""
    x, y = p1
    xx = x * x % P
    yy = y * y % P
    denom = (yy - xx) % P
    x3 = 2 * x * y % P * egcd_inverse(denom, P) % P
    y3 = (yy + xx) * egcd_inverse((2 - denom) % P, P) % P
    return x3, y3


def ge_precomp(p1):
    """An affine point as a kept table entry: Ed25519's ge_precomp form
    (y+x, y-x, 2d*x*y), with 2Z = 2 as its third coordinate."""
    x, y = p1
    return (y + x) % P, (y - x) % P, 2, 2 * D * x * y % P


def affine_scalar_mul(k, p1):
    """Repeated affine addition; identity is (0, 1)."""
    acc = (0, 1)
    for _ in range(k):
        acc = affine_add(acc, p1)
    return acc


def affine_double_and_add(k, p1):
    """k*p1 by right-to-left double-and-add with the affine formulas."""
    acc = (0, 1)
    while k:
        if k & 1:
            acc = affine_add(acc, p1)
        p1 = affine_double(p1)
        k >>= 1
    return acc


def schnorr_equation_holds(response, challenge, nonce_point, public):
    """z*B == R + c*Q_pub for affine R and Q_pub, with z*B and c*Q_pub as two
    separate scalar multiplications."""
    lhs = affine_double_and_add(response, BASE)
    rhs = affine_add(nonce_point, affine_double_and_add(challenge, public))
    return lhs == rhs


def strong_probable_prime(n, base):
    """The Miller-Rabin test of odd n > base to one base, by builtin pow."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# No composite below 3.18 * 10^23 is a strong probable prime to all of the
# first twelve primes (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", 2015).
PRIME_BASES_TO_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_below_3e23(n):
    """Deterministic Miller-Rabin for n < 3.18 * 10^23."""
    if n < 2:
        return False
    for p in PRIME_BASES_TO_37:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in PRIME_BASES_TO_37)


def primes_below(bound):
    """The primes below bound, by a list-based sieve of Eratosthenes."""
    is_prime = [n >= 2 for n in range(bound)]
    for p in range(2, bound):
        if is_prime[p]:
            for multiple in range(p * p, bound, p):
                is_prime[multiple] = False
    return [n for n in range(bound) if is_prime[n]]
