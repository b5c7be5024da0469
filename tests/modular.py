"""Two results of the paper that only the tests check.

The Newton quotient on level 50,

    phi = eta(t) eta(50t)^2 / (eta(2t)^2 eta(25t)) = q^3 + O(q^4),

whose powers phi^mu | U_5 have closed forms in the hauptmodul G
(acceptance criterion 4), and the modular transformation of the partition
generating function F(q) = 1/(q;q)_inf (criterion 7),

    F(exp(2 pi i h/k - 2 pi z/k^2))
        = e^(pi i s(h,k)) (z/k)^(1/2) exp(pi/(12 z) - pi z/(12 k^2))
          * F(exp(2 pi i H/k - 2 pi/z)),        h H == -1 (mod k), Re z > 0,

with s(h,k) the package's Dedekind sum and F from ``mpmath.qp``.
"""

from mpmath import exp, expjpi, mpf, mpmathify, pi, qp, sqrt, workprec

from crankparity.circle import dedekind_sum
from crankparity.series import EtaQuotientSpec, apply_U, eta_quotient

PHI_SPEC = EtaQuotientSpec(((1, 1), (2, -2), (50, 2), (25, -1)))


def spec_power(spec: EtaQuotientSpec, n: int) -> EtaQuotientSpec:
    """The eta quotient spec^n: every exponent times n."""
    return EtaQuotientSpec((d, r * n) for d, r in spec.factors)


def phi_power_u5(mu: int, order: int):
    """phi^mu | U_5 for PHI_SPEC as it stands when called, exact below
    q^order (mu may be negative)."""
    return apply_U(5, eta_quotient(spec_power(PHI_SPEC, mu),
                                   5 * (order - 1) + 1))


def eta_transformation_check(h: int, k: int, z, precision_bits: int = 128):
    """|LHS - RHS| of the transformation at coprime h, k >= 1 and Re z > 0,
    with s(h,k) from ``dedekind_sum`` as it stands when called."""
    with workprec(precision_bits + 32):
        z = mpmathify(z)
        lhs = 1 / qp(exp(2j * pi * h / k - 2 * pi * z / k ** 2))
        rhs_q = exp(2j * pi * (-pow(h, -1, k) % k) / k - 2 * pi / z)
        s = dedekind_sum(h, k)
        rhs = (expjpi(mpf(s.numerator) / s.denominator) * sqrt(z / k)
               * exp(pi / (12 * z) - pi * z / (12 * k ** 2)) / qp(rhs_q))
        return +abs(lhs - rhs)
