"""Material and interface constitutive laws.

Bulk response is plane-strain isotropic Kelvin-Voigt: the viscous moduli
are a single relaxation time multiplying the elastic tensor.  The
adhesive interface carries a quadratic energy in the displacement jump,
weighted by the surviving bond fraction, and dissipates an amount per
debonded area that grows with the mode-mixity angle from the opening
toughness toward the (larger) shearing one.

Voigt convention throughout: strain components ordered (e11, e22, 2*e12),
so the stored energy density is 0.5 * e . C e with a symmetric 3x3 C.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IsotropicElasticity",
    "ViscosityLaw",
    "AdhesiveLaw",
    "elasticity_tensor",
]

HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class IsotropicElasticity:
    """Plane-strain isotropic elastic material.

    E is the Young modulus in Pa, nu the Poisson ratio.  nu = 0.5 is
    excluded: the plane-strain stiffness blows up in the incompressible
    limit.
    """

    E: float
    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.E) and self.E > 0.0):
            raise ValueError(f"Young modulus must be positive and finite, got {self.E}")
        if not (-1.0 < self.nu < 0.5):
            raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {self.nu}")


@dataclass(frozen=True)
class ViscosityLaw:
    """Kelvin-Voigt viscosity proportional to the elastic tensor.

    The viscous moduli are chi * C where chi is a relaxation time in
    seconds.  chi = 0 degenerates to pure elasticity; the incremental
    problems stay convex and solvable, but the viscous dissipation that
    the convergence theory leans on disappears, so it is allowed only
    with a warning.
    """

    chi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi) and self.chi >= 0.0):
            raise ValueError(f"relaxation time must be nonnegative, got {self.chi}")
        if self.chi == 0.0:
            warnings.warn(
                "chi = 0 removes bulk viscosity; the incremental problems remain "
                "convex but the usual convergence guarantees are lost",
                stacklevel=3,  # past the generated __init__, at its caller
            )


@dataclass(frozen=True)
class AdhesiveLaw:
    """Adhesive interface: elastic glue stiffness and mode-dependent toughness.

    kappa_n, kappa_t   normal / tangential glue stiffness (Pa/m)
    mode1_toughness    dissipation per unit area for pure opening (J/m^2)
    mode_sensitivity   the lambda in the threshold formula, in [0, 1);
                       larger values flatten the mode dependence
    mixity_regularization
                       additive regularization in the mixity denominator,
                       same units as kappa * jump^2 (J/m^2); 0 disables it
    """

    kappa_n: float
    kappa_t: float
    mode1_toughness: float
    mode_sensitivity: float
    mixity_regularization: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa_n) and self.kappa_n > 0.0):
            raise ValueError(f"kappa_n must be positive, got {self.kappa_n}")
        if not (math.isfinite(self.kappa_t) and self.kappa_t >= 0.0):
            raise ValueError(f"kappa_t must be nonnegative, got {self.kappa_t}")
        if not (math.isfinite(self.mode1_toughness) and self.mode1_toughness > 0.0):
            raise ValueError(
                f"mode-I toughness must be positive, got {self.mode1_toughness}"
            )
        if not 0.0 <= self.mode_sensitivity < 1.0:
            raise ValueError(
                f"mode sensitivity must lie in [0, 1), got {self.mode_sensitivity}"
            )
        if not (
            math.isfinite(self.mixity_regularization)
            and self.mixity_regularization >= 0.0
        ):
            raise ValueError(
                f"mixity regularization must be nonnegative, got {self.mixity_regularization}"
            )

    def energy_density(self, j_n, j_t):
        """Glue energy per unit area of an intact bond, elementwise.

        (1/2)(kappa_n j_n^2 + kappa_t j_t^2) for normal and tangential
        jump components j_n, j_t.
        """
        return 0.5 * (self.kappa_n * j_n * j_n + self.kappa_t * (j_t * j_t))

    def mixity(self, j_n, j_t):
        """Mixity angle in [0, pi/2] of jump components, elementwise.

        The angle is arctan of the square root of the tangential-to-normal
        ratio of the glue energies, kappa_t j_t^2 over
        kappa_n j_n^2 + regularization.  Pure opening gives 0, pure
        sliding gives pi/2.  Without regularization the zero jump is
        assigned angle 0.
        """
        num = self.kappa_t * (np.asarray(j_t, dtype=float) ** 2)
        den = self.kappa_n * j_n * j_n + self.mixity_regularization
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            psi = np.arctan(np.sqrt(num / den))
        return np.where(den > 0.0, psi, np.where(num > 0.0, HALF_PI, 0.0))

    def threshold(self, psi):
        """Dissipation per unit area at mixity angle psi, elementwise.

        a(psi) = a_I (1 + tan^2((1 - lambda) psi)).  Monotone increasing
        on [0, pi/2].  For lambda = 0 the shear limit psi = pi/2 is
        unbounded; that case returns inf as an explicit sentinel rather
        than overflowing inside tan.
        """
        arg = (1.0 - self.mode_sensitivity) * np.asarray(psi, dtype=float)
        ok = arg < HALF_PI
        t = np.tan(np.where(ok, arg, 0.0))
        return np.where(ok, self.mode1_toughness * (1.0 + t * t), np.inf)


def elasticity_tensor(material: IsotropicElasticity) -> np.ndarray:
    """Plane-strain stiffness as a symmetric positive definite 3x3 Voigt matrix."""
    E, nu = material.E, material.nu
    factor = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
    c11 = factor * (1.0 - nu)
    c12 = factor * nu
    c33 = 0.5 * E / (1.0 + nu)
    return np.array(
        [
            [c11, c12, 0.0],
            [c12, c11, 0.0],
            [0.0, 0.0, c33],
        ]
    )
