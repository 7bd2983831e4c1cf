import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delam2d.constitutive import (
    AdhesiveLaw,
    IsotropicElasticity,
    ViscosityLaw,
    adhesive_energy_density,
    dissipation_threshold,
    elasticity_tensor,
    mode_mixity_angle,
)

BENCH_ADHESIVE = AdhesiveLaw(
    kappa_n=150e9, kappa_t=75e9, mode1_toughness=187.5, mode_sensitivity=0.333
)


class TestElasticityTensor:
    def test_benchmark_values(self):
        C = elasticity_tensor(IsotropicElasticity(E=70e9, nu=0.35))
        assert C[0, 0] == pytest.approx(1.1234567901234568e11, rel=1e-14)
        assert C[0, 1] == pytest.approx(6.049382716049383e10, rel=1e-14)
        assert C[2, 2] == pytest.approx(2.5925925925925926e10, rel=1e-14)
        assert C[1, 1] == C[0, 0]
        assert C[1, 0] == C[0, 1]
        assert C[0, 2] == C[1, 2] == 0.0

    def test_symmetric_positive_definite(self):
        C = elasticity_tensor(IsotropicElasticity(E=1.0, nu=0.3))
        assert np.allclose(C, C.T)
        assert np.linalg.eigvalsh(C).min() > 0.0

    @given(
        E=st.floats(1e3, 1e12),
        nu=st.floats(-0.9, 0.49, exclude_max=True),
    )
    @settings(max_examples=50)
    def test_positive_definite_over_range(self, E, nu):
        C = elasticity_tensor(IsotropicElasticity(E=E, nu=nu))
        assert np.linalg.eigvalsh(C).min() > 0.0

    def test_rejects_incompressible(self):
        with pytest.raises(ValueError):
            IsotropicElasticity(E=1.0, nu=0.5)
        with pytest.raises(ValueError):
            IsotropicElasticity(E=-1.0, nu=0.3)


class TestViscosity:
    def test_zero_chi_warns_but_builds(self):
        with pytest.warns(UserWarning):
            law = ViscosityLaw(chi=0.0)
        assert law.chi == 0.0

    def test_negative_chi_rejected(self):
        with pytest.raises(ValueError):
            ViscosityLaw(chi=-1e-3)


class TestModeMixityAngle:
    def test_pure_opening_is_zero(self):
        n = np.array([0.0, -1.0])
        assert mode_mixity_angle(1e-4 * n, n, BENCH_ADHESIVE) == 0.0

    def test_pure_sliding_is_half_pi(self):
        n = np.array([0.0, -1.0])
        t = np.array([1.0, 0.0])
        assert mode_mixity_angle(1e-4 * t, n, BENCH_ADHESIVE) == 0.5 * math.pi

    def test_zero_jump_is_zero(self):
        n = np.array([0.0, -1.0])
        assert mode_mixity_angle(np.zeros(2), n, BENCH_ADHESIVE) == 0.0

    def test_equal_components_benchmark_stiffnesses(self):
        # kappa_t / kappa_n = 1/2, equal jump components: arctan(sqrt(1/2)).
        n = np.array([0.0, -1.0])
        jump = np.array([3e-5, -3e-5])  # j_n = 3e-5 > 0, |j_t| = 3e-5
        psi = mode_mixity_angle(jump, n, BENCH_ADHESIVE)
        assert psi == pytest.approx(0.6154797086703874, abs=1e-15)

    def test_regularization_pulls_angle_down(self):
        law = AdhesiveLaw(
            kappa_n=150e9,
            kappa_t=75e9,
            mode1_toughness=187.5,
            mode_sensitivity=0.333,
            mixity_regularization=1.0,
        )
        n = np.array([0.0, -1.0])
        t = np.array([1.0, 0.0])
        psi = mode_mixity_angle(1e-6 * t, n, law)
        assert 0.0 < psi < 0.5 * math.pi

    @given(
        jn=st.floats(-1e-3, 1e-3),
        jt=st.floats(-1e-3, 1e-3),
        theta=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=100)
    def test_rotation_invariance(self, jn, jt, theta):
        n0 = np.array([0.0, -1.0])
        t0 = np.array([1.0, 0.0])
        jump0 = jn * n0 + jt * t0
        R = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        a = mode_mixity_angle(jump0, n0, BENCH_ADHESIVE)
        b = mode_mixity_angle(R @ jump0, R @ n0, BENCH_ADHESIVE)
        assert b == pytest.approx(a, abs=1e-9)

    @given(scale=st.floats(1e-8, 1e8))
    @settings(max_examples=50)
    def test_scale_invariance_without_regularization(self, scale):
        n = np.array([0.0, -1.0])
        jump = np.array([2e-5, -1e-5])
        a = mode_mixity_angle(jump, n, BENCH_ADHESIVE)
        b = mode_mixity_angle(scale * jump, n, BENCH_ADHESIVE)
        assert b == pytest.approx(a, abs=1e-10)


class TestDissipationThreshold:
    def test_pure_opening_gives_mode1_toughness(self):
        assert dissipation_threshold(0.0, BENCH_ADHESIVE) == 187.5

    def test_exact_third_gives_ratio_four(self):
        law = AdhesiveLaw(
            kappa_n=150e9,
            kappa_t=75e9,
            mode1_toughness=187.5,
            mode_sensitivity=1.0 / 3.0,
        )
        ratio = dissipation_threshold(0.5 * math.pi, law) / dissipation_threshold(0.0, law)
        assert ratio == pytest.approx(4.0, abs=1e-9)

    def test_benchmark_sensitivity_ratio_frozen(self):
        # Independent evaluation of a_I (1 + tan^2(0.667 * pi/2)) / a_I.
        ratio = dissipation_threshold(
            0.5 * math.pi, BENCH_ADHESIVE
        ) / dissipation_threshold(0.0, BENCH_ADHESIVE)
        assert ratio == pytest.approx(4.007266178288704, rel=1e-12)

    def test_monotone_in_angle(self):
        angles = np.linspace(0.0, 0.5 * math.pi, 200)
        vals = [dissipation_threshold(a, BENCH_ADHESIVE) for a in angles]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))

    def test_zero_sensitivity_sliding_is_unbounded(self):
        law = AdhesiveLaw(
            kappa_n=150e9, kappa_t=75e9, mode1_toughness=187.5, mode_sensitivity=0.0
        )
        assert dissipation_threshold(0.5 * math.pi, law) == math.inf
        assert math.isfinite(dissipation_threshold(0.5 * math.pi - 1e-6, law))

    def test_rejects_angle_outside_range(self):
        with pytest.raises(ValueError):
            dissipation_threshold(-0.1, BENCH_ADHESIVE)
        with pytest.raises(ValueError):
            dissipation_threshold(2.0, BENCH_ADHESIVE)

    @given(lam=st.floats(0.0, 0.99), angle=st.floats(0.0, 0.5 * math.pi))
    @settings(max_examples=100)
    def test_at_least_mode1(self, lam, angle):
        law = AdhesiveLaw(
            kappa_n=1.0, kappa_t=1.0, mode1_toughness=2.5, mode_sensitivity=lam
        )
        assert dissipation_threshold(angle, law) >= 2.5


class TestAdhesiveEnergyDensity:
    def test_pure_opening_value(self):
        n = np.array([0.0, -1.0])
        jump = 1e-4 * n  # opening gap of 1e-4 m
        val = adhesive_energy_density(jump, 1.0, BENCH_ADHESIVE, n)
        assert val == pytest.approx(750.0, rel=1e-12)

    def test_scales_linearly_in_bond_fraction(self):
        n = np.array([0.0, -1.0])
        jump = np.array([2e-5, -1e-5])
        full = adhesive_energy_density(jump, 1.0, BENCH_ADHESIVE, n)
        half = adhesive_energy_density(jump, 0.5, BENCH_ADHESIVE, n)
        assert half == pytest.approx(0.5 * full, rel=1e-14)
        assert adhesive_energy_density(jump, 0.0, BENCH_ADHESIVE, n) == 0.0

    def test_rejects_bond_outside_unit_interval(self):
        n = np.array([0.0, -1.0])
        with pytest.raises(ValueError):
            adhesive_energy_density(np.zeros(2), 1.5, BENCH_ADHESIVE, n)

    @given(
        jx=st.floats(-1e-3, 1e-3),
        jy=st.floats(-1e-3, 1e-3),
        z=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100)
    def test_nonnegative(self, jx, jy, z):
        n = np.array([0.0, -1.0])
        assert adhesive_energy_density(np.array([jx, jy]), z, BENCH_ADHESIVE, n) >= 0.0


class TestAdhesiveLawValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdhesiveLaw(kappa_n=0.0, kappa_t=1.0, mode1_toughness=1.0, mode_sensitivity=0.5)
        with pytest.raises(ValueError):
            AdhesiveLaw(kappa_n=1.0, kappa_t=-1.0, mode1_toughness=1.0, mode_sensitivity=0.5)
        with pytest.raises(ValueError):
            AdhesiveLaw(kappa_n=1.0, kappa_t=1.0, mode1_toughness=0.0, mode_sensitivity=0.5)
        with pytest.raises(ValueError):
            AdhesiveLaw(kappa_n=1.0, kappa_t=1.0, mode1_toughness=1.0, mode_sensitivity=1.0)


class TestScalarWrappersMatchVectorizedLaw:
    LAWS = [
        BENCH_ADHESIVE,
        AdhesiveLaw(kappa_n=2.0, kappa_t=1.0, mode1_toughness=1.0, mode_sensitivity=0.0),
        AdhesiveLaw(
            kappa_n=150e9,
            kappa_t=75e9,
            mode1_toughness=187.5,
            mode_sensitivity=0.333,
            mixity_regularization=1e-3,
        ),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=["bench", "lambda0", "eps_reg"])
    def test_elementwise_agreement(self, law):
        theta = 0.7
        n = np.array([math.cos(theta), math.sin(theta)])
        t = np.array([-n[1], n[0]])
        rng = np.random.default_rng(21)
        comps = np.vstack(
            [
                [[0.0, 0.0], [1e-4, 0.0], [0.0, 1e-4], [-2e-5, 3e-5]],
                1e-4 * rng.normal(size=(16, 2)),
            ]
        )
        jumps = [jn * n + jt * t for jn, jt in comps]
        j_n = np.array([float(j @ n) for j in jumps])
        j_t = np.array([float(j @ t) for j in jumps])

        psi = law.mixity(j_n, j_t)
        density = law.energy_density(j_n, j_t)
        for i, jump in enumerate(jumps):
            assert mode_mixity_angle(jump, n, law) == psi[i]
            assert adhesive_energy_density(jump, 0.5, law, n) == 0.5 * density[i]

        angles = np.append(psi, [0.0, 0.25 * math.pi, 0.5 * math.pi])
        thresholds = law.threshold(angles)
        for angle, value in zip(angles, thresholds):
            assert dissipation_threshold(float(angle), law) == value

    def test_lambda_zero_pure_shear_is_unbounded(self):
        law = self.LAWS[1]
        psi = law.mixity(np.array([0.0]), np.array([1e-4]))
        assert psi[0] == 0.5 * math.pi
        assert law.threshold(psi)[0] == math.inf
        assert dissipation_threshold(0.5 * math.pi, law) == math.inf

    def test_regularization_keeps_zero_normal_jump_finite(self):
        law = self.LAWS[2]
        psi = law.mixity(np.array([0.0, 0.0]), np.array([0.0, 1e-6]))
        assert psi[0] == 0.0
        assert 0.0 < psi[1] < 0.5 * math.pi
