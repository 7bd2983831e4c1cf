import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delam2d.assembly import jump_operator
from delam2d.constitutive import (
    AdhesiveLaw,
    IsotropicElasticity,
    ViscosityLaw,
    elasticity_tensor,
)
from delam2d.mesh import InterfaceSegment, Mesh2D

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
        assert BENCH_ADHESIVE.mixity(1e-4, 0.0) == 0.0

    def test_pure_sliding_is_half_pi(self):
        assert BENCH_ADHESIVE.mixity(0.0, 1e-4) == 0.5 * math.pi

    def test_subnormal_normal_jump_is_half_pi_without_warning(self):
        # kappa_n j_n^2 is subnormal, so the ratio under the root overflows
        # to inf; arctan(inf) = pi/2 is the right angle and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = BENCH_ADHESIVE.mixity(1e-160, 1.0)
        assert psi == 0.5 * math.pi

    def test_zero_jump_is_zero(self):
        assert BENCH_ADHESIVE.mixity(0.0, 0.0) == 0.0

    def test_equal_components_benchmark_stiffnesses(self):
        # kappa_t / kappa_n = 1/2, equal jump components: arctan(sqrt(1/2)).
        psi = BENCH_ADHESIVE.mixity(3e-5, 3e-5)
        assert psi == pytest.approx(0.6154797086703874, abs=1e-15)

    def test_regularization_pulls_angle_down(self):
        law = AdhesiveLaw(
            kappa_n=150e9,
            kappa_t=75e9,
            mode1_toughness=187.5,
            mode_sensitivity=0.333,
            mixity_regularization=1.0,
        )
        psi = law.mixity(0.0, 1e-6)
        assert 0.0 < psi < 0.5 * math.pi

    def test_regularization_keeps_zero_normal_jump_finite(self):
        law = AdhesiveLaw(
            kappa_n=150e9,
            kappa_t=75e9,
            mode1_toughness=187.5,
            mode_sensitivity=0.333,
            mixity_regularization=1e-3,
        )
        psi = law.mixity(np.array([0.0, 0.0]), np.array([0.0, 1e-6]))
        assert psi[0] == 0.0
        assert 0.0 < psi[1] < 0.5 * math.pi

    @given(
        jn=st.floats(-1e-3, 1e-3),
        jt=st.floats(-1e-3, 1e-3),
        theta=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=100)
    def test_rotation_invariance(self, jn, jt, theta):
        # One rigid-foundation segment: the jump operator reads the frame off
        # the segment normal, so turning the normal and the displacement
        # together must leave the mixity unchanged.
        R = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        n0 = np.array([0.0, -1.0])
        t0 = np.array([1.0, 0.0])
        u0 = -(jn * n0 + jt * t0)  # rigid side: the jump is minus the body trace

        def mixity(normal, u_node):
            mesh = Mesh2D(
                nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                triangles=np.array([[0, 1, 2]]),
                interface_segments=(
                    InterfaceSegment((0, 1), (0, 1), tuple(normal.tolist()), 1.0),
                ),
                dirichlet_nodes=frozenset(),
                foundation="rigid",
                h=1.0,
            )
            u = np.concatenate([u_node, u_node, np.zeros(2)])
            j = jump_operator(mesh).values(u)
            return BENCH_ADHESIVE.mixity(j[..., 0], j[..., 1])

        a = mixity(n0, u0)
        b = mixity(R @ n0, R @ u0)
        assert a.shape == b.shape == (1, 2)
        assert np.allclose(b, a, rtol=0.0, atol=1e-9)

    @given(scale=st.floats(1e-8, 1e8))
    @settings(max_examples=50)
    def test_scale_invariance_without_regularization(self, scale):
        a = BENCH_ADHESIVE.mixity(2e-5, 1e-5)
        b = BENCH_ADHESIVE.mixity(scale * 2e-5, scale * 1e-5)
        assert b == pytest.approx(a, abs=1e-10)


class TestDissipationThreshold:
    def test_pure_opening_gives_mode1_toughness(self):
        assert BENCH_ADHESIVE.threshold(0.0) == 187.5

    def test_exact_third_gives_ratio_four(self):
        law = AdhesiveLaw(
            kappa_n=150e9,
            kappa_t=75e9,
            mode1_toughness=187.5,
            mode_sensitivity=1.0 / 3.0,
        )
        ratio = float(law.threshold(0.5 * math.pi)) / float(law.threshold(0.0))
        assert ratio == pytest.approx(4.0, abs=1e-9)

    def test_benchmark_sensitivity_ratio_frozen(self):
        # Independent evaluation of a_I (1 + tan^2(0.667 * pi/2)) / a_I.
        ratio = float(BENCH_ADHESIVE.threshold(0.5 * math.pi)) / float(
            BENCH_ADHESIVE.threshold(0.0)
        )
        assert ratio == pytest.approx(4.007266178288704, rel=1e-12)

    def test_monotone_in_angle(self):
        vals = BENCH_ADHESIVE.threshold(np.linspace(0.0, 0.5 * math.pi, 200))
        assert np.all(np.diff(vals) >= 0.0)

    def test_zero_sensitivity_sliding_is_unbounded(self):
        law = AdhesiveLaw(
            kappa_n=150e9, kappa_t=75e9, mode1_toughness=187.5, mode_sensitivity=0.0
        )
        assert law.threshold(0.5 * math.pi) == math.inf
        assert math.isfinite(law.threshold(0.5 * math.pi - 1e-6))

    def test_lambda_zero_pure_shear_is_unbounded(self):
        # the mixity of a pure shear jump lands exactly on the pole of a(psi)
        law = AdhesiveLaw(kappa_n=2.0, kappa_t=1.0, mode1_toughness=1.0, mode_sensitivity=0.0)
        psi = law.mixity(np.array([0.0]), np.array([1e-4]))
        assert psi[0] == 0.5 * math.pi
        assert law.threshold(psi)[0] == math.inf

    @given(lam=st.floats(0.0, 0.99), angle=st.floats(0.0, 0.5 * math.pi))
    @settings(max_examples=100)
    def test_at_least_mode1(self, lam, angle):
        law = AdhesiveLaw(
            kappa_n=1.0, kappa_t=1.0, mode1_toughness=2.5, mode_sensitivity=lam
        )
        assert law.threshold(angle) >= 2.5


class TestAdhesiveEnergyDensity:
    def test_pure_opening_value(self):
        # opening gap of 1e-4 m
        val = BENCH_ADHESIVE.energy_density(1e-4, 0.0)
        assert val == pytest.approx(750.0, rel=1e-12)

    @given(
        jn=st.floats(-1e-3, 1e-3),
        jt=st.floats(-1e-3, 1e-3),
    )
    @settings(max_examples=100)
    def test_nonnegative(self, jn, jt):
        assert BENCH_ADHESIVE.energy_density(jn, jt) >= 0.0


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
