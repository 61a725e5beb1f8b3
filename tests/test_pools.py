"""Pool state, partition fractions, and compartment matrices."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import socchange as sc
from socchange.errors import ConfigError

T = 12.0


class TestPartitionFractions:
    def test_clay50_matches_arbitrary_precision_evaluation(self):
        # frozen from a 40-digit evaluation of the three formulas
        alpha, beta, delta = sc.build_partition_fractions(50.0)
        assert alpha == pytest.approx(0.1110577847826504228, abs=1e-15)
        assert beta == pytest.approx(0.13037218213615484415, abs=1e-15)
        assert delta == pytest.approx(0.75857003308119473305, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_alpha_plus_beta_is_inverse_texture(self, cly):
        alpha, beta, delta = sc.build_partition_fractions(cly)
        x = 1.67 * (1.85 + 1.60 * np.exp(-0.0786 * cly))
        assert alpha + beta == pytest.approx(1.0 / (x + 1.0), rel=1e-14)
        assert 0.0 < delta < 1.0
        assert delta == pytest.approx(1.0 - alpha - beta, abs=1e-15)

    @pytest.mark.parametrize("cly", [-0.1, 100.5, 1e6])
    def test_clay_out_of_range_rejected(self, cly):
        with pytest.raises(ConfigError):
            sc.build_partition_fractions(cly)


class TestRateConstants:
    def test_monthly_values(self):
        k = sc.default_rate_constants(12.0)
        np.testing.assert_allclose(k, [10 / 12, 0.3 / 12, 0.66 / 12, 0.02 / 12],
                                   rtol=1e-15)

    def test_identity_scaling(self):
        np.testing.assert_array_equal(sc.default_rate_constants(1.0),
                                      [10.0, 0.3, 0.66, 0.02])

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_and_dpm_fastest(self, T):
        k = sc.default_rate_constants(T)
        assert np.all(k > 0)
        assert k[0] == np.max(k)

    def test_nonpositive_T_rejected(self):
        with pytest.raises(ConfigError):
            sc.default_rate_constants(0.0)


def _reference_matrix(alpha, beta, k):
    # assembled entry by entry from the standard RothC flow structure,
    # independent of the factored construction used by the package
    return np.array([
        [-k[0], 0.0, 0.0, 0.0],
        [0.0, -k[1], 0.0, 0.0],
        [alpha * k[0], alpha * k[1], (alpha - 1.0) * k[2], alpha * k[3]],
        [beta * k[0], beta * k[1], beta * k[2], (beta - 1.0) * k[3]],
    ])


@pytest.fixture(scope="module")
def mats50():
    params = sc.SoilParams.for_site(50.0, 23.0, 1.44)
    return params, sc.build_matrices(params)


class TestBuildMatrices:
    def test_matches_entrywise_layout(self, mats50):
        params, mats = mats50
        expected = _reference_matrix(params.alpha, params.beta, params.k)
        np.testing.assert_allclose(mats.A, expected, rtol=0, atol=1e-16)

    def test_lambda_rows(self, mats50):
        params, mats = mats50
        np.testing.assert_array_equal(mats.Lambda[0], np.zeros(4))
        np.testing.assert_array_equal(mats.Lambda[1], np.zeros(4))
        np.testing.assert_array_equal(mats.Lambda[2], np.full(4, params.alpha))
        np.testing.assert_array_equal(mats.Lambda[3], np.full(4, params.beta))

    def test_column_sums(self, mats50):
        params, mats = mats50
        np.testing.assert_allclose(mats.A.sum(axis=0), -params.delta * params.k,
                                   rtol=1e-13)

    def test_atilde_two_routes_agree(self, mats50):
        _, mats = mats50
        via_inverse = mats.A @ np.linalg.inv(np.eye(4) - mats.Lambda)
        via_similarity = -(mats.i_minus_lambda @ np.diag(mats.k)
                           @ mats.i_minus_lambda_inv)
        scale = np.max(np.abs(via_inverse))
        assert np.max(np.abs(via_inverse - via_similarity)) / scale < 1e-12
        np.testing.assert_allclose(mats.A @ mats.i_minus_lambda_inv,
                                   via_inverse, rtol=1e-12)

    def test_input_directions_normalized(self, mats50):
        _, mats = mats50
        assert mats.a_g.sum() == pytest.approx(1.0, abs=1e-15)
        assert mats.a_f.sum() == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1e3),
           st.floats(min_value=0.0, max_value=0.5))
    def test_direction_sums_for_any_ratio_and_eta(self, r, eta):
        params = sc.SoilParams.for_site(30.0, 23.0, r, eta=eta)
        mats = sc.build_matrices(params)
        assert mats.a_g.sum() == pytest.approx(1.0, abs=1e-12)
        assert mats.a_f.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cly", range(0, 101, 10))
    def test_eigenvalues_strictly_stable(self, cly):
        params = sc.SoilParams.for_site(float(cly), 23.0, 1.0)
        mats = sc.build_matrices(params)
        assert np.linalg.eigvals(mats.A).real.max() < 0

    @pytest.mark.parametrize("cly", [0.0, 23.4, 50.0, 87.0, 100.0])
    def test_i_minus_lambda_determinant_is_delta(self, cly):
        params = sc.SoilParams.for_site(cly, 23.0, 0.25)
        mats = sc.build_matrices(params)
        det = np.linalg.det(mats.i_minus_lambda)
        assert det == pytest.approx(params.delta, abs=1e-12)
        np.testing.assert_allclose(
            mats.i_minus_lambda @ mats.i_minus_lambda_inv, np.eye(4),
            atol=1e-14)

    def test_matrices_built_by_hand_need_delta(self, mats50):
        # a default δ = 0 would give a controlled run with no loss term
        _, mats = mats50
        fields = {name: getattr(mats, name) for name in (
            "A", "Lambda", "a_g", "a_f", "i_minus_lambda",
            "i_minus_lambda_inv", "k")}
        with pytest.raises(TypeError, match="delta"):
            sc.CompartmentMatrices(**fields)
        assert sc.CompartmentMatrices(**fields, delta=mats.delta) == mats


class TestSoilParams:
    def test_gamma_derived_from_ratio(self):
        params = sc.SoilParams.for_site(50.0, 23.0, 1.44)
        assert params.gamma == pytest.approx(1.44 / 2.44, rel=1e-15)
        rebuilt = sc.SoilParams.for_site(params.cly, params.d, 0.25,
                                         eta=params.eta, T=params.T)
        assert rebuilt.gamma == pytest.approx(0.2, rel=1e-15)
        assert params.gamma == pytest.approx(1.44 / 2.44, rel=1e-15)

    def test_eta_default_and_bounds(self):
        assert sc.SoilParams.for_site(50.0, 23.0, 1.0).eta == 0.49
        with pytest.raises(ConfigError):
            sc.SoilParams.for_site(50.0, 23.0, 1.0, eta=0.6)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError):
            sc.SoilParams.for_site(50.0, 23.0, -0.1)
        # NaN passed the sign test to gamma = nan and a_g = [nan, nan, 0, 0]
        with pytest.raises(ConfigError,
                           match="DPM/RPM ratio must be >= 0, got nan"):
            sc.SoilParams.for_site(50.0, 23.0, float("nan"))
