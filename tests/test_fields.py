import dataclasses

import numpy as np
import pytest

from greenbox import (ConfigError, PeriodicField, evaluate, make_field,
                      transpose_field, verify_coercivity, verify_periodicity)


def test_identity_evaluate():
    f = make_field("identity", 2)
    assert np.array_equal(evaluate(f, (0.37, -1.2)), np.eye(2))


def test_scalar_trig_quarter_cell():
    # a(x) = 2 + sin(2 pi x1) sin(2 pi x2) = 3 at (1/4, 1/4)
    f = make_field("scalar_trig", 2)
    np.testing.assert_allclose(evaluate(f, (0.25, 0.25)), 3.0 * np.eye(2),
                               rtol=1e-14)


def test_nonsym_skew_constant():
    # the symmetric part is the constant I; the skew part is s(x) J with
    # s(x) = 0.3 (1 + sin(2 pi x1) cos(2 pi x2))
    f = make_field("nonsym_skew", 2)
    assert f.alpha == 1.0 and f.bound == 1.0
    assert make_field("nonsym_skew", 2, (0.8,)).bound == 1.6  # max(1, 2|s|)
    for pt, s in [((0.0, 0.0), 0.3), ((0.25, 0.0), 0.6), ((0.25, 0.5), 0.0)]:
        np.testing.assert_allclose(evaluate(f, pt), [[1.0, s], [-s, 1.0]],
                                   rtol=0, atol=1e-15)


def test_evaluate_batch_shape():
    f = make_field("diag_aniso", 3)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(7, 4, 3))
    out = evaluate(f, pts)
    assert out.shape == (7, 4, 3, 3)


def test_evaluate_deterministic_bitwise():
    for fam in ("identity", "scalar_trig", "diag_aniso", "nonsym_skew"):
        f = make_field(fam, 2)
        pts = np.random.default_rng(1).uniform(-3, 3, size=(50, 2))
        assert np.array_equal(evaluate(f, pts), evaluate(f, pts))


def test_exact_periodicity():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, size=(40, 2))
    shifts = rng.integers(-3, 4, size=(40, 2))
    for fam in ("identity", "scalar_trig", "diag_aniso", "nonsym_skew"):
        f = make_field(fam, 2)
        err = np.abs(evaluate(f, pts + shifts) - evaluate(f, pts)).max()
        assert err <= 1e-14 * f.bound


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        make_field("checkerboard", 2)
    with pytest.raises(ConfigError):
        PeriodicField(2, "mystery", (), alpha=1.0, bound=1.0)


def test_coercivity_identity():
    assert verify_coercivity(make_field("identity", 2)) == pytest.approx(1.0)
    assert verify_coercivity(make_field("identity", 3)) == pytest.approx(1.0)


def test_coercivity_scalar_trig_exact_minimum():
    # the 64-point lattice hits the minimizer of 2 + sin sin exactly
    a_hat = verify_coercivity(make_field("scalar_trig", 2), 64)
    assert a_hat == pytest.approx(1.0, abs=1e-12)


def test_coercivity_skew_part_invisible():
    # xi^T S xi = 0 for the skew part, so alpha_hat stays 1
    a_hat = verify_coercivity(make_field("nonsym_skew", 2), 16)
    assert a_hat == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_coercivity_diag_aniso_within_5pct(dim):
    f = make_field("diag_aniso", dim)
    analytic = min(b - abs(m)
                   for b, m in zip(f.params[:dim], f.params[dim:]))
    a_hat = verify_coercivity(f, 64)
    assert abs(a_hat - analytic) <= 0.05 * analytic


def test_coercivity_rejects_overstated_alpha():
    f = PeriodicField(2, "scalar_trig", (2.0, 1.0, 1.0), alpha=1.9, bound=3.0)
    with pytest.raises(ConfigError):
        verify_coercivity(f)


def test_coercivity_rejects_noncoercive_samples():
    f = PeriodicField(2, "scalar_trig", (0.5, 1.0, 1.0), alpha=0.1, bound=1.5)
    with pytest.raises(ConfigError, match="not coercive"):
        verify_coercivity(f)


def test_periodicity_builtins_true():
    for fam in ("identity", "scalar_trig", "diag_aniso", "nonsym_skew"):
        assert verify_periodicity(make_field(fam, 2), trials=64, seed=3)
        assert verify_periodicity(make_field(fam, 3), trials=16, seed=3)


def test_periodicity_half_integer_frequency_false():
    f = PeriodicField(2, "scalar_trig", (2.0, 1.0, 0.5), alpha=1.0, bound=3.0)
    assert not verify_periodicity(f, trials=64, seed=4)


def test_scalar_trig_non_integer_frequency_rejected():
    # freq 0.5 gives period 2, not 1, which tiled assembly would not notice
    with pytest.raises(ConfigError, match="freq"):
        make_field("scalar_trig", 2, (2.0, 1.0, 0.5))
    assert verify_periodicity(make_field("scalar_trig", 3, (2.0, 1.0, 2.0)))


def test_transpose_field():
    skew = make_field("nonsym_skew", 2)
    skew_t = transpose_field(skew)
    assert skew_t.params == (-0.3,)
    pts = np.random.default_rng(5).uniform(0, 1, size=(10, 2))
    np.testing.assert_array_equal(evaluate(skew_t, pts),
                                  np.swapaxes(evaluate(skew, pts), -1, -2))
    trig = make_field("scalar_trig", 2)
    assert transpose_field(trig) is trig


def test_make_field_parameter_validation():
    with pytest.raises(ConfigError):
        make_field("scalar_trig", 2, (1.0, 2.0, 1.0))  # base <= |amp|
    with pytest.raises(ConfigError):
        make_field("diag_aniso", 2, (1.0, 1.0))  # wrong arity
    with pytest.raises(ConfigError):
        make_field("identity", 4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_parameters_rejected(bad):
    for family, params in (("scalar_trig", (bad, 1.0, 1.0)),
                           ("scalar_trig", (2.0, bad, 1.0)),
                           ("scalar_trig", (2.0, 1.0, bad)),
                           ("diag_aniso", (2.0, 3.0, bad, 0.25)),
                           ("nonsym_skew", (bad,))):
        with pytest.raises(ConfigError):
            make_field(family, 2, params)
    field = make_field("scalar_trig", 2)
    for key in ("alpha", "bound"):
        with pytest.raises(ConfigError):
            dataclasses.replace(field, **{key: bad})
