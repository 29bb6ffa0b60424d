import re

import numpy as np
import pytest

from hydroloc import multilateration
from hydroloc.fusion import EkfState, ekf_predict, ekf_update_depth, ekf_update_fix


# The per-axis white-acceleration density, the only form ekf_predict takes.
Q = (1e-3, 1e-3, 1e-3)


def make_state(mean=None, cov=None):
    if mean is None:
        mean = np.zeros(6)
    if cov is None:
        cov = np.eye(6)
    return EkfState(mean=mean, covariance=cov)


def random_spd(rng, n, scales):
    """A random symmetric positive-definite n x n matrix with the given diagonal scales."""
    a = rng.normal(size=(n, n))
    d = np.sqrt(np.asarray(scales, float))
    return (a @ a.T + n * np.eye(n)) * d[:, None] * d[None, :]


def random_states(seed, count=40):
    """Seeded random filter states: means, SPD covariances, per-axis noise and dt."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        scales = [10.0 ** rng.uniform(-1, 4)] * 3 + [10.0 ** rng.uniform(-3, 0)] * 3
        state = make_state(mean=rng.normal(0.0, 50.0, 6), cov=random_spd(rng, 6, scales))
        yield rng, state, 10.0 ** rng.uniform(-5, -1, 3), rng.uniform(0.0, 20.0)


def dense_joseph(state, h, z, r):
    """The textbook Joseph update with an explicit H and a linear solve."""
    p = state.covariance
    s = h @ p @ h.T + r
    gain = np.linalg.solve(s, h @ p).T
    ikh = np.eye(6) - gain @ h
    return state.mean + gain @ (z - h @ state.mean), ikh @ p @ ikh.T + gain @ r @ gain.T


def assert_close(actual, expected, rtol=1e-12):
    """Equal within rtol of the largest entry of expected."""
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=rtol * np.abs(expected).max())


class TestPredict:
    def test_zero_dt_is_identity(self):
        s = make_state(mean=np.array([1.0, 2.0, -3.0, 0.1, 0.2, 0.3]))
        out = ekf_predict(s, 0.0, Q)
        assert np.array_equal(out.mean, s.mean)
        assert np.array_equal(out.covariance, s.covariance)

    def test_zero_velocity_keeps_position_grows_covariance(self):
        s = make_state(mean=np.array([5.0, -4.0, -30.0, 0.0, 0.0, 0.0]))
        out = ekf_predict(s, 5.0, Q)
        assert np.array_equal(out.mean[:3], s.mean[:3])
        assert all(out.covariance[i, i] > s.covariance[i, i] for i in range(3))

    def test_constant_velocity_moves_position(self):
        s = make_state(mean=np.array([0.0, 0.0, -10.0, 1.0, 0.0, 0.0]))
        out = ekf_predict(s, 2.0, Q)
        assert out.mean[0] == pytest.approx(2.0)
        assert out.mean[1] == 0.0

    def test_negative_dt_rejected(self):
        for dt in (-1.0, np.nan, np.inf):  # NaN and inf gave a NaN state
            with pytest.raises(ValueError, match=f"dt must be finite and >= 0, got {dt}"):
                ekf_predict(make_state(), dt, Q)

    @pytest.mark.parametrize(
        "density,problem",
        [
            # NaN gave a NaN covariance; -1.0 an indefinite Q that shrank P.
            ((1e-3, np.nan, 1e-3), "must be finite and >= 0"),
            ((1e-3, -1.0, 1e-3), "must be finite and >= 0"),
            # A density is one value per ENU axis, never broadcast.
            (1e-3, "must be one value per ENU axis, got shape ()"),
            ((1e-3, 1e-3), "must be one value per ENU axis, got shape (2,)"),
        ],
        ids=["nan", "-1.0", "scalar", "two-axes"],
    )
    def test_bad_noise_density_rejected(self, density, problem):
        with pytest.raises(ValueError, match=re.escape(f"accel_density {problem}")):
            ekf_predict(make_state(), 1.0, density)

    def test_per_axis_noise_density(self):
        out = ekf_predict(make_state(), 1.0, (1e-2, 1e-3, 1e-4))
        assert out.covariance[3, 3] > out.covariance[4, 4] > out.covariance[5, 5]

    def test_equals_dense_f_p_ft_plus_q(self):
        for _, state, q, dt in random_states(1):
            f = np.eye(6)
            f[:3, 3:] = dt * np.eye(3)
            qm = np.zeros((6, 6))
            for axis in range(3):
                qm[axis, axis] = q[axis] * dt**3 / 3.0
                qm[axis, axis + 3] = qm[axis + 3, axis] = q[axis] * dt**2 / 2.0
                qm[axis + 3, axis + 3] = q[axis] * dt
            out = ekf_predict(state, dt, q)
            assert_close(out.mean, f @ state.mean)
            assert_close(out.covariance, f @ state.covariance @ f.T + qm)


class TestUpdateFix:
    def test_zero_innovation_keeps_mean(self):
        s = make_state(mean=np.array([1.0, -2.0, -30.0, 0.1, 0.0, 0.0]))
        out = ekf_update_fix(s, s.mean[:3], np.eye(3) * 4.0)
        assert np.allclose(out.mean, s.mean, atol=1e-12)
        assert all(out.covariance[i, i] < s.covariance[i, i] for i in range(3))

    def test_tiny_covariance_pulls_to_measurement(self):
        s = make_state(mean=np.array([0.0, 0.0, -10.0, 0.0, 0.0, 0.0]))
        z = np.array([3.0, -4.0, -20.0])
        out = ekf_update_fix(s, z, np.eye(3) * 1e-12)
        assert np.allclose(out.mean[:3], z, atol=1e-5)

    def test_position_variance_never_grows(self):
        s = make_state(cov=np.diag([4.0, 4.0, 4.0, 1.0, 1.0, 1.0]))
        out = ekf_update_fix(s, np.array([1.0, 1.0, -1.0]), np.eye(3) * 2.0)
        for i in range(3):
            assert out.covariance[i, i] <= s.covariance[i, i]

    def test_non_symmetric_covariance_rejected(self):
        r = np.eye(3)
        r[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            ekf_update_fix(make_state(), np.zeros(3), r)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_non_finite_fix_rejected(self, axis, bad):
        z = np.zeros(3)
        z[axis] = bad
        with pytest.raises(ValueError, match="fix must be finite"):
            ekf_update_fix(make_state(), z, np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    def test_non_finite_covariance_rejected(self, entry, bad):
        # diag(inf, 1, 1) passes the symmetry and Cholesky checks, and the
        # update would return a NaN state.
        r = np.eye(3)
        r[entry] = r[entry[::-1]] = bad
        with pytest.raises(ValueError, match="covariance must be finite"):
            ekf_update_fix(make_state(), np.zeros(3), r)

    def test_non_positive_definite_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive-definite"):
            ekf_update_fix(make_state(), np.zeros(3), -np.eye(3))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            ekf_update_fix(make_state(), np.zeros(3), np.eye(2))

    def test_singular_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive-definite"):
            ekf_update_fix(make_state(), np.zeros(3), np.diag([1.0, 1.0, 0.0]))

    def test_slightly_negative_eigenvalue_rejected(self):
        rotation = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))[0]
        r = rotation @ np.diag([1.0, 2.0, -1e-9]) @ rotation.T
        with pytest.raises(ValueError, match="positive-definite"):
            ekf_update_fix(make_state(), np.zeros(3), 0.5 * (r + r.T))

    @pytest.mark.parametrize("observed", [1, 2, 3])
    def test_accepts_fix_covariance_at_sigma_floor(self, observed):
        # Noiseless TOFs: every observable sigma is floored at 0.5 m, and
        # each unobservable direction gets the largest search extent.
        rng = np.random.default_rng(observed)
        jac = rng.normal(size=(6, observed)) @ rng.normal(size=(observed, 3)) / 1500.0
        extent = 3000.0
        r = multilateration._fix_covariance(jac, np.full(6, 1e-30), 0.5, extent)
        assert np.linalg.eigvalsh(r).min() == pytest.approx(0.25)
        out = ekf_update_fix(make_state(cov=np.eye(6) * 1e4), np.ones(3), r)
        assert np.isfinite(out.covariance).all()

    def test_equals_dense_joseph_update(self):
        h = np.eye(6)[:3]
        # Beside a random R each time, fixed ones for the folding along R's
        # principal axes: 0.25 I, the sigma-floor covariance of every
        # noiseless fix (three equal eigenvalues), then rotated Rs with two
        # equal eigenvalues and with eigenvalues six decades apart.
        rotation = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
        fixed = [0.25 * np.eye(3)] + [
            rotation * np.array(eigenvalues) @ rotation.T
            for eigenvalues in ((0.5, 0.5, 3.0), (1e-2, 1.0, 1e4))
        ]
        for rng, state, _, _ in random_states(2):
            z = state.mean[:3] + rng.normal(0.0, 5.0, 3)
            for r in [random_spd(rng, 3, [10.0 ** rng.uniform(-1, 2)] * 3)] + fixed:
                mean, cov = dense_joseph(state, h, z, r)
                out = ekf_update_fix(state, z, r)
                assert_close(out.mean, mean)
                assert_close(out.covariance, cov)


class TestUpdateDepth:
    def test_consistent_depth_keeps_mean(self):
        s = make_state(mean=np.array([1.0, 2.0, -30.0, 0.0, 0.0, 0.0]))
        out = ekf_update_depth(s, 30.0, 0.01)
        assert np.allclose(out.mean, s.mean, atol=1e-12)

    def test_tiny_variance_pins_up_component(self):
        s = make_state(mean=np.array([0.0, 0.0, -10.0, 0.0, 0.0, 0.0]))
        out = ekf_update_depth(s, 42.0, 1e-12)
        assert out.mean[2] == pytest.approx(-42.0, abs=1e-5)

    def test_up_variance_strictly_decreases(self):
        s = make_state()
        out = ekf_update_depth(s, 10.0, 0.5)
        assert out.covariance[2, 2] < s.covariance[2, 2]

    def test_non_positive_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            ekf_update_depth(make_state(), 10.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_depth_rejected(self, bad):
        with pytest.raises(ValueError, match="depth must be finite"):
            ekf_update_depth(make_state(), bad, 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_variance_rejected(self, bad):
        with pytest.raises(ValueError, match="variance must be finite"):
            ekf_update_depth(make_state(), 10.0, bad)

    def test_equals_dense_joseph_update(self):
        h = np.eye(6)[2:3]
        for rng, state, _, _ in random_states(3):
            depth = -state.mean[2] + rng.normal(0.0, 1.0)
            variance = 10.0 ** rng.uniform(-3, 0)
            mean, cov = dense_joseph(state, h, np.array([-depth]), np.array([[variance]]))
            out = ekf_update_depth(state, depth, variance)
            assert_close(out.mean, mean)
            assert_close(out.covariance, cov)


class TestFilterHealth:
    def test_covariance_stays_symmetric_positive_definite(self):
        rng = np.random.default_rng(17)
        state = make_state(cov=np.diag([100.0] * 3 + [1.0] * 3))
        for _ in range(200):
            state = ekf_predict(state, rng.uniform(0.0, 5.0), Q)
            if rng.random() < 0.7:
                state = ekf_update_fix(
                    state, rng.normal(0.0, 50.0, 3), np.eye(3) * rng.uniform(0.1, 4.0)
                )
            state = ekf_update_depth(
                state, rng.uniform(0.0, 80.0), rng.uniform(0.005, 0.1)
            )
            cov = state.covariance
            assert np.abs(cov - cov.T).max() < 1e-12
            assert np.linalg.eigvalsh(cov).min() > 0.0

    def test_fix_and_depth_updates_commute(self):
        state = make_state(
            mean=np.array([1.0, -1.0, -20.0, 0.0, 0.0, 0.0]),
            cov=np.diag([9.0, 9.0, 9.0, 1.0, 1.0, 1.0]),
        )
        fix = np.array([2.0, 0.0, -22.0])
        r = np.eye(3) * 1.5
        a = ekf_update_depth(ekf_update_fix(state, fix, r), 21.0, 0.04)
        b = ekf_update_fix(ekf_update_depth(state, 21.0, 0.04), fix, r)
        assert np.allclose(a.mean, b.mean, atol=1e-9)
        assert np.allclose(a.covariance, b.covariance, atol=1e-9)

    def test_state_is_a_value(self):
        mean = np.zeros(6)
        s = make_state(mean=mean)
        mean[0] = 99.0  # mutating the input array must not leak in
        assert s.mean[0] == 0.0
