"""Constant-velocity Kalman fusion of position fixes and pressure depth.

State is (east, north, up, v_east, v_north, v_up). The motion model is
constant velocity with white-acceleration process noise; both
measurement models (3-D position fix, scalar depth) are linear, so the
filter is an EKF whose Jacobians are constants.

Every measurement is folded as scalars z = x_i + noise of variance r,
x_i a position component, each by one Joseph-form update (I - K h) P
(I - K h)^T + K r K^T with h the i-th unit row and K = P h^T / (P_ii +
r), symmetrized: no matrix factor. A depth is one scalar, up. A fix with
covariance R = V W V^T is three, in the frame of R's principal axes: the
components of V^T z, with variances W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .smallmat import eigh3, matmul

__all__ = [
    "SEAWATER_DENSITY",
    "SIGMA_RANGE",
    "ACCEL_NOISE_MAX",
    "WATER_DENSITY_RANGE",
    "EkfConfig",
    "EkfState",
    "ekf_predict",
    "ekf_update_fix",
    "ekf_update_depth",
]

SEAWATER_DENSITY = 1025.0  # kg/m^3
# Ranges of the filter's settings that keep its arithmetic finite and
# meaningful: each variance sigma**2 is positive, and q * dt**3 and the
# covariance predicted over a run (at most scenario.MAX_EPOCHS epochs
# of scenario.PING_INTERVAL_MAX) stay far inside the float range. Values
# outside are rejected, naming the key.
SIGMA_RANGE = (1e-6, 1e6)              # m or m/s, each EkfConfig sigma
ACCEL_NOISE_MAX = 1e6                  # m^2/s^3, each accel_noise_density axis
WATER_DENSITY_RANGE = (900.0, 1100.0)  # kg/m^3, fresh water to dense seawater


@dataclass(frozen=True)
class EkfConfig:
    """Fusion settings: process noise, priors and measurement variances.

    A fix's covariance comes from the solver's TOF Jacobian;
    fix_sigma_floor floors its principal sigmas.
    """

    accel_noise_density: tuple[float, float, float] = (1e-3, 1e-3, 1e-3)  # m^2/s^3
    initial_position_sigma: float = 100.0  # m
    initial_velocity_sigma: float = 1.0    # m/s
    fix_sigma_floor: float = 0.5           # m
    pressure_sigma_depth: float = 0.1      # m
    # The noisy depth is the measurement, so the density changes no output;
    # the key remains so that scenarios naming it parse.
    water_density: float = SEAWATER_DENSITY  # kg/m^3

    def __post_init__(self) -> None:
        for axis, value in zip(("east", "north", "up"), self.accel_noise_density):
            if not value > 0:
                raise ValueError(f"accel_noise_density.{axis}: must be > 0, got {value}")
            if not value <= ACCEL_NOISE_MAX:
                raise ValueError(
                    f"accel_noise_density.{axis}: must be <= {ACCEL_NOISE_MAX}, got {value}"
                )
        lo, hi = SIGMA_RANGE
        for name in (
            "initial_position_sigma", "initial_velocity_sigma", "fix_sigma_floor",
            "pressure_sigma_depth",
        ):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name}: must be within [{lo}, {hi}], got {value}")
        lo, hi = WATER_DENSITY_RANGE
        if not lo <= self.water_density <= hi:
            raise ValueError(
                f"water_density: must be within [{lo}, {hi}] kg/m^3, got {self.water_density}"
            )


@dataclass(frozen=True, eq=False, slots=True)
class EkfState:
    """Filter state: 6-vector mean and 6x6 covariance; ekf_predict's caller keeps the clock."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        # One owning array each, never a view of the caller's: a reshaped
        # copy would keep a second array object alive per field.
        mean = np.array(np.reshape(self.mean, 6), float)
        cov = np.array(np.reshape(self.covariance, (6, 6)), float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def position(self) -> np.ndarray:
        return self.mean[:3]


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def ekf_predict(state: EkfState, dt: float, accel_density) -> EkfState:
    """Constant-velocity prediction over dt seconds.

    accel_density is the white-acceleration spectral density in m^2/s^3,
    one value per ENU axis (EkfConfig.accel_noise_density). dt = 0
    returns the state unchanged (apart from a fresh copy).

    F = [[I, dt I], [0, I]] only adds dt times the velocity blocks, so
    F P F^T is block arithmetic: the row blocks, then the column blocks.
    """
    if not 0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    q = np.asarray(accel_density, float)
    if q.shape != (3,):
        raise ValueError(f"accel_density must be one value per ENU axis, got shape {q.shape}")
    if not ((q >= 0) & (q < math.inf)).all():
        raise ValueError(f"accel_density must be finite and >= 0, got {q.tolist()}")

    mean = state.mean.copy()
    mean[:3] += dt * mean[3:]

    cov = state.covariance.copy()
    cov[:3] += dt * cov[3:]        # F P
    cov[:, :3] += dt * cov[:, 3:]  # F P F^T
    qm = np.diag(np.concatenate([q * dt**3 / 3.0, q * dt]))
    qm[:3, 3:] = qm[3:, :3] = np.diag(q * dt**2 / 2.0)
    return EkfState(mean=mean, covariance=_symmetrize(cov + qm))


def _update(mean: np.ndarray, cov: np.ndarray, i: int, z: float, r: float):
    """The Joseph-form update for z = x_i + noise of variance r; the new (mean, cov)."""
    k = cov[:, i] / (cov[i, i] + r)  # P h^T / S
    ikh_p = cov - k[:, None] * cov[i]  # (I - K h) P
    cov = ikh_p - ikh_p[:, i, None] * k + r * k[:, None] * k
    return mean + k * (z - mean[i]), _symmetrize(cov)


def ekf_update_fix(state: EkfState, position, covariance) -> EkfState:
    """Fold a 3-D position fix into the state.

    position is the fix's ENU triple; covariance is the 3x3 measurement
    covariance, which must be finite, symmetric and positive-definite.
    """
    z = np.asarray(position, float).reshape(3)
    r = np.asarray(covariance, float)
    if not np.isfinite(z).all():
        raise ValueError(f"fix must be finite, got {z}")
    if r.shape != (3, 3):
        raise ValueError(f"measurement covariance must be 3x3, got {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("measurement covariance must be finite")
    if not (abs(r - r.T) <= 1e-9).all():
        raise ValueError("measurement covariance must be symmetric")
    w, v = eigh3(r)
    if not w[0] > 0.0:
        raise ValueError("measurement covariance must be positive-definite")
    # R's principal axes are the frame's position axes (V^T's rows). Folded
    # along them in ENU, each intermediate covariance would hold the fix's
    # small variances at the prior's scale and lose them to round-off.
    t = np.eye(6)
    t[:3, :3] = v.T
    mean, cov = matmul(t, state.mean), matmul(matmul(t, state.covariance), t.T)
    for i, (zi, variance) in enumerate(zip(matmul(v.T, z).tolist(), w.tolist())):
        mean, cov = _update(mean, cov, i, zi, variance)
    mean, cov = matmul(t.T, mean), matmul(matmul(t.T, cov), t)
    return EkfState(mean=mean, covariance=_symmetrize(cov))


def ekf_update_depth(state: EkfState, depth: float, variance: float) -> EkfState:
    """Fold a pressure-derived depth (positive down) into the up component."""
    if not math.isfinite(depth):
        raise ValueError(f"depth must be finite, got {depth}")
    if not 0 < variance < math.inf:
        raise ValueError(f"variance must be finite and > 0, got {variance}")
    mean, cov = _update(state.mean, state.covariance, 2, -depth, variance)  # up = -depth
    return EkfState(mean=mean, covariance=cov)
