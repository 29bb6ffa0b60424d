"""Constant-velocity Kalman fusion of position fixes and pressure depth.

State is (east, north, up, v_east, v_north, v_up). The motion model is
constant velocity with white-acceleration process noise; both
measurement models (3-D position fix, scalar depth) are linear, so the
filter is an EKF whose Jacobians are constants. Updates use the Joseph
form to keep the covariance symmetric positive-definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .smallmat import cho_solve, cholesky, matmul

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
    """Filter state: 6-vector mean, 6x6 covariance, timestamp in seconds."""

    mean: np.ndarray
    covariance: np.ndarray
    timestamp: float

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
    a scalar or one value per ENU axis. dt = 0 returns the state
    unchanged (apart from a fresh copy).

    F = [[I, dt I], [0, I]] only adds dt times the velocity blocks, so
    F P F^T is block arithmetic: the row blocks, then the column blocks.
    """
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    q = np.broadcast_to(np.asarray(accel_density, float), (3,))

    mean = state.mean.copy()
    mean[:3] += dt * mean[3:]

    cov = state.covariance.copy()
    cov[:3] += dt * cov[3:]        # F P
    cov[:, :3] += dt * cov[:, 3:]  # F P F^T
    qm = np.diag(np.concatenate([q * dt**3 / 3.0, q * dt]))
    qm[:3, 3:] = qm[3:, :3] = np.diag(q * dt**2 / 2.0)
    return EkfState(mean=mean, covariance=_symmetrize(cov + qm), timestamp=state.timestamp + dt)


def _joseph_update(state: EkfState, idx: slice, z: np.ndarray, r: np.ndarray) -> EkfState:
    """Joseph-form update for a measurement of the state components idx.

    H is the rows idx of the identity, so H P is P[idx] and S is
    P[idx, idx] + R. The gain K = P H^T S^-1 comes from one Cholesky
    factor of S; every product has at most len(idx) terms.
    """
    p = state.covariance
    kt = np.array(cho_solve(cholesky(p[idx, idx] + r), p[idx]))  # K^T = S^-1 H P
    k = kt.T
    mean = state.mean + matmul(k, z - state.mean[idx])
    ikh_p = p - matmul(k, p[idx])  # (I - K H) P
    cov = ikh_p - matmul(ikh_p[:, idx], kt) + matmul(matmul(k, r), kt)
    return EkfState(mean=mean, covariance=_symmetrize(cov), timestamp=state.timestamp)


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
    try:
        cholesky(r)
    except ValueError:
        raise ValueError("measurement covariance must be positive-definite") from None
    return _joseph_update(state, slice(0, 3), z, r)


def ekf_update_depth(state: EkfState, depth: float, variance: float) -> EkfState:
    """Fold a pressure-derived depth (positive down) into the up component."""
    if not math.isfinite(depth):
        raise ValueError(f"depth must be finite, got {depth}")
    if not 0 < variance < math.inf:
        raise ValueError(f"variance must be finite and > 0, got {variance}")
    z = np.array([-depth])  # up = -depth
    r = np.array([[variance]])
    return _joseph_update(state, slice(2, 3), z, r)
