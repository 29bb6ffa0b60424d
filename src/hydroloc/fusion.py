"""Constant-velocity Kalman fusion of position fixes and pressure depth.

State is (east, north, up, v_east, v_north, v_up). The motion model is
constant velocity with white-acceleration process noise; both
measurement models (3-D position fix, scalar depth) are linear, so the
filter is an EKF whose Jacobians are constants. Updates use the Joseph
form to keep the covariance symmetric positive-definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATMOSPHERIC_PRESSURE",
    "SEAWATER_DENSITY",
    "STANDARD_GRAVITY",
    "SIGMA_RANGE",
    "ACCEL_NOISE_MAX",
    "WATER_DENSITY_RANGE",
    "EkfConfig",
    "PressureReading",
    "EkfState",
    "pressure_to_depth",
    "ekf_predict",
    "ekf_update_fix",
    "ekf_update_depth",
]

ATMOSPHERIC_PRESSURE = 101325.0  # Pa
SEAWATER_DENSITY = 1025.0        # kg/m^3
STANDARD_GRAVITY = 9.80665       # m/s^2
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

    The fix sigma is the solver's population dispersion, clamped below by
    fix_sigma_floor.
    """

    accel_noise_density: tuple[float, float, float] = (1e-3, 1e-3, 1e-3)  # m^2/s^3
    initial_position_sigma: float = 100.0  # m
    initial_velocity_sigma: float = 1.0    # m/s
    fix_sigma_floor: float = 0.5           # m
    pressure_sigma_depth: float = 0.1      # m
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


@dataclass(frozen=True)
class PressureReading:
    """Absolute pressure in pascals at a given time."""

    pressure: float
    timestamp: float

    def __post_init__(self) -> None:
        if self.pressure < ATMOSPHERIC_PRESSURE:
            raise ValueError(
                f"pressure {self.pressure} Pa is below atmospheric; "
                "submerged sensing expects gauge pressure >= 0"
            )


def pressure_to_depth(reading: PressureReading, density: float = SEAWATER_DENSITY) -> float:
    """Depth in metres (positive down) from absolute pressure."""
    return (reading.pressure - ATMOSPHERIC_PRESSURE) / (density * STANDARD_GRAVITY)


@dataclass(frozen=True, eq=False)
class EkfState:
    """Filter state: 6-vector mean, 6x6 covariance, timestamp in seconds."""

    mean: np.ndarray
    covariance: np.ndarray
    timestamp: float

    def __post_init__(self) -> None:
        mean = np.array(self.mean, float).reshape(6)
        cov = np.array(self.covariance, float).reshape(6, 6)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def position(self) -> np.ndarray:
        return self.mean[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.mean[3:]


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def ekf_predict(state: EkfState, dt: float, accel_density) -> EkfState:
    """Constant-velocity prediction over dt seconds.

    accel_density is the white-acceleration spectral density in m^2/s^3,
    a scalar or one value per ENU axis. dt = 0 returns the state
    unchanged (apart from a fresh copy).
    """
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    q = np.broadcast_to(np.asarray(accel_density, float), (3,))

    f = np.eye(6)
    f[:3, 3:] = dt * np.eye(3)
    mean = f @ state.mean

    qm = np.zeros((6, 6))
    for axis in range(3):
        q11 = q[axis] * dt**3 / 3.0
        q12 = q[axis] * dt**2 / 2.0
        q22 = q[axis] * dt
        qm[axis, axis] = q11
        qm[axis, axis + 3] = q12
        qm[axis + 3, axis] = q12
        qm[axis + 3, axis + 3] = q22

    cov = _symmetrize(f @ state.covariance @ f.T + qm)
    return EkfState(mean=mean, covariance=cov, timestamp=state.timestamp + dt)


def _joseph_update(state: EkfState, h: np.ndarray, z: np.ndarray, r: np.ndarray) -> EkfState:
    innovation = z - h @ state.mean
    s = h @ state.covariance @ h.T + r
    gain = np.linalg.solve(s.T, (state.covariance @ h.T).T).T
    mean = state.mean + gain @ innovation
    ikh = np.eye(6) - gain @ h
    cov = ikh @ state.covariance @ ikh.T + gain @ r @ gain.T
    return EkfState(mean=mean, covariance=_symmetrize(cov), timestamp=state.timestamp)


def ekf_update_fix(state: EkfState, fix, covariance) -> EkfState:
    """Fold a 3-D position fix into the state.

    fix is a PositionEstimate or a bare ENU triple; covariance is the
    3x3 measurement covariance, which must be symmetric positive-definite.
    """
    z = np.asarray(getattr(fix, "position", fix), float).reshape(3)
    r = np.asarray(covariance, float)
    if r.shape != (3, 3):
        raise ValueError(f"measurement covariance must be 3x3, got {r.shape}")
    if not np.allclose(r, r.T, rtol=0.0, atol=1e-9):
        raise ValueError("measurement covariance must be symmetric")
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        raise ValueError("measurement covariance must be positive-definite") from None

    h = np.zeros((3, 6))
    h[:, :3] = np.eye(3)
    return _joseph_update(state, h, z, r)


def ekf_update_depth(state: EkfState, depth: float, variance: float) -> EkfState:
    """Fold a pressure-derived depth (positive down) into the up component."""
    if not variance > 0:
        raise ValueError(f"variance must be > 0, got {variance}")
    h = np.zeros((1, 6))
    h[0, 2] = 1.0
    z = np.array([-depth])  # up = -depth
    r = np.array([[variance]])
    return _joseph_update(state, h, z, r)
