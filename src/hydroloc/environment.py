"""Stratified water column and empirical per-layer seawater acoustics.

The water column is a stack of well-mixed layers, each with its own
temperature, salinity and pH. Sound speed uses the Mackenzie (1981)
nine-term equation; absorption uses the Ainslie & McColm (1998)
simplification of Francois-Garrison. Depth is positive downward with
zero at the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Layer",
    "sound_speed",
    "absorption_coeff",
    "acoustics_profile",
    "TEMPERATURE_RANGE",
    "SALINITY_RANGE",
    "PH_RANGE",
    "DEPTH_RANGE",
    "FREQUENCY_RANGE",
]

# Validation ranges for layer properties and model inputs. Values outside
# are rejected, not clamped, so a badly written scenario fails loudly.
TEMPERATURE_RANGE = (-2.0, 40.0)  # deg C
SALINITY_RANGE = (0.0, 42.0)      # PSU
PH_RANGE = (6.0, 9.0)
DEPTH_RANGE = (0.0, 8000.0)       # m, the stated validity of Mackenzie (1981)
FREQUENCY_RANGE = (0.1, 1000.0)   # kHz, the stated validity of Ainslie & McColm (1998)


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not (lo <= value <= hi):
        raise ValueError(f"{name}: must be within [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class Layer:
    """One homogeneous slab of the water column.

    thickness in metres, temperature in deg C, salinity in PSU, ph in pH
    units. Construction validates all fields.
    """

    thickness: float
    temperature: float
    salinity: float
    ph: float

    def __post_init__(self) -> None:
        if not self.thickness > 0:
            raise ValueError(f"thickness: must be > 0, got {self.thickness}")
        _check_range("temperature", self.temperature, *TEMPERATURE_RANGE)
        _check_range("salinity", self.salinity, *SALINITY_RANGE)
        _check_range("ph", self.ph, *PH_RANGE)


def sound_speed(temperature: float, salinity: float, depth: float) -> float:
    """Speed of sound in seawater, m/s, after Mackenzie (1981).

    Nine-term equation in temperature (deg C), salinity (PSU) and depth
    (m, positive down). Inputs outside the validation ranges raise.
    """
    _check_range("temperature", temperature, *TEMPERATURE_RANGE)
    _check_range("salinity", salinity, *SALINITY_RANGE)
    _check_range("depth", depth, *DEPTH_RANGE)
    t = temperature
    s = salinity - 35.0
    d = depth
    return (
        1448.96
        + 4.591 * t
        - 5.304e-2 * t * t
        + 2.374e-4 * t * t * t
        + 1.340 * s
        + 1.630e-2 * d
        + 1.675e-7 * d * d
        - 1.025e-2 * t * s
        - 7.139e-13 * t * d * d * d
    )


def absorption_coeff(
    frequency: float,
    temperature: float,
    salinity: float,
    ph: float,
    depth: float,
) -> float:
    """Absorption coefficient in dB/km, after Ainslie & McColm (1998).

    Boric acid and magnesium sulfate relaxation plus viscous absorption.
    frequency in kHz, temperature in deg C, salinity in PSU, depth in m
    (converted to km internally). Both pressure-dependent terms decay
    with depth.
    """
    _check_range("frequency", frequency, *FREQUENCY_RANGE)
    _check_range("temperature", temperature, *TEMPERATURE_RANGE)
    _check_range("salinity", salinity, *SALINITY_RANGE)
    _check_range("ph", ph, *PH_RANGE)
    _check_range("depth", depth, *DEPTH_RANGE)

    t = temperature
    z = depth / 1000.0  # km
    f2 = frequency * frequency

    f1 = 0.78 * math.sqrt(salinity / 35.0) * math.exp(t / 26.0)
    boric = 0.106 * (f1 * f2 / (f1 * f1 + f2)) * math.exp((ph - 8.0) / 0.56)

    fm = 42.0 * math.exp(t / 17.0)
    mgso4 = (
        0.52
        * (1.0 + t / 43.0)
        * (salinity / 35.0)
        * (fm * f2 / (fm * fm + f2))
        * math.exp(-z / 6.0)
    )

    water = 4.9e-4 * f2 * math.exp(-(t / 27.0 + z / 17.0))
    return boric + mgso4 + water


def acoustics_profile(layers, frequency: float) -> tuple[tuple[float, ...], ...]:
    """The stack's boundaries (m), sound speeds (m/s) and absorption (dB/km).

    layers is the stack from the surface down; boundaries are the prefix
    sums of their thicknesses, from 0. Each layer is evaluated at its
    mid-depth, which keeps the piecewise-constant approximation symmetric
    within it. frequency in kHz.
    """
    boundaries, speeds, absorption = [0.0], [], []
    for layer in layers:
        top = boundaries[-1]
        boundaries.append(top + layer.thickness)
        mid = 0.5 * (top + boundaries[-1])
        speeds.append(sound_speed(layer.temperature, layer.salinity, mid))
        absorption.append(
            absorption_coeff(frequency, layer.temperature, layer.salinity, layer.ph, mid)
        )
    return tuple(boundaries), tuple(speeds), tuple(absorption)
