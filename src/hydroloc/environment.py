"""Stratified water column and empirical per-layer seawater acoustics.

The water column is a stack of well-mixed layers, each with its own
temperature, salinity and pH. Sound speed uses the Mackenzie (1981)
nine-term equation; absorption uses the Ainslie & McColm (1998)
simplification of Francois-Garrison. Depth is positive downward with
zero at the surface.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

__all__ = [
    "Layer",
    "WaterColumn",
    "LayerAcoustics",
    "sound_speed",
    "absorption_coeff",
    "acoustics_profile",
    "TEMPERATURE_RANGE",
    "SALINITY_RANGE",
    "PH_RANGE",
]

# Validation ranges for layer properties. Values outside are rejected, not
# clamped, so a badly written scenario fails loudly.
TEMPERATURE_RANGE = (-2.0, 40.0)  # deg C
SALINITY_RANGE = (0.0, 42.0)      # PSU
PH_RANGE = (6.0, 9.0)


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


@dataclass(frozen=True)
class LayerAcoustics:
    """Acoustic properties of one layer at a given carrier frequency."""

    sound_speed: float  # m/s
    absorption: float   # dB/km


def layer_index_for(boundaries, depth: float) -> int:
    """Index of the layer containing ``depth`` for prefix-sum boundaries.

    A depth on an interior boundary belongs to the layer below it; the
    bottom boundary belongs to the last layer.
    """
    total = boundaries[-1]
    if not 0.0 <= depth <= total:
        raise ValueError(f"depth {depth} outside water column [0, {total}]")
    n_layers = len(boundaries) - 1
    return min(bisect_right(boundaries, depth) - 1, n_layers - 1)


class WaterColumn:
    """Ordered, immutable stack of layers; index 0 is at the surface."""

    def __init__(self, layers) -> None:
        layers = tuple(layers)
        if not layers:
            raise ValueError("water column needs at least one layer")
        bounds = [0.0]
        for layer in layers:
            bounds.append(bounds[-1] + layer.thickness)
        if not math.isfinite(bounds[-1]):
            raise ValueError(f"total thickness must be finite, got {bounds[-1]}")
        self._layers = layers
        self._boundaries = tuple(bounds)

    @property
    def layers(self) -> tuple[Layer, ...]:
        return self._layers

    @property
    def boundaries(self) -> tuple[float, ...]:
        """Layer interface depths (prefix sums), length ``len(layers) + 1``."""
        return self._boundaries

    @property
    def total_depth(self) -> float:
        return self._boundaries[-1]

    def layer_index_at(self, depth: float) -> int:
        return layer_index_for(self._boundaries, depth)

    def mid_depths(self) -> tuple[float, ...]:
        b = self._boundaries
        return tuple(0.5 * (b[i] + b[i + 1]) for i in range(len(self._layers)))

    def __len__(self) -> int:
        return len(self._layers)

    def __repr__(self) -> str:
        return f"WaterColumn({len(self._layers)} layers, {self.total_depth:.1f} m)"


def sound_speed(temperature: float, salinity: float, depth: float) -> float:
    """Speed of sound in seawater, m/s, after Mackenzie (1981).

    Nine-term equation in temperature (deg C), salinity (PSU) and depth
    (m, positive down). Inputs outside the layer validation ranges raise.
    """
    _check_range("temperature", temperature, *TEMPERATURE_RANGE)
    _check_range("salinity", salinity, *SALINITY_RANGE)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
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
    if not frequency > 0:
        raise ValueError(f"frequency must be > 0 kHz, got {frequency}")
    _check_range("temperature", temperature, *TEMPERATURE_RANGE)
    _check_range("salinity", salinity, *SALINITY_RANGE)
    _check_range("ph", ph, *PH_RANGE)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")

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


def acoustics_profile(column: WaterColumn, frequency: float) -> list[LayerAcoustics]:
    """Per-layer sound speed and absorption, evaluated at layer mid-depths.

    Mid-depth keeps the piecewise-constant approximation symmetric within
    each layer. frequency in kHz.
    """
    out = []
    for layer, mid in zip(column.layers, column.mid_depths()):
        c = sound_speed(layer.temperature, layer.salinity, mid)
        a = absorption_coeff(frequency, layer.temperature, layer.salinity, layer.ph, mid)
        out.append(LayerAcoustics(sound_speed=c, absorption=a))
    return out
