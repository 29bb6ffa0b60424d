"""Underwater acoustic channel simulation and beacon localization.

Layered seawater acoustics (sound speed, absorption), direct-path ray
tracing with time-of-flight and SNR, genetic-algorithm multilateration
from surface anchors, WGS84 geodesy and constant-velocity Kalman fusion,
driven by scenario files through a CLI.
"""

from .environment import (
    Layer,
    absorption_coeff,
    acoustics_profile,
    sound_speed,
)
from .fusion import EkfConfig, EkfState, ekf_predict, ekf_update_depth, ekf_update_fix
from .geodesy import (
    GeodeticCoord,
    ecef_to_enu,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
)
from .multilateration import (
    GaConfig,
    PositionEstimate,
    SearchBounds,
    evolve_generation,
    fitness,
    ga_localize,
)
from .pipeline import RunSummary, localize_epoch, run_simulation, write_outputs
from .propagation import (
    ChannelConfig,
    ChannelProfile,
    link_budget,
    pairwise_tof,
    ping_paths,
    simulate_ping,
    snr,
    tof_jacobian,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"
