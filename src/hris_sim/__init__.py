"""Link-level Monte Carlo simulator for hybrid reflecting-and-sensing surfaces.

The package models a reconfigurable surface whose meta-atoms split incident
power between a programmable reflection and an internal sensing path with a
few receive chains.  On top of that front end it provides:

- planar array geometry, steering vectors and beampattern cuts (`arrays`),
- the power-splitting surface model itself (`hris`),
- random two-hop channels and cascade composition (`channels`),
- maximum-likelihood elevation estimation with its Cramer-Rao bound (`aoa`),
- two-sided pilot-based channel estimation and its Monte Carlo sweeps
  (`chest`),
- a config-driven experiment runner and the ``hris-sim`` command line
  (`config`, `runner`, `cli`).

All randomness flows through counter-based per-trial streams (`rng`), so a
given (seed, config) pair reproduces results byte-for-byte regardless of how
many worker processes are used.
"""

from .aoa import (AoaGrid, AoaScenario, crlb_elevation, ml_estimate,
                  rmse_experiment, simulate_snapshots, snapshot_scenario)
from .arrays import (Direction, PlanarArray, array_factor, emit_beampattern,
                     plane_direction, steered_weights, steering_vector)
from .channels import (ChannelSet, LinkGeometry, cascade, cascaded_per_user,
                       draw_channels, load_matrix, pathloss, save_matrix)
from .chest import (ChestDims, PilotSchedule, bs_estimate_G,
                    build_pilot_schedule, cascaded_ls_baseline, hris_estimate_H,
                    nmse, rf_chain_sweep, tradeoff_experiment)
from .config import (ExperimentConfig, load_config, parse_config_tree,
                     preset_config)
from .errors import (ConfigError, EstimationInfeasibleError, HrisSimError,
                     IdentifiabilityError, InfeasibleError)
from .hris import reflection_gain, sensing_gain
from .rng import complex_normal, substream
from .runner import run
from .version import __version__

__all__ = [
    "AoaGrid", "AoaScenario", "ChannelSet", "ChestDims", "ConfigError",
    "Direction", "EstimationInfeasibleError", "ExperimentConfig",
    "HrisSimError", "IdentifiabilityError", "InfeasibleError", "LinkGeometry",
    "PilotSchedule", "PlanarArray", "array_factor", "bs_estimate_G",
    "build_pilot_schedule", "cascade", "cascaded_ls_baseline",
    "cascaded_per_user", "complex_normal", "crlb_elevation", "draw_channels",
    "emit_beampattern", "hris_estimate_H", "load_config", "load_matrix",
    "ml_estimate", "nmse", "parse_config_tree", "pathloss", "plane_direction",
    "preset_config", "reflection_gain", "rf_chain_sweep", "rmse_experiment",
    "run", "save_matrix", "sensing_gain", "simulate_snapshots",
    "snapshot_scenario", "steered_weights", "steering_vector", "substream",
    "tradeoff_experiment", "__version__",
]
