"""Scenario engine for the normalized soil-organic-carbon change index.

Simulates the RothC-based change index under climate/NPP forcing with an
equilibrium-preserving non-standard monthly scheme, computes direct-method
parameter sensitivities, and derives the farmyard-manure schedule that keeps
the index non-negative.
"""

__version__ = "0.1.0"

from .climate import (ClimateSeries, ReferenceState, SiteMoisture,
                      accumulated_deficit, annual_averages,
                      max_deficit, rate_modifier_cover_smooth,
                      rate_modifier_cover_timed, rate_modifier_moisture,
                      rate_modifier_temperature, reference_from_climate,
                      rho_monthly, thornthwaite_pet)
from .control import ControlSchedule, simulate_controlled
from .dataio import (ScenarioConfig, build_scenario, load_climate,
                     load_config, load_density_table, load_npp,
                     read_trajectory, write_control, write_sensitivity,
                     write_trajectory)
from .dynamics import (FymPolicy, PlantInputDensity, Scenario, Site,
                       class_for_ratio)
from .equilibrium import (BaselineState, equilibrium_pools, iom_from_soc,
                          soc_total_from_active)
from .errors import (ConfigError, DataError, InfeasibleBaselineError,
                     NumericsError, SocChangeError)
from .pools import (CompartmentMatrices, SoilParams, build_matrices,
                    build_partition_fractions, default_rate_constants)
from .sensitivity import (AveragedModel, SensitivitySeries,
                          averaged_delta_solve, build_averaged_model,
                          closed_form_first_year, drho_dr, drho_dtemp,
                          sensitivity, theta)
from .stepping import (MonthRecord, Trajectory, build_time_grid,
                       phi1_scalar, rk4_reference, simulate)

__all__ = [name for name in dir() if not name.startswith("_")]
