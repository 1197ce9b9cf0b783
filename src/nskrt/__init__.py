"""Numerical laboratory for gravity-driven incompressible NSK flow in a slab.

Computes the capillarity stability threshold and the instability growth
rate by per-mode variational eigensolves, simulates the nonlinear
perturbation dynamics with a pseudo-spectral / finite-difference IMEX
scheme, and checks the stability/instability dichotomy with energy
diagnostics.
"""

__version__ = "0.1.0"

from .diagnostics import (EnergyRecord, FitResult, bounded_decay_check,
                          fit_escape, fit_growth, poincare_min_quotient,
                          potential_energy, read_series, record, write_series)
from .errors import (CflError, ConfigError, DegenerateThresholdError,
                     EigensolverError, NskError, SimulationError, VacuumError)
from .growth import (GrowthResult, ModeForms, alpha, assemble_mode_forms,
                     compute_growth, mode_growth_rate)
from .profiles import (AdmissibilityReport, DensityProfile, SlabConfig,
                       check_admissibility, equilibrium_pressure, load_profile,
                       make_boundary_flat_profile, make_cubic_profile,
                       make_fourier_profile, make_linear_profile,
                       make_tabulated_profile, make_tanh_profile,
                       random_stabilizing_profile, save_profile)
from .simulator import (FieldState, Init, RunConfig, escape_time, init_state,
                        make_state, read_checkpoint, run, solver_iterations, step,
                        suggest_dt, write_checkpoint)
from .threshold import (ThresholdResult, compute_kappa_c, mode_threshold,
                        remark_bound, two_dim_quotient_ascent)

__all__ = [name for name in dir() if not name.startswith("_")]
