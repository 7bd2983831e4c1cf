"""Quasistatic mixed-mode delamination of a visco-elastic body, in 2D.

A rectangular Kelvin-Voigt body is bonded to a rigid foundation (or a
second body) along part of its lower edge.  Loading is a prescribed
boundary motion; each time step solves a convex quadratic program for
the displacement under frictionless non-penetration, then releases
every interface segment whose stored glue energy exceeds a
mode-mixity-dependent threshold.  The package tracks the full energy
ledger (stored, viscous, debonding, external work) so the dissipation
inequalities behind the scheme can be verified step by step.

Modules: mesh (structured triangulations), constitutive (material and
adhesive laws), assembly (sparse operators), qp (active-set solver),
stepper (semi-implicit evolution), energetics (ledger, norms and the
momentum audit),
config/harness/cli (configured runs and their outputs).
"""

from .config import (
    AdhesiveConfig,
    ConfigError,
    GeometryConfig,
    LoadingConfig,
    MaterialConfig,
    OutputConfig,
    SimulationConfig,
    TimeConfig,
    config_hash,
    load_config,
    parse_config,
)
from .constitutive import (
    AdhesiveLaw,
    IsotropicElasticity,
    ViscosityLaw,
    elasticity_tensor,
)
from .energetics import (
    EnergyLedger,
    build_ledger,
    mixity_histogram,
    momentum_residual,
    trajectory_norms,
)
from .harness import (
    HarnessError,
    RunResult,
    build_simulation,
    run_chi_sweep,
    run_convergence,
    run_single,
)
from .mesh import (
    Mesh2D,
    build_benchmark_mesh,
    build_two_body_mesh,
)
from .qp import (
    QpNonconvergenceError,
    QpSolution,
    solve_qp,
)
from .stepper import (
    InvariantViolation,
    Operators,
    State,
    Trajectory,
    build_operators,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "AdhesiveConfig",
    "AdhesiveLaw",
    "ConfigError",
    "EnergyLedger",
    "GeometryConfig",
    "HarnessError",
    "InvariantViolation",
    "IsotropicElasticity",
    "LoadingConfig",
    "MaterialConfig",
    "Mesh2D",
    "Operators",
    "OutputConfig",
    "QpNonconvergenceError",
    "QpSolution",
    "RunResult",
    "SimulationConfig",
    "State",
    "TimeConfig",
    "Trajectory",
    "ViscosityLaw",
    "build_benchmark_mesh",
    "build_ledger",
    "build_operators",
    "build_simulation",
    "build_two_body_mesh",
    "config_hash",
    "elasticity_tensor",
    "load_config",
    "mixity_histogram",
    "momentum_residual",
    "parse_config",
    "run",
    "run_chi_sweep",
    "run_convergence",
    "run_single",
    "solve_qp",
    "trajectory_norms",
    "__version__",
]
