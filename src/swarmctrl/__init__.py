"""Density control toolkit for advection-diffusion-reaction swarm models.

Subpackages:

- :mod:`swarmctrl.grid`: rectangular grids, fields, two-point-flux operators
- :mod:`swarmctrl.pde`: forward-equation generators and steppers
- :mod:`swarmctrl.control`: velocity laws, the stabilizing flow, steering
  plans, path following
- :mod:`swarmctrl.ctmc`: finite-state transfer plans and rate synthesis
- :mod:`swarmctrl.hybrid`: coupled multi-state splitting and stabilization
- :mod:`swarmctrl.particles`: reflected switching-diffusion simulation
- :mod:`swarmctrl.cli`: scenario runner
"""

from . import control, ctmc, errors, grid, hybrid, particles, pde
from .grid import (
    FaceField,
    RectDomain,
    ScalarField,
    build_grid,
    divergence_form_operator,
    mass,
    neumann_poisson_solve,
)
from .pde import fit_decay_rate
from .control import (
    TargetDensity,
    execute_plan,
    feedback_velocity,
    path_following_velocity,
    stabilizing_velocity,
    synthesize_steering_plan,
)
from .ctmc import (
    TransitionGraph,
    is_strongly_connected,
    local_step_control,
    monotone_certificate,
    propagate,
    spectrum_check,
    synthesize_stationary_rates,
    transfer_control,
)
from .hybrid import (
    HybridTarget,
    SpatialGainSet,
    StackedDensity,
    coupled_spectrum,
    hybrid_steering_plan,
    stabilizing_gains,
    zero_mass_stabilizing_gains,
)
from .particles import ParticleEnsemble, empirical_density, sde_step

__version__ = "0.1.0"
