"""Numerical toolkit for the cocycle formulation of N-particle mechanics.

Configurations, time-dependent shifts and the translation cocycle of the
Lagrangian; discrete variational dynamics and the Hamilton principal
function; grid Schrödinger propagation with boost covariance; the relational
(particle-anchored) reformulation of all of these; and time-sliced free
propagators with their classical splitting.  Every transformation law ships
as an executable check (see the ``cqm`` command line).
"""

__version__ = "0.1.0"

from .bundle import (Config, GaugeField, ModelParams, Shift, decompose_shift,
                     right_action)
from .cocycle import (CocycleAccumulator, LagrangianModel, boost_boundary_term,
                      cocycle_density, cocycle_property_residual, linear_cocycle,
                      path_cocycle, pointwise_cocycle)
from .classical import (DiscretePath, FlatCocyclicConnection, HPFSample,
                        action, el_residual, flat_connection, hpf_table,
                        noether_charge, solve_critical_path)
from .dressing import (dress_config, dress_path, dressed_action,
                       dressed_critical_path, frame_shift, identity_suite,
                       residual_first_kind)
from .qgrid import (GridSpec, HamiltonianSpec, WaveGrid,
                    boost_covariance_check, dress_wavefunction, evolve,
                    frame_change, gaussian_packet, meta_action,
                    momentum_apply)
from .pathint import (PropagatorKernel, SliceScheme, classical_split,
                      propagate_wavefunction, relational_propagator,
                      sliced_propagator)
