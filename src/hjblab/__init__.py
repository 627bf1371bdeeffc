"""hjblab: a numerical laboratory for HJB equations of controlled diffusions
with merely measurable drift and running cost.

Core pieces: space-time grids and fields (grids), measurable coefficient
oracles (coefficients), space-time mollification (mollify), the frozen-policy
linear parabolic solver (parabolic), exact-argmin Hamiltonian machinery
(hamiltonian), policy iteration and the direct nonlinear marcher (hjb),
Euler-Maruyama cost estimation (montecarlo), and the experiment layer
(experiments).
"""

__version__ = "0.1.0"

from .grids import (  # noqa: F401
    Grid,
    SpaceTimeField,
    build_grid,
    field_from_csv,
    field_to_csv,
    lp_norm,
    spatial_gradient,
)
from .coefficients import (  # noqa: F401
    ActionFamily,
    ActionSet,
    CoefficientOracle,
    bang_bang_actions,
    bang_bang_family,
    catalog_names,
    make_oracle,
    make_tabulated,
    sample_to_grid,
    verify_bound,
)
from .mollify import (  # noqa: F401
    MollifierKernel,
    coefficient_ladder,
    kernel_normalization_error,
    kernel_value,
    mollify_field,
)
from .parabolic import (  # noqa: F401
    convergence_order,
    pde_residual,
    solve_frozen,
)
from .hamiltonian import (  # noqa: F401
    Policy,
    constant_policy,
)
from .hjb import (  # noqa: F401
    IterationTrace,
    hjb_residual,
    policy_iteration,
    solve_hjb_direct,
    solve_hjb_tables,
    solve_policy_value,
)
from .montecarlo import (  # noqa: F401
    FeedbackRule,
    GridPolicyControl,
    MCEstimate,
    OpenLoopControl,
    SimConfig,
    constant_control,
    dpp_residual,
    simulate_cost,
    value_at,
)
from .experiments import (  # noqa: F401
    counterexample_report,
    countable_truncation_study,
    dpp_battery,
    mollify_value_sweep,
    verification_check,
)
