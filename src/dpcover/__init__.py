"""Multi-agent non-uniform area coverage via optimal-transport predictive
control: LTI agent models, per-step optimal control with a convergence
range, greedy weight transport, pairwise weight sharing, and exact
2-Wasserstein diagnostics."""

__version__ = "0.1.0"

from .controller import (GainTerms, convergence_check, convergence_ellipse,
                         delta_w, gain_terms, optimal_input_constrained,
                         optimal_input_unconstrained)
from .coordination import CommConfig, share_weights, sync_round
from .distribution import (MixtureSpec, SampleCloud, agent_alpha, load_points,
                           sample_mixture)
from .dynamics import LtiSystem, make_preset, output, relative_degree, step_events
from .engine import RunResult, Scenario, StepRecord, replay_metrics, run
from .errors import (DpcoverError, ExhaustionError, InfeasibleError, InputError,
                     ScenarioError, SizeError)
from .linalg import (PsdQp, TransportProblem, pseudo_inverse, solve_psd_qp,
                     solve_transport_exact)
from .scenario import build_scenario, load_scenario
from .transport import (LocalSelection, TransportPlan, global_wasserstein,
                        local_wasserstein, select_local_samples, weight_update)
