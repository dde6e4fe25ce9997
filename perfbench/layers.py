"""Where the traced run records spans, and the counters it derives from
the traced calls' arguments and results.

Each function is wrapped on the module object its callers look it up on:
the engine calls `transport.x`, `controller.x`, `dynamics.x` and
`coordination.x` through the module, while `cli`, `controller`,
`transport` and `scenario` bind their imports by name. Span names are
`<module>.<function>` after the module that defines the function.
"""

from __future__ import annotations

import numpy as np

from dpcover import (cli, controller, coordination, dynamics, linalg, scenario,
                     transport)

from tracer import Tracer


def _reduced_cloud(weights, cap: int) -> tuple[int, bool]:
    """(size, uniform) of one cloud as global_wasserstein reduces it:
    zero-mass points dropped, clouds above cap resampled to cap equal
    weights."""
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    if w.size > cap:
        return cap, True
    return w.size, bool(np.ptp(w) <= 1e-9 * w.max())


def _observe_global_w(counts, args, kwargs, result):
    cap = kwargs.get("cap", args[4] if len(args) > 4 else linalg.TRANSPORT_SIZE_CAP)
    n_a, uniform_a = _reduced_cloud(args[1], cap)
    n_b, uniform_b = _reduced_cloud(args[3], cap)
    counts["global_wasserstein.cost_cells"] += n_a * n_b
    counts["global_wasserstein.equal_uniform"] += int(
        n_a == n_b and uniform_a and uniform_b)


def _observe_select(counts, args, kwargs, result):
    counts["select_local_samples.claimed"] += result.indices.size
    counts["select_local_samples.ranked"] += int(np.count_nonzero(
        np.asarray(args[0]) > 0))


def _observe_weight_update(counts, args, kwargs, result):
    counts["weight_update.claimed"] += int(np.count_nonzero(result.gammas > 0))
    counts["weight_update.ranked"] += int(np.count_nonzero(np.asarray(args[1]) > 0))


def _observe_step_events(counts, args, kwargs, result):
    counts["step_events.violations"] += int(result[1])


def _observe_sync(counts, args, kwargs, result):
    n_agents = len(args[0])
    counts["sync_round.exchanges"] += result[0]
    counts["sync_round.all_pairs"] += n_agents * (n_agents - 1) // 2


def _observe_engine(counts, args, kwargs, result):
    counts["engine.agent_steps"] += len(result.records)


def install(tracer: Tracer) -> None:
    """Wrap each traced function where its callers bind it."""
    for owner, attr, name, observe in [
        (cli, "build_scenario", "scenario.build_scenario", None),
        (scenario, "build_scenario", "scenario.build_scenario", None),
        (scenario, "sample_mixture", "distribution.sample_mixture", None),
        (cli, "engine_run", "engine.run", _observe_engine),
        (transport, "select_local_samples", "transport.select_local_samples",
         _observe_select),
        (transport, "weight_update", "transport.weight_update",
         _observe_weight_update),
        (transport, "local_wasserstein", "transport.local_wasserstein", None),
        (transport, "global_wasserstein", "transport.global_wasserstein",
         _observe_global_w),
        (transport, "solve_transport_exact", "linalg.solve_transport_exact", None),
        (linalg, "linprog", "linalg.linprog", None),
        (linalg, "pseudo_inverse", "linalg.pseudo_inverse", None),
        (controller, "pseudo_inverse", "linalg.pseudo_inverse", None),
        (controller, "solve_psd_qp", "linalg.solve_psd_qp", None),
        (controller, "gain_terms", "controller.gain_terms", None),
        (controller, "optimal_input_unconstrained",
         "controller.optimal_input_unconstrained", None),
        (controller, "optimal_input_constrained",
         "controller.optimal_input_constrained", None),
        (controller, "convergence_check", "controller.convergence_check", None),
        (controller, "delta_w", "controller.delta_w", None),
        (dynamics, "step_events", "dynamics.step_events", _observe_step_events),
        (dynamics, "output", "dynamics.output", None),
        (coordination, "sync_round", "coordination.sync_round", _observe_sync),
        (cli, "plot_trajectories", "svgplot.plot_trajectories", None),
        (cli, "plot_series", "svgplot.plot_series", None),
        (cli, "plot_ellipses", "svgplot.plot_ellipses", None),
    ]:
        tracer.wrap(owner, attr, name, observe)
