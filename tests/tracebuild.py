"""Build ScenarioTrace arrays from per-step vehicle states, for tests."""

import numpy as np

from fcwsim.scenarios import ScenarioTrace


def trace_from_states(trace_id, t_s, lv, fv):
    """A trace from equal-length LV and FV VehicleState sequences; step k is at t = k * t_s."""
    rows = [(k * t_s, l.x, l.v, l.a, f.x, f.v, f.a) for k, (l, f) in enumerate(zip(lv, fv, strict=True))]
    return ScenarioTrace(trace_id, t_s, np.array(rows))
