"""Build per-step vehicle states and ScenarioTrace arrays from them, for tests."""

import numpy as np

from fcwsim.kinematics import TimedState, VehicleState, step_position_ca, step_velocity_ca
from fcwsim.scenarios import ScenarioTrace


def fold_trace(x0, v0, segments, t_s=0.1):
    """Build a piecewise-constant-acceleration truth sequence with the step functions.

    segments: list of (acceleration, n_steps). Returns TimedStates; the
    recorded acceleration at each step is the one active over the next
    interval, so segment breakpoints land on exact sample indices.
    """
    states = []
    x, v = x0, v0
    k = 0
    for a, steps in segments:
        for _ in range(steps):
            states.append(TimedState(k * t_s, VehicleState(x, v, a)))
            x = step_position_ca(x, v, a, t_s)
            v = step_velocity_ca(v, a, t_s)
            k += 1
    states.append(TimedState(k * t_s, VehicleState(x, v, segments[-1][0])))
    return states


def trace_from_states(trace_id, t_s, lv, fv):
    """A trace from equal-length LV and FV VehicleState sequences; step k is at t = k * t_s."""
    rows = [(k * t_s, l.x, l.v, l.a, f.x, f.v, f.a) for k, (l, f) in enumerate(zip(lv, fv, strict=True))]
    return ScenarioTrace(trace_id, np.array(rows))


def fast_follower_trace():
    """A loadable trace s0000 whose FV speed of 1e200 m/s squares to inf in the CAMP warning range:
    the LV is at rest 10 m ahead of the FV."""
    data = np.zeros((151, 7))
    data[:, 0] = np.arange(151) * 0.1
    data[:, 1], data[:, 5] = 10.0, 1e200
    return ScenarioTrace("s0000", data)
