"""Forward-collision-warning robustness simulator.

Quantifies how packet loss on a vehicle-to-vehicle channel degrades a
CAMP-Linear forward-collision-warning system, comparing constant-velocity,
constant-acceleration, and Kalman reconstruction of the leading vehicle's
state across a packet-error-ratio sweep.
"""

__version__ = "0.1.0"


def console() -> None:
    """The installed `fcwsim` command: runs fcwsim.cli as `python -m fcwsim.cli` does, GC start-up included."""
    import runpy

    runpy.run_module("fcwsim.cli", run_name="__main__", alter_sys=True)
