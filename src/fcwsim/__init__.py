"""Forward-collision-warning robustness simulator.

Quantifies how packet loss on a vehicle-to-vehicle channel degrades a
CAMP-Linear forward-collision-warning system, comparing constant-velocity,
constant-acceleration, and Kalman reconstruction of the leading vehicle's
state across a packet-error-ratio sweep.
"""

__version__ = "0.1.0"
