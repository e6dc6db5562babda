"""Trace-driven simulation of an adaptive duty-cycle acoustic scheduler.

The package simulates a battery-powered sensing device that wakes on a
schedule, probes a short audio window through a Goertzel filter bank gate,
records detected events, and learns per-hour wake intervals with tabular
Q-learning. It models measured per-mode currents to project battery
lifetime, and extends to networks of overlapping devices that trade pings
to cut duplicated detections.

The package root re-exports nothing: import each name from the module that
defines it, for example ``from dutysim.sim import run_schedule``.
"""

__version__ = "0.1.0"
