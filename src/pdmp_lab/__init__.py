"""Simulation and numerical verification toolkit for piecewise deterministic
Markov processes with switching flows and state-dependent jump rates."""

__version__ = "0.1.0"
