"""Numerical toolkit for time-fractional (subdiffusion) evolution equations
with discontinuous coefficients: convolution-kernel calculus, monotone
implicit solvers, the fundamental solution as a heat-kernel mixture, and
the measurement harnesses for averaged-value-to-infimum ratios, oscillation
decay at t = 0, and maximum principles."""

__version__ = "0.1.0"
