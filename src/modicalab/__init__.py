"""Numerical laboratory for gradient bounds of semilinear elliptic systems.

The package verifies, at desk scale, the objects behind the pointwise
gradient estimate 0.5 |grad u|^2 <= W(u) for solutions of Lap u = grad W(u):
a periodic planar connection that violates the estimate for systems, the
P-function machinery that restores it under structural hypotheses, and the
planar stress-energy tensor with its convex auxiliary function and
monotonicity formulas.
"""
