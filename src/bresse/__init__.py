"""Stability laboratory for a clamped curved beam with local Kelvin-Voigt damping.

The package discretizes the three-field beam system (vertical displacement,
shear angle, longitudinal displacement) with conforming P1 elements, then
probes its stability three independent ways: eigenvalues of the quadratic
pencil, resolvent norms along the imaginary axis, and energy decay of
midpoint-integrated trajectories.  The headline experiment is the decay
dichotomy: equal wave speeds give resolvent growth ~ lambda^2 and energy
decay ~ 1/t, unequal speeds give ~ lambda^4 and ~ 1/sqrt(t).

Each public name is imported from its own module, whose __all__ declares
it: bresse.model, bresse.discretization, bresse.spectral,
bresse.resolvent, bresse.timedomain, bresse.errors and bresse.cli.
"""

__version__ = "0.1.0"
