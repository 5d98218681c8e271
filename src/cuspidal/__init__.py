"""Exact arithmetic of cusps on X0(N): eta-quotient units, their leading
Fourier coefficients, cuspidal divisor class groups, and the rational torsion
of the generalized Jacobian with the reduced cuspidal modulus.

The root imports nothing; import each name from its module, for example
`from cuspidal.classgroup import class_group_for_level`."""

__version__ = "0.1.0"
