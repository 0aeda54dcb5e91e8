"""Computational checks of Vandiver's conjecture criteria.

For an odd prime p and split primes l = 1 (mod p), products of Jacobi sums
of the order p characters on F_l* are twisted into components S_n whose
triviality defines the exponent set E_l(p).  Vandiver's conjecture holds
for p as soon as one E_l(p) avoids the irregular exponents of p, or as
soon as finitely many E_l(p) have empty intersection; this package
computes the sets, runs both criteria, classifies components as local or
global pth powers, and reproduces the supporting rank, trace and density
experiments.  The root defines only __version__; every other name is
imported from its module, as in ``from primarity.jacobi import exponent_set_for``.
"""

__version__ = "0.1.0"
