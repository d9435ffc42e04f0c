"""Poisson-property checks for weakly nonlocal differential operators.

Operators are encoded as graded polynomials in odd jet variables plus
formal nonlocal antiderivatives; the Poisson property is decided by
skew-adjointness together with divergence-triviality of the self-bracket,
all in exact rational arithmetic.
"""
