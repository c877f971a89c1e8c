"""The original sympy Jordan decomposition, kept as a test reference.

`roundreach.hyperbolic.jnf_rational` now finds the spectrum from the
integer characteristic polynomial and builds the Jordan basis in exact
integer and `Fraction` arithmetic, following sympy's own construction
step for step.  This module keeps the earlier implementation, sympy's
`eigenvals` and `jordan_form`, so differential tests can check that the
two return the same (P, J) entry for entry, with J rebuilt from the
blocks `jnf_rational` returns by `jordan_matrix`.  Only the tests import
it, and sympy is a test dependency only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import sympy

from roundreach.errors import InternalInvariantError, NonRationalSpectrumError
from roundreach.hyperbolic import RationalMatrix, mat_mul
from roundreach.system import JordanBlock


def jordan_matrix(blocks: Sequence[JordanBlock]) -> RationalMatrix:
    """J from its blocks: each block's real eigenvalue on the diagonal and
    1 above it inside the block.  An angle other than 0 or pi raises
    KeyError."""
    n = sum(block.size for block in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for block in blocks:
        eigenvalue = {0: 1, 1: -1}[block.eigen_angle.pi_multiple] * block.eigen_modulus
        for i in range(start, start + block.size):
            rows[i][i] = eigenvalue
            if i + 1 < start + block.size:
                rows[i][i + 1] = Fraction(1)
        start += block.size
    return tuple(map(tuple, rows))


def jnf_rational(matrix: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix]:
    """Exact Jordan decomposition M = P J P^-1 over the rationals, checked
    as M P = P J (sympy's P is invertible).

    Raises NonRationalSpectrumError when an eigenvalue is not rational.
    """
    n = len(matrix)
    sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(matrix[i][j].numerator, matrix[i][j].denominator))
    for eigenvalue in sm.eigenvals():
        if not isinstance(sympy.nsimplify(eigenvalue), sympy.Rational):
            raise NonRationalSpectrumError(f"eigenvalue {eigenvalue} is not rational")
    p_sym, j_sym = sm.jordan_form()
    p = tuple(
        tuple(Fraction(int(p_sym[i, j].p), int(p_sym[i, j].q)) for j in range(n))
        for i in range(n)
    )
    j = tuple(
        tuple(Fraction(int(j_sym[i, j2].p), int(j_sym[i, j2].q)) for j2 in range(n))
        for i in range(n)
    )
    if mat_mul(matrix, p) != mat_mul(p, j):
        raise InternalInvariantError("Jordan reconstruction mismatch")
    return p, j
