"""Exchange symmetry: even/odd subspaces, block forms, half-size solves.

Conjugating a matrix by the exchange (flip) permutation E either fixes it
(centro-symmetric) or negates it (centro-skew).  In the orthonormal basis
of even and odd vectors a centro-symmetric matrix becomes block diagonal,
which cuts an n x n solve into two half-size solves; a centro-skew matrix
becomes block anti-diagonal, which forces its eigenpairs into reflected
(lambda, z) / (-lambda, Ez) couples.
"""

import numpy as np

from centrocirc import (
    block_form,
    centro_split,
    circ_eigenpairs,
    circ_dense,
    is_centro_skew,
    is_centro_symmetric,
    pi_minus_pit_coeffs,
    reflect_eigenpair,
    solve_centro_symmetric,
    solve_dense,
)

np.set_printoptions(precision=3, suppress=True, linewidth=100)


def main():
    rng = np.random.default_rng(3)
    n = 6
    x = rng.standard_normal((n, n))
    parts = centro_split(x)
    print("Any square matrix splits into a centro-symmetric and a")
    print(f"centro-skew part: sym? {is_centro_symmetric(parts.sym)}"
          f"   skew? {is_centro_skew(parts.skew)}")

    b11, b12, b21, b22 = block_form(parts.sym)
    print("\nBlock form of the symmetric part (off-diagonal blocks vanish):")
    print(f"  ||B11|| = {np.linalg.norm(b11):.3f}   ||B12|| = {np.linalg.norm(b12):.1e}")
    print(f"  ||B21|| = {np.linalg.norm(b21):.1e}   ||B22|| = {np.linalg.norm(b22):.3f}")

    k11, k12, k21, k22 = block_form(parts.skew)
    print("Block form of the skew part (diagonal blocks vanish):")
    print(f"  ||K11|| = {np.linalg.norm(k11):.1e}   ||K12|| = {np.linalg.norm(k12):.3f}")
    print(f"  ||K21|| = {np.linalg.norm(k21):.3f}   ||K22|| = {np.linalg.norm(k22):.1e}")

    w = rng.standard_normal(n)
    z_half = solve_centro_symmetric(parts.sym, w)
    z_full = solve_dense(parts.sym, w)
    print("\nSolving with two half-size systems instead of one full LU:")
    print(f"  ||z_half - z_full|| = {np.linalg.norm(z_half - z_full):.2e}")
    print(f"  residual ||A z - w|| = {np.linalg.norm(parts.sym @ z_half - w):.2e}")

    k = circ_dense(pi_minus_pit_coeffs(n))
    pair = circ_eigenpairs(pi_minus_pit_coeffs(n))[1]
    mirrored = reflect_eigenpair(k, pair)
    print("\nA centro-skew matrix pairs its eigenvalues across zero:")
    print(f"  (lambda, z) with lambda = {pair.value:.3f}")
    print(f"  reflects to lambda = {mirrored.value:.3f} with vector Ez")
    residual = np.linalg.norm(k @ mirrored.vector - mirrored.value * mirrored.vector)
    print(f"  reflected residual = {residual:.2e}")


if __name__ == "__main__":
    main()
