"""The tridiagonal operator R_n and its split into two circulant actions.

R_n is the forward-difference stencil with adjusted corners: -1 on the
subdiagonal, +1 on the superdiagonal, top-left -1, bottom-right +1.  It is
not circulant and not skew-circulant, but it agrees with the circulant
pi - pi^T on palindromic (even) vectors and with the skew-circulant
eta - eta^T on anti-palindromic (odd) vectors.  Splitting an input into
its even and odd parts therefore turns one awkward matrix into two
structured ones, and the error of doing so is a pair of rank-one matrices
that vanish on exactly the right subspaces.
"""

import numpy as np

from centrocirc import (
    SpecialTridiag,
    circ_dense,
    eta_minus_etat_coeffs,
    even_odd_split,
    pi_minus_pit_coeffs,
    r_apply,
    r_apply_via_relation,
    r_dense,
    rank_one_defects,
    restriction_spectra,
    scirc_dense,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)


def main():
    n = 5
    r = SpecialTridiag(n)
    print(f"R_{n}:")
    print(r_dense(r).real)

    print("\nThe circulant it matches on even vectors, pi - pi^T:")
    print(circ_dense(pi_minus_pit_coeffs(n)).real)
    print("\nThe skew-circulant it matches on odd vectors, eta - eta^T:")
    print(scirc_dense(eta_minus_etat_coeffs(n)).real)

    even = np.array([1, 2, 3, 2, 1], dtype=float)
    odd = np.array([1, 2, 0, -2, -1], dtype=float)
    print("\nAction on a palindrome and an anti-palindrome:")
    print(f"  R @ {even.astype(int)} = {r_apply(r, even).real.astype(int)}")
    print(f"  R @ {odd.astype(int)}  = {r_apply(r, odd).real.astype(int)}")

    rng = np.random.default_rng(17)
    x = rng.standard_normal(n)
    split = even_odd_split(x)
    print("\nA generic vector splits into even + odd halves:")
    print(f"  x    = {x}")
    print(f"  even = {split.even.real}")
    print(f"  odd  = {split.odd.real}")
    gap = np.linalg.norm(r_apply(r, x) - r_apply_via_relation(r, x))
    print(f"  direct stencil vs split-and-shift route: gap = {gap:.2e}")

    d_plus, d_minus = rank_one_defects(n)
    print("\nThe two rank-one defects (all the disagreement lives in the")
    print("four corners):")
    print(d_plus.real)
    print()
    print(d_minus.real)
    print(f"  D+ @ even = {np.linalg.norm(d_plus @ split.even):.2e}"
          f"   D- @ odd = {np.linalg.norm(d_minus @ split.odd):.2e}")

    even_values, odd_values = restriction_spectra(n)
    print("\nBoth restrictions have purely imaginary spectra:")
    print(f"  even restriction: {np.sort(even_values.imag)} (x i)")
    print(f"  odd restriction:  {np.sort(odd_values.imag)} (x i)")


if __name__ == "__main__":
    main()
