"""A positive diagonal rescaling that makes R_n nilpotent.

The sign pattern of R_n (the tridiagonal -1/+1 stencil with adjusted
corners) admits a nilpotent realization: multiply row k by
f_k = 1 / (2 sin((2k-1) pi / 2n)) and the result satisfies A^n = 0 while
keeping every entry's sign.  The scaling is far from obvious; this script
shows the power norms collapsing and the pattern surviving.
"""

import numpy as np

from centrocirc import (
    SpecialTridiag,
    has_sign_pattern,
    nilpotent_realization,
    nilpotent_scaling,
    r_dense,
    sign_pattern_of,
    verify_nilpotent,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)


def main():
    n = 6
    print(f"Row scalings f for n = {n}:")
    print(nilpotent_scaling(n))

    a = nilpotent_realization(n)
    print("\nThe scaled operator Diag(f) R:")
    print(a.real)

    pattern = sign_pattern_of(r_dense(SpecialTridiag(n)))
    print(f"\nSign pattern preserved? {has_sign_pattern(a, pattern)}")

    print("\nFrobenius norms of successive powers:")
    power = np.eye(n)
    for k in range(1, n + 1):
        power = power @ a
        print(f"  ||A^{k}||_F = {np.linalg.norm(power):.3e}")

    print(f"\nverify_nilpotent agrees: {verify_nilpotent(a)}")

    print("\nThe same collapse across sizes (everything drops to round-off):")
    for m in range(2, 11):
        am = nilpotent_realization(m)
        top = np.linalg.norm(np.linalg.matrix_power(am, m))
        print(f"  n = {m:2d}   ||A^n||_F = {top:.3e}")


if __name__ == "__main__":
    main()
