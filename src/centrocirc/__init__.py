"""Circulant, skew-circulant and centro-symmetric matrix toolkit.

The package is organized around one tridiagonal operator: ``R_n`` with -1
below the diagonal, +1 above, and corner diagonal entries -1 and +1.  It is
centro-skew, acts as a circulant on even (palindromic) vectors and as a
skew-circulant on odd ones, and a positive diagonal rescaling of it is
nilpotent.  Everything needed to state, use and verify those facts lives
here: a dense complex oracle, the unitary Fourier machinery, compact
circulant types with analytic spectra, the even/odd projection calculus,
and seeded verification suites (also reachable via the ``centrocirc`` CLI).
"""

from .dense import SingularMatrixError, is_unitary, solve_dense
from .fourier import (
    FourierPack,
    dft_apply,
    fourier_star_dense,
    make_fourier_pack,
    omega_powers,
    sigma_powers,
)
from .circulant import (
    Circulant,
    EigenPair,
    SkewCirculant,
    basic_circulant,
    basic_skew_circulant,
    circ_dense,
    circ_eigenpairs,
    circ_matvec,
    circ_mul,
    circ_spectrum,
    poly_eval,
    scirc_dense,
    scirc_eigenpairs,
    scirc_matvec,
    scirc_mul,
    scirc_spectrum,
)
from .centro import (
    CentroSplit,
    EvenOddBasis,
    EvenOddSplit,
    NotCentroSkewError,
    NotCentroSymmetricError,
    block_form,
    centro_split,
    even_odd_basis,
    even_odd_split,
    exchange_dense,
    is_centro_skew,
    is_centro_symmetric,
    reflect_eigenpair,
    solve_centro_symmetric,
)
from .relation import (
    ComplexEntriesError,
    SignPattern,
    SpecialTridiag,
    eta_minus_etat_coeffs,
    has_sign_pattern,
    lower_shift_dense,
    nilpotent_realization,
    nilpotent_scaling,
    pi_minus_pit_coeffs,
    r_apply,
    r_apply_via_relation,
    r_dense,
    rank_one_defects,
    restriction_spectra,
    sign_pattern_of,
    verify_nilpotent,
)

__version__ = "0.1.0"
