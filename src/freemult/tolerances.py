"""Every numeric threshold of the package, named once.

Each entry is a bound that a defect, residual, eigenvalue or singular value
is compared against, with a comment saying what it bounds and relative to
what.  The public ``tol``/``rtol`` defaults read from here.  Two thresholds
share a name only when they bound the same quantity for the same reason.
Iteration schedules and resource caps are not thresholds and stay with the
code they bound.  The values are fixed: this module is not a configuration
surface.
"""

# ---------------------------------------------------------------- systems

# Hermitian check on an input form: ``||B - B*||_2`` against
# ``max(1, ||B||_2)``.
FORM_HERMITIAN_RTOL = 1e-12
# Default of ``is_psd``: the smallest eigenvalue may reach minus this times
# ``max(1, largest eigenvalue)``, and the Hermitian check uses the same
# relative bound.  Input forms are validated with it.
PSD_TOL = 1e-9
# Singular values at most this share of the largest count as zero
# (``orthonormal_columns``, ``null_space``).  ``decompose._closure`` skips
# the rank cut when the Frobenius norm of the images' residual off the
# current span, an upper bound of the next singular value, is at most half
# of this: the half absorbs the rounding of the residual and of the SVD.
RANK_RTOL = 1e-8
# Default of ``MatrixSystem.close_to``: the Frobenius norm of each block of
# the difference of two systems, absolute.
CLOSE_TOL = 1e-9
# Default of ``SystemMap.is_unitary`` and ``conjugate``: ``||J_a* J_a - 1||_2``
# at each letter, absolute.
UNITARY_TOL = 1e-9
# Floor of the tolerance on the intertwining residual of a conjugated
# system, ``map_residual`` in absolute spectral norm ...
CONJUGATE_RESIDUAL_FLOOR = 1e-9
# ... and the factor by which that residual may exceed ``max(tol, floor)``
# before ``conjugate`` reports a fault of its own.
CONJUGATE_RESIDUAL_SLACK = 10
# Default of ``restrict_to_subsystem`` and ``quotient_system``: the
# ``invariance_defect`` of the subsystem, relative to ``max(1, ||H(b,a)||_2)``
# per pair.
INVARIANT_TOL = 1e-8
# Default bound on the compatibility defect of an input system, the
# absolute spectral norm of ``B - T(B)`` (``decompose``,
# ``strip_null_directions``, ``transport_system``, ``restrict_system``,
# ``induce_system`` and the CLI's ``check``).
COMPAT_TOL = 1e-8
# Floor of the tolerance on the compatibility defect of a transported,
# restricted or induced system built from a compatible one ...
KEPT_DEFECT_FLOOR = 1e-8
# ... and the factor by which that defect may exceed ``max(tol, floor)``
# before the construction reports a fault of its own.
KEPT_DEFECT_SLACK = 10

# ----------------------------------------------------------------- perron

# Default of ``pf_eigenpair`` and ``normalize_to_compatible``: a spectral
# radius at most this counts as zero, and the accepted eigen-residual of a
# candidate eigentuple is at least this, relative to ``max(1, rho)``.
PF_TOL = 1e-9
# Relative width of the Collatz–Wielandt bracket that certifies rho.
BRACKET_RTOL = 1e-12
# Relative bracket width from which the cone iteration checks the bracket at
# every iteration when the width did not shrink since the check before
# (elsewhere the width's contraction schedules the checks): near
# BRACKET_RTOL the width sits at its rounding floor and may fall below it at
# one iteration only.
CHECK_EVERY_RTOL = 1e-9
# Relative bracket width at which the cone iteration rebases an iterate whose
# rounding floor (condition number times eps) is above BRACKET_RTOL.  The
# Hilbert distance from the iterate to the eigentuple is then about this
# width over the spectral gap, so the rebased eigentuple is close to the
# identity; and it is above the floor of every iterate that DEFINITE_RTOL
# passes (1e12 * eps, about 2.2e-4), so rounding cannot keep the width from
# reaching it.
REBASE_RTOL = 1e-3
# An iterate form whose smallest eigenvalue is at most this share of its
# largest counts as singular: the eigentuple is on the boundary of the cone
# and the bracket cannot close.
DEFINITE_RTOL = 1e-12
# Eigenvalue tolerance of the positivity check on a candidate eigentuple,
# relative to its spectral norm.
EIGENTUPLE_PSD_TOL = 1e-7
# Floor of the eigen-residual accepted for a candidate eigentuple, relative
# to its spectral norm and to ``max(1, rho)``.
RESIDUAL_FLOOR = 1e-10
# Real eigenvalues this close below rho, relative to ``max(1, rho)``, count
# as leading.
LEADING_GAP = 1e-12
# An array this small relative to its scale has vanished: the trace of a
# cone iterate's image against the iterate's own in ``pf_eigenpair`` (the
# iterate is then an eigentuple for radius zero when the traces since the
# start bound the radius by the tolerance too), a pulled-back form block
# against the largest in ``decompose``.
VANISH_RTOL = 1e-14
# Floor of the tolerance on the compatibility defect that normalization may
# leave ...
NORMALIZED_DEFECT_FLOOR = 1e-9
# ... and the factor by which that defect may exceed ``max(tol, floor)``
# before ``normalize_to_compatible`` fails.
NORMALIZED_DEFECT_SLACK = 100

# -------------------------------------------------------------- decompose

# Invariance residuals below this are treated as exact inside
# ``decompose``: invariance defects, the drift of the pulled-back forms and
# the intertwining residual of emitted embeddings (the last two relative to
# ``max(1, scale)``).  It is ten times INVARIANT_TOL because an input
# accepted at COMPAT_TOL can have form kernels whose invariance defect is
# above INVARIANT_TOL: a compatible system plus a summand with zero forms,
# its transfer blocks perturbed by 3e-9, has compatibility defects near
# 3e-9 and kernel defects up to 1.4e-8 (one is pinned in test_decompose).
DECOMPOSE_INV_TOL = 1e-7
# Half-width of the band around one for quotient spectral radii.
RHO_BAND = 1e-8
# A quotient spectral radius this far above one is an error, not rounding.
RHO_CEILING = 100 * RHO_BAND
# Eigenvalues of a generic loop operator closer than this, relative to the
# spectral radius (or one), are taken as one eigenvalue.
EIG_CLUSTER_RTOL = 1e-8
# Eigenvalues of the residual form within this of zero, relative to the
# norm of the form (or one), span the splitting kernel.
KERNEL_RTOL = 1e-7
# A residual-form eigenvalue below minus this many kernel cutoffs means the
# residual form lost positivity.
POSITIVITY_SLACK = 10
# Relative gap allowed between the two routes to a component's forms,
# against ``max(1, ||B_a||_2)``.
ROUTE_RTOL = 1e-6
# Smallest singular value allowed, at any letter, for the map ``Q* W0``
# from a split-off summand to the certified irreducible quotient it must be
# isomorphic to.  Both bases are orthonormal, so the largest singular value
# is at most one and the smallest is the sine of the smallest angle between
# the summand and the invariant part it splits from; this bounds the
# condition number and the norm of the inverse by 1e4.  An intertwining
# residual ``r`` then moves the summand by at most ``1e4 * r`` from a system
# similar to the quotient, below 1e-3 at DECOMPOSE_INV_TOL.  It is above
# RANK_RTOL, so the map also has full rank at RANK_RTOL.  The hidden sums of
# the tests, under unitary and non-unitary disguises, give at least 0.25.
ISOMORPHISM_SIGMA_MIN = 1e-4
# Floor on the compatibility tolerance applied to emitted components.
COMPONENT_DEFECT_FLOOR = 1e-8

# ---------------------------------------------------- multiplicative functions

# Default of ``functions_close``: the Euclidean norm of the gap between two
# values after refining to a common depth, absolute.
FUNCTIONS_CLOSE_TOL = 1e-9
