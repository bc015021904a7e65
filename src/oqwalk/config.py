"""Numerical thresholds shared by more than one gate.

Each gate reads the constant it needs directly. A threshold that only one
function uses stays a literal in that function. A threshold that callers
really vary is a parameter of that call, e.g. ``psd_check(tol=...)``.
"""

#: Smallest eigenvalue ``psd_check`` accepts by default, as ``-POSITIVITY_TOL``.
#: It gates the Choi matrix in ``validate_model`` and lattice-state blocks.
POSITIVITY_TOL = 1e-10

#: Relative eigen-residual bound of ``eigendecompose`` and ``perron``.
RESIDUAL_TOL = 1e-9

#: Largest stochasticity residual ``||sum_s L_s^dag L_s - Id||_F`` a valid
#: model may have (``ValidationReport.is_valid`` and ``model_from_dict``).
STOCHASTICITY_TOL = 1e-10
