"""The one table of named numerical thresholds.

A threshold is named here when two or more sites decide the same question
with it, so they cannot drift apart; a threshold of one site stays a literal
there, and a comparison that repeats whole is one predicate.  Gates read
these names directly.
"""

#: Least eigenvalue of a PSD input: the Choi matrix, each ``LatticeState`` block.
POSITIVITY_TOL = 1e-10

#: Least eigenvalue of a computed PSD matrix: ``project_to_state``'s clip and
#: the CLT covariance.
DERIVED_POSITIVITY_TOL = 1e-8

#: Distance to a radius r, over max(r, 1), of a tie: ``perron``'s root at r and
#: its degenerate root, a second block's radius on a reducible curve.
RADIUS_TIE_TOL = 1e-9

#: Relative eigen-residual bound of the untilted map's fixed pairs and of ``perron``.
RESIDUAL_TOL = 1e-9

#: Largest stochasticity residual of a valid model (``is_valid``, ``model_from_dict``).
STOCHASTICITY_TOL = 1e-10

#: Distance of an untilted eigenvalue to 1 or to a root of unity: the fixed
#: points and the primitive root of ``period``; and, over max(r, 1), the
#: peripheral band |mu| >= r - tol of ``period`` (r = 1) and ``perron``.
UNIT_CIRCLE_TOL = 1e-8

#: Least eigenvalue of a strictly positive trace-one state: the faithful fixed
#: point of ``is_irreducible_L``, which refuses one within FAITHFUL_TOL / 10 of
#: it, and the positivity onset of ``is_regular``.
FAITHFUL_TOL = 1e-8

#: Largest residual of the synthesized projections of ``period``, and largest
#: relative leak ||(I - P) A P|| / ||A|| of an invariant subspace: the
#: recurrent part, a common ray, a common invariant subspace.
PROJECTION_TOL = 1e-8

#: Relative norm below which a candidate adds no direction to an operator span.
SPAN_TOL = 1e-9

#: Largest drift from 1 of a step's probability total, alike in both engine tails.
DRIFT_TOL = 1e-9

#: Largest gap between two exact oracle routes (``exact_distribution``, ``oracle-check``).
ORACLE_TOL = 1e-10
