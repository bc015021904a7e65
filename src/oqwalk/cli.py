"""Command-line interface.

Subcommands: validate, analyze, asymptotics, rate, simulate, oracle-check.
All reports are JSON on stdout (sorted keys, fixed indentation) so repeated
runs are byte-identical; optional --out writes CSV/JSON artifacts.  The
argparse parser holds every option and, but for the oracle-check tilts, its
default; the command bodies read the parsed namespace directly.

Exit codes, as each error class's ``exit_code`` (``oqwalk.errors``):

  0  success
  1  OQWalkError: any other package error
  2  ModelFormatError: bad document or argument (a missing file exits 2 too)
  3  ModelValidationError, AssumptionError; also an invalid model under
     ``validate`` and a failed ``oracle-check``
  4  SpectralIndeterminateError, PositivityError, ConvergenceError,
     SingularRestrictionError, HermiticityError, TraceGaugeError
  5  MultiplicityError: no unique invariant state, no two-level fallback
  6  DegenerateStepError, TraceDriftError, StandardizationError
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (
    asymptotic_stats,
    c2_parameters,
    lambda_curve,
    rate_function,
)
from .errors import (
    AssumptionError,
    ConvergenceError,
    ModelFormatError,
    MultiplicityError,
    OQWalkError,
    StandardizationError,
)
from .model import (
    BUILTIN_NAMES,
    _matrix_to_json,
    _read_document,
    _require_stochastic,
    builtin,
    default_initial_state,
    load_initial_state,
    model_from_dict,
    random_initial_state,
    validate_model,
)
from .structure import (
    _fixed_point_data,
    _irreducibility,
    _period_of_irreducible,
    _recurrent_split,
    _regularity_of_irreducible,
    c2_m_classifier,
    classify_c2,
    is_irreducible_M,
)
from .trajectories import (
    batch_statistics,
    exact_distribution,
    mgf_check,
    write_batch_csv,
)


def _vector_json(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float)]


def _real_matrix_json(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _law_json(law) -> dict | None:
    if law is None:
        return None
    return {",".join(str(c) for c in s): float(p) for s, p in sorted(law.items())}


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--model", metavar="PATH", help="model JSON document")
    g.add_argument("--builtin", choices=BUILTIN_NAMES, help="bundled model")
    p.add_argument("--p", type=float, default=None, dest="bias",
                   help="rightward probability for classical_dilation")


def _add_state_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--initial", metavar="PATH", help="initial-state JSON document")
    g.add_argument("--random-initial", type=int, metavar="SEED", default=None,
                   help="seeded random internal state at the origin")


#: Tilts of ``oracle-check`` without ``-u``.  Not an argparse default: an
#: ``append`` action would add the user's tilts to it.
_DEFAULT_TILTS = (0.0, 0.5, -0.5, 1.0, -1.0)


def _check_args(args: argparse.Namespace) -> None:
    """Range checks argparse does not express; each runs where its option exists."""
    given = vars(args)
    if "steps" in given and args.steps < 1:
        raise ModelFormatError(f"step count must be >= 1, got {args.steps}")
    if "trajectories" in given and args.trajectories < 1:
        raise ModelFormatError(
            f"trajectory count must be >= 1, got {args.trajectories}")
    if "u_min" in given and not args.u_min < args.u_max:
        raise ModelFormatError(
            f"need u_min < u_max, got [{args.u_min}, {args.u_max}]")
    if "u_points" in given and args.u_points < 3:
        raise ModelFormatError(
            f"tilt grid needs at least 3 points, got {args.u_points}")
    if "x_min" in given and not args.x_min <= args.x_max:
        raise ModelFormatError(
            f"need x_min <= x_max, got [{args.x_min}, {args.x_max}]")
    if "x_points" in given and args.x_points < 1:
        raise ModelFormatError(
            f"velocity grid needs at least 1 point, got {args.x_points}")
    if "seed" in given and not 0 <= args.seed <= 2**64 - 1:
        raise ModelFormatError(f"seed must fit in 64 bits, got {args.seed}")


def _resolve_model(args: argparse.Namespace, validate: bool = True):
    if args.builtin is not None:
        return builtin(args.builtin, args.bias)
    return model_from_dict(_read_document(args.model), validate=validate)


def _resolve_state(args: argparse.Namespace, model):
    if args.initial is not None:
        return load_initial_state(args.initial, model)
    if args.random_initial is not None:
        return random_initial_state(model, args.random_initial)
    return default_initial_state(model)


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# --------------------------------------------------------------------------
# Subcommand bodies.
# --------------------------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> int:
    model = _resolve_model(args, validate=False)
    report = validate_model(model)
    _emit({
        "choi_min_eigenvalue": float(report.choi_min_eigenvalue),
        "choi_psd": bool(report.choi_psd),
        "h1_joint_range": bool(report.h1_holds),
        "h2_non_scalar": bool(report.h2_holds),
        "internal_dim": model.internal_dim,
        "lattice_dim": model.lattice_dim,
        "stochasticity_residual": float(report.residual),
        "valid": bool(report.is_valid),
    })
    return 0 if report.is_valid else 3


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = _resolve_model(args, validate=False)
    validation = validate_model(model)
    _require_stochastic(validation)

    fp = _fixed_point_data(model)
    irr = _irreducibility(model, fp)
    aux: dict = {
        "irreducible": bool(irr.irreducible),
        "closure_dimension": irr.closure_dimension,
        "fixed_point_count": irr.fixed_point_count,
        "min_fixed_eigenvalue": (
            None if irr.min_fixed_eigenvalue is None
            else float(irr.min_fixed_eigenvalue)
        ),
        "period": None,
        "projections": None,
        "regular": None,
        "positivity_onset": None,
    }
    if irr.irreducible:
        pd = _period_of_irreducible(model, fp)
        reg = _regularity_of_irreducible(model, fp, pd)
        aux["period"] = pd.period
        aux["projections"] = [_matrix_to_json(p) for p in pd.projections]
        aux["regular"] = bool(reg.regular)
        aux["positivity_onset"] = reg.onset_estimate
    bn = _recurrent_split(model, fp)
    aux["recurrent_dimension"] = bn.recurrent_dimension
    aux["decaying_dimension"] = bn.decaying_dimension
    aux["recurrent_basis"] = _matrix_to_json(bn.recurrent_basis)

    mirr = is_irreducible_M(model)
    lattice = {
        "verdict": mirr.verdict,
        "closure_dimension": mirr.closure_dimension,
        "max_length_used": mirr.max_length_used,
        "witness": None if mirr.witness is None else _matrix_to_json(mirr.witness),
    }

    two_level = None
    if model.internal_dim == 2:
        try:
            cls = classify_c2(model)
            two_level = {
                "situation": cls.situation,
                "rays": [_matrix_to_json(r.reshape(-1, 1)) for r in cls.rays],
                "m_irreducible": None,
                "m_period": None,
                "reducible_reason": None,
            }
        except AssumptionError:
            two_level = None
        if (two_level is not None and model.lattice_dim == 1
                and set(model.displacements) == {(1,), (-1,)}):
            mcls = c2_m_classifier(model)
            two_level["m_irreducible"] = bool(mcls.m_irreducible)
            two_level["m_period"] = mcls.m_period
            two_level["reducible_reason"] = mcls.reducible_reason

    _emit({
        "auxiliary_map": aux,
        "lattice_walk": lattice,
        "model": {
            "internal_dim": model.internal_dim,
            "lattice_dim": model.lattice_dim,
            "n_steps": model.n_steps,
        },
        "two_level": two_level,
        "validation": {
            "choi_min_eigenvalue": float(validation.choi_min_eigenvalue),
            "h1_joint_range": bool(validation.h1_holds),
            "h2_non_scalar": bool(validation.h2_holds),
            "stochasticity_residual": float(validation.residual),
            "valid": bool(validation.is_valid),
        },
    })
    return 0


def _stats_with_fallback(model, initial_state):
    """Spectral drift/covariance, falling back to two-level closed forms.

    Returns (mean, covariance-or-None, method, extra-json).
    """
    try:
        stats = asymptotic_stats(model)
        return (
            stats.mean,
            stats.covariance,
            "spectral",
            {
                "covariance_alt": _real_matrix_json(stats.covariance_alt),
                "eta_basis": [_matrix_to_json(e) for e in stats.eta_basis],
                "method_residuals": {
                    k: float(v)
                    for k, v in sorted(stats.method_residuals.items())
                },
            },
        )
    except MultiplicityError:
        if model.internal_dim != 2:
            raise
        params = c2_parameters(model, initial_state)
        extra = {
            "situation": params.situation,
            "periodic": bool(params.periodic),
            "law_a": _law_json(params.law_a),
            "law_b": _law_json(params.law_b),
            "weight_first": (
                None if params.weight_first is None else float(params.weight_first)
            ),
        }
        return params.mean, params.covariance, "two-level-closed-form", extra


def _cmd_asymptotics(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    state = _resolve_state(args, model)
    mean, cov, method, extra = _stats_with_fallback(model, state)

    us = np.linspace(args.u_min, args.u_max, args.u_points)
    curves = []
    for axis in range(model.lattice_dim):
        direction = np.zeros(model.lattice_dim)
        direction[axis] = 1.0
        curve = lambda_curve(model, us, direction)
        curves.append({
            "axis": axis,
            "u": _vector_json(curve.parameters),
            "lambda": _vector_json(curve.lambda_values),
            "log_lambda": _vector_json(curve.log_lambda_values),
            "degenerate_u": _vector_json(curve.degenerate_parameters),
            "kinks": [
                {
                    "u": k.u,
                    "lambda_slope_left": k.lambda_slope_left,
                    "lambda_slope_right": k.lambda_slope_right,
                    "log_slope_left": k.log_slope_left,
                    "log_slope_right": k.log_slope_right,
                    "slope_jump": k.slope_jump,
                }
                for k in curve.kinks
            ],
        })

    summary = {
        "covariance": None if cov is None else _real_matrix_json(cov),
        "drift": _vector_json(mean),
        "lambda_curves": curves,
        "method": method,
        **extra,
    }
    _emit(summary)

    out = _out_dir(args)
    if out is not None:
        _write_json(out / "asymptotics.json", summary)
        for curve in curves:
            lines = ["u,lambda,log_lambda"]
            for u, lam, ll in zip(curve["u"], curve["lambda"], curve["log_lambda"]):
                lines.append(f"{u!r},{lam!r},{ll!r}")
            path = out / f"lambda_curve_axis{curve['axis']}.csv"
            path.write_text("\n".join(lines) + "\n")
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    xs = np.linspace(args.x_min, args.x_max, args.x_points)
    table = rate_function(
        model, xs, u_min=args.u_min, u_max=args.u_max, points=args.u_points,
    )
    summary = {
        "x_grid": _vector_json(table.x_grid),
        "rate": [
            float(v) if np.isfinite(v) else None for v in table.rate
        ],
        "maximizers": [
            float(u) if np.isfinite(u) else None for u in table.maximizers
        ],
        "finite": [bool(b) for b in table.finite],
        "upper_bound_only": bool(table.upper_bound_only),
        "u_grid": _vector_json(table.u_grid),
        "log_lambda": _vector_json(table.log_lambda),
        "kinks": [float(k) for k in table.kinks],
    }
    _emit(summary)
    out = _out_dir(args)
    if out is not None:
        _write_json(out / "rate_function.json", summary)
        lines = ["x,rate,maximizer,finite"]
        for x, v, u, fin in zip(table.x_grid, table.rate,
                                table.maximizers, table.finite):
            lines.append(f"{float(x)!r},{float(v)!r},{float(u)!r},{int(fin)}")
        (out / "rate_function.csv").write_text("\n".join(lines) + "\n")
        lines = ["u,log_lambda"]
        for u, ll in zip(table.u_grid, table.log_lambda):
            lines.append(f"{float(u)!r},{float(ll)!r}")
        (out / "log_lambda_window.csv").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    state = _resolve_state(args, model)
    mean, cov, method, extra = _stats_with_fallback(model, state)
    if cov is None:
        raise StandardizationError(
            "branch step laws have distinct means; no single Gaussian limit "
            "exists to standardize against"
        )
    batch = batch_statistics(
        model, args.steps, args.trajectories, args.seed,
        initial_state=state, mean=mean, covariance=cov,
    )
    summary = {
        "covariance": _real_matrix_json(cov),
        "drift": _vector_json(mean),
        "ks_distance": float(batch.ks_distance),
        "mean_standardized": _vector_json(batch.mean_standardized),
        "method": method,
        "n_steps": batch.n_steps,
        "n_traj": batch.n_traj,
        "root_seed": batch.root_seed,
        "variance_standardized": _vector_json(batch.variance_standardized),
    }
    _emit(summary)
    out = _out_dir(args)
    if out is not None:
        _write_json(out / "summary.json", summary)
        with open(out / "trajectories.csv", "w", newline="") as fh:
            write_batch_csv(batch, fh)
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    state = _resolve_state(args, model)
    failures = 0
    checks = []

    for p in range(1, args.steps + 1):
        for u_scalar in args.tilts or _DEFAULT_TILTS:
            u = np.zeros(model.lattice_dim)
            u[0] = u_scalar
            try:
                gap = mgf_check(model, u, p, initial_state=state).relative_gap
            except ConvergenceError:  # both scaled moments underflowed
                gap = float("nan")
            ok = gap <= 1e-10
            failures += 0 if ok else 1
            status = "ok" if ok else "FAIL"
            print(f"{status} mgf p={p} u={u_scalar} gap={gap:.3e}")
            checks.append({
                "check": "mgf", "p": p, "u": u_scalar, "gap": float(gap), "ok": ok,
            })

    for p in range(1, min(args.steps, 10) + 1):
        try:
            dist = exact_distribution(model, p, initial_state=state)
            gap, ok = dist.tv_gap, dist.tv_gap <= 1e-10
        except ConvergenceError:
            gap, ok = float("nan"), False
        failures += 0 if ok else 1
        status = "ok" if ok else "FAIL"
        print(f"{status} distribution p={p} tv_gap={gap:.3e}")
        checks.append({
            "check": "distribution", "p": p, "gap": float(gap), "ok": ok,
        })

    print("PASS" if failures == 0 else f"FAIL ({failures} checks)")
    out = _out_dir(args)
    if out is not None:
        _write_json(out / "oracle_check.json",
                    {"checks": checks, "failures": failures})
    return 0 if failures == 0 else 3


# --------------------------------------------------------------------------
# Parser assembly.
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqwalk",
        description="Open quantum random walks: validation, structure, "
                    "asymptotics, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model document")
    _add_model_args(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="structural analysis report")
    _add_model_args(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("asymptotics", help="drift, covariance, tilted curves")
    _add_model_args(p)
    _add_state_args(p)
    p.add_argument("--u-min", type=float, default=-4.0)
    p.add_argument("--u-max", type=float, default=4.0)
    p.add_argument("--u-points", type=int, default=41)
    p.add_argument("--out", default=None, help="directory for CSV/JSON artifacts")
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("rate", help="large-deviation rate function")
    _add_model_args(p)
    p.add_argument("--x-min", type=float, default=-1.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--x-points", type=int, default=21)
    p.add_argument("--u-min", type=float, default=-4.0)
    p.add_argument("--u-max", type=float, default=4.0)
    p.add_argument("--u-points", type=int, default=41)
    p.add_argument("--out", default=None, help="directory for CSV/JSON artifacts")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("simulate", help="seeded trajectory batch with CLT summary")
    _add_model_args(p)
    _add_state_args(p)
    p.add_argument("-P", "--steps", type=int, default=1000)
    p.add_argument("-N", "--trajectories", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="directory for CSV/JSON artifacts")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle-check",
                       help="sampler-free cross-checks on small horizons")
    _add_model_args(p)
    _add_state_args(p)
    p.add_argument("-P", "-p", "--steps", type=int, default=8,
                   help="largest horizon to check")
    p.add_argument("-u", "--tilt", type=float, action="append", dest="tilts",
                   default=None, metavar="U",
                   help="tilt to check (repeatable; default 0, +-0.5, +-1)")
    p.add_argument("--out", default=None, help="directory for JSON artifacts")
    p.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except OQWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
