"""Command-line interface.

Subcommands: validate, analyze, asymptotics, rate, simulate, oracle-check.
All reports are JSON on stdout (sorted keys, fixed indentation) so repeated
runs are byte-identical; optional --out writes CSV/JSON artifacts.  The
argparse parser holds every option and, but for the oracle-check tilts, its
default; the command bodies read the parsed namespace directly and return
their answer as raw values, which ``main`` alone encodes (``model._json_text``
writes a non-finite number as null), prints and writes.

Exit codes, as each error class's ``exit_code`` (``oqwalk.errors``):

  0  success
  1  OQWalkError: any other package error; also a closed stdout (quietly)
  2  ModelFormatError: bad document or argument; also an input or output
     path that cannot be read or written (missing, a directory, a file)
  3  ModelValidationError, AssumptionError; also an invalid model under
     ``validate`` and a failed ``oracle-check``
  4  SpectralIndeterminateError, PositivityError, ConvergenceError,
     SingularRestrictionError, HermiticityError, TraceGaugeError
  5  MultiplicityError: no unique invariant state
  6  DegenerateStepError, TraceDriftError, StandardizationError
"""
from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (
    asymptotic_stats,
    block_mixture,
    lambda_curve,
    rate_function,
)
from .config import ORACLE_TOL
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
    _csv,
    _json_text,
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
    _two_level_reason,
    bn_decomposition,
    classify_c2,
    is_irreducible_L,
    is_irreducible_M,
    is_regular,
    period,
)
from .trajectories import (
    batch_statistics,
    exact_distribution,
    mgf_check,
    write_batch_csv,
)


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
    for name in ("u_min", "u_max", "x_min", "x_max"):
        if name in given and not math.isfinite(given[name]):
            raise ModelFormatError(f"{name} must be finite, got {given[name]}")
    for u in given.get("tilts") or ():
        if not math.isfinite(u):
            raise ModelFormatError(f"tilt must be finite, got {u}")
    if "u_min" in given and not args.u_min < args.u_max:
        raise ModelFormatError(
            f"need u_min < u_max, got [{args.u_min}, {args.u_max}]")
    if "u_points" in given and args.u_points < 3:
        raise ModelFormatError(
            f"tilt grid needs at least 3 points, got {args.u_points}")
    if "x_min" in given and not args.x_min <= args.x_max:
        raise ModelFormatError(
            f"need x_min <= x_max, got [{args.x_min}, {args.x_max}]")
    # np.linspace steps by the span, so a span that overflows makes NaN points.
    for lo, hi in (("u_min", "u_max"), ("x_min", "x_max")):
        if lo in given and not math.isfinite(given[hi] - given[lo]):
            raise ModelFormatError(
                f"{hi} - {lo} must be finite, got [{given[lo]}, {given[hi]}]")
    if "x_points" in given and args.x_points < 1:
        raise ModelFormatError(
            f"velocity grid needs at least 1 point, got {args.x_points}")
    if "seed" in given and not 0 <= args.seed <= 2**64 - 1:
        raise ModelFormatError(f"seed must fit in 64 bits, got {args.seed}")
    if args.bias is not None and args.builtin != "classical_dilation":
        raise ModelFormatError("--p applies to --builtin classical_dilation only")


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


# --------------------------------------------------------------------------
# Subcommand bodies: each returns (exit code, report, artifacts); a report is
# a dict or text, and artifacts map --out file names to a dict or CSV text.
# --------------------------------------------------------------------------

def _cmd_validate(args: argparse.Namespace):
    model = _resolve_model(args, validate=False)
    report = validate_model(model)
    return 0 if report.is_valid else 3, {
        "choi_min_eigenvalue": report.choi_min_eigenvalue,
        "choi_psd": report.choi_psd,
        "h1_joint_range": report.h1_holds,
        "h2_non_scalar": report.h2_holds,
        "internal_dim": model.internal_dim,
        "lattice_dim": model.lattice_dim,
        "stochasticity_residual": report.residual,
        "valid": report.is_valid,
    }, {}


def _cmd_analyze(args: argparse.Namespace):
    model = _resolve_model(args, validate=False)
    validation = validate_model(model)
    _require_stochastic(validation)

    irr = is_irreducible_L(model)
    aux: dict = {
        **vars(irr),  # an IrreducibilityReport's fields
        "period": None,
        "projections": None,
        "regular": None,
        "positivity_onset": None,
    }
    if irr.irreducible:
        pd = period(model)
        reg = is_regular(model)
        aux["period"] = pd.period
        aux["projections"] = pd.projections
        aux["regular"] = reg.regular
        aux["positivity_onset"] = reg.onset_estimate
    bn = bn_decomposition(model)
    aux["recurrent_dimension"] = bn.recurrent_dimension
    aux["decaying_dimension"] = bn.decaying_dimension
    aux["recurrent_basis"] = bn.recurrent_basis

    mirr = is_irreducible_M(model)
    lattice = {k: v for k, v in vars(mirr).items() if k != "return_span"}

    two_level = None
    if model.internal_dim == 2:
        try:
            cls = classify_c2(model)
            two_level = {
                "situation": cls.situation,
                "rays": [r.reshape(-1, 1) for r in cls.rays],
                "m_irreducible": None,
                "m_period": None,
                "reducible_reason": None,
            }
        except AssumptionError:
            two_level = None
        if (two_level is not None and model.lattice_dim == 1
                and set(model.displacements) == {(1,), (-1,)}):
            two_level["m_irreducible"] = {"irreducible": True,
                                          "reducible": False}.get(mirr.verdict)
            two_level["m_period"] = mirr.period
            two_level["reducible_reason"] = _two_level_reason(model, mirr)

    return 0, {
        "auxiliary_map": aux,
        "lattice_walk": lattice,
        "model": {
            "internal_dim": model.internal_dim,
            "lattice_dim": model.lattice_dim,
            "n_steps": model.n_steps,
        },
        "two_level": two_level,
        "validation": {
            "choi_min_eigenvalue": validation.choi_min_eigenvalue,
            "h1_joint_range": validation.h1_holds,
            "h2_non_scalar": validation.h2_holds,
            "stochasticity_residual": validation.residual,
            "valid": validation.is_valid,
        },
    }, {}


def _stats_with_fallback(model, initial_state):
    """Spectral drift/covariance or, without a unique invariant state, the
    mixture of the recurrent blocks' (``block_mixture``).

    Returns (mean, covariance-or-None, method, extra-json).
    """
    try:
        stats = asymptotic_stats(model)
        return (
            stats.mean,
            stats.covariance,
            "spectral",
            {
                "covariance_alt": stats.covariance_alt,
                "eta_basis": stats.eta_basis,
                "method_residuals": stats.method_residuals,
            },
        )
    except MultiplicityError:
        mix = block_mixture(model, initial_state)
        blocks = [{"weight": w, "drift": b.mean, "covariance": b.covariance,
                   "method_residuals": b.method_residuals}
                  for w, b in zip(mix.weights, mix.blocks)]
        return mix.mean, mix.covariance, "block-mixture", {"blocks": blocks}


def _cmd_asymptotics(args: argparse.Namespace):
    model = _resolve_model(args)
    state = _resolve_state(args, model)
    mean, cov, method, extra = _stats_with_fallback(model, state)

    us = np.linspace(args.u_min, args.u_max, args.u_points)
    curves = []
    tables = {}
    for axis in range(model.lattice_dim):
        direction = np.zeros(model.lattice_dim)
        direction[axis] = 1.0
        curve = lambda_curve(model, us, direction)
        curves.append({
            "axis": axis,
            "u": curve.parameters,
            "lambda": curve.lambda_values,
            "log_lambda": curve.log_lambda_values,
            "degenerate_u": curve.degenerate_parameters,
            "kinks": [vars(k) for k in curve.kinks],  # a KinkRecord's fields
        })
        tables[f"lambda_curve_axis{axis}.csv"] = _csv(
            "u,lambda,log_lambda",
            zip(curve.parameters.tolist(), curve.lambda_values.tolist(),
                curve.log_lambda_values.tolist()))

    summary = {
        "covariance": cov,
        "drift": mean,
        "lambda_curves": curves,
        "method": method,
        **extra,
    }
    return 0, summary, {"asymptotics.json": summary, **tables}


def _cmd_rate(args: argparse.Namespace):
    model = _resolve_model(args)
    xs = np.linspace(args.x_min, args.x_max, args.x_points)
    table = rate_function(
        model, xs, u_min=args.u_min, u_max=args.u_max, points=args.u_points,
    )
    summary = vars(table)  # a RateFunctionTable's fields
    return 0, summary, {
        "rate_function.json": summary,
        "rate_function.csv": _csv(
            "x,rate,maximizer,finite",
            zip(table.x_grid.tolist(), table.rate.tolist(), table.maximizers.tolist(),
                map(int, table.finite))),
        "log_lambda_window.csv": _csv(
            "u,log_lambda", zip(table.u_grid.tolist(), table.log_lambda.tolist())),
    }


def _cmd_simulate(args: argparse.Namespace):
    model = _resolve_model(args)
    state = _resolve_state(args, model)
    mean, cov, method, extra = _stats_with_fallback(model, state)
    if cov is None:
        raise StandardizationError(
            "recurrent blocks have distinct drifts; no single Gaussian limit "
            "exists to standardize against"
        )
    batch = batch_statistics(
        model, args.steps, args.trajectories, args.seed,
        initial_state=state, mean=mean, covariance=cov,
    )
    summary = {
        "covariance": cov,
        "drift": mean,
        "ks_distance": batch.ks_distance,
        "mean_standardized": batch.mean_standardized,
        "method": method,
        "n_steps": batch.n_steps,
        "n_traj": batch.n_traj,
        "root_seed": batch.root_seed,
        "variance_standardized": batch.variance_standardized,
    }
    import io  # loaded at interpreter start-up already

    table = io.StringIO()
    write_batch_csv(batch, table)
    return 0, summary, {"summary.json": summary, "trajectories.csv": table.getvalue()}


def _cmd_oracle_check(args: argparse.Namespace):
    model = _resolve_model(args)
    state = _resolve_state(args, model)
    checks, lines = [], []
    for p in range(1, args.steps + 1):
        for u_scalar in args.tilts or _DEFAULT_TILTS:
            u = np.zeros(model.lattice_dim)
            u[0] = u_scalar
            try:
                gap = mgf_check(model, u, p, initial_state=state).relative_gap
            except ConvergenceError:  # both scaled moments underflowed
                gap = float("nan")
            ok = gap <= ORACLE_TOL
            lines.append(f"{'ok' if ok else 'FAIL'} mgf p={p} u={u_scalar} gap={gap:.3e}")
            checks.append({"check": "mgf", "p": p, "u": u_scalar, "gap": gap, "ok": ok})
    for p in range(1, min(args.steps, 10) + 1):
        try:  # raises wherever the two routes' gap misses ORACLE_TOL
            gap, ok = exact_distribution(model, p, initial_state=state).tv_gap, True
        except ConvergenceError:
            gap, ok = float("nan"), False
        lines.append(f"{'ok' if ok else 'FAIL'} distribution p={p} tv_gap={gap:.3e}")
        checks.append({"check": "distribution", "p": p, "gap": gap, "ok": ok})
    failures = sum(not check["ok"] for check in checks)
    lines.append("PASS" if failures == 0 else f"FAIL ({failures} checks)")
    return (0 if failures == 0 else 3, "\n".join(lines) + "\n",
            {"oracle_check.json": {"checks": checks, "failures": failures}})


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


def _text(content) -> str:
    return content if isinstance(content, str) else _json_text(content)


def main(argv=None) -> int:
    """Run one command: print its report, write its artifacts, map failures
    to exit codes.  ``--out`` is made before the command runs, and the
    artifacts are written before the report, so stdout is all or nothing.

    Run as the program (``argv`` None, as ``python -m oqwalk.cli`` and the
    ``oqwalk`` console script call it), it first freezes the objects the
    imports made, so that no garbage collection walks them again, the one at
    interpreter exit included.  An in-process ``main(argv)`` leaves the
    collector as it finds it."""
    if argv is None:
        gc.freeze()
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        _check_args(args)
        if out is not None:
            Path(out).mkdir(parents=True, exist_ok=True)
        code, report, artifacts = args.func(args)
        text = _text(report)
        if out is not None:
            for name, content in artifacts.items():
                # The report is often an artifact too: encode it once.
                Path(out, name).write_text(text if content is report else _text(content))
        print(text, end="")
        sys.stdout.flush()
    except OQWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # Point fd 1 at the null device so the interpreter's last flush of
        # the unwritten report stays silent.
        import os  # loaded at interpreter start-up already

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
