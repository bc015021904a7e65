"""Walk models: Kraus data on a lattice, positions-with-blocks states, JSON IO.

A model is a finite family of ``n x n`` transition operators ``L_s``, one per
integer step vector ``s``, satisfying the stochasticity constraint
``sum_s L_s^dag L_s = Id``.  A lattice state assigns a PSD block to finitely
many sites with unit total trace; the probability of finding the walker at
site ``i`` is the trace of its block.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, wraps
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import POSITIVITY_TOL, STOCHASTICITY_TOL
from .errors import ModelFormatError, ModelValidationError
from .numerics import _nonscalar, choi_matrix, frob, kraus_products, psd_check
from .rng import MASK64, unit_draw

__all__ = [
    "KrausModel",
    "LatticeState",
    "ValidationReport",
    "validate_model",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "dump_model",
    "state_to_dict",
    "state_from_dict",
    "load_initial_state",
    "default_initial_state",
    "random_initial_state",
    "point_initial_state",
    "builtin",
    "BUILTIN_NAMES",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _kept(compute):
    """Decorate a per-model fact ``compute(model)``: computed on first use and
    kept in the model's ``__dict__``, as ``KrausModel.product_stack`` keeps
    its stack.  A call that raises keeps nothing."""
    key = f"{compute.__module__}.{compute.__qualname__}"

    @wraps(compute)
    def kept(model):
        memo = vars(model)
        if key not in memo:
            memo[key] = compute(model)
        return memo[key]

    return kept


@dataclass(frozen=True)
class KrausModel:
    """A homogeneous lattice walk model.

    ``displacements[k]`` is the integer step vector associated with
    ``operators[k]``; the list order is part of the model (it fixes sampling
    tie-breaks and serialization order).
    """

    lattice_dim: int
    internal_dim: int
    displacements: tuple[tuple[int, ...], ...]
    operators: np.ndarray = field(repr=False)

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        k, d, n = len(self.displacements), self.lattice_dim, self.internal_dim
        if ops.shape != (k, n, n):
            raise ModelValidationError(
                f"operator array shape {ops.shape} does not match "
                f"{k} steps of internal dimension {n}"
            )
        if not np.all(np.isfinite(ops.view(float))):
            raise ModelValidationError("operator entries must be finite")
        seen = set()
        any_nonzero = False
        for s in self.displacements:
            if len(s) != d:
                raise ModelValidationError(
                    f"displacement {s} does not have lattice dimension {d}"
                )
            if not all(isinstance(c, int) for c in s):
                raise ModelValidationError(f"displacement {s} has non-integer parts")
            if s in seen:
                raise ModelValidationError(f"duplicate displacement {s}")
            seen.add(s)
            any_nonzero = any_nonzero or any(c != 0 for c in s)
        if not seen:
            raise ModelValidationError("a model needs at least one step")
        if not any_nonzero:
            raise ModelValidationError("at least one displacement must be nonzero")
        object.__setattr__(self, "operators", _readonly(ops))

    @property
    def n_steps(self) -> int:
        return len(self.displacements)

    @property
    def steps_array(self) -> np.ndarray:
        return np.asarray(self.displacements, dtype=float)

    @cached_property
    def product_stack(self) -> np.ndarray:
        """Read-only ``(K, n^2, n^2)`` stack of the Kraus-term superoperators
        ``kron(conj(L_k), L_k)``, formed on first use and kept."""
        return _readonly(kraus_products(self.operators))

    def stochasticity_residual(self) -> float:
        # Overflowing operators give a NaN or inf residual, which fails the
        # stochasticity gate; numpy need not warn on the way.
        with np.errstate(over="ignore", invalid="ignore"):
            acc = sum(op.conj().T @ op for op in self.operators)
            return frob(acc - np.eye(self.internal_dim))


class LatticeState:
    """Finitely supported lattice state: PSD blocks, total trace 1 (within 1e-8)."""

    def __init__(self, blocks: Mapping[tuple[int, ...], np.ndarray], check: bool = True):
        clean: dict[tuple[int, ...], np.ndarray] = {}
        total = 0.0
        dim = None
        for pos, block in blocks.items():
            pos = tuple(int(c) for c in pos)
            b = np.asarray(block, dtype=complex)
            if dim is None:
                dim = b.shape[0]
            if b.shape != (dim, dim):
                raise ModelValidationError(
                    f"block at {pos} has shape {b.shape}, expected ({dim}, {dim})"
                )
            if check:
                # psd_check passes a NaN block, so finiteness comes first.
                if not np.isfinite(b).all():
                    raise ModelValidationError(f"block at {pos} has a non-finite entry")
                # Overflowing entries give NaN or inf, which fail the PSD or
                # the trace gate; numpy need not warn on the way.
                with np.errstate(over="ignore", invalid="ignore"):
                    report = psd_check((b + b.conj().T) / 2, POSITIVITY_TOL)
                    total += float(np.trace(b).real)
                if not report.is_psd:
                    raise ModelValidationError(
                        f"block at {pos} has negative eigenvalue "
                        f"{report.min_eigenvalue:.3e}"
                    )
            clean[pos] = _readonly(b)
        if not clean:
            raise ModelValidationError("lattice state needs at least one site")
        if check and abs(total - 1.0) > 1e-8:
            raise ModelValidationError(f"total trace {total!r} deviates from 1 beyond 1e-8")
        self.blocks = clean
        self.internal_dim = dim

    @property
    def positions(self) -> list[tuple[int, ...]]:
        """Site positions in lexicographic order (the sampling order)."""
        return sorted(self.blocks)


@dataclass(frozen=True)
class ValidationReport:
    residual: float
    h1_holds: bool
    h2_holds: bool
    choi_min_eigenvalue: float
    choi_psd: bool

    @property
    def is_valid(self) -> bool:
        """Hard validity: stochasticity and complete positivity only.

        h1/h2 are structural probes used by the two-level classification; a
        scalar model (internal dimension 1) never satisfies h2 yet is a
        perfectly valid walk.
        """
        return self.residual <= STOCHASTICITY_TOL and self.choi_psd


def validate_model(model: KrausModel) -> ValidationReport:
    """Stochasticity residual plus the h1 (joint range) and h2 (non-scalar) probes."""
    n = model.internal_dim
    # Overflowing entries give a NaN or inf residual or Choi eigenvalue, which
    # fail the stochasticity or PSD gate; numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = model.stochasticity_residual()
        stacked = np.hstack(list(model.operators))
        svals = np.linalg.svd(stacked, compute_uv=False)
        h1 = bool(np.sum(svals > 1e-10) == n)
        h2 = any(_nonscalar(op) for op in model.operators)
        report = psd_check(choi_matrix(model.operators), POSITIVITY_TOL)
    return ValidationReport(
        residual=float(residual),
        h1_holds=h1,
        h2_holds=h2,
        choi_min_eigenvalue=report.min_eigenvalue,
        choi_psd=report.is_psd,
    )


def _require_stochastic(report: ValidationReport) -> None:
    """The stochasticity gate of a loaded model (``ModelValidationError``)."""
    if not report.residual <= STOCHASTICITY_TOL:  # a NaN residual fails too
        raise ModelValidationError(
            f"stochasticity residual {report.residual:.3e} exceeds {STOCHASTICITY_TOL:g}"
        )


# ---------------------------------------------------------------------------
# JSON and CSV text.  Complex numbers are {"re": float, "im": float} objects;
# matrices are row-major nested lists; nothing is normalized on load.
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """``obj`` in JSON's data model: arrays become (nested) lists, complex
    numbers ``{"re", "im"}`` objects, numpy scalars Python scalars, and every
    float that is not finite ``None`` (JSON has no NaN or infinity).  An
    array's dtype decides: a complex array writes objects even where its
    imaginary parts are zero."""
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    return obj


def _json_text(obj) -> str:
    """The one JSON text format of reports, artifacts and model documents."""
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv(header: str, rows) -> str:
    """The one CSV text format: the header, then one line of ``repr``'d values
    per row."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _expect_key(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ModelFormatError(f"{path}: missing field '{key}'")
    return obj[key]


def _parse_complex(obj, path: str) -> complex:
    re = _expect_key(obj, "re", path)
    im = _expect_key(obj, "im", path)
    if not isinstance(re, (int, float)) or isinstance(re, bool):
        raise ModelFormatError(f"{path}.re: expected a number, got {re!r}")
    if not isinstance(im, (int, float)) or isinstance(im, bool):
        raise ModelFormatError(f"{path}.im: expected a number, got {im!r}")
    return complex(re, im)


def _parse_matrix(obj, n: int | None, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ModelFormatError(f"{path}: expected a non-empty matrix (list of rows)")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ModelFormatError(f"{path}[{i}]: expected a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ModelFormatError(f"{path}[{i}]: ragged row (len {len(row)} != {width})")
        rows.append([_parse_complex(z, f"{path}[{i}][{j}]") for j, z in enumerate(row)])
    m = np.array(rows, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ModelFormatError(f"{path}: matrix must be square, got {m.shape}")
    if n is not None and m.shape[0] != n:
        raise ModelFormatError(f"{path}: matrix side {m.shape[0]} != internal_dim {n}")
    return m


def _parse_int_vector(obj, d: int, path: str) -> tuple[int, ...]:
    if not isinstance(obj, list):
        raise ModelFormatError(f"{path}: expected a list of integers")
    if len(obj) != d:
        raise ModelFormatError(f"{path}: expected {d} components, got {len(obj)}")
    out = []
    for j, c in enumerate(obj):
        if not isinstance(c, int) or isinstance(c, bool):
            raise ModelFormatError(f"{path}[{j}]: expected an integer, got {c!r}")
        out.append(c)
    return tuple(out)


def model_to_dict(model: KrausModel) -> dict:
    return {
        "lattice_dim": model.lattice_dim,
        "internal_dim": model.internal_dim,
        "steps": [
            {"displacement": list(s), "matrix": _jsonable(op)}
            for s, op in zip(model.displacements, model.operators)
        ],
    }


def model_from_dict(obj: dict, validate: bool = True) -> KrausModel:
    d = _expect_key(obj, "lattice_dim", "$")
    n = _expect_key(obj, "internal_dim", "$")
    steps = _expect_key(obj, "steps", "$")
    for name, v in (("lattice_dim", d), ("internal_dim", n)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ModelFormatError(f"$.{name}: expected a positive integer, got {v!r}")
    if not isinstance(steps, list) or not steps:
        raise ModelFormatError("$.steps: expected a non-empty list")
    displacements = []
    operators = []
    for k, step in enumerate(steps):
        path = f"$.steps[{k}]"
        disp = _expect_key(step, "displacement", path)
        mat = _expect_key(step, "matrix", path)
        displacements.append(_parse_int_vector(disp, d, f"{path}.displacement"))
        operators.append(_parse_matrix(mat, n, f"{path}.matrix"))
    model = KrausModel(
        lattice_dim=d,
        internal_dim=n,
        displacements=tuple(displacements),
        operators=np.array(operators),
    )
    if validate:
        _require_stochastic(validate_model(model))
    return model


def _read_document(path: str | Path):
    """Parse a JSON file; bytes that are not UTF-8 and syntax errors become
    :class:`ModelFormatError` with position."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_model(path: str | Path) -> KrausModel:
    """Load and validate a model document; parse errors carry line/field context."""
    return model_from_dict(_read_document(path))


def dump_model(model: KrausModel, path: str | Path) -> None:
    Path(path).write_text(_json_text(model_to_dict(model)))


def state_to_dict(state: LatticeState) -> dict:
    return {
        "sites": [
            {"position": list(pos), "block": _jsonable(state.blocks[pos])}
            for pos in state.positions
        ]
    }


def state_from_dict(obj: dict, lattice_dim: int, internal_dim: int) -> LatticeState:
    sites = _expect_key(obj, "sites", "$")
    if not isinstance(sites, list) or not sites:
        raise ModelFormatError("$.sites: expected a non-empty list")
    blocks = {}
    for k, site in enumerate(sites):
        path = f"$.sites[{k}]"
        pos = _parse_int_vector(_expect_key(site, "position", path), lattice_dim,
                                f"{path}.position")
        block = _parse_matrix(_expect_key(site, "block", path), internal_dim,
                              f"{path}.block")
        if pos in blocks:
            raise ModelFormatError(f"{path}.position: duplicate site {pos}")
        blocks[pos] = block
    return LatticeState(blocks)


def load_initial_state(path: str | Path, model: KrausModel) -> LatticeState:
    return state_from_dict(_read_document(path), model.lattice_dim, model.internal_dim)


def default_initial_state(model: KrausModel) -> LatticeState:
    """Maximally mixed block at the origin."""
    n = model.internal_dim
    origin = (0,) * model.lattice_dim
    return LatticeState({origin: np.eye(n, dtype=complex) / n})


def point_initial_state(model: KrausModel, matrix: np.ndarray,
                        position: tuple[int, ...] | None = None) -> LatticeState:
    if position is None:
        position = (0,) * model.lattice_dim
    return LatticeState({tuple(position): np.asarray(matrix, dtype=complex)})


def random_initial_state(model: KrausModel, seed: int) -> LatticeState:
    """Origin block ``X X^T / Tr(X X^T)`` with X uniform-[0,1) entries (seeded).

    ``X[i, j]`` is draw ``i * n + j`` of the stream rooted at ``seed``.
    """
    n = model.internal_dim
    seed &= MASK64
    x = np.array([[unit_draw(seed, i * n + j) for j in range(n)] for i in range(n)])
    g = x @ x.T
    return point_initial_state(model, g / np.trace(g))


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

BUILTIN_NAMES = (
    "std_example",
    "periodic_example",
    "breakdown_example",
    "antidiag_example",
    "classical_dilation",
)


def builtin(name: str, p: float | None = None) -> KrausModel:
    """Construct one of the bundled reference models.

    ``classical_dilation`` takes the rightward probability ``p`` (default 0.5);
    the others ignore ``p``.
    """
    s2 = np.sqrt(2.0)
    s3 = np.sqrt(3.0)
    if name == "std_example":
        ops = np.array([
            [[1, 1], [0, 1]],
            [[1, 0], [-1, 1]],
        ], dtype=complex) / s3
    elif name == "periodic_example":
        ops = np.array([
            [[0, s3 / 2], [1 / s2, 0]],
            [[0, 1 / 2], [1 / s2, 0]],
        ], dtype=complex)
    elif name == "breakdown_example":
        ops = np.array([
            [[1 / s2, 1 / (2 * s2)], [0, s3 / 2]],
            [[1 / s2, -1 / (2 * s2)], [0, 0]],
        ], dtype=complex)
    elif name == "antidiag_example":
        ops = np.array([
            [[0, 0.6], [0.8, 0]],
            [[0, 0.8], [0.6, 0]],
        ], dtype=complex)
    elif name == "classical_dilation":
        if p is None:
            p = 0.5
        if not 0.0 <= p <= 1.0:
            raise ModelValidationError(f"classical_dilation needs 0 <= p <= 1, got {p}")
        ops = np.array([[[np.sqrt(p)]], [[np.sqrt(1.0 - p)]]], dtype=complex)
        return KrausModel(1, 1, ((1,), (-1,)), ops)
    else:
        raise ModelFormatError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    return KrausModel(1, 2, ((1,), (-1,)), ops)
