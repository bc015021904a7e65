"""Seeded quantum-trajectory simulation and exact oracles.

A trajectory alternates measurement-driven jumps: at each step the walker
moves by displacement s with probability ||L_s psi||^2 and its internal state
collapses to the renormalized image L_s psi / ||L_s psi||.  The engine
evolves pure states: draw 0 resolves the initial lattice state into a site
and an eigenvector of that site's block, with probability the eigenvalue.
The position law is linear in the initial state, so it is that of the
mixed-state walk; the recorded internal states are this pure-state
unravelling, not the conditional mixed state given the positions.

The engine is vectorized over trajectories but arranged so that each
trajectory's arithmetic is independent of the batch it runs in: trajectory i
of a batch with root seed r is bit-for-bit the trajectory of stream seed
derive_seed(r, i) (same platform).  The draws for a block of steps of all
trajectories come from one call to the generator; each is still the pure
function of (stream seed, counter) that one call per step would give, so
blocking changes no realization.

Two exact oracles keep the sampler honest at the horizons it runs at: the
p-step position law from a windowed array propagator, cross-checked against
iterating the lattice map (``apply_M``), and the moment generating function
from the same propagator, cross-checked against the tilted map's p-th power.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import (
    AssumptionError,
    ConvergenceError,
    DegenerateStepError,
    StandardizationError,
    TraceDriftError,
)
from .model import KrausModel, LatticeState, default_initial_state
from .rng import derive_seeds, unit_draws_array
from .superop import _shifted_map, apply_M

__all__ = [
    "Trajectory",
    "sample_trajectory",
    "BatchStatistics",
    "batch_statistics",
    "write_batch_csv",
    "ExactDistribution",
    "exact_distribution",
    "MgfReport",
    "mgf_check",
]


def _unravel(initial_state: LatticeState):
    """Pure-state decomposition of the initial lattice state.

    Returns, per (site, eigenvector) pair in sampling order, its position,
    unit vector and weight; the state is the weighted mixture of the pairs.
    Each block enters through its Hermitian part, and directions with
    eigenvalue <= 0 are dropped: ``LatticeState`` admits eigenvalues down to
    minus its positivity tolerance.
    """
    positions, vectors, weights = [], [], []
    for pos in initial_state.positions:
        block = initial_state.blocks[pos]
        w, v = np.linalg.eigh((block + block.conj().T) / 2)
        keep = w > 0
        positions += [pos] * int(keep.sum())
        vectors.append(v.T[keep])
        weights.append(w[keep])
    return (np.array(positions, dtype=np.int64), np.concatenate(vectors),
            np.concatenate(weights))


# Draws fetched per call: the engine draws a block of max(1, 2^14 // N) steps
# for all N trajectories at once (128 KiB of draws).
_BLOCK_DRAWS = 2**14


def _engine(model: KrausModel, initial_state: LatticeState, n_steps: int,
            stream_seeds: np.ndarray, record: bool):
    """Vectorized trajectory kernel shared by single and batch entry points.

    Evolves one unit vector per trajectory.  Returns the initial and final
    positions and, when ``record`` is set, the position, vector and step-index
    histories (otherwise ``None`` for each).
    """
    n_traj = len(stream_seeds)
    k_steps = model.n_steps
    rows = np.arange(n_traj)

    pair_pos, pair_vec, pair_weight = _unravel(initial_state)
    cum_pairs = np.cumsum(pair_weight) / pair_weight.sum()
    u0 = unit_draws_array(stream_seeds, 0)
    pair = np.minimum(np.searchsorted(cum_pairs, u0, side="right"), len(cum_pairs) - 1)
    x = pair_pos[pair]
    x0 = x.copy()
    psi = pair_vec[pair]

    ops = model.operators
    steps = model.steps_array.astype(np.int64)

    if record:
        pos_hist = np.empty((n_traj, n_steps + 1, model.lattice_dim), dtype=np.int64)
        psi_hist = np.empty((n_traj, n_steps + 1, model.internal_dim), dtype=complex)
        idx_hist = np.empty((n_traj, n_steps), dtype=np.int64)
        pos_hist[:, 0] = x
        psi_hist[:, 0] = psi

    block = max(1, _BLOCK_DRAWS // n_traj)
    for start in range(1, n_steps + 1, block):
        stop = min(start + block, n_steps + 1)
        draws = unit_draws_array(np.tile(stream_seeds, stop - start),
                                 np.repeat(np.arange(start, stop, dtype=np.uint64), n_traj))
        for p, u in zip(range(start, stop), draws.reshape(-1, n_traj)):
            cand = np.einsum("kij,nj->nki", ops, psi)
            flat = cand.view(float)
            probs = np.einsum("nki,nki->nk", flat, flat)
            totals = probs.sum(axis=1)
            drift_off = float(abs(totals - 1.0).max())
            # A dead row (total <= K 1e-15) always fails the drift gate, so
            # the dead-step gate runs only then, and takes precedence; a NaN
            # probability fails the drift gate and passes the dead one.
            if not drift_off <= 1e-9:
                dead = (probs <= 1e-15).all(axis=1)
                if dead.any():
                    raise DegenerateStepError(
                        f"all step probabilities vanished at step {p} for "
                        f"{int(dead.sum())} trajectory(ies)"
                    )
                raise TraceDriftError(
                    f"step probabilities sum to 1 off by {drift_off:.3e} at step {p}"
                )
            cum = probs.cumsum(axis=1)
            cum /= totals[:, None]
            choice = (u[:, None] >= cum).sum(axis=1)
            np.minimum(choice, k_steps - 1, out=choice)

            x += steps[choice]
            norms = probs[rows, choice]
            np.sqrt(norms, out=norms)
            psi = (flat[rows, choice] / norms[:, None]).view(complex)

            if record:
                pos_hist[:, p] = x
                psi_hist[:, p] = psi
                idx_hist[:, p - 1] = choice
        # Free this block's draws (and the row view into them) before the
        # next block's call allocates its own.
        del draws, u

    if record:
        return x0, x, pos_hist, psi_hist, idx_hist
    return x0, x, None, None, None


@dataclass(frozen=True)
class Trajectory:
    """One sampled walk: positions and internal states after every step.

    ``states[p]`` is the rank-one projector of the pure-state unravelling
    after p steps, not the conditional mixed state given the positions: a
    mixed initial state is first resolved into one of its eigenvectors,
    drawn with its eigenvalue as probability.
    """

    positions: np.ndarray
    states: np.ndarray
    step_indices: np.ndarray
    stream_seed: int


def sample_trajectory(model: KrausModel, n_steps: int, stream_seed: int,
                      initial_state: LatticeState | None = None) -> Trajectory:
    """Sample a single trajectory from its own stream seed.

    Note this takes the per-trajectory stream seed; trajectory i of
    :func:`batch_statistics` with root seed r corresponds to
    ``derive_seed(r, i)``.
    """
    if initial_state is None:
        initial_state = default_initial_state(model)
    seeds = np.array([stream_seed], dtype=np.uint64)
    _, _, pos, psi, idx = _engine(model, initial_state, n_steps, seeds, True)
    return Trajectory(
        positions=pos[0], states=np.einsum("pi,pj->pij", psi[0], psi[0].conj()),
        step_indices=idx[0], stream_seed=int(stream_seed),
    )


@dataclass(frozen=True)
class BatchStatistics:
    """Endpoint summary of a seeded batch of trajectories.

    ``standardized`` holds (X_P - X_0 - P m) / sqrt(P) whitened by the
    pseudo-inverse square root of the covariance; ``ks_distance`` compares its
    first coordinate against the standard normal.  Variance is the second
    moment about the sample mean (no ddof correction).
    """

    initials: np.ndarray
    finals: np.ndarray
    stream_seeds: np.ndarray
    standardized: np.ndarray
    mean_standardized: np.ndarray
    variance_standardized: np.ndarray
    ks_distance: float
    n_steps: int
    n_traj: int
    root_seed: int


def batch_statistics(model: KrausModel, n_steps: int, n_traj: int, seed: int,
                     initial_state: LatticeState | None = None,
                     mean: np.ndarray | None = None,
                     covariance: np.ndarray | None = None) -> BatchStatistics:
    """Run ``n_traj`` trajectories of ``n_steps`` steps from a root seed.

    Drift and covariance for standardization are computed from the model
    unless passed in (two-level callers may supply closed-form values when the
    spectral route is degenerate).  Raises :class:`AssumptionError` unless
    ``n_steps`` and ``n_traj`` are both at least 1.
    """
    if n_traj < 1:
        raise AssumptionError(f"a batch needs at least one trajectory, got n_traj={n_traj}")
    if n_steps < 1:
        raise AssumptionError(f"a batch needs at least one step, got n_steps={n_steps}")
    if initial_state is None:
        initial_state = default_initial_state(model)
    if mean is None or covariance is None:
        from .asymptotics import covariance as cov_fn
        from .asymptotics import drift as drift_fn
        from .asymptotics import invariant_state
        rho = invariant_state(model)
        if mean is None:
            mean = drift_fn(model, rho)
        if covariance is None:
            covariance = cov_fn(model, rho)
    mean = np.asarray(mean, dtype=float)
    covariance = np.asarray(covariance, dtype=float)

    seeds = derive_seeds(seed, n_traj)
    x0, xf, _, _, _ = _engine(model, initial_state, n_steps, seeds, False)

    y = (xf - x0 - n_steps * mean) / np.sqrt(n_steps)
    w, v = np.linalg.eigh(covariance)
    support = w > 1e-12 * max(1.0, float(w.max()) if len(w) else 1.0)
    if not support.all():
        null_comp = y @ v[:, ~support]
        worst = float(np.max(np.abs(null_comp))) if null_comp.size else 0.0
        if worst > 1e-6:
            raise StandardizationError(
                f"displacements leave the covariance support by {worst:.3e}; "
                "cannot standardize"
            )
    root = v[:, support] @ np.diag(1.0 / np.sqrt(w[support])) @ v[:, support].T
    z = y @ root

    zs = np.sort(z[:, 0])
    grid = np.arange(1, n_traj + 1, dtype=float)
    cdf = ndtr(zs)
    ks = float(max(np.max(grid / n_traj - cdf), np.max(cdf - (grid - 1) / n_traj)))

    return BatchStatistics(
        initials=x0,
        finals=xf,
        stream_seeds=seeds,
        standardized=z,
        mean_standardized=z.mean(axis=0),
        variance_standardized=z.var(axis=0),
        ks_distance=ks,
        n_steps=int(n_steps),
        n_traj=int(n_traj),
        root_seed=int(seed),
    )


def write_batch_csv(batch: BatchStatistics, fileobj) -> None:
    """Write per-trajectory rows: index, seed, final position, standardized."""
    d = batch.finals.shape[1]
    writer = csv.writer(fileobj, lineterminator="\n")
    header = (
        ["index", "seed"]
        + [f"x_final_{i}" for i in range(d)]
        + [f"standardized_{i}" for i in range(d)]
    )
    writer.writerow(header)
    for i in range(batch.n_traj):
        row = [str(i), str(int(batch.stream_seeds[i]))]
        row += [str(int(val)) for val in batch.finals[i]]
        row += [repr(float(val)) for val in batch.standardized[i]]
        writer.writerow(row)


# --------------------------------------------------------------------------
# Exact oracles.
# --------------------------------------------------------------------------

#: Largest box the exact propagator allocates, in complex entries (sites times
#: n^2) per array: 256 MiB for each of its two arrays.
_BOX_LIMIT = 2**24


def _propagate(model: KrausModel, blocks, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact p-step position law of the walk started from ``blocks``.

    Every site reachable in p steps lies in the box of the start sites
    widened by p extreme steps.  Flattened row-major, the box turns each
    displacement into one flat offset, and a shifted reachable range never
    wraps.  Blocks are stored row-vectorised, so a step is one GEMM per
    displacement, ``B[a+o:b+o] += A[a:b] @ (L (x) conj L)^T``, over the
    occupied range [a, b) only.  A reach mask shifts alongside, so the sites
    returned (in lexicographic order, with their masses) are exactly those
    some word reaches, zero-mass ones included.

    The box is sized in Python integers first, which cannot wrap; one of more
    than ``_BOX_LIMIT`` entries, or with a coordinate of 2^62 or more, raises
    :class:`AssumptionError`.
    """
    n, order = model.internal_dim, sorted(blocks)
    corners = [(min(c) + p * min(0, *s), max(c) + p * max(0, *s))
               for c, s in zip(zip(*order), zip(*model.displacements))]
    entries = math.prod(b - a + 1 for a, b in corners) * n * n
    if entries > _BOX_LIMIT or any(abs(c) >= 2**62 for ab in corners for c in ab):
        raise AssumptionError(
            f"exact propagator box {corners} ({entries} entries) exceeds "
            f"{_BOX_LIMIT} entries or 2^62 per coordinate")
    steps = model.steps_array.astype(np.int64)
    starts = np.array(order, dtype=np.int64).reshape(len(order), -1)
    lo = np.array([a for a, _ in corners], dtype=np.int64)
    shape = np.array([b - a + 1 for a, b in corners], dtype=np.int64)
    strides = np.array([int(np.prod(shape[i + 1:])) for i in range(len(shape))])
    offsets = steps @ strides
    ops = model.operators
    kron_t = np.einsum("kij,kab->kjbia", ops, ops.conj()).reshape(len(ops), n * n, n * n)

    cur, nxt = np.zeros((2, int(np.prod(shape)), n * n), dtype=complex)
    reach, reach_next = np.zeros((2, len(cur)), dtype=bool)
    flat = (starts - lo) @ strides
    cur[flat] = np.array([blocks[pos] for pos in order]).reshape(len(order), -1)
    reach[flat] = True
    a, b = int(flat.min()), int(flat.max()) + 1
    for _ in range(p):
        na, nb = a + int(offsets.min()), b + int(offsets.max())
        nxt[na:nb] = 0
        reach_next[na:nb] = False
        for o, k in zip(offsets, kron_t):
            nxt[a + o:b + o] += cur[a:b] @ k
            reach_next[a + o:b + o] |= reach[a:b]
        cur, nxt, reach, reach_next = nxt, cur, reach_next, reach
        a, b = na, nb

    hit = np.flatnonzero(reach[a:b]) + a
    sites = np.stack(np.unravel_index(hit, shape), axis=1) + lo
    return sites, cur[hit][:, np.arange(n) * (n + 1)].sum(axis=1).real


@dataclass(frozen=True)
class ExactDistribution:
    """Position law after p steps, by two independent computations.

    ``masses`` comes from the windowed array propagator, ``masses_iterated``
    from iterating the lattice map (``apply_M``); both
    hold every site some word reaches.  ``tv_gap`` is their total-variation
    distance (must be tiny or construction raises).
    """

    masses: dict[tuple[int, ...], float]
    masses_iterated: dict[tuple[int, ...], float]
    tv_gap: float


def exact_distribution(model: KrausModel, p: int,
                       initial_state: LatticeState | None = None) -> ExactDistribution:
    """Exact position distribution after p steps (two routes, cross-checked)."""
    if initial_state is None:
        initial_state = default_initial_state(model)
    sites, weights = _propagate(model, initial_state.blocks, p)
    masses = dict(zip(map(tuple, sites.tolist()), weights.tolist()))

    state = initial_state
    for _ in range(p):
        state = apply_M(model, state)
    masses_iter = {
        pos: float(np.trace(block).real) for pos, block in state.blocks.items()
    }

    keys = set(masses) | set(masses_iter)
    tv = 0.5 * sum(abs(masses.get(k, 0.0) - masses_iter.get(k, 0.0)) for k in keys)
    if tv > 1e-10:
        raise ConvergenceError(
            f"propagated and iterated-map distributions disagree (TV {tv:.3e})"
        )
    total = sum(masses.values())
    if abs(total - 1.0) > 1e-10:
        raise ConvergenceError(
            f"propagated distribution has total mass {total!r}, expected 1"
        )
    return ExactDistribution(masses, masses_iter, float(tv))


@dataclass(frozen=True)
class MgfReport:
    """Moment generating function of the p-step displacement, both routes.

    ``relative_gap`` compares the routes rescaled by exp(-p max_s <u, s>);
    the two values are unscaled and overflow to inf at long horizons.
    """

    path_value: float
    tilted_value: float
    relative_gap: float


def mgf_check(model: KrausModel, u, p: int,
              initial_state: LatticeState | None = None) -> MgfReport:
    """E[exp(<u, X_p - X_0>)] by the propagator vs the tilted-map power.

    By translation invariance, X_p - X_0 has the position law of the walk
    started from the summed blocks rho at the origin, which the propagator
    gives; the other route is Tr(L_u^p rho).  Both use the weights of
    ``superop._shifted_map``, shifted by exp(-max_s <u, s>) per step, so
    neither overflows; if both underflow, :class:`ConvergenceError`.
    """
    if initial_state is None:
        initial_state = default_initial_state(model)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    rho = sum(np.asarray(b, dtype=complex) for b in initial_state.blocks.values())

    sites, weights = _propagate(model, {(0,) * model.lattice_dim: rho}, p)
    shift, shifted = _shifted_map(model, u)
    path = float(np.exp(sites @ u - p * shift) @ weights)
    tilted = float(np.trace(shifted.power_apply(rho, p)).real)
    larger = max(abs(path), abs(tilted))
    if larger < np.finfo(float).tiny:
        raise ConvergenceError(
            f"scaled moments underflow at p={p} (propagator {path:.3e}, "
            f"tilted map {tilted:.3e})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(p * shift)
        return MgfReport(float(path * scale), float(tilted * scale),
                         abs(path - tilted) / larger)
