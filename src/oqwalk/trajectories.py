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
blocking changes no realization.  Each step forms the candidates L_s psi of
all trajectories in one real matrix product, which holds row replay only if
every row gets the same bits at every batch width: OpenBLAS computes a
one-row product by a matrix-vector routine whose bits differ, so a single
trajectory runs beside a zero row.  A recorded run steps inside its own
history, reading each step's states from one slot and writing the next
slot, so a single trajectory's zero row is its next, still empty, slot.
What follows the product (the step probabilities, the row totals, the
choice of step and the renormalization) takes one of two forms by batch
width: vectorized over the K step columns with flat gathers or, for a few
rows, in Python scalars, where numpy's per-call cost would dominate.  The
scalar form runs in its own loop over each draw block, and a lone
trajectory steps there without a loop over rows.  With few enough terms
the scalar form adds each squared norm in Python floats, in the order of
numpy's ``einsum`` kernel where a check at first use finds that order,
else it calls ``einsum`` as the column form does; both add each row's
total one step at a time, so both give each row the same bits.
Either tail lists its picks: an unrecorded run adds their steps to its
positions once per draw block, and a recorded run takes its positions as
the start plus the int64 cumulative sum of its steps.

Two exact oracles keep the sampler honest at the horizons it runs at: the
p-step position law from a windowed array propagator, cross-checked against
iterating the lattice map (``apply_M``), and the moment generating function
from the same propagator, cross-checked against the tilted map's p-th power.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from itertools import accumulate

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

# Widest batch whose steps choose and renormalize in Python scalars
# (:func:`_narrow_block`).  Whole unrecorded steps timed in process with one
# BLAS thread on a 2-vCPU x86-64 host (numpy 2.4.6) for n = 2, 4 and 8 and
# K = 2 and 9, median of seven interleaved runs: the scalar tail took 0.37 to
# 0.47 of the column tail's time at N = 2 and 0.53 to 0.67 at N = 4.  It
# also won every case at N = 5 and 6 (0.63 to 0.85) and lost two of six at
# N = 8 (up to 1.10); no workload runs those widths, so the bound stays.
_NARROW = 4

# Most terms N n K whose squared norms a narrow step adds in Python floats
# rather than with ``einsum``.  The scalar cost grows with N n K and
# ``einsum``'s hardly: timed with timeit on the same host against ``einsum``
# and ``tolist`` for N <= 4, n <= 8 and K <= 9, the scalar norms were
# faster in every case up to 10 terms, in most at 12 to 16 and in none from
# 18 (at 288 terms, 30 against 3 us).
_SCALAR_TERMS = 12


def _norm_terms(n: int, k_steps: int) -> list[list[tuple[int, int]]]:
    """Where the scalar tail reads each candidate's terms, in ``einsum``'s order.

    A row of candidates holds K blocks of 2n interleaved (re, im)
    coordinates.  numpy's float64 ``einsum`` sum-of-products kernel adds a
    block in two 64-bit lanes, one over the real and one over the imaginary
    coordinates, each a multiply then an add (no FMA): components 0-3 of a
    lane are added 3, 2, 1, 0, then 7, 6, 5, 4 and so on, and the n % 4 left
    over forward; the lanes are added last, real + imag.  Entry s lists, for
    step s, the (re, im) indices into the row in that order.
    """
    head = n - n % 4
    order = [j for b in range(0, head, 4) for j in (b + 3, b + 2, b + 1, b)]
    order += range(head, n)
    return [[(2 * (s * n + j), 2 * (s * n + j) + 1) for j in order]
            for s in range(k_steps)]


def _squared_norms(rows: list[list[float]], terms) -> list[list[float]]:
    """The K squared candidate norms of each row, in Python floats.

    Adds in the order :func:`_norm_terms` gives, so each value has the bits
    of ``np.einsum("nki,nki->nk")`` on the same row where numpy's kernel adds
    as described there (:func:`_einsum_terms` checks that).
    """
    out = []
    for row in rows:
        norms = []
        for pairs in terms:
            re = im = 0.0
            for a, b in pairs:
                x, y = row[a], row[b]
                re += x * x
                im += y * y
            norms.append(re + im)
        out.append(norms)
    return out


@functools.cache
def _einsum_terms(n: int, k_steps: int):
    """:func:`_norm_terms` if ``einsum`` adds in their order here, else None.

    Checked once per (n, K) in a process, on 16 rows of candidates whose
    terms lie within a few binades of each other, each candidate at its own
    scale over 200 binades, so that another add order shows in the rounding.
    A kernel that adds otherwise, as one that fuses multiply-add (aarch64
    NEON) or keeps four lanes, fails the check where its order moves a bit,
    and the narrow tail then takes its norms from ``einsum``, as the wide
    tail does.
    """
    rng = np.random.default_rng(100 * n + k_steps)
    shape = (16, k_steps, 2 * n)
    probe = (rng.standard_normal(shape) * np.exp2(rng.integers(-2, 3, size=shape))
             * np.exp2(rng.integers(-100, 101, size=(16, k_steps, 1))))
    terms = _norm_terms(n, k_steps)
    scalar = np.array(_squared_norms(probe.reshape(16, -1).tolist(), terms))
    exact = scalar.tobytes() == np.einsum("nki,nki->nk", probe, probe).tobytes()
    return terms if exact else None


def _stop(probs: np.ndarray, p: int):
    """Raise for step p, whose probabilities failed the drift screen.

    A dead row (total <= K 1e-15) always fails the drift screen, so the
    dead-step gate runs only then, and takes precedence; a NaN probability
    fails the drift screen and passes the dead one.  The drift reported is
    the largest over all rows, read from the totals both tails screen (the
    sequential sums that ``np.cumsum`` gives), so the message does not
    depend on the batch width or the tail.
    """
    dead = (probs <= 1e-15).all(axis=1)
    if dead.any():
        raise DegenerateStepError(
            f"all step probabilities vanished at step {p} for "
            f"{int(dead.sum())} trajectory(ies)"
        )
    drift_off = float(abs(probs.cumsum(axis=1)[:, -1] - 1.0).max())
    raise TraceDriftError(
        f"step probabilities sum to 1 off by {drift_off:.3e} at step {p}"
    )


def _narrow_block(draws: np.ndarray, first: int, coords: np.ndarray, gemm: np.ndarray,
                  cand: np.ndarray, probs: np.ndarray, terms, stride: int,
                  chosen: list) -> None:
    """Steps first, first + 1, ... of a batch of at most ``_NARROW`` rows.

    ``draws`` is the block's flat array of draws, N a step, which the steps
    read as Python floats through one ``memoryview``; each step appends its
    N picks to ``chosen``.  The other arguments are :func:`_engine`'s
    buffers, and ``terms`` is :func:`_einsum_terms`'s answer, or None where
    the norms come from ``einsum``.  The candidates come from ``np.dot``,
    which makes the GEMM call ``np.matmul`` makes on these C-contiguous
    operands of two or more rows, at less cost per call on a few rows (the
    wide tail keeps ``np.matmul``, which costs less on many).  A lone
    trajectory steps without the row loop of wider batches.
    """
    n_traj, k_steps = probs.shape
    rows, last = len(cand), k_steps - 1
    head = cand[:n_traj]
    flat = head.reshape(n_traj, k_steps, -1)
    views = [list(row) for row in flat]  # views[i][s]: row i's L_s psi
    dot, divide, einsum, norms = np.dot, np.divide, np.einsum, _squared_norms
    sqrt, append = math.sqrt, chosen.append
    us = iter(memoryview(draws))
    if n_traj == 1:
        # No row loop: oracle_replay's single walks read 5 % lower wall_norm
        # than through the loop below (2-vCPU x86-64, 10 pairs).
        view = views[0]
        for p, u in enumerate(us, first):
            src = (p - 1) * stride
            dot(coords[src:src + rows], gemm, cand)
            if terms is None:
                einsum("nki,nki->nk", flat, flat, out=probs)
                pr = probs.tolist()[0]
            else:
                pr = norms(head.tolist(), terms)[0]
            # One add at a time, as the wide tail's column adds do; not
            # builtin sum() or math.fsum, which compensate (sum() from
            # Python 3.12).
            cum = list(accumulate(pr))
            total = cum[last]
            if not abs(total - 1.0) <= 1e-9:
                _stop(np.array([pr]), p)
            for k in range(last):
                if u < cum[k] / total:
                    break
            else:
                k = last
            divide(view[k], sqrt(pr[k]), coords[src + stride])
            append(k)
        return
    for p in range(first, first + len(draws) // n_traj):
        src = (p - 1) * stride
        dst = src + stride
        dot(coords[src:src + rows], gemm, cand)
        if terms is None:
            einsum("nki,nki->nk", flat, flat, out=probs)
            pr_rows = probs.tolist()
        else:
            pr_rows = norms(head.tolist(), terms)
        # pr_rows comes first, so zip stops before it takes the next step's
        # first draw.
        for i, (pr, u) in enumerate(zip(pr_rows, us)):
            cum = list(accumulate(pr))
            total = cum[last]
            if not abs(total - 1.0) <= 1e-9:
                _stop(np.array(pr_rows), p)
            for k in range(last):
                if u < cum[k] / total:
                    break
            else:
                k = last
            divide(views[i][k], sqrt(pr[k]), coords[dst + i])
            append(k)


def _engine(model: KrausModel, initial_state: LatticeState, n_steps: int,
            stream_seeds: np.ndarray, record: bool):
    """Trajectory kernel shared by single and batch entry points.

    Evolves one unit vector per trajectory in the rows of a complex buffer:
    unrecorded, max(N, 2) rows whose first N each step rewrites; recorded,
    the state history itself, P + 1 zero-initialised slots of N rows, where
    step p reads max(N, 2) rows from slot p - 1 and writes slot p once (a
    lone trajectory's second row is its next slot, still zero when read).
    A step has a front shared by every batch width and one of two tails:

    * the front is one real GEMM of the rows' interleaved (re, im)
      coordinates with a (2n, 2Kn) matrix built once per call, giving the K
      candidates of every row.  The product never has fewer than two rows
      because a one-row product goes to gemv, whose bits differ from a row
      of a wider GEMM;
    * the tail forms the candidates' squared norms ``probs``, adds each
      row's cumulative probabilities one step at a time (the last is the
      row total), screens each total for drift from 1 (a failure raises
      from :func:`_stop`, the one home of the drift and dead-row gates),
      picks per row the first step s < K-1 whose cumulative probability
      over the total exceeds the row's draw (else K-1) and writes
      L_s psi / sqrt(probs[s]) to the row's next state.  Batches of up to
      ``_NARROW`` rows run their steps in :func:`_narrow_block`, once per
      draw block, in Python scalars and a row at a time (a lone trajectory
      without the row loop), with ``np.dot`` for the front's GEMM; at most
      ``_SCALAR_TERMS`` terms N n K take their norms from one ``tolist`` of
      the candidates and :func:`_squared_norms`, where
      :func:`_einsum_terms` finds ``einsum``'s add order, and the others
      from ``einsum``.  Wider batches use ``einsum`` for the norms, K - 1
      adds over the step columns of a (K, N) buffer, one comparison of the
      draws against the normalized columns, and flat ``take`` gathers at
      row * K + s.  Either tail lists its picks; an unrecorded run moves its
      positions by them once per draw block, a recorded one by one exact
      int64 ``cumsum`` after the last step.

    The two tails agree bit for bit: the front is the same GEMM (``np.dot``
    and ``np.matmul`` make one call on these operands, and a tier-1 test
    pins their bytes on the narrow shapes), the scalar norms add in the
    order of numpy's float64 ``einsum`` kernel, each tail forms the
    cumulative sums and totals in the same sequential order (not numpy's
    row sum, which adds blocks of 8 pairwise from K = 8) and then
    only compares, divides and takes square roots, which IEEE arithmetic
    rounds correctly in either form.  So row i of any batch replays the
    single trajectory of its stream seed.  The scalar order is that of an
    x86-64 build with two 64-bit lanes and no fused multiply-add (an
    ``X86_V2`` baseline).  On a build whose kernel fuses (aarch64 NEON) or
    keeps four lanes, :func:`_einsum_terms` finds another order and every
    tail takes its norms from ``einsum``, and a tier-1 test that pins the
    scalar norms to ``einsum`` byte for byte fails, to show it.

    Returns the initial and final positions and, when ``record`` is set, the
    (N, P + 1, d) positions, (N, P + 1, n) states and (N, P) step indices
    (otherwise ``None`` for each).  Raises :class:`AssumptionError` if a
    coordinate could reach 2^62.
    """
    n_traj = len(stream_seeds)
    n, k_steps = model.internal_dim, model.n_steps

    pair_pos, pair_vec, pair_weight = _unravel(initial_state)
    cum_pairs = np.cumsum(pair_weight) / pair_weight.sum()
    u0 = unit_draws_array(stream_seeds, 0)
    pair = np.minimum(np.searchsorted(cum_pairs, u0, side="right"), len(cum_pairs) - 1)
    x0 = pair_pos[pair]
    # Positions are int64.  Refuse a walk that could leave that range, as the
    # exact propagator does, rather than wrap.
    reach = (max(n_steps, 1) * max(abs(int(c)) for s in model.displacements for c in s)
             + int(np.abs(x0).max()))
    if reach >= 2**62:
        raise AssumptionError(
            f"a coordinate may reach {reach} in {n_steps} steps; positions must "
            "stay below 2^62")
    # OpenBLAS sends a one-row GEMM to gemv, whose bits differ from the
    # GEMM's; every product of two or more rows gives each row the same bits,
    # with one BLAS thread or more.  So a lone trajectory runs beside a zero
    # row whose candidates nothing reads, and row i of a batch replays it bit
    # for bit.  Step p reads rows [src, src + rows) and writes [dst, dst + N).
    rows = max(n_traj, 2)
    stride = n_traj if record else 0
    hist = np.zeros(((n_steps + 1) * n_traj if record else rows, n), dtype=complex)
    hist[:n_traj] = pair_vec[pair]
    coords = hist.view(float)

    # The candidates L_s psi of all rows in one real GEMM: with psi's
    # interleaved (re, im) coordinates as rows, column (s, i, re) of ``gemm``
    # holds (Re L_s[i], -Im L_s[i]) and column (s, i, im) holds
    # (Im L_s[i], Re L_s[i]), so ``cand`` is the float view of the (N, K, n)
    # complex candidates.  Not a complex matmul: right after a zgemm call,
    # numpy's axis-1 reductions ran about 13x slower on x86-64 (numpy 2.4,
    # OpenBLAS 0.3.31), which made small-n batches slower overall.
    ops = model.operators.transpose(2, 0, 1)
    gemm = np.empty((n, 2, k_steps, n, 2))
    gemm[:, 0, ..., 0] = ops.real
    gemm[:, 1, ..., 0] = -ops.imag
    gemm[:, 0, ..., 1] = ops.imag
    gemm[:, 1, ..., 1] = ops.real
    gemm = gemm.reshape(2 * n, 2 * k_steps * n)
    cand = np.empty((rows, 2 * k_steps * n))
    probs = np.empty((n_traj, k_steps))
    steps = model.steps_array.astype(np.int64)
    narrow = n_traj <= _NARROW
    x = x0.copy()
    chosen = []  # every step's picks: one int per row (narrow), one array (wide)
    if narrow:
        terms = (_einsum_terms(n, k_steps) if n_traj * n * k_steps <= _SCALAR_TERMS
                 else None)
    else:
        # numpy reduces along a short inner axis and gathers by two indices
        # slowly, so the wide tail runs over the K step columns and gathers
        # each row's pick at its flat index row * K + s.
        flat = cand[:n_traj].reshape(n_traj, k_steps, 2 * n)
        probs_t, probs_flat = probs.T, probs.reshape(-1)
        last = k_steps - 1
        cum = np.empty((k_steps, n_traj))
        row_offsets = np.arange(0, n_traj * k_steps, k_steps)
        cand_rows = cand.reshape(-1, 2 * n)

    block = max(1, _BLOCK_DRAWS // n_traj)
    for start in range(1, n_steps + 1, block):
        stop = min(start + block, n_steps + 1)
        draws = unit_draws_array(np.tile(stream_seeds, stop - start),
                                 np.repeat(np.arange(start, stop, dtype=np.uint64), n_traj))
        if narrow:
            _narrow_block(draws, start, coords, gemm, cand, probs, terms,
                          stride, chosen)
        else:
            for p, u in zip(range(start, stop), draws.reshape(-1, n_traj)):
                src = (p - 1) * stride
                dst = src + stride
                # Not np.dot: same GEMM, but at 2048 rows it took 7.4 us a
                # call against 5.6 us, and sampler's wall_norm rose 5 %.
                np.matmul(coords[src:src + rows], gemm, out=cand)
                np.einsum("nki,nki->nk", flat, flat, out=probs)
                np.copyto(cum[0], probs_t[0])
                for k in range(1, k_steps):
                    np.add(cum[k - 1], probs_t[k], out=cum[k])
                totals = cum[last]
                if not abs(totals - 1.0).max() <= 1e-9:
                    _stop(probs, p)
                # cum is monotone in k, so counting the thresholds at or below
                # u finds the first one above it, never past K-1.
                ratios = cum[:last]
                ratios /= totals
                choice = (u >= ratios).sum(axis=0)
                chosen.append(choice)
                pick = row_offsets + choice
                norms = probs_flat.take(pick)
                np.sqrt(norms, out=norms)
                np.divide(cand_rows.take(pick, axis=0), norms[:, None],
                          out=coords[dst:dst + n_traj])
            del u
        # Free this block's draws (and the wide tail's row view into them)
        # before the next block's call allocates its own.
        del draws
        if not record:  # keep one block of picks, not P of them
            x += steps.take(np.array(chosen).reshape(-1, n_traj), axis=0).sum(axis=0)
            chosen.clear()

    if not record:
        return x0, x, None, None, None
    idx = np.array(chosen, dtype=np.int64).reshape(n_steps, n_traj).T
    pos = np.cumsum(np.concatenate([x0[:, None], steps.take(idx, axis=0)], axis=1), axis=1)
    return x0, pos[:, -1], pos, hist.reshape(n_steps + 1, n_traj, n).swapaxes(0, 1), idx


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
    ``derive_seed(r, i)``.  Zero steps return the start alone; a negative
    ``n_steps`` raises :class:`AssumptionError`.
    """
    if n_steps < 0:
        raise AssumptionError(f"a trajectory needs at least zero steps, got n_steps={n_steps}")
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
                     initial_state: LatticeState | None = None, *,
                     mean: np.ndarray, covariance: np.ndarray) -> BatchStatistics:
    """Run ``n_traj`` trajectories of ``n_steps`` steps from a root seed.

    The endpoints are standardized with the drift ``mean`` (d,) and the CLT
    ``covariance`` (d, d) the caller passes: the spectral values at the
    invariant state, or a two-level model's closed forms where that route is
    degenerate (the CLI chooses between them).  Raises
    :class:`AssumptionError` unless ``n_steps`` and ``n_traj`` are both at
    least 1.
    """
    if n_traj < 1:
        raise AssumptionError(f"a batch needs at least one trajectory, got n_traj={n_traj}")
    if n_steps < 1:
        raise AssumptionError(f"a batch needs at least one step, got n_steps={n_steps}")
    if initial_state is None:
        initial_state = default_initial_state(model)
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
    :class:`AssumptionError`, as does a negative p.
    """
    if p < 0:
        raise AssumptionError(f"an exact law needs at least zero steps, got p={p}")
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
