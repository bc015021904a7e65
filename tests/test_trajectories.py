"""Trajectory engine: seeding, exact oracles, standardization."""
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oqwalk import (
    AssumptionError,
    ConvergenceError,
    DegenerateStepError,
    KrausModel,
    LatticeState,
    StandardizationError,
    TraceDriftError,
    batch_statistics,
    build_superop,
    builtin,
    default_initial_state,
    exact_distribution,
    invariant_state,
    mgf_check,
    point_initial_state,
    random_initial_state,
    sample_trajectory,
    write_batch_csv,
)
from oqwalk import trajectories
from oqwalk.config import ORACLE_TOL
from oqwalk.rng import derive_seed, derive_seeds, unit_draws_array
from oqwalk.trajectories import (
    _BLOCK_DRAWS,
    _NARROW,
    _einsum_terms,
    _engine,
    _norm_terms,
    _squared_norms,
    _unravel,
)
import reference
from conftest import moments
from model_zoo import NN_STEPS, STEPS_2D, broken_scaled_model, random_isometry_model


E1 = np.array([[1.0, 0.0], [0.0, 0.0]])
E2 = np.array([[0.0, 0.0], [0.0, 1.0]])


def mixed_two_site_start(model):
    """A full-rank, non-diagonal block split unevenly over sites (0,) and (3,)."""
    block = random_initial_state(model, seed=5).blocks[(0,)]
    return LatticeState({(0,): 0.3 * block, (3,): 0.7 * block})


# -- seeding and reproducibility ----------------------------------------------

def test_batches_are_reproducible_and_seed_sensitive(std_model):
    a = batch_statistics(std_model, 40, 64, seed=123, **moments(std_model))
    b = batch_statistics(std_model, 40, 64, seed=123, **moments(std_model))
    assert np.array_equal(a.finals, b.finals)
    assert np.array_equal(a.standardized, b.standardized)
    assert a.ks_distance == b.ks_distance
    c = batch_statistics(std_model, 40, 64, seed=124, **moments(std_model))
    assert not np.array_equal(a.finals, c.finals)


def test_batch_rows_replay_as_single_trajectories(std_model):
    root, n_steps, n_traj = 2024, 30, 512
    seeds = derive_seeds(root, n_traj)
    for start in (None, mixed_two_site_start(std_model)):
        batch = batch_statistics(std_model, n_steps, n_traj, seed=root,
                                 initial_state=start, **moments(std_model))
        assert np.array_equal(batch.stream_seeds, seeds)
        start = start or default_initial_state(std_model)
        _, _, _, batch_psi, batch_steps = _engine(std_model, start, n_steps,
                                                  seeds, True)
        for i in (0, 7, 499):
            tr = sample_trajectory(std_model, n_steps, derive_seed(root, i),
                                   initial_state=start)
            assert tr.stream_seed == int(derive_seed(root, i))
            assert np.array_equal(tr.positions[-1], batch.finals[i])
            assert np.array_equal(tr.positions[0], batch.initials[i])
            assert np.array_equal(tr.step_indices, batch_steps[i])
            _, _, _, row_psi, _ = _engine(std_model, start, n_steps,
                                          seeds[i:i + 1], True)
            assert np.array_equal(row_psi[0], batch_psi[i])


def test_rows_replay_across_draw_blocks(std_model):
    # At N = 3 a draw block holds 2^14 // 3 = 5461 steps, so the batch draws
    # P = 5500 in two blocks, the second one partial; each single trajectory
    # draws the same steps in one block.
    root, n_traj, n_steps = 77, 3, 5500
    block = _BLOCK_DRAWS // n_traj
    assert block < n_steps and n_steps % block
    seeds = derive_seeds(root, n_traj)
    start = default_initial_state(std_model)
    _, finals, pos, psi, idx = _engine(std_model, start, n_steps, seeds, True)
    batch = batch_statistics(std_model, n_steps, n_traj, seed=root, **moments(std_model))
    assert np.array_equal(batch.finals, finals)
    for i in range(n_traj):
        tr = sample_trajectory(std_model, n_steps, derive_seed(root, i))
        assert np.array_equal(tr.positions, pos[i])
        assert np.array_equal(tr.step_indices, idx[i])
        _, _, _, row_psi, _ = _engine(std_model, start, n_steps, seeds[i:i + 1], True)
        assert row_psi[0].tobytes() == psi[i].tobytes()


def assert_rows_replay(model, root, n_steps, sizes, rows):
    """The run at N = 1 of stream i is row i of the run at every N in
    ``sizes``, bit for bit, for each i in ``rows`` below N."""
    seeds = derive_seeds(root, max(sizes))
    start = default_initial_state(model)
    singles = {i: _engine(model, start, n_steps, seeds[i:i + 1], True) for i in rows}
    for n_traj in sizes:
        _, _, pos, psi, idx = _engine(model, start, n_steps, seeds[:n_traj], True)
        for i in (i for i in rows if i < n_traj):
            _, _, row_pos, row_psi, row_idx = singles[i]
            assert np.array_equal(row_pos[0], pos[i]), (n_traj, i)
            assert np.array_equal(row_idx[0], idx[i]), (n_traj, i)
            assert row_psi[0].tobytes() == psi[i].tobytes(), (n_traj, i)


@pytest.mark.parametrize("model", [random_isometry_model(31, n=4),
                                   random_isometry_model(32, n=3, steps=STEPS_2D),
                                   random_isometry_model(5, n=3,
                                                         steps=[(s,) for s in range(-4, 5)]),
                                   random_isometry_model(41, n=5),
                                   random_isometry_model(42, n=8, steps=((1,), (0,), (-1,)))],
                         ids=["isometry31_n4", "isometry32_n3_2d", "isometry5_n3_k9",
                              "isometry41_n5", "isometry42_n8_k3"])
def test_complex_operator_rows_replay_at_every_batch_width(model):
    # The candidates come from one GEMM over all rows; a lone trajectory must
    # get the bits of a row of a wider product, not those of a matrix-vector
    # product.  Batches up to _NARROW rows choose and renormalize in Python
    # scalars, wider ones over the step columns, so the widths straddle that
    # boundary; a narrow run of at most _SCALAR_TERMS terms N n K also forms
    # its squared norms in Python floats (here at N = 1 for n = 3 to 5), the
    # others with einsum.  With K = 9 both tails still add the row totals one
    # step at a time, where numpy's row sum would add them in 8-way pairwise
    # blocks; at n = 5 to 8 each lane of a squared norm adds a reversed run of
    # four and then the rest forward.
    assert_rows_replay(model, 2024, 40, (2, 3, _NARROW, _NARROW + 1, 64), range(64))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k_steps", [2, 3, 9])
def test_scalar_squared_norms_have_the_bits_of_einsum(n, k_steps):
    # Narrow batches of few terms form their step probabilities in Python
    # floats, the others with einsum; rows replay only if both add in the
    # same order.  On a numpy build whose einsum fuses multiply-add or keeps
    # four lanes, the check at first use sends every batch to einsum, so rows
    # still replay, and this test fails to show that the scalar path is
    # lost.  Each candidate has its own scale, over 200 binades, and terms
    # within a few binades of each other, so that the order of the adds
    # shows in the rounding.
    rng = np.random.default_rng(1000 * n + k_steps)
    width = 2 * k_steps * n
    terms = _norm_terms(n, k_steps)
    for n_traj in (1, 2, 3, _NARROW):
        cand = np.zeros((max(n_traj, 2), width))  # N = 1 beside its zero row
        flat = cand[:n_traj].reshape(n_traj, k_steps, 2 * n)
        flat[...] = (rng.standard_normal(flat.shape)
                     * np.exp2(rng.integers(-2, 3, size=flat.shape))
                     * np.exp2(rng.integers(-100, 101, size=(n_traj, k_steps, 1))))
        probs = np.empty((n_traj, k_steps))
        np.einsum("nki,nki->nk", flat, flat, out=probs)
        scalar = np.array(_squared_norms(cand[:n_traj].tolist(), terms))
        assert scalar.tobytes() == probs.tobytes(), n_traj
    assert _einsum_terms(n, k_steps) == terms


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k_steps", [1, 2, 9])
def test_dot_and_matmul_give_the_narrow_front_the_same_bits(n, k_steps):
    # Narrow batches form their candidates with np.dot, wide ones with
    # np.matmul; rows replay only if both make the same GEMM.  The operands
    # are shaped as the engine's: 2 to _NARROW rows of a state history's
    # interleaved coordinates, times the (2n, 2Kn) real operator matrix.
    rng = np.random.default_rng(100 * n + k_steps)
    gemm = rng.standard_normal((2 * n, 2 * k_steps * n))
    hist = (rng.standard_normal((3 + _NARROW, 2 * n))
            * np.exp2(rng.integers(-40, 41, size=(1, 2 * n))))
    for rows in range(2, _NARROW + 1):
        for src in (0, 3):
            by_dot, by_matmul = np.empty((2, rows, 2 * k_steps * n))
            np.dot(hist[src:src + rows], gemm, by_dot)
            np.matmul(hist[src:src + rows], gemm, out=by_matmul)
            assert by_dot.tobytes() == by_matmul.tobytes(), (rows, src)


@pytest.mark.parametrize("n", range(4, 9))
def test_the_einsum_order_check_refuses_another_order(monkeypatch, n):
    # From n = 4 the lanes add reversed runs of four; a forward order must
    # fail the per-process check, which then sends the narrow tail to einsum.
    monkeypatch.setattr(trajectories, "_norm_terms",
                        lambda n, k: [[(2 * (s * n + j), 2 * (s * n + j) + 1)
                                       for j in range(n)] for s in range(k)])
    assert _einsum_terms.__wrapped__(n, 2) is None


def test_narrow_rows_keep_their_bits_with_einsum_norms(monkeypatch, std_model):
    # Where the order check fails, narrow batches take their squared norms
    # from einsum; a row keeps every bit.
    seeds = derive_seeds(9, 3)
    start = default_initial_state(std_model)
    runs = [_engine(std_model, start, 300, seeds[:n_traj], True) for n_traj in (1, 3)]
    monkeypatch.setattr(trajectories, "_einsum_terms", lambda n, k: None)
    for n_traj, run in zip((1, 3), runs):
        again = _engine(std_model, start, 300, seeds[:n_traj], True)
        for a, b in zip(run[2:], again[2:]):
            assert a.tobytes() == b.tobytes(), n_traj


# OpenBLAS splits the rows of a large enough GEMM over its threads; the CI
# tier-1 job pins one BLAS thread, so this check runs with two.
_THREADED_REPLAY = """
from model_zoo import random_isometry_model
from test_trajectories import assert_rows_replay
assert_rows_replay(random_isometry_model(8, n=8), 5, 12, (3, 2048),
                   rows=(0, 1, 2, 1023, 2047))
"""


def test_rows_replay_with_two_blas_threads():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _THREADED_REPLAY],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("model", [builtin("periodic_example"),
                                   random_isometry_model(31, n=4)],
                         ids=["periodic_example", "isometry31_n4"])
def test_trajectory_record_is_internally_consistent(model):
    n = model.internal_dim
    tr = sample_trajectory(model, 50, stream_seed=99)
    assert tr.positions.shape == (51, 1) and tr.positions.dtype == np.int64
    assert tr.states.shape == (51, n, n)
    assert tr.step_indices.shape == (50,)
    assert np.array_equal(tr.positions[0], [0])  # default start: origin
    steps = model.steps_array
    np.testing.assert_array_equal(np.diff(tr.positions, axis=0),
                                  steps[tr.step_indices])
    np.testing.assert_allclose(np.trace(tr.states, axis1=1, axis2=2),
                               1.0, atol=1e-10)
    # collapse rule: each state is the renormalized image of its predecessor
    for p in range(5):
        op = model.operators[tr.step_indices[p]]
        new = op @ tr.states[p] @ op.conj().T
        np.testing.assert_allclose(tr.states[p + 1], new / np.trace(new).real,
                                   atol=1e-12)


@pytest.mark.parametrize("model", [builtin("periodic_example"),
                                   random_isometry_model(32, n=3, steps=STEPS_2D)],
                         ids=["periodic_example", "isometry32_n3_2d"])
def test_zero_and_one_step_trajectories_keep_their_shapes(model):
    n, d = model.internal_dim, model.lattice_dim
    for n_steps in (0, 1):
        tr = sample_trajectory(model, n_steps, stream_seed=6)
        assert tr.positions.shape == (n_steps + 1, d) and tr.positions.dtype == np.int64
        assert tr.states.shape == (n_steps + 1, n, n) and tr.states.dtype == complex
        assert tr.step_indices.shape == (n_steps,) and tr.step_indices.dtype == np.int64
        # the start: the origin, and a rank-one projector
        np.testing.assert_array_equal(tr.positions[0], np.zeros(d, dtype=np.int64))
        np.testing.assert_allclose(tr.states[0] @ tr.states[0], tr.states[0], atol=1e-15)
        assert np.trace(tr.states[0]).real == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("model,start", [
    (builtin("std_example"), "two-site"),
    (random_isometry_model(32, n=3, steps=STEPS_2D), None),
], ids=["std_example_two_site", "isometry32_n3_2d"])
def test_positions_are_the_start_plus_the_steps_taken(model, start):
    if start:
        start = mixed_two_site_start(model)
    steps = np.array(model.displacements, dtype=np.int64)
    for stream_seed in range(4):
        tr = sample_trajectory(model, 300, stream_seed, initial_state=start)
        np.testing.assert_array_equal(
            tr.positions[1:], tr.positions[0] + np.cumsum(steps[tr.step_indices], axis=0))


def test_narrow_unrecorded_batches_finish_where_their_rows_replay(std_model):
    # Batches of up to _NARROW rows keep only their picks and sum the steps
    # after the loop; the finals must still be each row's own walk.
    root, n_steps = 19, 120
    start = mixed_two_site_start(std_model)
    for n_traj in range(2, _NARROW + 1):
        batch = batch_statistics(std_model, n_steps, n_traj, seed=root,
                                 initial_state=start, mean=[0.0], covariance=[[1.0]])
        for i in range(n_traj):
            tr = sample_trajectory(std_model, n_steps, derive_seed(root, i),
                                   initial_state=start)
            assert np.array_equal(tr.positions[0], batch.initials[i]), (n_traj, i)
            assert np.array_equal(tr.positions[-1], batch.finals[i]), (n_traj, i)


def test_a_negative_horizon_is_an_assumption_error(std_model):
    with pytest.raises(AssumptionError, match=r"at least zero steps, got n_steps=-1$") as info:
        sample_trajectory(std_model, -1, stream_seed=0)
    assert info.value.exit_code == 3
    with pytest.raises(AssumptionError, match=r"at least zero steps, got p=-1$"):
        exact_distribution(std_model, -1)
    with pytest.raises(AssumptionError, match=r"at least zero steps, got p=-1$"):
        mgf_check(std_model, 0.5, -1)


def test_zero_step_oracles_return_the_start(std_model):
    start = mixed_two_site_start(std_model)
    dist = exact_distribution(std_model, 0, initial_state=start)
    assert dist.masses == pytest.approx({(0,): 0.3, (3,): 0.7}, abs=1e-15)
    assert dist.masses_iterated == pytest.approx(dist.masses, abs=1e-15)
    assert mgf_check(std_model, 0.5, 0, initial_state=start).path_value == pytest.approx(1.0)


def test_initial_site_is_drawn_from_the_initial_state(std_model):
    blocks = {(0,): np.eye(2) / 4, (3,): np.eye(2) / 4}
    start = LatticeState(blocks)
    batch = batch_statistics(std_model, 5, 400, seed=7, initial_state=start,
                             **moments(std_model))
    starts = set(int(v) for v in batch.initials[:, 0])
    assert starts == {0, 3}
    frac = float(np.mean(batch.initials[:, 0] == 0))
    assert 0.35 < frac < 0.65


# -- exact distribution oracle --------------------------------------------------

def test_an_exact_law_that_is_not_trace_preserving_is_refused():
    # std_example with L_+ scaled by 1.001: both routes agree on a law of
    # total mass (1.001^2 + 1) / 2 after one step from I / 2.
    with pytest.raises(ConvergenceError, match=r"total mass 1\.0010005\d*, expected 1$"):
        exact_distribution(broken_scaled_model(), 1)


def test_classical_distribution_is_binomial():
    for q in (0.5, 0.7):
        model = builtin("classical_dilation", p=q)
        dist = exact_distribution(model, 7)
        assert dist.tv_gap <= 1e-10
        assert sum(dist.masses.values()) == pytest.approx(1.0, abs=1e-12)
        for j in range(8):
            pos = (2 * j - 7,)
            assert dist.masses[pos] == pytest.approx(
                reference.binomial_mass(7, j, q), abs=1e-13)


def test_exact_distribution_routes_agree_on_builtins(all_builtins):
    for name, model in all_builtins.items():
        dist = exact_distribution(model, 6)
        assert dist.tv_gap <= 1e-10, name
        assert sum(dist.masses.values()) == pytest.approx(1.0, abs=1e-10)
        assert set(dist.masses) == set(dist.masses_iterated)


def test_ballistic_corner_of_the_breakdown_model(breakdown_model):
    start = point_initial_state(breakdown_model, E2)
    lp = np.asarray(breakdown_model.operators[0])
    e2 = np.array([0.0, 1.0], dtype=complex)
    for n in range(1, 9):
        dist = exact_distribution(breakdown_model, n, initial_state=start)
        # only the all-plus word reaches position n
        expected = reference.breakdown_return_probability(n)
        assert dist.masses[(n,)] == pytest.approx(expected, abs=1e-12)
        power = np.linalg.matrix_power(lp, n) @ e2
        assert dist.masses[(n,)] == pytest.approx(
            float(np.vdot(power, power).real), abs=1e-12)


def test_oracles_run_past_the_old_path_budget(std_model, classical_model):
    """Horizons whose word counts K^p lie far above the former 2^20 budget."""
    q = 0.7
    dist = exact_distribution(builtin("classical_dilation", p=q), 40)
    assert set(dist.masses) == {(2 * j - 40,) for j in range(41)}
    for j in range(41):
        assert dist.masses[(2 * j - 40,)] == pytest.approx(
            reference.binomial_mass(40, j, q), abs=1e-13)
    dist = exact_distribution(std_model, 25)
    assert dist.tv_gap <= 1e-10
    assert sum(dist.masses.values()) == pytest.approx(1.0, abs=1e-12)

    report = mgf_check(classical_model, 0.8, 40)
    assert report.path_value == pytest.approx(float(np.cosh(0.8) ** 40), rel=1e-12)
    # exp(p c) = e^1600 overflows; the gap is taken between scaled values
    report = mgf_check(std_model, 4.0, 400)
    assert np.isfinite(report.relative_gap) and report.relative_gap <= 1e-10
    # both scaled values underflow: no vacuous zero gap
    with pytest.raises(ConvergenceError):
        mgf_check(std_model, -3.0, 1000)


def test_mgf_check_takes_a_huge_tilt_along_several_axes():
    # <x - p s*, u> summed over two components of 1e308 overflowed with
    # opposite signs (inf - inf); at u / max |u_i| each term stays finite.
    report = mgf_check(random_isometry_model(0, steps=STEPS_2D), [1e308, 1e308], 2)
    assert np.isfinite(report.relative_gap) and report.relative_gap <= ORACLE_TOL



@pytest.mark.parametrize("step", [2**24, 10**30])
def test_exact_law_refuses_a_box_beyond_its_bound(step):
    # The box is sized in Python integers: 10^30 used to wrap in int64 to a
    # negative size.  2^24 + 2 sites is just past the bound.
    ops = np.array([[[np.sqrt(0.5)]], [[np.sqrt(0.5)]]], dtype=complex)
    model = KrausModel(1, 1, ((step,), (-1,)), ops)
    with pytest.raises(AssumptionError, match="exact propagator box"):
        exact_distribution(model, 1)

def test_propagator_matches_the_path_sum(all_builtins, std_model):
    walk_2d = random_isometry_model(11, n=2, steps=STEPS_2D)
    cases = [(name, model, default_initial_state(model), 10, 0.7)
             for name, model in all_builtins.items()]
    cases += [("mixed two-site start", std_model, mixed_two_site_start(std_model), 10, -0.6),
              ("2-D, K = 4", walk_2d, default_initial_state(walk_2d), 7, [0.4, -0.3])]
    for label, model, start, p_max, u in cases:
        args = (model.displacements, model.operators, start.blocks)
        for p in range(p_max + 1):
            dist = exact_distribution(model, p, initial_state=start)
            ref = reference.path_sum_masses(*args, p)
            assert set(dist.masses) == set(ref) == set(dist.masses_iterated), (label, p)
            for site, mass in ref.items():
                assert abs(dist.masses[site] - mass) <= 1e-14, (label, p, site)
            value = mgf_check(model, u, p, initial_state=start).path_value
            assert value == pytest.approx(reference.path_sum_mgf(*args, u, p),
                                          rel=1e-13), (label, p)


# -- moment generating function oracle --------------------------------------------

def test_mgf_routes_agree(std_model, periodic_model, antidiag_model):
    for model, u, p in ((std_model, 0.5, 6), (periodic_model, -1.0, 5),
                        (antidiag_model, 1.0, 4)):
        report = mgf_check(model, u, p)
        assert report.relative_gap <= 1e-12
        assert report.path_value > 0


def test_classical_mgf_value_is_cosh_power(classical_model):
    u, p = 0.8, 5
    report = mgf_check(classical_model, u, p)
    assert report.path_value == pytest.approx(float(np.cosh(u) ** p), abs=1e-12)
    assert report.tilted_value == pytest.approx(float(np.cosh(u) ** p), abs=1e-12)


# -- sampled law vs exact law -------------------------------------------------------

def test_sampled_endpoints_match_the_exact_law(classical_model, std_model):
    """Sampled endpoints against the exact p-step law, position by position
    and as distribution functions.

    The distribution-function check uses the Dvoretzky-Kiefer-Wolfowitz bound
    with Massart's constant, P(sup|F_N - F| > eps) <= 2 exp(-2 N eps^2): eps
    is set so that each case fails by chance with probability 1e-6.
    """
    n_traj = 20000
    eps = np.sqrt(np.log(2 / 1e-6) / (2 * n_traj))
    for model, p_steps, start in ((classical_model, 6, None), (std_model, 5, None),
                                  (std_model, 5, mixed_two_site_start(std_model))):
        batch = batch_statistics(model, p_steps, n_traj, seed=31,
                                 initial_state=start, **moments(model))
        dist = exact_distribution(model, p_steps, initial_state=start)
        counts = {}
        for v in batch.finals[:, 0]:
            counts[int(v)] = counts.get(int(v), 0) + 1
        for pos, mass in dist.masses.items():
            freq = counts.get(pos[0], 0) / n_traj
            band = 4.0 * np.sqrt(mass * (1 - mass) / n_traj) + 1e-12
            assert abs(freq - mass) <= band, (pos, freq, mass)
        support = sorted({pos[0] for pos in dist.masses} | set(counts))
        f_exact = np.cumsum([dist.masses.get((x,), 0.0) for x in support])
        f_sample = np.cumsum([counts.get(x, 0) for x in support]) / n_traj
        assert np.max(np.abs(f_sample - f_exact)) <= eps


def test_sampled_endpoints_match_the_exact_law_at_long_horizons(
        std_model, periodic_model, breakdown_model):
    """The three CLT cases of the acceptance suite, at P = 200, against the
    exact P-step law rather than the Gaussian limit: sup|F_N - F_P| <= eps
    with eps from the DKW bound at false-alarm probability 1e-6."""
    n_traj, p_steps = 10000, 200
    eps = np.sqrt(np.log(2 / 1e-6) / (2 * n_traj))
    for model, start in ((std_model, None), (periodic_model, None),
                         (breakdown_model, point_initial_state(breakdown_model, E1))):
        batch = batch_statistics(model, p_steps, n_traj, seed=4242,
                                 initial_state=start, **moments(model))
        dist = exact_distribution(model, p_steps, initial_state=start)
        ends, counts = np.unique(batch.finals[:, 0], return_counts=True)
        support = sorted({pos[0] for pos in dist.masses} | set(ends.tolist()))
        f_exact = np.cumsum([dist.masses.get((x,), 0.0) for x in support])
        sampled = dict(zip(ends.tolist(), counts.tolist()))
        f_sample = np.cumsum([sampled.get(x, 0) for x in support]) / n_traj
        assert np.max(np.abs(f_sample - f_exact)) <= eps


@pytest.mark.parametrize("pure", [False, True], ids=["default_start", "pure_start"])
@pytest.mark.parametrize("model", [builtin("std_example"), random_isometry_model(31, n=4)],
                         ids=["std_example", "isometry31_n4"])
def test_recorded_states_average_to_the_exact_state_law(model, pure):
    """Averaged over trajectories, the projector recorded after p steps is
    Phi^p(rho_0), rho_0 the summed blocks of the start.

    Each entry of a projector onto a unit vector has real and imaginary parts
    in an interval of length 1 ([0, 1] on the diagonal, [-1/2, 1/2] off it),
    so Hoeffding's bound holds each of the n^2 real parameters of the mean
    at each horizon within t of its exact value, with false-alarm
    probability at most 1e-6 per case by the union bound.  The pure start
    |e_0><e_0| is there for power: from the maximally mixed default start,
    an engine that records the wrong unit vector (another step's candidate
    over its own norm) moves the std_example mean by under 0.01."""
    n_traj, horizons = 1000, (1, 7, 40)
    n = model.internal_dim
    start = (point_initial_state(model, np.diag(np.eye(n)[0])) if pure
             else default_initial_state(model))
    rho0 = sum(start.blocks.values())
    superop = build_superop(model)
    exact = np.array([superop.power_apply(rho0, p) for p in horizons])
    runs = (sample_trajectory(model, max(horizons), s, initial_state=start)
            for s in derive_seeds(20260, n_traj))
    mean = sum(run.states[list(horizons)] for run in runs) / n_traj
    t = np.sqrt(np.log(2 * len(horizons) * n * n / 1e-6) / (2 * n_traj))
    upper = np.triu_indices(n)
    gap = mean[:, upper[0], upper[1]] - exact[:, upper[0], upper[1]]
    assert np.abs(gap.real).max() <= t
    assert np.abs(gap.imag).max() <= t


_ERGODIC_CASES = {
    "std_example": (lambda: builtin("std_example"), 1e-2),
    "periodic_example": (lambda: builtin("periodic_example"), 5e-5),
    "antidiag_example": (lambda: builtin("antidiag_example"), 5e-5),
    "isometry31_n4": (lambda: random_isometry_model(31, n=4), 1e-2),
}


@pytest.mark.parametrize("name", list(_ERGODIC_CASES))
def test_one_trajectory_time_averages_to_the_invariant_state(name):
    """Along one trajectory of an irreducible walk, the time average of the
    recorded projectors tends to the invariant state (Kummerer & Maassen,
    J. Phys. A 37, 2004).  One seeded run of P = 20000 steps is held within
    a stated bound of it, entry by entry.

    On the two antidiagonal walks every step swaps e_0 and e_1, so the
    average of the P + 1 projectors is 1 / (2 (P + 1)) = 2.5e-5 off
    I / 2 whatever is drawn: the bound is 1 / (P + 1).  On std_example the
    gap over seeds 0-299 averaged 1.8e-3 (largest 7.0e-3), and on the n = 4
    isometry walk, whose invariant state is not I / 2, its largest over
    seeds 0-99 was 6.4e-3; seed 7 gives 2.1e-3 and 1.8e-3 against the bound
    1e-2.  An engine that records another step's candidate over its own
    norm, or draws each step with its squared probability, puts the
    isometry walk 4.4e-2 and 2.9e-2 off.  std_example's invariant state is
    I / 2, and both of those engines keep it."""
    make, bound = _ERGODIC_CASES[name]
    model = make()
    average = sample_trajectory(model, 20_000, 7).states.mean(axis=0)
    assert np.abs(average - invariant_state(model)).max() <= bound


# -- standardization and failure modes ----------------------------------------------

def test_deterministic_walk_standardizes_to_zero():
    model = builtin("classical_dilation", p=1.0)
    batch = batch_statistics(model, 20, 50, seed=5, **moments(model))
    assert np.all(batch.finals[:, 0] == 20)
    np.testing.assert_array_equal(batch.standardized, 0.0)
    np.testing.assert_array_equal(batch.variance_standardized, 0.0)


def test_fluctuations_outside_a_degenerate_covariance_are_rejected(std_model):
    with pytest.raises(StandardizationError):
        batch_statistics(std_model, 100, 16, seed=1,
                         mean=[0.0], covariance=[[0.0]])


def test_a_batch_without_trajectories_is_an_assumption_error(std_model):
    with pytest.raises(AssumptionError, match=r"at least one trajectory, got n_traj=0$") as info:
        batch_statistics(std_model, 10, 0, seed=1, mean=[0.0], covariance=[[1.0]])
    assert info.value.exit_code == 3


def test_a_batch_of_zero_steps_is_an_assumption_error(std_model):
    with pytest.raises(AssumptionError, match=r"at least one step, got n_steps=0$") as info:
        batch_statistics(std_model, 0, 16, seed=1, mean=[0.0], covariance=[[1.0]])
    assert info.value.exit_code == 3


def test_a_batch_of_negative_steps_is_an_assumption_error(std_model):
    with pytest.raises(AssumptionError, match=r"at least one step, got n_steps=-1$"):
        batch_statistics(std_model, -1, 16, seed=1, mean=[0.0], covariance=[[1.0]])


def test_vanishing_step_probabilities_are_detected():
    ops = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2))]
    model = KrausModel(1, 2, NN_STEPS, tuple(np.asarray(o, complex) for o in ops))
    start = point_initial_state(model, E2)
    with pytest.raises(DegenerateStepError,
                       match=r"vanished at step 1 for 1 trajectory\(ies\)$"):
        sample_trajectory(model, 3, stream_seed=0, initial_state=start)


@pytest.mark.parametrize("n_traj", [2, 64], ids=["narrow", "wide"])
def test_a_dead_row_among_live_rows_stops_the_batch(n_traj):
    # L_+ = |e1><e1| + |e3><e2|, L_- = 0: e1 walks right forever, e2 moves
    # to e3 and dies at step 2.  The start mixes e1 (0.3) and e2 (0.7).
    plus = np.zeros((3, 3), dtype=complex)
    plus[0, 0] = plus[2, 1] = 1.0
    model = KrausModel(1, 3, NN_STEPS, np.stack([plus, np.zeros((3, 3))]))
    start = point_initial_state(model, np.diag([0.3, 0.7, 0.0]))
    root = 11
    # draw 0 picks e2 (the second pair of the unravelling) when u >= 0.3
    dying = int(np.sum(unit_draws_array(derive_seeds(root, n_traj), 0) >= 0.3))
    assert 0 < dying < n_traj
    with pytest.raises(DegenerateStepError) as info:
        batch_statistics(model, 5, n_traj, seed=root, initial_state=start,
                         mean=[1.0], covariance=[[1.0]])
    assert str(info.value) == (
        f"all step probabilities vanished at step 2 for {dying} trajectory(ies)")


@pytest.mark.parametrize("n_traj", [1, 3, 64], ids=["single", "narrow", "wide"])
def test_trace_drift_is_detected_immediately(n_traj):
    # Both tails screen the same sequential row totals and report the largest
    # drift over all rows, so every width gives one message.
    model = broken_scaled_model()
    with pytest.raises(TraceDriftError) as info:
        if n_traj == 1:
            sample_trajectory(model, 3, stream_seed=0)
        else:
            batch_statistics(model, 3, n_traj, seed=0, mean=[0.0], covariance=[[1.0]])
    assert str(info.value) == "step probabilities sum to 1 off by 1.334e-03 at step 1"


@pytest.mark.parametrize("n_traj", [1, 3, 64], ids=["single", "narrow", "wide"])
def test_a_nan_operator_is_a_trace_drift(n_traj):
    # A NaN probability passes the dead-step gate and fails the drift gate.
    model = builtin("std_example")
    ops = np.array(model.operators)
    ops[0, 0, 0] = np.nan
    object.__setattr__(model, "operators", ops)  # KrausModel rejects NaN entries
    with pytest.raises(TraceDriftError, match=r"off by nan at step 1$"):
        if n_traj == 1:
            sample_trajectory(model, 3, stream_seed=0)
        else:
            batch_statistics(model, 3, n_traj, seed=0, mean=[0.0], covariance=[[1.0]])


@pytest.mark.parametrize("n_traj", [1, 3, 64], ids=["single", "narrow", "wide"])
def test_a_walk_that_could_leave_int64_is_refused(n_traj):
    # Positions are int64: the wide tail would wrap, and the narrow tail's
    # Python ints would overflow on the way back to an array.
    model = KrausModel(1, 2, ((2**61,), (-1,)), builtin("std_example").operators)
    start, seeds = default_initial_state(model), derive_seeds(4, n_traj)
    _, finals, _, _, _ = _engine(model, start, 1, seeds, False)
    assert set(finals[:, 0].tolist()) <= {2**61, -1}
    with pytest.raises(AssumptionError, match=rf"may reach {2**62} in 2 steps; positions "
                                              r"must stay below 2\^62$"):
        _engine(model, start, 2, seeds, False)


def test_blocks_at_the_positivity_tolerance_are_sampled(std_model):
    rot = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    block = rot @ np.diag([0.5 + 5e-11, -5e-11]) @ rot.T
    assert np.linalg.eigvalsh(block)[0] == pytest.approx(-5e-11, rel=1e-3)
    start = LatticeState({(0,): block, (3,): np.eye(2) / 4})
    positions, vectors, weights = _unravel(start)
    assert np.all(weights > 0)
    for pos, block in start.blocks.items():
        mine = np.all(positions == pos, axis=1)
        mixture = np.einsum("p,pi,pj->ij", weights[mine], vectors[mine],
                            vectors[mine].conj())
        np.testing.assert_allclose(mixture, block, atol=1e-10)
    batch = batch_statistics(std_model, 10, 200, seed=3, initial_state=start,
                             **moments(std_model))
    assert set(int(v) for v in batch.initials[:, 0]) == {0, 3}
    assert np.all(np.isfinite(batch.standardized))


def test_ks_distance_recomputes_from_the_standardized_sample(std_model):
    batch = batch_statistics(std_model, 200, 400, seed=11, **moments(std_model))
    zs = np.sort(batch.standardized[:, 0])
    n = len(zs)
    cdf = np.array([reference.normal_cdf(z) for z in zs])
    up = np.max(np.arange(1, n + 1) / n - cdf)
    down = np.max(cdf - np.arange(0, n) / n)
    assert batch.ks_distance == pytest.approx(float(max(up, down)), abs=1e-12)
    assert abs(batch.mean_standardized[0]) < 0.25
    assert batch.variance_standardized[0] == pytest.approx(1.0, abs=0.35)


# -- CSV output ------------------------------------------------------------------

def test_batch_csv_round_trips(periodic_model):
    batch = batch_statistics(periodic_model, 12, 8, seed=77, **moments(periodic_model))
    buf = io.StringIO()
    write_batch_csv(batch, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,seed,x_final_0,standardized_0"
    assert len(lines) == 9
    for i, line in enumerate(lines[1:]):
        idx, seed, xf, z = line.split(",")
        assert int(idx) == i
        assert int(seed) == int(batch.stream_seeds[i])
        assert int(xf) == int(batch.finals[i, 0])
        assert float(z) == float(batch.standardized[i, 0])
