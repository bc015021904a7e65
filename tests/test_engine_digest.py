"""Pinned seeded output of the trajectory engine.

For each model, a sha256 over ``sample_trajectory`` (positions, step indices,
states) and ``batch_statistics`` (initials, finals, standardized,
``ks_distance``) at N in {1, 5, 64, 3000}.  The horizons cross the engine's
draw-block boundaries (a block holds 2^14 // N steps), so a change to how the
draws are blocked, or to the step arithmetic, shows as a changed digest.  The
batches standardize with zero mean and unit covariance, so the digests pin the
engine alone, not the asymptotic layer.

The digests hold bit for bit on one platform (recorded on x86-64 with
numpy 2.4).  Re-record after an intended realization change with
``PYTHONPATH=src:tests python tests/test_engine_digest.py``.
"""
import hashlib

import numpy as np
import pytest

from oqwalk import BUILTIN_NAMES, batch_statistics, builtin, sample_trajectory
from oqwalk.rng import derive_seed
from model_zoo import STEPS_2D, random_isometry_model

ROOTS = (1, 2, 3)
SINGLE_STEPS = 40
BATCHES = ((5, 40), (64, 300), (3000, 37))  # (N, P); 300 > 2^14 // 64, 37 > 2^14 // 3000
# (N, P) batches and single-trajectory horizons run for one model each only.
LONG_SINGLE = {"std_example": 16400}  # > 2^14, the N = 1 block
LONG_BATCH = {"isometry31_n4": (5, 3300)}  # 3300 > 2^14 // 5


def models():
    out = {name: builtin(name) for name in BUILTIN_NAMES}
    out["isometry31_n4"] = random_isometry_model(31, n=4)
    out["isometry32_n3_2d"] = random_isometry_model(32, n=3, steps=STEPS_2D)
    return out


def engine_digest(name, model) -> str:
    h = hashlib.sha256()

    def single(n_steps, stream_seed):
        traj = sample_trajectory(model, n_steps, stream_seed)
        for a in (traj.positions, traj.step_indices, traj.states):
            h.update(np.ascontiguousarray(a).tobytes())

    def batch(n_traj, n_steps, root):
        d = model.lattice_dim
        b = batch_statistics(model, n_steps, n_traj, root,
                             mean=np.zeros(d), covariance=np.eye(d))
        for a in (b.initials, b.finals, b.standardized, np.float64(b.ks_distance)):
            h.update(np.ascontiguousarray(a).tobytes())

    for root in ROOTS:
        single(SINGLE_STEPS, derive_seed(root, 0))
        for n_traj, n_steps in BATCHES:
            batch(n_traj, n_steps, root)
    if name in LONG_SINGLE:
        single(LONG_SINGLE[name], derive_seed(ROOTS[0], 0))
    if name in LONG_BATCH:
        batch(*LONG_BATCH[name], ROOTS[0])
    return h.hexdigest()


DIGESTS = {
    "std_example": "146958b647b8ad168a67d0fd144991160f6abada2ee2d42ce0a889c472bfdb47",
    "periodic_example": "937ff2ce3856a352021c7c5e95726de55810fb9f55a3696e2fea9e178180ed43",
    "breakdown_example": "6f7d963c55623dfaad7605212dab341dd93479f958349671364153c9eb7dd7b3",
    "antidiag_example": "40fda9d8c41b9a644d38066133c00a7f77d5d7ba23436683e2f2dd8a47beb5e9",
    "classical_dilation": "ceda109ed0f632bd1ea2f703111f54fa74bc6c37ff8a9c210958171b2c0d1efb",
    "isometry31_n4": "3392f775c1803523cc69532aac6473b584eb88b2ec7a939eb2d8e73c6cc2ba9f",
    "isometry32_n3_2d": "e085ad25f99ae39ff2e8f30628fd06cbc0f8ee9747462dca88b2bb51af553521",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_engine_output_matches_pinned_digest(name):
    assert engine_digest(name, models()[name]) == DIGESTS[name]


def test_every_model_is_pinned():
    assert set(DIGESTS) == set(models())


if __name__ == "__main__":
    for name, model in models().items():
        print(f'    "{name}": "{engine_digest(name, model)}",')
