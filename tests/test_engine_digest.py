"""Pinned seeded output of the trajectory engine.

For each model, two sha256 digests over ``sample_trajectory`` at N = 1 and
``batch_statistics`` at N in {5, 64, 3000}:

* the law digest covers what the position process determines: the single
  trajectories' positions and step indices, and the batches' initials,
  finals, standardized endpoints and ``ks_distance``;
* the state digest covers the single trajectories' recorded ``states``.

The horizons cross the engine's draw-block boundaries (a block holds
2^14 // N steps), so a change to how the draws are blocked, or to the step
arithmetic, shows as a changed digest.  The batches standardize with zero
mean and unit covariance, so the digests pin the engine alone, not the
asymptotic layer.  A change that moves only the last bits of the states (a
different order of floating-point operations) moves the state digest and
keeps the law digest.

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
    # K = 9 steps: row totals of more than 8 terms, where numpy's row sum
    # would no longer add one term at a time.
    out["isometry5_n3_k9"] = random_isometry_model(5, n=3, steps=[(s,) for s in range(-4, 5)])
    return out


def engine_digests(name, model) -> tuple[str, str]:
    """(law digest, state digest) of the model's seeded engine output."""
    law, state = hashlib.sha256(), hashlib.sha256()

    def single(n_steps, stream_seed):
        traj = sample_trajectory(model, n_steps, stream_seed)
        for a in (traj.positions, traj.step_indices):
            law.update(np.ascontiguousarray(a).tobytes())
        state.update(np.ascontiguousarray(traj.states).tobytes())

    def batch(n_traj, n_steps, root):
        d = model.lattice_dim
        b = batch_statistics(model, n_steps, n_traj, root,
                             mean=np.zeros(d), covariance=np.eye(d))
        for a in (b.initials, b.finals, b.standardized, np.float64(b.ks_distance)):
            law.update(np.ascontiguousarray(a).tobytes())

    for root in ROOTS:
        single(SINGLE_STEPS, derive_seed(root, 0))
        for n_traj, n_steps in BATCHES:
            batch(n_traj, n_steps, root)
    if name in LONG_SINGLE:
        single(LONG_SINGLE[name], derive_seed(ROOTS[0], 0))
    if name in LONG_BATCH:
        batch(*LONG_BATCH[name], ROOTS[0])
    return law.hexdigest(), state.hexdigest()


LAW_DIGESTS = {
    "std_example": "28fc27d86c50bc49a2ea2505b5a80b0da32c1397ac8fd559399b1162bb301b61",
    "periodic_example": "21ac6aa4c1dc8ffa4efcacd7a7d57deec147f4527a7d01f3a523e911e33e9206",
    "breakdown_example": "967306933e61ac9ba6b3d6c6643662ddc8ee6b2bdb3800524f459c9128d20d3a",
    "antidiag_example": "cbb9228eaaf5b22517afa3bfc8bc1946b95f059e7323f6e352c8c1188a14d065",
    "classical_dilation": "33a66dc7d50e64d05bcd8c287bdd7782da00311517cc76f37549e8140da30bc1",
    "isometry31_n4": "3ec1f9920d85b2eb26ff0f7cc4ae4a93455cd7eae6359b41f28b5a3127af2ca2",
    "isometry32_n3_2d": "0e494a7383af61292bb624482ebb415e826904b81c7dec03af39cba622714d67",
    "isometry5_n3_k9": "45e511af4f3153bbb131b3f79d7ddb53b06e8586aa3c4f6d6e34a68b7bdff063",
}

STATE_DIGESTS = {
    "std_example": "11ff15e9dff9c84463cf38afffd55e4a8e3e0815af8372f9fac88e00ff4baa13",
    "periodic_example": "aebe0f9248189b07141c2f96ef41617d14521709bde7466f7120ebac08cb6cf3",
    "breakdown_example": "272d75da50b06241c65ff47cb34ed75a4b4e003c19bad205864d6df1df2f0129",
    "antidiag_example": "aebe0f9248189b07141c2f96ef41617d14521709bde7466f7120ebac08cb6cf3",
    "classical_dilation": "233e7fbfc47d5c0f9e2350729966ec4d89d6bf464e399205bdefea61ef7b90a5",
    "isometry31_n4": "c35953bd8f0229d37b3c2bc6e3c760d5ab2270667326defff482990ef3890a50",
    "isometry32_n3_2d": "9dcc9e5d3a4b8ca71e95d5cdd1118ec0cb096ca39b036ba0f4947381bbd45aee",
    "isometry5_n3_k9": "27a1e98b3cac15c667d8fc45aaf00784f376847e4ef841d6a90b44051cb22dc4",
}


@pytest.mark.parametrize("name", sorted(LAW_DIGESTS))
def test_engine_output_matches_pinned_digest(name):
    law, state = engine_digests(name, models()[name])
    assert law == LAW_DIGESTS[name]
    assert state == STATE_DIGESTS[name]


def test_every_model_is_pinned():
    assert set(LAW_DIGESTS) == set(STATE_DIGESTS) == set(models())


if __name__ == "__main__":
    digests = {name: engine_digests(name, model) for name, model in models().items()}
    for title, col in (("LAW_DIGESTS", 0), ("STATE_DIGESTS", 1)):
        print(f"{title} = {{")
        for name, pair in digests.items():
            print(f'    "{name}": "{pair[col]}",')
        print("}\n")
