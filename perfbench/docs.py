"""Seeded input documents for the benchmark workloads.

The program under test only ever sees these files (or models it loads from
them), so every workload input is a pure function of the benchmark seed.
Models use the package's documented JSON layout: ``lattice_dim``,
``internal_dim`` and ``steps``, each step a ``displacement`` and a row-major
``matrix`` of ``{"re", "im"}`` objects.

Generated walks are one-dimensional nearest-neighbour isometries: the block
column ``[L_+; L_-]`` is the Q factor of a complex Gaussian 2n x n matrix, so
``L_+^dag L_+ + L_-^dag L_- = I`` exactly up to rounding, and the auxiliary
map is irreducible and aperiodic with probability one.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DOCUMENTS = ("n4.json", "n8.json", "n9.json", "malformed.json", "nonstochastic.json")


def isometry_steps(n: int, rng: np.random.Generator) -> np.ndarray:
    """Two n x n Kraus operators stacked from a random 2n x n isometry."""
    g = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()[None, :]
    return np.stack([q[:n], q[n:]])


def model_document(operators: np.ndarray) -> dict:
    """JSON document of a 1-D walk stepping +1 with operators[0], -1 with operators[1]."""
    return {
        "lattice_dim": 1,
        "internal_dim": int(operators.shape[1]),
        "steps": [
            {
                "displacement": [step],
                "matrix": [[{"re": float(z.real), "im": float(z.imag)} for z in row]
                           for row in op],
            }
            for step, op in zip((1, -1), operators)
        ],
    }


def _text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def generate(seed: int) -> dict[str, str]:
    """Document name -> text, deterministic in ``seed``.

    * ``n4.json``, ``n8.json``: valid irreducible aperiodic models;
    * ``n9.json``: a valid model whose superoperator (81 x 81) exceeds the
      dense eigensolver's side limit of 64;
    * ``malformed.json``: the n = 4 document cut off mid-way (invalid JSON);
    * ``nonstochastic.json``: the n = 4 model with its +1 operator scaled by
      1.1, so the stochasticity residual is far above tolerance.
    """
    rng = np.random.default_rng([seed, 0x0CA1])
    n4 = isometry_steps(4, rng)
    n8 = isometry_steps(8, rng)
    n9 = isometry_steps(9, rng)
    n4_text = _text(model_document(n4))
    broken = n4.copy()
    broken[0] *= 1.1
    return {
        "n4.json": n4_text,
        "n8.json": _text(model_document(n8)),
        "n9.json": _text(model_document(n9)),
        "malformed.json": n4_text[: len(n4_text) // 2],
        "nonstochastic.json": _text(model_document(broken)),
    }


def write(seed: int, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in generate(seed).items():
        (directory / name).write_text(text)
    return directory
