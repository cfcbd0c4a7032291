"""Known answers the benchmark checks outputs against.

The shipped grammars' answers are written out by hand from their phi tables:
P (sites x trees), M = P @ N, the spectral radius, the verdict and the
``check`` exit code.  Recorded answers (CLI stdout digests, Monte Carlo
references, enumeration constants) live in known.json, written once by
record_known.py and never recomputed during a run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

KNOWN_JSON = Path(__file__).resolve().parent / "known.json"

SHIPPED = {
    "grammar4.json": {
        "sites": ["A1", "A2", "B1", "A3", "B2"],
        # A1 -> t2 0.8; A2 -> t2 0.2; B1 -> t3 0.2; A3 -> t2 0.4; B2 -> t3 0.1
        "P": [[0, 0.8, 0], [0, 0.2, 0], [0, 0, 0.2], [0, 0.4, 0], [0, 0, 0.1]],
        # t1 = {A1}, t2 = {A2, B1, A3}, t3 = {B2}
        "M": [[0, 0.8, 0.8, 0.8, 0],
              [0, 0.2, 0.2, 0.2, 0],
              [0, 0, 0, 0, 0.2],
              [0, 0.4, 0.4, 0.4, 0],
              [0, 0, 0, 0, 0.1]],
        "rho": 0.6,
        "verdict": "Consistent",
        "check_exit": 0,
        "first_site": "A1",
        "first_site_nil": 0.2,
        "start_q": 1.0,
    },
    "grammar2.json": {
        "sites": ["S1", "S2", "S3"],
        # S1 -> t2 1.0; S2 -> t2 0.99; S3 -> t2 0.98
        "P": [[0, 1.0], [0, 0.99], [0, 0.98]],
        # t1 = {S1}, t2 = {S2, S3}
        "M": [[0, 1.0, 1.0], [0, 0.99, 0.99], [0, 0.98, 0.98]],
        "rho": 1.97,
        "verdict": "Inconsistent",
        "check_exit": 1,
        "first_site": "S1",
        "first_site_nil": 0.0,
        "start_q": None,  # below one; the Monte Carlo reference is in known.json
    },
}


def hand_spectral_radius(name):
    """Spectral radius of the hand-written M, by numpy.linalg.eigvals."""
    return float(np.abs(np.linalg.eigvals(np.array(SHIPPED[name]["M"], dtype=float))).max())


def load_recorded():
    with open(KNOWN_JSON, encoding="utf-8") as handle:
        return json.load(handle)
