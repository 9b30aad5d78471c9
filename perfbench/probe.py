"""A fixed speed probe that tells how fast the machine runs at a given moment, apart from the program.

On a shared host the same command can take half again as long from one
minute to the next, as other tenants come and go. The probe is a fixed
piece of work of the program's own kind: many numpy calls on 8 x 8
matrices (``eigh``, ``solve``, ``matmul``), as in the per-step loops of the
two-step estimator and the diagnostics. It does not use ``mtgee``, so no
change to the program can move it.

A pass runs the probe just before and just after each command. The
command's time is then given in reference seconds: its wall time multiplied
by ``REF_S`` / (mean of the two probe times). That is the time the command
would take at the speed where the probe takes ``REF_S`` seconds, which is
about the probe's median time on the machine of the reference figures in
README.md. A change that makes the program faster lowers its reference
seconds just as it lowers its wall time; a host that slows everything
down for a while moves the probe and the command together.
"""

import time

import numpy as np

REF_S = 0.1
ROUNDS = 60

_rng = np.random.default_rng(20111714)
_MATS = [a @ a.T + 8.0 * np.eye(8) for a in _rng.standard_normal((64, 8, 8))]
_VECS = list(_rng.standard_normal((64, 8)))


def measure():
    """Wall time of one fixed run of the probe, in seconds."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for a, v in zip(_MATS, _VECS):
            _, q = np.linalg.eigh(a)
            np.linalg.solve(a, v)
            q @ a
    return time.perf_counter() - start


def reference_seconds(seconds, probe_s):
    """Wall time ``seconds``, measured where the probe took ``probe_s``, in reference seconds."""
    return seconds * REF_S / probe_s
