"""One draw over the benchmark's scan box, shared by the test modules.

The box is ``perfbench`` ``Scan``'s: n_real in [0.9, 2.5], n_imag in
[-0.15, 0.15], omega in [1e15, 9e15] rad/s and a log-uniform d in
[3 nm, ``d_max``], drawn in that order.
"""

import math


def box_point(rng, i, d_max=3e-6):
    """Point ``i`` of a draw over the scan box, the parity alternating."""
    return {
        "parity": ("symmetric", "antisymmetric")[i % 2],
        "n_real": rng.uniform(0.9, 2.5),
        "n_imag": rng.uniform(-0.15, 0.15),
        "omega": rng.uniform(1e15, 9e15),
        "d": 10.0 ** rng.uniform(math.log10(3e-9), math.log10(d_max)),
    }
