"""Host-speed sampler that ``run.py`` runs beside each certification.

It spins at the lowest priority on a fixed, benchmark-owned kernel:
permutation composition with bytes-keyed lookups, the kind of work d4fusion's
loops do.  Every quarter second it prints ``<monotonic time> <CPU seconds>
<iterations>``.  Iterations per CPU second is the host's current speed.  At
the lowest priority the sampler takes only CPU time the certification leaves
idle, and dividing by its own CPU time keeps that share out of the speed.
It exits when its output is closed or its parent is gone.
"""

import os
import sys
import time

import numpy as np

PERIOD_S = 0.25


def main() -> int:
    os.nice(19)
    parent = os.getppid()
    perm = np.random.default_rng(0).permutation(1120).astype(np.uint16)
    state, seen = perm, {}
    while os.getppid() == parent:
        t0, c0, done = time.monotonic(), time.thread_time(), 0
        while time.monotonic() - t0 < PERIOD_S:
            for _ in range(100):
                state = perm[state]
                seen[state.tobytes()[:8]] = done
            done += 100
            if len(seen) > 50_000:
                seen.clear()
        try:
            print("%.6f %.6f %d" % (time.monotonic(), time.thread_time() - c0, done),
                  flush=True)
        except BrokenPipeError:
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
