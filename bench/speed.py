"""How fast the machine runs right now, from a fixed piece of work.

The benchmark's host is shared: for minutes at a time another tenant can
slow every instruction of the run, so that importing the same modules or
running the same command costs 1.5 to 2 times its usual CPU time.  ``probe``
times a fixed mix of the work the program does (numpy fancy indexing,
distances and sorts over a 30k-row table, and pure-Python dict and string
work) between the commands of a run.  The program cannot change this work,
so the median probe time of a run moves only with the machine's speed.
"""

import time

import numpy as np

# CPU seconds of one probe on the machine the baseline was measured on
# (README.md, "Baseline"); reported times are scaled to that speed.
NOMINAL_PROBE_S = 0.056

_rng = np.random.default_rng(20060)
_TABLE = _rng.standard_normal((30000, 2))
_ROWS = [np.sort(_rng.choice(len(_TABLE), 3000, replace=False)) for _ in range(12)]
_WORDS = ["w%d" % (i % 97) for i in range(8000)]


def probe():
    """CPU seconds of the fixed work."""
    start = time.process_time()
    for _ in range(10):
        for rows in _ROWS:
            part = _TABLE[rows]
            d = np.linalg.norm(part - part[0], axis=1)
            np.lexsort((rows, d))
        counts = {}
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + 1
        "".join("%s=%d;" % kv for kv in sorted(counts.items()))
    return time.process_time() - start


def scale(seconds, before, after):
    """``seconds`` measured between two probes, at the nominal speed."""
    return seconds * 2.0 * NOMINAL_PROBE_S / (before + after)
