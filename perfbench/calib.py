"""Host-speed references: fixed pieces of work timed next to every op.

The shared host's speed moves by up to 40 % over seconds to minutes, and
any wall-clock time moves with it: two sets of runs of the same code, taken
minutes apart, differed by that much. Process CPU time moves just as much
(the slow state is not time stolen by other guests; the CPU runs slower), so
it is no cure. Instead each timed piece of work is bracketed by runs of a
reference that calls no socchange code, so no change to the program can
move it, and ``scaled`` turns its wall time into the time it takes on a
host where the reference takes its nominal time: wall time x nominal / the
mean of the two reference times around it.

Two references, because a cold process does not slow down as much as warm
Python does: over 200 cold CLI commands, the command's time moved as the
0.55 power of the warm reference's and as the 0.85-0.93 power of the cold
one's.

- ``reference()``, in process: small numpy steps and dict updates, the mix
  of the engine's monthly loops. For warm ops.
- ``cold_reference()``: a fresh interpreter that imports numpy, the start-up
  path every CLI command and set-up probe takes. For cold processes.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.010       # reference() on a 2.1 GHz Xeon vCPU, roughly
COLD_NOMINAL_S = 0.150  # cold_reference() on the same
REPS = 3000

_A = np.linspace(0.05, 0.2, 16).reshape(4, 4)


def reference() -> float:
    """Run the warm reference work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    x = np.ones(4)
    table: dict[int, float] = {}
    for i in range(REPS):
        x = np.maximum(_A @ x + 0.01, 0.0)
        k = i & 31
        table[k] = table.get(k, 0.0) + float(x[k & 3])
    return time.perf_counter() - t0


def cold_reference(cwd) -> float:
    """Start a fresh interpreter that imports numpy; return its wall time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def scaled(walls: list, refs: list, nominal: float = NOMINAL_S) -> list:
    """Wall times in seconds at reference speed; refs[i] brackets walls[i]."""
    return [w * nominal / r for w, r in zip(walls, refs)]
