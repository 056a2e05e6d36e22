"""Why moderate polynomial order wins: per-step cost falls with p, but the
shrinking Lobatto gap makes every step buy less model time."""
from dataclasses import replace

import numpy as np

from sembox.perf_model import (BUBBLE_CONFIG, SCHEME_CG, SCHEME_DG,
                               SCHEME_HYBRID, Calibration, order_sweep)

base = replace(BUBBLE_CONFIG, calibration=Calibration())
sweep = order_sweep(base, range(1, 8))

print("fixed effective resolution and Courant number across orders\n")
for scheme, label in ((SCHEME_CG, "unique-point storage"),
                      (SCHEME_HYBRID, "hybrid storage"),
                      (SCHEME_DG, "duplicated storage")):
    rows = sweep[scheme]
    print(label)
    print("  p   steps   s/step   time-to-solution")
    for r in rows:
        print(f"  {r['order']}  {r['timesteps']:6d}  {r['time_per_step']:7.4f}"
              f"  {r['time_to_solution']:12.2f} s")
    tts = [r["time_to_solution"] for r in rows]
    print(f"  -> best order: p={rows[int(np.argmin(tts))]['order']}\n")
