"""CG vs DG storage: the same numbers, different memory shapes.

Shows the duplication factor, the scatter/assembly round trip, and the
bit-reproducible partitioned exchange on partition-local arrays.
"""
import numpy as np

from sembox.reference_element import ReferenceElement
from sembox.mesh import (build_box_mesh, build_cg_numbering, compute_metrics,
                         partition_columns)
from sembox.storage import (N_VARS, PartitionLayout, dss, gather_bytes,
                            halo_exchange, scatter)

ref = ReferenceElement.create(3)
mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
metrics = compute_metrics(mesh, ref)
num = build_cg_numbering(mesh, ref, metrics)

dg_bytes, cg_bytes = gather_bytes(num, mesh.n_elements)
print(f"unique points: {num.n_unique}, duplicated points: {mesh.n_elements * 64}")
print(f"DG storage costs {dg_bytes / cg_bytes:.3f}x the CG bytes "
      f"({dg_bytes} vs {cg_bytes})")

# scatter to elements, weight by J*w, assemble back: the identity
rng = np.random.default_rng(0)
cg = rng.standard_normal((num.n_unique, N_VARS))
contrib = scatter(cg, num) * metrics.jw.reshape(mesh.n_elements, -1)[:, :, None]
print("scatter -> weighted assembly round trip:",
      np.abs(dss(contrib, num) - cg).max())

# the partitioned exchange reproduces the serial sum bit for bit
serial = dss(contrib, num)
for P in (2, 4, 8):
    parts = partition_columns(mesh, P)
    layout = PartitionLayout(mesh, num, parts)
    outs = halo_exchange(layout, [contrib[p.elem_start:p.elem_stop]
                                  for p in parts])
    plans = layout.plans
    same = all(np.array_equal(outs[t], serial[plans[t].own_gids])
               for t in range(P))
    n_shared = sum(plans[t].shared.size for t in range(P))
    rows = max(out.shape[0] for out in outs)
    print(f"P={P}: bit-identical={same}, shared point copies={n_shared}, "
          f"largest partition-local array {rows} of {num.n_unique} rows")
