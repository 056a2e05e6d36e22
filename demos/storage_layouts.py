"""CG vs DG storage: the same numbers, different memory shapes.

Shows the duplication factor, the scatter/assembly round trip, and the
bit-reproducible partitioned exchange on partition-local arrays.  The
engine has one assembly, the partitioned exchange; serial assembly is
its one-partition case.  It takes each partition's contributions
node-major, as the element kernels write them.  The demo exits non-zero
when the round trip misses by more than 1e-12 or a partition count does
not reproduce the one-partition sum bit for bit.
"""
import sys

import numpy as np

from sembox.reference_element import ReferenceElement
from sembox.mesh import (build_box_mesh, build_cg_numbering, compute_metrics,
                         node_major, partition_columns)
from sembox.storage import N_VARS, PartitionLayout, halo_exchange

ref = ReferenceElement.create(3)
mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
metrics = compute_metrics(mesh, ref)
num = build_cg_numbering(mesh, ref, metrics)

# scatter to elements (one copy per element node), weight by J*w
rng = np.random.default_rng(0)
cg = rng.standard_normal((num.n_unique, N_VARS))
dg = cg[num.global_ids]
contrib = dg * metrics.jw.reshape(mesh.n_elements, -1)[:, :, None]

print(f"unique points: {num.n_unique}, duplicated points: {mesh.n_elements * 64}")
print(f"DG storage costs {dg.nbytes / cg.nbytes:.3f}x the CG bytes "
      f"({dg.nbytes} vs {cg.nbytes})")


def assemble(n_parts):
    parts = partition_columns(mesh, n_parts)
    layout = PartitionLayout(mesh, num, parts)
    n = ref.n_nodes
    return layout, halo_exchange(layout, [
        node_major(contrib[p.elem_start:p.elem_stop].reshape(
            p.n_elements, n, n, n, N_VARS)) for p in parts])


# assembling the weighted copies on one partition is the identity
serial = assemble(1)[1][0]
round_trip = np.abs(serial - cg).max()
print("scatter -> weighted one-partition assembly round trip:", round_trip)
failures = [] if round_trip <= 1e-12 else [f"round trip error {round_trip:.3g}"]

# more partitions reproduce the one-partition sum bit for bit
for P in (2, 4, 8):
    layout, outs = assemble(P)
    plans = layout.plans
    same = all(np.array_equal(outs[t], serial[plans[t].own_gids])
               for t in range(P))
    n_shared = sum(plans[t].shared.size for t in range(P))
    rows = max(out.shape[0] for out in outs)
    print(f"P={P}: bit-identical={same}, shared point copies={n_shared}, "
          f"largest partition-local array {rows} of {num.n_unique} rows")
    if not same:
        failures.append(f"P={P} differs from the one-partition sum")

if failures:
    sys.exit("storage_layouts: " + "; ".join(failures))
