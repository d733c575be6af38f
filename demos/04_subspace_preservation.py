"""When does polarization preserve a user's rate bound?

For combinations of linear channels the answer is a lattice property:
I[S] survives exactly when projection onto S commutes with intersection
across the closure of the component subspaces.  A sufficient geometric
witness is a subspace that projects onto S bijectively and meets every
component without losing projection.  This script walks the two-user
examples and then probes the total-loss behavior of a dominated diagonal.
"""

from macpolar import (
    binary2_evolve,
    consistency_check,
    orthogonal_passage_check,
    total_loss_predict,
)
from macpolar.linear_mac import binary2_subspaces, subspace_lattice

v0, v1, v2, v3, v4 = binary2_subspaces()
names = {v0: "0", v1: "span{(1,0)}", v2: "span{(0,1)}",
         v3: "span{(1,1)}", v4: "GF(2)^2"}

for family in ([v4], [v1, v2], [v1, v3]):
    label = "{" + ", ".join(names[s] for s in family) + "}"
    consistent = consistency_check(family, [1])
    witness = orthogonal_passage_check(family, [1])
    wtxt = names.get(witness, "none") if witness else "none"
    print(f"family {label}: consistent w.r.t. user 1: {consistent}; "
          f"witness: {wtxt}")

print("\ntotal-loss probe (diagonal dominated by an axis component):")
diagonal = subspace_lattice(2, 2).index[v3]
for state in ([0, 0.3, 0.3, 0.1, 0.3], [0, 0.1, 0.1, 0.5, 0.3]):
    predicted = total_loss_predict(state)
    final = binary2_evolve(state, 14, mode="enumerate").final
    print(f"  start {state}: loss predicted {predicted}; averaged diagonal "
          f"weight at depth 14 = {final.weights[diagonal]:.2e}")
print("(the second start keeps a dominant diagonal; whether its diagonal "
      "weight can survive in the limit is an open question -- this is "
      "numerical evidence, not proof)")
