"""Watching a channel polarize.

Split the five-component channel recursively.  The sum capacity is
conserved level by level while the single-user averages can only shrink;
meanwhile individual branches drift toward deterministic linear channels.
The subspace-weight representation makes all of this exact, so the drift
can be followed to depth 16 by enumerating every branch.
"""

from macpolar import evolve
from macpolar.linear_mac import binary2_subspaces, LinearComboMac, subspace_lattice

combo = LinearComboMac(2, 2, [(0.2, s) for s in binary2_subspaces()])
report = evolve(combo, 16, mode="enumerate")

print("level   I1_avg   I2_avg   I_sum   extremal fraction")
for lv in report.levels:
    if lv.level % 2 == 0:
        i1, i2, i_sum = lv.info
        print(f"{lv.level:5d}   {i1:.4f}   {i2:.4f}   {i_sum:.4f}"
              f"   {lv.extremal_fraction:.4f}")

final = report.levels[-1]
lattice = subspace_lattice(2, 2)
print("\naveraged subspace weights at depth 16:")
for sub, w in zip(lattice.subspaces, final.weights):
    print(f"  span{sub.basis.tolist()}: {w:.4f}")
diagonal = lattice.index[binary2_subspaces()[3]]
print("the diagonal component is dying:", final.weights[diagonal] < 1e-2)
print("single-user averages fell from 0.6 to "
      f"{final.info[0]:.4f} while the sum stayed {final.info[2]:.4f}")
