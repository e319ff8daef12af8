"""Fields, symplectic pairings, and stabilizer codes.

Error operators on n prime-dimensional systems are indexed by vectors of
F_d^{2n} with interleaved (u_i, v_i) coordinates: u is the X power and v
the Z power at position i.  Two error operators commute exactly when the
symplectic pairing of their index vectors vanishes, so a commuting
stabilizer is the same thing as a self-orthogonal subspace.  Vectors are
plain int64 numpy arrays of digits in [0, d).  This script walks through
the basic objects.
"""

import numpy as np

from qcap import (
    Subspace,
    catalog,
    hyperbolic_complete,
    is_self_orthogonal,
    perp,
    symplectic_form,
)

x = np.array([1, 2, 0, 1])
y = np.array([2, 1, 1, 1])
print("over F_3:  <(1,2,0,1), (2,1,1,1)> =", symplectic_form(x, y, 3))
print("alternating:  <x, x> =", symplectic_form(x, x, 3))

# a one-generator code on two qutrits
L = Subspace(3, 4, [[1, 0, 1, 0]])
print("\nL = span{(1,0,1,0)} in F_3^4")
print("self-orthogonal:", is_self_orthogonal(L))
print("dim perp(L) =", perp(L).dim, "(= 4 - dim L)")

basis = hyperbolic_complete(L)
print("hyperbolic completion satisfies the pairing conditions:", basis.gram_ok())
w, z = basis.coordinates(x)
print("chi coordinates of x: w =", tuple(w.tolist()), " z =", tuple(z.tolist()))

# the named catalog
for name, d in (("rep7", 3), ("five_qubit", 2), ("trivial2", 2)):
    code = catalog(name, d)
    print(f"\ncatalog {name} over F_{d}: n = {code.n}, k = {code.k}, "
          f"{code.generators.shape[0]} generators")
