"""Cross-checking the classical route against dense quantum linear algebra.

The bound c_n = k - H(logical | syndrome) is supposed to equal the coherent
information of the maximally mixed code state, computed the hard way: build
the code projector from Weyl operators, push a purification of the state
through the channel as one Kraus sum of explicit matrices, take the output as
its partial trace, and take von Neumann entropies.
The two computations share no code path beyond the channel definition, so
agreement at 1e-12 is a strong end-to-end check of both.
"""

from qcap import catalog, coherent_bound, depolarizing
from qcap.qoracle import code_projector, oracle_report, weyl_string

import numpy as np

X = weyl_string(3, (1, 0))
Z = weyl_string(3, (0, 1))
omega = np.exp(2j * np.pi / 3)
print("qutrit Weyl operators satisfy XZ = omega ZX:",
      np.allclose(X @ Z, omega * (Z @ X)))

code = catalog("rep2", 3)
proj = code_projector(code)
print(f"\nrep(2) over F_3: projector rank = {proj.trace().real:.1f} (d^k = 3)")

for name, d, p in (("rep3", 2, 0.1), ("rep2", 3, 0.2), ("five_qubit", 2, 0.05)):
    code = catalog(name, d)
    ch = depolarizing(d, p)
    direct = oracle_report(code, ch)
    classical = coherent_bound(code, ch)
    print(f"{name} over F_{d} at p = {p}:")
    print(f"   matrix-oracle coherent information = {direct.coherent_info:+.12f}")
    print(f"   array bound c_n                    = {classical.c_n:+.12f}")
    print(f"   difference                         = {direct.coherent_info - classical.c_n:+.2e}")
