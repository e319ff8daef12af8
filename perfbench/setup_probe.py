"""Set-up probe: import qcap.cli and build one workload's codes and channels,
computing nothing else.

    python3 perfbench/setup_probe.py WORKLOAD

Prints "built <codes> codes, <channels> channels".  run.py times the
whole process from spawn to exit.
"""

import sys

import qcap.cli as cli
from workloads import setup_inputs

codes, channels = setup_inputs(sys.argv[1])
built = [cli.catalog(name, d) for name, d in codes]
chans = [cli.depolarizing(d, p) for d, p in channels]
print(f"built {len(built)} codes, {len(chans)} channels")
