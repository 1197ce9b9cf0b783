import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The package's whole working set must load numpy and scipy.linalg only:
# each of these scipy subpackages adds tenths of a second to a fresh
# process and is not needed by any computation.
SCRIPT = """
import sys
import numpy as np
import nskrt as nk

config = nk.SlabConfig(g=1.0, mu=0.1, kappa=0.0, L=1.0, h=1.0)
y = np.linspace(0.0, 1.0, 33) ** 1.3
p = nk.make_tabulated_profile(y, 1.0 + y).resample(48)
gr = nk.compute_growth(p, config, N=48)
rc = nk.RunConfig(Nx=16, Ny=16, t_end=1.0, dt=0.02,
                  init=nk.Init("eigenfunction", delta=1e-3))
nk.step(nk.init_state(rc, p, config, gr=gr), rc, p, config)
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_package_loads_no_scipy_beyond_linalg():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert any(m.startswith("scipy.linalg") for m in out)
    loaded = {m.split(".")[1] for m in out}
    assert not loaded & {"integrate", "interpolate", "optimize", "sparse", "special"}
