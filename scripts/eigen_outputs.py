"""Dump the eigensolvers' outputs of one source tree, or compare two dumps bitwise.

    PYTHONPATH=<tree>/src python scripts/eigen_outputs.py dump OUT.npz
    python scripts/eigen_outputs.py compare A.npz B.npz

A dump holds, for the linear, tanh (reg_slope 0.5) and random
(default_rng(12345)) profiles at N = 64 and 256 with L = 1 and 2:
compute_kappa_c's kappa_c, per_mode and phi; compute_growth's Lambda,
per_mode, w2, w1, beta and factorizations at kappa / kappa_c = 0, 0.5 and
0.9; and poincare_min_quotient.  ``compare`` checks every entry byte for
byte and exits 1 on any difference.  It is the check for a refactor of the
eigensolvers that must not move a bit.
"""

import dataclasses
import sys

import numpy as np


def dump(path):
    import nskrt as nk

    out = {}
    for L in (1.0, 2.0):
        config = nk.SlabConfig(g=1.0, mu=0.1, kappa=0.0, L=L, h=1.0)
        for N in (64, 256):
            profiles = {
                "linear": nk.make_linear_profile(1.0, 1.0, config, N),
                "tanh": nk.make_tanh_profile(config, N, reg_slope=0.5),
                "random": nk.random_stabilizing_profile(config, N, np.random.default_rng(12345)),
            }
            tag = f"L{L:g}_N{N}"
            out[f"poincare_{tag}"] = np.array(nk.poincare_min_quotient(config, Ny=N))
            for name, p in profiles.items():
                th = nk.compute_kappa_c(p, config, N=N)
                key = f"{name}_{tag}"
                out[f"kappa_c_{key}"] = np.array(th.kappa_c)
                out[f"kappa_modes_{key}"] = np.array(th.per_mode)
                out[f"phi_{key}"] = th.phi
                for frac in (0.0, 0.5, 0.9):
                    gr = nk.compute_growth(
                        p, dataclasses.replace(config, kappa=frac * th.kappa_c), N=N)
                    gkey = f"{key}_f{frac:g}"
                    out[f"Lambda_{gkey}"] = np.array(gr.Lambda)
                    out[f"growth_modes_{gkey}"] = np.array(gr.per_mode)
                    out[f"factorizations_{gkey}"] = np.array(gr.factorizations)
                    for field in ("w2", "w1", "beta"):
                        out[f"{field}_{gkey}"] = getattr(gr, field)
    np.savez(path, **out)
    print(f"{len(out)} entries -> {path}")


def compare(path_a, path_b):
    a, b = np.load(path_a), np.load(path_b)
    differ = sorted(set(a.files) ^ set(b.files))
    differ += [k for k in sorted(set(a.files) & set(b.files))
               if a[k].dtype != b[k].dtype or a[k].shape != b[k].shape
               or a[k].tobytes() != b[k].tobytes()]
    for k in differ:
        print(f"differs: {k}")
    print(f"{len(set(a.files) | set(b.files)) - len(differ)} identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
