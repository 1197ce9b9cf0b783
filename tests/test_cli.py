import json

import numpy as np
import pytest

from nskrt import ConfigError
from nskrt.cli import main, parse_spec, run_command

from conftest import REFERENCE_KAPPA_C


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
[slab]
g = 1.0
mu = 0.1
kappa = 0.0
l = 1.0
h = 1.0

[profile]
kind = linear
rho0 = 1.0
slope = 1.0
n = 128
"""


def test_unknown_key_suggestion(tmp_path):
    cfg = _write(tmp_path, "[slab]\nkapa = 0.5\n")
    with pytest.raises(ConfigError, match="kappa"):
        parse_spec("threshold", cfg)


def test_unknown_section_suggestion(tmp_path):
    cfg = _write(tmp_path, "[slap]\ng = 1.0\n")
    with pytest.raises(ConfigError, match=r"\[slab\]"):
        parse_spec("threshold", cfg)


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError) as err:
        parse_spec("simulate")
    msg = str(err.value)
    for key in ("nx", "ny", "t_end"):
        assert key in msg


def test_type_mismatch_names_key(tmp_path):
    cfg = _write(tmp_path, BASE + "[run]\nnx = sixty-four\nny = 64\nt_end = 1.0\n")
    with pytest.raises(ConfigError, match="run.nx"):
        parse_spec("simulate", cfg)


def test_flag_overrides_file_and_is_echoed(tmp_path):
    cfg = _write(tmp_path, BASE)
    spec = parse_spec("threshold", cfg, sets=["slab.kappa=0.25"], outdir=tmp_path)
    assert spec.values["slab"]["kappa"] == 0.25
    run_command(spec)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["resolved"]["slab"]["kappa"] == 0.25
    assert "slab.kappa=0.25" in summary["overrides"]


def test_defaults_are_echoed(tmp_path):
    spec = parse_spec("threshold", None, outdir=tmp_path)
    assert spec.values["slab"]["g"] == 1.0
    assert spec.values["profile"]["kind"] == "linear"
    assert spec.values["threshold"]["k_max"] == 8


def test_threshold_command(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["threshold", "-c", cfg, "-o", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    kc = summary["results"]["kappa_c"]
    assert abs(kc - REFERENCE_KAPPA_C) <= 1e-3 * REFERENCE_KAPPA_C
    assert summary["version"]
    lines = (out / "modes.csv").read_text().strip().split("\n")
    assert lines[0] == "k,xi,kappa_c_k" and len(lines) == 9


def test_threshold_summary_deterministic(tmp_path):
    cfg = _write(tmp_path, BASE)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["threshold", "-c", cfg, "-o", str(out)]) == 0
        outs.append((out / "summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_growth_command_writes_eigenfunctions(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["growth", "-c", cfg, "-o", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["Lambda"] > 0
    n_modes = len(summary["results"]["per_mode"])
    assert summary["results"]["eigensolves"] >= n_modes
    assert summary["results"]["eigensolves_per_mode"] == \
        summary["results"]["eigensolves"] / n_modes
    for name in ("modes.csv", "w2.txt", "w1.txt", "beta.txt"):
        assert (out / name).exists()
    data = np.loadtxt(out / "w2.txt")
    assert data.shape[1] == 2


def test_simulate_command(tmp_path):
    cfg = _write(tmp_path, BASE + """
[run]
nx = 32
ny = 32
t_end = 0.4
dt = 0.02
init = random_smooth
delta = 1e-3
seed = 4
output_every = 5
""")
    out = tmp_path / "out"
    assert main(["simulate", "-c", cfg, "-o", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["steps"] == 20
    assert summary["results"]["max_div_rel"] <= 1e-8
    assert (out / "series.csv").exists()
    assert (out / "final.bin").read_bytes().startswith(b"nsk-ckpt v1\n")


def test_sweep_dichotomy(tmp_path):
    lo = 0.8 * REFERENCE_KAPPA_C
    hi = 1.2 * REFERENCE_KAPPA_C
    cfg = _write(tmp_path, BASE.replace("n = 128", "n = 96") + f"""
[sweep]
param = kappa
values = {lo}, {hi}
command = growth
""")
    out = tmp_path / "out"
    assert main(["sweep", "-c", cfg, "-o", str(out)]) == 0
    lines = (out / "aggregate.csv").read_text().strip().split("\n")
    assert lines[0].startswith("kappa,Lambda")
    row_lo = lines[1].split(",")
    row_hi = lines[2].split(",")
    assert float(row_lo[0]) == pytest.approx(lo)
    assert float(row_lo[1]) > 0.0
    assert float(row_hi[1]) == 0.0
    assert (out / "kappa_000" / "summary.json").exists()
    assert (out / "kappa_001" / "summary.json").exists()


def test_sweep_rejects_unknown_parameter(tmp_path):
    cfg = _write(tmp_path, BASE + "[sweep]\nparam = viscosity\nvalues = 1, 2\n")
    with pytest.raises(ConfigError, match="sweep.param"):
        parse_spec("sweep", cfg)


def test_escape_command(tmp_path):
    cfg = _write(tmp_path, BASE.replace("n = 128", "n = 96") + """
[run]
nx = 32
ny = 32
t_end = 40.0
dt = 0.03
init = eigenfunction

[escape]
deltas = 1e-3, 3e-3
eps = 0.05
""")
    out = tmp_path / "out"
    assert main(["escape", "-c", cfg, "-o", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["Lambda"] > 0
    pairs = summary["results"]["pairs"]
    assert len(pairs) == 2 and all(t is not None for _, t in pairs)
    assert pairs[0][1] > pairs[1][1]          # smaller delta escapes later
    lines = (out / "escape.csv").read_text().strip().split("\n")
    assert lines[0] == "delta,t_escape,censored"


def test_exit_code_config_error(tmp_path):
    cfg = _write(tmp_path, "[slab]\nkapa = 1\n")
    assert main(["threshold", "-c", cfg, "-o", str(tmp_path / "o")]) == 2


def test_exit_code_solver_error(tmp_path):
    # boundary-flat profile has no finite threshold: solver error, exit 3
    cfg = _write(tmp_path, "[profile]\nkind = boundary_flat\nn = 64\n")
    assert main(["threshold", "-c", cfg, "-o", str(tmp_path / "o")]) == 3


def test_verify_single_fast_criterion(tmp_path, capsys):
    assert main(["verify", "-o", str(tmp_path / "o"), "--criteria", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion 2" in out
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["results"]["failures"] == 0
