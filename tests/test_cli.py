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
    env = summary["environment"]
    assert set(env) == {"numpy", "scipy", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert env["numpy"] and env["scipy"]
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
    facts = summary["results"]["factorizations_per_eigensolve"]
    assert 1 <= facts["mean"] <= facts["max"] <= 60
    for name in ("modes.csv", "w2.txt", "w1.txt", "beta.txt"):
        assert (out / name).exists()
    data = np.loadtxt(out / "w2.txt")
    assert data.shape[1] == 2


def _assert_iterations(results):
    """Nonlinear runs report the conjugate-gradient iterations per step."""
    for kind in ("projection", "viscous"):
        stats = results[f"{kind}_iterations_per_step"]
        assert 1 <= stats["mean"] <= stats["max"] <= 60


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
    _assert_iterations(summary["results"])
    assert (out / "series.csv").exists()
    assert (out / "final.bin").read_bytes().startswith(b"nsk-ckpt v2\n")


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


@pytest.mark.parametrize("sub", ["growth", "threshold"])
def test_sweep_over_delta_needs_simulate(tmp_path, sub):
    # delta is the run's seed amplitude: a growth or threshold sweep has no
    # [run] section to put it in, and is refused before any output
    out = tmp_path / "o"
    assert main(["sweep", "-o", str(out), "--set", "sweep.param=delta",
                 "--set", "sweep.values=1e-3", "--set", f"sweep.command={sub}"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["growth", "threshold"])
def test_exit_code_k_max_zero(tmp_path, command):
    assert main([command, "-o", str(tmp_path / "o"), "--set", "profile.n=64",
                 "--set", f"{command}.k_max=0"]) == 2


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
    _assert_iterations(summary["results"])
    lines = (out / "escape.csv").read_text().strip().split("\n")
    assert lines[0] == "delta,t_escape,censored"


def test_exit_code_config_error(tmp_path):
    cfg = _write(tmp_path, "[slab]\nkapa = 1\n")
    assert main(["threshold", "-c", cfg, "-o", str(tmp_path / "o")]) == 2


def test_exit_code_solver_error(tmp_path):
    # boundary-flat profile has no finite threshold: solver error, exit 3
    cfg = _write(tmp_path, "[profile]\nkind = boundary_flat\nn = 64\n")
    assert main(["threshold", "-c", cfg, "-o", str(tmp_path / "o")]) == 3


def test_exit_code_growth_without_rt_region(tmp_path):
    out = tmp_path / "o"
    assert main(["growth", "-o", str(out), "--set", "profile.n=64",
                 "--set", "profile.rho0=2", "--set", "profile.slope=-1"]) == 2


def test_exit_code_missing_profile_file(tmp_path):
    assert main(["growth", "-o", str(tmp_path / "o"), "--set", "profile.kind=tabulated",
                 "--set", f"profile.file={tmp_path / 'missing.txt'}"]) == 2


def test_exit_code_unparsable_profile_file(tmp_path):
    prof = _write(tmp_path, "# profile v1\n0.0 1.0\n0.5 abc\n1.0 2.0\n", "prof.txt")
    assert main(["growth", "-o", str(tmp_path / "o"), "--set", "profile.kind=tabulated",
                 "--set", f"profile.file={prof}"]) == 2


def test_exit_code_missing_checkpoint(tmp_path):
    assert main(["simulate", "-o", str(tmp_path / "o"), "--set", "profile.n=64",
                 "--set", "run.nx=32", "--set", "run.ny=32", "--set", "run.t_end=0.04",
                 "--set", "run.dt=0.02", "--set", "run.init=file",
                 "--set", f"run.init_file={tmp_path / 'missing.bin'}"]) == 2


def test_escape_honours_growth_settings(tmp_path):
    # a long slab puts the dominant mode above k = 1; growth.k_max = 1 must
    # give the same Lambda to escape as to growth
    sets = ["--set", "slab.l=4", "--set", "profile.n=64", "--set", "growth.k_max=1"]
    cfg = _write(tmp_path, """
[run]
nx = 32
ny = 32
t_end = 0.1
dt = 0.05

[escape]
deltas = 1e-3
eps = 1e3
""")
    free = tmp_path / "free"
    assert main(["growth", "-o", str(free), "--set", "slab.l=4", "--set", "profile.n=64"]) == 0
    assert json.loads((free / "summary.json").read_text())["results"]["k_star"] > 1
    lams = {}
    for command in ("growth", "escape"):
        out = tmp_path / command
        assert main([command, "-c", cfg, "-o", str(out)] + sets) == 0
        lams[command] = json.loads((out / "summary.json").read_text())["results"]["Lambda"]
    assert lams["growth"] > 0
    assert lams["escape"] == lams["growth"]


def test_escape_rejects_non_eigenfunction_init(tmp_path):
    cfg = _write(tmp_path, "[run]\nnx = 32\nny = 32\nt_end = 0.1\ndt = 0.05\n"
                           "[escape]\ndeltas = 1e-3\neps = 1e3\n")
    assert main(["escape", "-c", cfg, "-o", str(tmp_path / "o"),
                 "--set", "profile.n=64", "--set", "run.init=zero"]) == 2


def test_removed_run_keys_are_unknown(tmp_path):
    # the capillary wall closure and the 2/3 dealiasing are fixed, not options
    for line in ("rho_ghost = even", "dealias = false"):
        cfg = _write(tmp_path, f"[run]\nnx = 32\nny = 32\nt_end = 0.1\n{line}\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_spec("simulate", cfg)


@pytest.mark.parametrize("key", ["run.cfl_adv=0.5", "run.cfl_cap=0.3",
                                 "run.projection_tol=1e-10", "growth.tol=1e-10",
                                 "growth.exhaustive=true"])
def test_removed_settings_are_unknown_keys(tmp_path, capsys, key):
    # the simulator's CFL numbers and solve tolerance, and the growth
    # sweep's fixed-point tolerance and early stop, are constants
    out = tmp_path / "o"
    assert main(["simulate", "-o", str(out), "--set", "run.nx=16", "--set", "run.ny=16",
                 "--set", "run.t_end=0.02", "--set", key]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("sets", [["run.checkpoint_every=-1"],
                                  ["run.init=random_smooth", "run.seed=-1"]])
def test_exit_code_bad_run_setting(tmp_path, sets):
    out = tmp_path / "o"
    args = ["simulate", "-o", str(out), "--set", "profile.n=64", "--set", "run.nx=16",
            "--set", "run.ny=16", "--set", "run.t_end=0.04", "--set", "run.dt=0.02"]
    assert main(args + [tok for item in sets for tok in ("--set", item)]) == 2
    assert not (out / "summary.json").exists()


def test_simulate_rejects_non_finite_checkpoint(tmp_path):
    out = tmp_path / "a"
    sets = ["--set", "profile.n=64", "--set", "run.nx=32", "--set", "run.ny=32",
            "--set", "run.t_end=0.04", "--set", "run.dt=0.02",
            "--set", "run.init=random_smooth", "--set", "run.delta=1e-3"]
    assert main(["simulate", "-o", str(out)] + sets) == 0
    ckpt = out / "final.bin"
    raw = bytearray(ckpt.read_bytes())
    raw[-8:] = np.array([np.nan], "<f8").tobytes()
    ckpt.write_bytes(bytes(raw))
    assert main(["simulate", "-o", str(tmp_path / "b")] + sets
                + ["--set", "run.init=file", "--set", f"run.init_file={ckpt}"]) == 2


def test_verify_single_fast_criterion(tmp_path, capsys):
    assert main(["verify", "-o", str(tmp_path / "o"), "--criteria", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion 2" in out
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["results"]["failures"] == 0


def test_verify_summary_with_numpy_bool(tmp_path, monkeypatch):
    # a criterion may compute its verdict with numpy; the summary still loads
    from nskrt import acceptance
    monkeypatch.setattr(acceptance, "CRITERIA",
                        {1: ("stub", lambda: (np.True_, {"value": 1.0}), None)})
    assert main(["verify", "-o", str(tmp_path / "o"), "--criteria", "1"]) == 0
    with open(tmp_path / "o" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["results"]["criteria"][0]["passed"] is True


def _assert_bad_criteria(tmp_path, capsys, criteria):
    assert main(["verify", "-o", str(tmp_path / "o"), "--criteria", criteria]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("criteria", ["abc", "2,x", "2.5"])
def test_verify_rejects_non_integer_criteria(tmp_path, capsys, criteria):
    _assert_bad_criteria(tmp_path, capsys, criteria)


@pytest.mark.parametrize("criteria", ["11", "0,2", "-1"])
def test_verify_rejects_unknown_criteria(tmp_path, capsys, criteria):
    _assert_bad_criteria(tmp_path, capsys, criteria)


@pytest.mark.parametrize("command,extra", [
    ("growth", []),
    ("simulate", ["--set", "run.t_end=0.04"]),
    ("escape", ["--set", "run.t_end=40", "--set", "escape.deltas=3e-3",
                "--set", "escape.eps=0.05"]),
])
def test_solver_summaries_carry_wall_time(tmp_path, command, extra):
    sets = ["--set", "profile.n=64", "--set", "run.nx=16", "--set", "run.ny=16",
            "--set", "run.dt=0.02"] if command != "growth" else ["--set", "profile.n=64"]
    assert main([command, "-o", str(tmp_path / "o")] + sets + extra) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert 0.0 < summary["wall_s"] < 600.0


def test_verify_prints_each_criterion_as_it_finishes(tmp_path, monkeypatch, capsys):
    from nskrt import acceptance

    def second():
        # the first criterion's line is on stdout before the second one runs
        assert "[PASS] criterion 1: first" in capsys.readouterr().out
        return True, {}

    monkeypatch.setattr(acceptance, "CRITERIA", {1: ("first", lambda: (True, {}), None),
                                                 2: ("second", second, None)})
    assert main(["verify", "-o", str(tmp_path / "o"), "--criteria", "1,2"]) == 0
    assert "[PASS] criterion 2: second" in capsys.readouterr().out
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert [c["passed"] for c in summary["results"]["criteria"]] == [True, True]
