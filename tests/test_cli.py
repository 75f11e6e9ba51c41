import filecmp
import os
import re

import numpy as np
import pytest

from grainflow.cli import (
    ConfigError,
    build_grid,
    build_model,
    build_scheme_params,
    main,
    make_initial,
    parse_config,
)
from grainflow import h_star, thetastep
from grainflow.grid import GridSpec
from grainflow.scheme import validate_initial

from grainflow_testkit import model_for

BASE = """
[model]
potential = g1
c = 1.0
mobility = kobayashi
kappa = 0.01

[grid]
dim = 1
shape = 24
dx = 1.0

[scheme]
h_frac = 0.5
nu = 0.1
n_steps = 4
record_every = 2

[init]
kind = random
seed = 77
amplitude = 0.6

[output]
directory = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_config_basics(tmp_path):
    path = write_cfg(tmp_path, BASE.format(out=tmp_path / "o"))
    cfg = parse_config(path)
    assert cfg.get("model", "potential") == "g1"
    assert cfg.get("scheme", "nu", cast=float) == 0.1
    assert cfg.seed == 77
    assert len(cfg.digest) == 16


def test_parse_errors_carry_location(tmp_path):
    path = write_cfg(tmp_path, "[model]\npotential g1\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config(path)
    path2 = write_cfg(tmp_path, "orphan = 1\n", name="o.cfg")
    with pytest.raises(ConfigError, match="outside any"):
        parse_config(path2)


def test_config_key_errors(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "[model]\npotential = g9\n[grid]\nshape = 8\n"))
    with pytest.raises(ConfigError, match="model section"):
        build_model(cfg)
    cfg2 = parse_config(write_cfg(tmp_path, "[grid]\ndim = 1\nshape = 8\ndx = bad\n",
                                  name="g.cfg"))
    with pytest.raises(ConfigError, match="grid.dx"):
        build_grid(cfg2)


def test_config_rejects_unknown_keys_and_sections(tmp_path, capsys):
    typo = BASE.format(out=tmp_path / "o").replace("n_steps = 4", "n_step = 100")
    with pytest.raises(ConfigError, match=r"unknown key scheme\.n_step"):
        parse_config(write_cfg(tmp_path, typo))
    assert main(["run", "--config", write_cfg(tmp_path, typo, name="t.cfg")]) == 2
    # the solver tolerances are fixed, not config keys
    for key, value in (("gap_tol", "1e-10"), ("inner_tol", "1e-9")):
        text = BASE.format(out=tmp_path / "o").replace("n_steps = 4",
                                                       f"n_steps = 4\n{key} = {value}")
        path = write_cfg(tmp_path, text, name="tol.cfg")
        capsys.readouterr()
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == f"config error: {path}: unknown key scheme.{key}\n"
    assert not (tmp_path / "o").exists()
    extra = BASE.format(out=tmp_path / "o") + "\n[sweeps]\nnus = 0.5\n"
    with pytest.raises(ConfigError, match=r"unknown section \[sweeps\]"):
        parse_config(write_cfg(tmp_path, extra, name="s.cfg"))


def test_config_rejects_bad_boolean(tmp_path):
    text = BASE.format(out=tmp_path / "o").replace("n_steps = 4",
                                                   "n_steps = 4\noverride_h_gate = ture")
    with pytest.raises(ConfigError, match=r"scheme\.override_h_gate: cannot parse 'ture'"):
        build_scheme_params(parse_config(write_cfg(tmp_path, text)), model_for("g1"))
    for token, want in (("Yes", True), ("off", False), ("0", False)):
        cfg = parse_config(write_cfg(tmp_path, text.replace("ture", token)))
        assert build_scheme_params(cfg, model_for("g1")).override_h_gate is want


def test_h_gate_is_a_config_error_unless_overridden(tmp_path):
    model = model_for("g1")
    text = BASE.format(out=tmp_path / "o").replace("h_frac = 0.5", f"h = {h_star(model)!r}")
    with pytest.raises(ConfigError, match=r"^scheme\.h: .* admissible step h\* = 0\.09865"):
        build_scheme_params(parse_config(write_cfg(tmp_path, text)), model)  # h = h*
    cfg = parse_config(write_cfg(tmp_path, text))
    assert build_scheme_params(cfg, model, override_h_gate=True).override_h_gate
    keyed = text.replace("n_steps = 4", "n_steps = 4\noverride_h_gate = yes")
    assert build_scheme_params(parse_config(write_cfg(tmp_path, keyed)), model).override_h_gate


def test_config_rejects_unknown_format(tmp_path):
    text = BASE.format(out=tmp_path / "o") + "formats = csv,cvs\n"
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    assert not (tmp_path / "o").exists()


def test_config_list_values_name_their_key(tmp_path, capsys):
    text = BASE.format(out=tmp_path / "o").replace("shape = 24", "shape = 6a")
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    assert "grid.shape: cannot parse '6a'" in capsys.readouterr().err
    text = BASE.format(out=tmp_path / "o") + "\n[sweep]\nnus = 0.5, 0.2.5\n"
    assert main(["sweep-nu", "--config", write_cfg(tmp_path, text, name="s.cfg")]) == 2
    assert "sweep.nus: cannot parse" in capsys.readouterr().err


def test_config_missing_required_key(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "[grid]\ndim = 1\n"))
    with pytest.raises(ConfigError, match="grid.shape: missing required key"):
        build_grid(cfg)


def test_shipped_configs_parse():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    for name in sorted(os.listdir(root)):
        cfg = parse_config(os.path.join(root, name))
        model = build_model(cfg)
        build_grid(cfg)
        build_scheme_params(cfg, model)


def test_h_and_h_frac_exclusive(tmp_path):
    text = BASE.format(out=tmp_path) + "\n[scheme]\nh = 0.01\n"
    # appending a second [scheme] section merges keys: both h and h_frac set
    cfg = parse_config(write_cfg(tmp_path, text))
    model = build_model(cfg)
    with pytest.raises(ConfigError, match="exactly one"):
        build_scheme_params(cfg, model)


def test_repeated_key_is_a_config_error(tmp_path):
    # a second [scheme] header is allowed, but not a second scheme.nu in it
    text = BASE.format(out=tmp_path / "o") + "\n[scheme]\nnu = 0.5\n"
    lines = text.splitlines()
    first, second = (n for n, line in enumerate(lines, start=1) if line.startswith("nu ="))
    path = write_cfg(tmp_path, text, name="dup.cfg")
    with pytest.raises(ConfigError, match=rf"dup\.cfg:{second}: scheme\.nu given twice "
                                          rf"\(first at line {first}\)$"):
        parse_config(path)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ['"out#1"', "'out\"", '"out', "'", 'out"', "out'"])
def test_unclosed_quote_is_a_config_error(tmp_path, value):
    # a '#' inside quotes starts a comment, so "out#1" would silently read as
    # "out"; a quote that does not close with its own mark is an error, and
    # so is one that ends a value without opening it
    text = BASE.format(out=value.replace("out", str(tmp_path / "out")))
    line = next(n for n, t in enumerate(text.splitlines(), start=1)
                if t.startswith("directory ="))
    path = write_cfg(tmp_path, text, name="q.cfg")
    with pytest.raises(ConfigError, match=rf"q\.cfg:{line}: output\.directory: the quote "):
        parse_config(path)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "out").exists()
    closed = parse_config(write_cfg(tmp_path, BASE.format(out="'a b'  # c")))
    assert closed.get("output", "directory") == "a b"
    # only the pair that opens and closes the value is stripped
    path = write_cfg(tmp_path, BASE.format(out=tmp_path / "out") + "formats = \"csv''\"\n")
    assert parse_config(path).sections["output"]["formats"] == "csv''"
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "out").exists()


def test_digest_ignores_output_and_seed(tmp_path):
    a = parse_config(write_cfg(tmp_path, BASE.format(out="/tmp/a")))
    b = parse_config(write_cfg(tmp_path, BASE.format(out="/tmp/b"), name="b.cfg"))
    assert a.digest == b.digest
    b.sections["init"]["seed"] = "123456"
    assert a.digest == b.digest
    b.sections["scheme"]["nu"] = "0.25"
    assert a.digest != b.digest


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_make_initial_wells(g1_model):
    grid = GridSpec(1, (12,), 1.0)
    state = make_initial("wells", grid, g1_model, seed=0)
    assert np.all(state.w.values == 1.0)
    assert np.all(state.eta.values == 1.0)
    assert np.all(state.theta.values == 0.0)


def test_make_initial_seeded_deterministic(g1_model):
    grid = GridSpec(2, (8, 8), 1.0)
    a = make_initial("random", grid, g1_model, seed=5)
    b = make_initial("random", grid, g1_model, seed=5)
    assert np.array_equal(a.w.values, b.w.values)
    assert np.array_equal(a.theta.values, b.theta.values)


def test_make_initial_respects_g2_box():
    model = model_for("g2")
    grid = GridSpec(1, (16,), 1.0)
    state = make_initial("random", grid, model, seed=1)
    assert state.w.values.min() >= model.o_star
    assert state.w.values.max() <= model.iota_star
    assert validate_initial(state, model).passed


def test_make_initial_unknown_kind(g1_model):
    with pytest.raises(ConfigError):
        make_initial("vortex", GridSpec(1, (8,), 1.0), g1_model, seed=0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_run_command_wells_zero_energy(tmp_path):
    text = BASE.format(out=tmp_path / "out").replace("kind = random", "kind = wells")
    cfg_path = write_cfg(tmp_path, text)
    assert main(["run", "--config", cfg_path]) == 0
    lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    header = lines[1].split(",")
    assert header[0] == "step" and header[-1] == "linf_theta"
    assert header[header.index("theta_iters") + 1] == "theta_start_ratio"
    for row in lines[2:]:
        assert float(row.split(",")[7]) == 0.0  # total stays 0


def test_energy_log_records_solver_fields(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.format(out=tmp_path / "out"))
    assert main(["run", "--config", cfg_path]) == 0
    lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, row.split(",")))) for row in lines[2:]]
    fields = ("v_inner_iters", "theta_start_ratio", "duality_gap", "contraction_ratio")
    assert all(rows[0][f] == 0.0 for f in fields)
    # 1D theta-steps are certified by Newton, so the start ratio stays r0
    assert {row["theta_start_ratio"] for row in rows[1:]} == {0.125}
    for prev, row in zip(rows, rows[1:]):
        # the time loop refreshes the coupling at every v-step iteration
        assert row["v_inner_iters"] == row["v_outer_iters"] >= 1
        # the time loop asks the theta-step for a gap within its dissipation budget
        assert -1e-12 <= row["duality_gap"] <= 1e-9 * (1.0 + abs(prev["total"]))
        assert 0.0 <= row["contraction_ratio"] < 1.0


def test_step0_row_by_column_name(tmp_path):
    # the step-0 row holds the initial state's figures under their own names
    cfg_path = write_cfg(tmp_path, BASE.format(out=tmp_path / "out"))
    assert main(["run", "--config", cfg_path]) == 0
    lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
    theta0 = np.loadtxt(tmp_path / "out" / "step_000000_theta.csv", comments="#")
    assert row["step"] == 0.0 and row["t"] == 0.0
    assert row["linf_theta"] == float(np.abs(theta0).max()) > 0.0
    assert row["theta_iters"] == row["theta_start_ratio"] == row["duality_gap"] == 0.0


def test_run_command_deterministic(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.format(out=tmp_path / "a"))
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    for name in sorted(os.listdir(tmp_path / "a")):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_snapshot_round_trip_from_cli(tmp_path):
    text = BASE.format(out=tmp_path / "out") + "formats = csv,raw\n"
    cfg_path = write_cfg(tmp_path, text)
    assert main(["run", "--config", cfg_path]) == 0
    base = tmp_path / "out" / "step_000004_w"
    digest = parse_config(cfg_path).digest
    header = base.with_suffix(".csv").read_text().splitlines()[:2]
    assert header == ["# grid dim=1 shape=24 dx=1.0", f"# config {digest} seed 77 step 4"]
    meta = base.with_suffix(".raw.meta").read_text().splitlines()
    assert meta == ["[field]", "dim = 1", "shape = 24", "dx = 1.0",
                    f"config = {digest}", "seed = 77", "step = 4"]
    values = np.loadtxt(base.with_suffix(".csv"), comments="#")
    assert values.shape == (24,) and np.all(np.isfinite(values))
    # the text and the raw snapshot hold the same float64 values, bit for bit
    assert np.array_equal(values, np.fromfile(base.with_suffix(".raw"), "<f8"))


def test_seed_override_changes_output(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.format(out=tmp_path / "a"))
    main(["run", "--config", cfg_path])
    main(["run", "--config", cfg_path, "--out", str(tmp_path / "c"), "--seed", "99"])
    assert not filecmp.cmp(tmp_path / "a" / "energy.csv",
                           tmp_path / "c" / "energy.csv", shallow=False)


def test_verify_command_passes(tmp_path):
    text = BASE.format(out=tmp_path / "out") + "\n[verify]\nn_oracle = 2\n"
    cfg_path = write_cfg(tmp_path, text)
    assert main(["verify", "--config", cfg_path]) == 0
    checks = (tmp_path / "out" / "checks.csv").read_text().splitlines()
    assert checks[1].startswith("name,passed")
    assert all(",1," in row or row.split(",")[1] == "1" for row in checks[2:])


def test_sweep_command(tmp_path):
    text = BASE.format(out=tmp_path / "out") + "\n[sweep]\nnus = 0.5,0.01\n"
    cfg_path = write_cfg(tmp_path, text)
    assert main(["sweep-nu", "--config", cfg_path]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[1] == "nu,nu_dirichlet_aggregate,wtv_aggregate"
    assert len(rows) == 4


def test_probe_contraction_command(tmp_path):
    text = BASE.format(out=tmp_path / "out") + "\n[probe]\nn_probes = 3\n"
    cfg_path = write_cfg(tmp_path, text)
    assert main(["probe-contraction", "--config", cfg_path]) == 0
    rows = (tmp_path / "out" / "contraction.csv").read_text().splitlines()
    assert len(rows) == 5
    for row in rows[2:]:
        h, seed, ratio, guard, flagged = row.split(",")
        assert float(ratio) <= float(guard)


def test_probe_contraction_override_records_flagged(tmp_path):
    text = BASE.format(out=tmp_path / "out") + "\n[probe]\nn_probes = 2\n"
    cfg_path = write_cfg(tmp_path, text)
    assert main(["probe-contraction", "--config", cfg_path,
                 "--override-h-gate"]) == 0
    rows = (tmp_path / "out" / "contraction.csv").read_text().splitlines()[2:]
    flagged = [r for r in rows if r.endswith(",1")]
    assert len(flagged) >= 1


def test_config_error_exit_code(tmp_path):
    path = write_cfg(tmp_path, "[grid]\nshape 12\n")
    assert main(["run", "--config", path]) == 2


def test_unreadable_config_path_is_a_config_error(tmp_path, capsys):
    # a missing file and a directory: exit 2 naming the path, nothing made
    for config in (tmp_path / "missing.cfg", tmp_path):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: cannot read the config (")
    assert not (tmp_path / "o").exists()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    # a Latin-1 byte in a comment: exit 2 naming path:line, whatever the locale
    text = BASE.format(out=tmp_path / "o").replace("dim = 1", "dim = 1  # caf\xe9")
    path = tmp_path / "latin1.cfg"
    path.write_bytes(text.encode("latin-1"))
    lineno = text.splitlines().index("dim = 1  # caf\xe9") + 1
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:{lineno}: the config is not UTF-8 ("
                          "'utf-8' codec can't decode byte 0xe9 in position 14")
    assert not (tmp_path / "o").exists()


def test_config_with_a_byte_order_mark_runs_the_same(tmp_path):
    # a UTF-8 byte-order mark before the first line is not part of the config
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "benchmark-1d.cfg")
    with open(shipped, "rb") as fh:
        text = fh.read()
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    for name in ("plain", "bom"):
        assert main(["run", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / name)]) == 0
    names = sorted(os.listdir(tmp_path / "plain"))
    assert names == sorted(os.listdir(tmp_path / "bom")) and "energy.csv" in names
    for name in names:
        assert filecmp.cmp(tmp_path / "plain" / name, tmp_path / "bom" / name,
                           shallow=False), name


def test_empty_output_directory_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, BASE.format(out=""))
    for extra in ([], ["--out", ""]):
        assert main(["run", "--config", path, *extra]) == 2
        assert "config error: output.directory: cannot parse '' (must not be empty)" in (
            capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_os_error_exits_3(tmp_path, capsys):
    # --out names an existing file: the directory cannot be made
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_cfg(tmp_path, BASE.format(out=tmp_path / "o"))
    assert main(["run", "--config", path, "--out", str(taken)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert taken.read_text() == ""


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    # 2D, where the theta-step runs PDHG sweeps: five cannot meet the gap
    text = BASE.format(out=tmp_path / "o").replace("dim = 1\nshape = 24", "dim = 2\nshape = 6x6")
    monkeypatch.setattr(thetastep, "_MAX_ITERS", 5)
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: step 1: gap \S+ above tolerance after 5 iterations\n", err)


@pytest.mark.parametrize("old, new, message", [
    ("nu = 0.1", "nu = inf", "^scheme section: nu must be finite"),
    ("nu = 0.1", "nu = -1", "^scheme section: nu must be nonnegative"),
    ("n_steps = 4", "n_steps = 0", "^scheme section: n_steps must be >= 1"),
    ("nu = 0.1", "nu = x1", r"^scheme\.nu: cannot parse 'x1'"),  # passes through unchanged
])
def test_invalid_scheme_values_exit_2(tmp_path, old, new, message):
    text = BASE.format(out=tmp_path / "o").replace(old, new)
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=message):
        build_scheme_params(parse_config(path), model_for("g1"))
    assert main(["run", "--config", path]) == 2


@pytest.mark.parametrize("command, old, new, message", [
    ("run", "dx = 1.0", "dx = inf", "grid section: spacing must be positive and finite, got inf"),
    ("run", "kind = random", "kind = grains\nn_grains = 0",
     "init.n_grains: cannot parse '0' (must be at least 1)"),
    ("sweep-nu", "[output]", "[sweep]\nnus = 0.1,0.5\n[output]",
     "sweep.nus: cannot parse '0.1,0.5' (nu schedule must be strictly decreasing)"),
    ("run", "seed = 77", "seed = -1", "init.seed: cannot parse '-1' (must be nonnegative)"),
    ("run --seed -3", "seed = 77", "seed = 77",
     "init.seed: cannot parse '-3' (must be nonnegative)"),
    ("run", "amplitude = 0.6", "amplitude = nan",
     "init.amplitude: cannot parse 'nan' (must be finite)"),
    ("run", "amplitude = 0.6", "amplitude = inf",
     "init.amplitude: cannot parse 'inf' (must be finite)"),
    ("verify", "[output]", "[verify]\nn_oracle = 0\n[output]",
     "verify.n_oracle: cannot parse '0' (must be at least 1)"),
    ("probe-contraction", "[output]", "[probe]\nn_probes = 0\n[output]",
     "probe.n_probes: cannot parse '0' (must be at least 1)"),
    # every key is checked whatever the subcommand, before anything is written
    ("probe-contraction", "seed = 77", "seed = -1",
     "init.seed: cannot parse '-1' (must be nonnegative)"),
    ("probe-contraction", "kind = random", "kind = vortex", "init.kind: unknown kind 'vortex'"),
    ("run", "[output]", "[sweep]\nnus = 0.1,0.5\n[output]",
     "sweep.nus: cannot parse '0.1,0.5' (nu schedule must be strictly decreasing)"),
    ("run", "[output]", "[probe]\nn_probes = 0\n[output]",
     "probe.n_probes: cannot parse '0' (must be at least 1)"),
    ("run --override-h-gate", "n_steps = 4", "n_steps = 4\noverride_h_gate = ture",
     "scheme.override_h_gate: cannot parse 'ture'"),
    # h at or above h* without the override fails before any command writes
    ("run", "h_frac = 0.5", "h = 5.0",
     "scheme.h: 5.0 is not below the admissible step h* = 0.0986506"),
    ("verify", "h_frac = 0.5", "h = 5.0", "scheme.h: 5.0 is not below"),
    ("sweep-nu", "h_frac = 0.5", "h = 5.0", "scheme.h: 5.0 is not below"),
    ("probe-contraction", "h_frac = 0.5", "h = 5.0", "scheme.h: 5.0 is not below"),
    # outer_tol had no effect on any command and is no longer a key
    ("run", "n_steps = 4", "n_steps = 4\nouter_tol = 1e-10", "unknown key scheme.outer_tol"),
    # a key's own message is not prefixed again with its section
    ("run", "c = 1.0", "c = abc", "config error: model.c: cannot parse 'abc'"),
    ("run", "dx = 1.0", "dx = bad", "config error: grid.dx: cannot parse 'bad'"),
])
def test_grid_init_and_sweep_values_name_their_key(tmp_path, capsys, command, old, new,
                                                   message):
    # command may carry options after the subcommand name
    text = BASE.format(out=tmp_path / "o").replace(old, new)
    assert main([*command.split(), "--config", write_cfg(tmp_path, text)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
