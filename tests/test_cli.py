"""Config validation, CLI verbs, exit codes, and file outputs."""

import csv
import json
import os
import stat

import numpy as np
import pytest

from fgmpc import cli, sim, solver
from fgmpc.cli import ConfigError, ScenarioConfig, cmd_simulate, main
from fgmpc.polytope import HPolyhedron


def fig2_config(**overrides):
    cfg = {
        "plant": {"A": [[1.0]], "B": [[1.0]], "C": [[1.0], [0.0]],
                  "D": [[0.0], [1.0]], "E": [[1.0]], "F": [[0.0]]},
        "Y": {"lower": [-1.0, -0.25], "upper": [1.0, 0.25]},
        "eps": 0.2,
        "eps_terminal": 0.05,
        "Q": [[1.0]],
        "R": [[1.0]],
        "N": 2,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="'horizon'.*unknown"):
        ScenarioConfig(fig2_config(horizon=3))
    # the output directory is --out alone
    with pytest.raises(ConfigError, match="'out'.*unknown"):
        ScenarioConfig(fig2_config(out="results"))
    with pytest.raises(ConfigError, match="'plant.G'.*unknown"):
        bad = fig2_config()
        bad["plant"]["G"] = [[1.0]]
        ScenarioConfig(bad)


def test_config_rejects_missing_and_malformed_fields():
    incomplete = fig2_config()
    del incomplete["Y"]
    with pytest.raises(ConfigError, match="'Y': required"):
        ScenarioConfig(incomplete)
    with pytest.raises(ConfigError, match="'plant.A'"):
        ScenarioConfig(fig2_config(plant={"A": [[1.0], [2.0, 3.0]],
                                          "B": [[1.0]], "C": [[1.0]],
                                          "D": [[0.0]], "E": [[1.0]],
                                          "F": [[0.0]]}))
    with pytest.raises(ConfigError, match="'eps'.*between 0 and 1"):
        ScenarioConfig(fig2_config(eps=1.5))
    with pytest.raises(ConfigError, match="'kind'"):
        ScenarioConfig(fig2_config(kind="LQR"))
    with pytest.raises(ConfigError, match="'x0': has size 2"):
        ScenarioConfig(fig2_config(x0=[0.1, 0.2]))
    with pytest.raises(ConfigError, match="'budget'"):
        ScenarioConfig(fig2_config(budget=0))
    with pytest.raises(ConfigError, match="'Y'"):
        ScenarioConfig(fig2_config(Y={"lower": [-1.0, -0.25]}))
    with pytest.raises(ConfigError, match="'controllers\\[0\\].kind'"):
        ScenarioConfig(fig2_config(controllers=[{"kind": "PID"}]))


# sets the first number of each field of fig2_config(x0=.., r=.., slices=..)
NUMBER_AT = {
    "Q": lambda cfg, v: cfg.update(Q=[[v]]),
    "R": lambda cfg, v: cfg.update(R=[[v]]),
    "plant.ts": lambda cfg, v: cfg["plant"].update(ts=v),
    "plant.A": lambda cfg, v: cfg["plant"].update(A=[[v]]),
    "x0": lambda cfg, v: cfg.update(x0=[v]),
    "r": lambda cfg, v: cfg.update(r=[v]),
    "eps": lambda cfg, v: cfg.update(eps=v),
    "Y.lower": lambda cfg, v: cfg["Y"].update(lower=[v, -0.25]),
    "slices[0]": lambda cfg, v: cfg.update(slices=[v]),
}


@pytest.mark.parametrize("field", sorted(NUMBER_AT))
def test_config_rejects_non_finite_numbers(tmp_path, field):
    """JSON's NaN and Infinity parse as floats, and an integer literal
    beyond the float range as an int; each must be rejected by a
    ConfigError naming the field, before any computation starts."""
    for value, token in ((float("nan"), "NaN"), (float("inf"), "Infinity"),
                         (10 ** 400, "1" + "0" * 400)):
        cfg = fig2_config(x0=[0.1], r=[0.2], slices=[0.0])
        NUMBER_AT[field](cfg, value)
        path = write_config(tmp_path, cfg)
        with open(path) as fh:
            assert token in fh.read()
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        assert "'{}': must be finite".format(field) in str(err.value)


@pytest.mark.parametrize("field", sorted(NUMBER_AT))
@pytest.mark.parametrize("value", [True, "1"])
def test_config_rejects_booleans_and_numeric_strings(tmp_path, field,
                                                      value):
    """JSON's true is a bool and "1" a string, though numpy would read
    either as 1.0; each must be rejected by a ConfigError naming the
    field."""
    cfg = fig2_config(x0=[0.1], r=[0.2], slices=[0.0])
    NUMBER_AT[field](cfg, value)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_file(write_config(tmp_path, cfg))
    assert "config field '{}': must be".format(field) in str(err.value)


def test_sets_and_simulate_exit_nonzero_on_non_finite(tmp_path, capsys):
    cfg = fig2_config()
    cfg["plant"]["ts"] = float("inf")
    path = write_config(tmp_path, cfg)
    assert main(["sets", "--config", path, "--out",
                 str(tmp_path / "sets"), "--quiet"]) == 1
    assert "'plant.ts': must be finite" in capsys.readouterr().err
    path = write_config(tmp_path, fig2_config(
        kind="MPC+FG", x0=[float("nan")], r=[0.2], budget=5))
    assert main(["simulate", "--config", path, "--out",
                 str(tmp_path / "sim"), "--quiet"]) == 1
    assert "'x0': must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sim")
    path = write_config(tmp_path, fig2_config(
        kind="MPC+FG", x0=[-0.9], r=[float("-inf")], budget=20))
    assert main(["simulate", "--config", path, "--out",
                 str(tmp_path / "sim"), "--quiet"]) == 1
    assert "'r': must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sim")


def test_config_json_syntax_diagnostic(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "plant": [,]\n}')
    with pytest.raises(ConfigError, match="line 2 column"):
        ScenarioConfig.from_file(str(path))


def test_sets_exports_and_roundtrip(tmp_path, fig2, fig2_gov):
    cfg = write_config(tmp_path, fig2_config())
    out = tmp_path / "sets"
    assert main(["sets", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    names = {"T.hrep", "GammaN.hrep", "Lambda.hrep", "Reps.hrep",
             "RoaFG.hrep", "GammaN_boundary.csv"}
    assert names <= set(os.listdir(out))
    gamma = HPolyhedron.read(str(out / "GammaN.hrep"))
    built = fig2_gov["gamma"].set_xv
    assert gamma.contains_set(built, tol=1e-7)
    assert built.contains_set(gamma, tol=1e-7)
    reps = HPolyhedron.read(str(out / "Reps.hrep"))
    assert reps.contains_point([0.8]) and not reps.contains_point([0.81])
    with open(out / "GammaN_boundary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x[0]", "v[0]"]
    pts = np.array([[float(c) for c in row] for row in rows[1:]])
    assert len(pts) > 100
    # boundary samples lie on the set's boundary: inside, with some
    # facet active
    margins = pts @ gamma.A.T - gamma.b
    assert np.all(margins <= 1e-9)
    assert np.all(np.max(margins, axis=1) >= -1e-9)


def test_sets_slices(tmp_path):
    cfg = write_config(tmp_path, fig2_config(slices=[-0.5, 0.0, 0.5]))
    out = tmp_path / "sets"
    assert main(["sets", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    for tag in ("-0.5", "0", "0.5"):
        path = out / "GammaN_slice_v{}.csv".format(tag)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x[0]"]
        assert len(rows) == 3  # 1-D slice: two boundary endpoints


def test_sets_horizon_zero_equals_terminal(tmp_path):
    out0 = tmp_path / "n0"
    cfg = write_config(tmp_path, fig2_config(N=0))
    assert main(["sets", "--config", cfg, "--out", str(out0),
                 "--quiet"]) == 0
    T = HPolyhedron.read(str(out0 / "T.hrep"))
    gamma = HPolyhedron.read(str(out0 / "GammaN.hrep"))
    assert T.contains_set(gamma, tol=1e-9)
    assert gamma.contains_set(T, tol=1e-9)


def test_simulate_governed_run(tmp_path):
    cfg = write_config(tmp_path, fig2_config(
        kind="MPC+FG", x0=[-0.9], r=[0.7], budget=60))
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    text = (out / "metrics.txt").read_text()
    assert "audit_overall=pass" in text
    assert "kind=MPC+FG" in text
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 61
    assert rows[0][0] == "k"


def test_simulate_command_governor_builds_only_its_gp(tmp_path,
                                                     monkeypatch):
    """A command-governor run condenses no OCP and projects no Gamma_N:
    it runs and is audited on GovernorProblem(T, R_eps) alone."""
    def unexpected(*args, **kwargs):
        raise AssertionError("a command-governor run needs no Gamma_N")
    for module in (cli, sim):
        monkeypatch.setattr(module, "condense", unexpected)
        monkeypatch.setattr(module, "feasible_set", unexpected)
    cfg = write_config(tmp_path, fig2_config(
        kind="MPC+CG(LQR)", x0=[-0.2], r=[0.6], budget=200))
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    audits = [line for line in (out / "metrics.txt").read_text().split()
              if line.startswith("audit_")]
    assert len(audits) == 6
    assert all(line.endswith("=pass") for line in audits), audits


def test_simulate_command_governor_needs_no_horizon(tmp_path):
    """The command governor reads only K and T from the design, so its
    run needs no N."""
    cfg = fig2_config(kind="MPC+CG(LQR)", x0=[-0.2], r=[0.6], budget=200)
    del cfg["N"]
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--quiet"]) == 0
    audits = [line for line in (out / "metrics.txt").read_text().split()
              if line.startswith("audit_")]
    assert len(audits) == 6
    assert all(line.endswith("=pass") for line in audits), audits


def test_failed_rename_keeps_existing_outputs(tmp_path, monkeypatch):
    # a write whose final rename fails raises, leaves no temp file and
    # leaves the file it would have replaced as it was
    cfg = write_config(tmp_path, fig2_config(
        kind="MPC+FG", x0=[-0.9], r=[0.7], budget=20))
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    HPolyhedron.from_box([-1.0], [1.0]).write(str(out / "T.hrep"))
    real_replace = os.replace
    for name in ("T.hrep", "trajectory.csv", "metrics.txt"):
        before = (out / name).read_bytes()

        def refuse(src, dst, name=name):
            if os.path.basename(dst) == name:
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            if name == "T.hrep":
                HPolyhedron.from_box([-2.0], [2.0]).write(str(out / name))
            else:
                cmd_simulate(ScenarioConfig.from_file(cfg), str(out),
                             quiet=True)
        assert (out / name).read_bytes() == before, name
        assert not list(out.glob("*.tmp")), name


def test_outputs_get_the_mode_open_would_give(tmp_path):
    # under umask 022 a new output is rw-r--r--, as open() would make it,
    # and one that replaces an existing file keeps that file's mode
    cfg = write_config(tmp_path, fig2_config(
        kind="MPC+FG", x0=[-0.9], r=[0.7], budget=20))
    out = tmp_path / "run"
    umask = os.umask(0o022)
    try:
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        HPolyhedron.from_box([-1.0], [1.0]).write(str(out / "T.hrep"))
        names = sorted(os.listdir(out))
        assert {"T.hrep", "trajectory.csv", "metrics.txt"} <= set(names)
        for name in names:
            assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644, name
            os.chmod(out / name, 0o640)
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        HPolyhedron.from_box([-2.0], [2.0]).write(str(out / "T.hrep"))
        for name in names:
            assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o640, name
    finally:
        os.umask(umask)


def test_simulate_outside_roa_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, fig2_config(
        kind="MPC+FG", x0=[5.0], r=[0.0], budget=10))
    code = main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "x"), "--quiet"])
    assert code == 1
    assert "state outside governed ROA" in capsys.readouterr().err


def test_simulate_plain_mpc_infeasible_start(tmp_path, capsys):
    cfg = write_config(tmp_path, fig2_config(
        kind="MPC", x0=[-0.95], r=[0.8], budget=10))
    code = main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "x"), "--quiet"])
    assert code == 1
    assert "aborted at step 0" in capsys.readouterr().err


def test_compare_two_kinds(tmp_path):
    cfg = write_config(tmp_path, fig2_config(
        controllers=[{"kind": "MPC+FG"}, {"kind": "MPC+CG(LQR)"}],
        x0=[-0.2], r=[0.5], budget=40))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    table = (out / "compare.txt").read_text()
    assert table.count("  ok") == 2
    assert os.path.exists(out / "trajectory_0_mpc_fg.csv")
    assert os.path.exists(out / "trajectory_1_mpc_cg_lqr.csv")
    with open(out / "compare_z.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "z_0_mpc_fg[0]", "z_1_mpc_cg_lqr[0]"]
    assert len(rows) == 41


def test_compare_command_governor_needs_no_horizon(tmp_path):
    cfg = fig2_config(controllers=[{"kind": "MPC+FG", "N": 2},
                                   {"kind": "MPC+CG(LQR)"}],
                      x0=[-0.2], r=[0.5], budget=40)
    del cfg["N"]
    out = tmp_path / "cmp"
    assert main(["compare", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--quiet"]) == 0
    rows = (out / "compare.txt").read_text().splitlines()
    assert rows[1].split()[:2] == ["MPC+FG", "2"]
    assert rows[2].split()[:2] == ["MPC+CG(LQR)", "-"]
    assert rows[2].endswith("  ok")


def test_compare_identical_kinds_match(tmp_path):
    cfg = write_config(tmp_path, fig2_config(
        controllers=[{"kind": "MPC+FG"}, {"kind": "MPC+FG"}],
        x0=[-0.9], r=[0.7], budget=30))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    with open(out / "compare_z.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    np.testing.assert_array_equal(data[:, 1], data[:, 2])


def test_compare_reports_per_variant_errors(tmp_path):
    # the plain-MPC variant is infeasible at k=0; the governed one runs
    cfg = write_config(tmp_path, fig2_config(
        controllers=[{"kind": "MPC+FG"}, {"kind": "MPC"}],
        x0=[-0.95], r=[0.8], budget=30))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 1
    table = (out / "compare.txt").read_text()
    assert table.count("  ok") == 1
    assert "error: closed loop aborted at step 0" in table
    assert os.path.exists(out / "trajectory_0_mpc_fg.csv")
    assert not os.path.exists(out / "trajectory_1_mpc.csv")


def test_nstar_equilibrium_is_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, fig2_config(x0=[0.5], r=[0.5]))
    assert main(["nstar", "--config", cfg, "--quiet"]) == 0
    assert "N* = 0" in capsys.readouterr().out


def test_nstar_scan_log(tmp_path, capsys):
    cfg = write_config(tmp_path, fig2_config(x0=[-0.9], r=[0.5]))
    assert main(["nstar", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "h=0 violation=" in out
    assert "N* = " in out
    n = int(out.strip().rsplit("=", 1)[1])
    assert n >= 2


def test_nstar_cap_error(tmp_path, capsys):
    """Config 'cap' bounds nstar's search; a config without one gets 600."""
    cfg = write_config(tmp_path, fig2_config(x0=[-0.9], r=[0.5], cap=1))
    code = main(["nstar", "--config", cfg, "--quiet"])
    assert code == 1
    assert "no feasible horizon <= 1" in capsys.readouterr().err
    assert ScenarioConfig(fig2_config()).cap == 600


@pytest.mark.parametrize("kind", ["MPC", "MPC+FG"])
@pytest.mark.parametrize("N", [None, 0])
def test_simulate_and_compare_share_the_horizon_rule(tmp_path, capsys,
                                                     kind, N):
    """An MPC kind with no N or N = 0 is refused with one message, by
    simulate (exit 1) and by compare (an error row, exit 1)."""
    message = "config field 'N': required (>= 1) for controller '{}'" \
        .format(kind)
    cfg = fig2_config(kind=kind, x0=[-0.2], r=[0.5], budget=10,
                      controllers=[{"kind": kind},
                                   {"kind": "MPC+CG(LQR)"}])
    if N is None:
        del cfg["N"]
    else:
        cfg["N"] = N
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out",
                 str(tmp_path / "sim"), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: {}\n".format(message)
    assert os.listdir(tmp_path / "sim") == []
    assert main(["compare", "--config", path, "--out",
                 str(tmp_path / "cmp"), "--quiet"]) == 1
    rows = (tmp_path / "cmp" / "compare.txt").read_text().splitlines()
    assert rows[1].endswith("  error: {}".format(message))
    assert rows[2].endswith("  ok")


def test_sets_exits_1_at_a_give_up_limit(tmp_path, capsys, monkeypatch):
    """A solver limit hit inside a verb is a LimitError, a RuntimeError:
    the command exits 1 with an error that names the limit's constant,
    and writes no file."""
    monkeypatch.setattr(solver, "_LP_PIVOTS_PER_SIZE", 0)
    cfg = write_config(tmp_path, fig2_config())
    out = tmp_path / "out"
    assert main(["sets", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LP of ") and "_LP_PIVOTS_PER_SIZE" in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("verb, flag, value", [
    ("sets", "--tol", "5"), ("sets", "--cap", "3"),
    ("simulate", "--tol", "5"), ("simulate", "--cap", "3"),
    ("compare", "--tol", "5"), ("compare", "--cap", "3"),
    ("nstar", "--out", "D"), ("nstar", "--tol", "5"), ("nstar", "--cap", "3"),
])
def test_option_of_another_verb_exits_2(tmp_path, capsys, verb, flag,
                                        value):
    """Each verb accepts only the options it reads: --out on sets,
    simulate and compare. The audit tolerance and nstar's cap are no
    options (the cap is config 'cap'). Any other option is refused by
    argparse with exit 2 before the config is read, and creates no
    directory."""
    cfg = write_config(tmp_path, fig2_config(x0=[-0.9], r=[0.5]))
    if value == "D":
        value = str(tmp_path / "D")
    with pytest.raises(SystemExit) as exit_:
        main([verb, "--config", cfg, flag, value, "--quiet"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: {} {}".format(flag, value) \
        in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_readme_usage_lines_parse(tmp_path, monkeypatch, capsys):
    """Each `fgmpc ...` line of the README's usage block passes argparse:
    run on a config that does not exist, it exits 1, never 2."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        usage = [line.split("#")[0].split() for line in fh
                 if line.startswith("fgmpc ")]
    assert sorted(words[1] for words in usage) == \
        ["compare", "nstar", "sets", "simulate"]
    monkeypatch.chdir(tmp_path)
    for words in usage:
        argv = words[1:]
        argv[argv.index("--config") + 1] = "missing.json"
        assert main(argv) == 1, words
        assert "missing.json" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
