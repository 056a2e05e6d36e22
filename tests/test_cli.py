from types import SimpleNamespace

import pytest

from sembox.cli import (main, load_config_file, EXIT_CONFIG, EXIT_DIVERGED,
                        EXIT_FAULT, EXIT_OK)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeshCommand:
    def test_partition_table(self, capsys):
        code, out, _ = run_cli(capsys, "mesh", "--nx", "4", "--ny", "4",
                               "--layers", "3", "--parts", "4")
        assert code == EXIT_OK
        assert "columns: 16" in out
        assert "elements: 48" in out
        # four partitions of 12 elements each
        assert out.count("      12  ") == 4 or "12" in out

    def test_bad_mesh_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "mesh", "--nx", "3", "--ny", "3")
        assert code == EXIT_CONFIG
        assert "error" in err

    @pytest.mark.parametrize("flag,value", [("--lx", "nan"), ("--lx", "inf"),
                                            ("--lz", "nan")])
    def test_non_finite_extent_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "mesh", flag, value)
        assert code == EXIT_CONFIG
        assert "degenerate box extents" in err
        assert "box" not in out


class TestPerfmodelCommand:
    def test_preset_table1(self, capsys):
        code, out, _ = run_cli(capsys, "perfmodel", "--preset", "table1")
        assert code == EXIT_OK
        assert "97.94" in out
        assert "113.18" in out
        assert "163.45" in out
        assert "1.08" in out

    def test_preset_table3(self, capsys):
        code, out, _ = run_cli(capsys, "perfmodel", "--preset", "table3")
        assert code == EXIT_OK
        assert "2.84" in out and "4.59" in out

    def test_model_scenario_with_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "perfmodel", "--preset", "bubble",
                               "--out", str(tmp_path))
        assert code == EXIT_OK
        csv = (tmp_path / "perfmodel.csv").read_text()
        assert csv.startswith("row,CG,CG/DG,DG")

    def test_custom_elements(self, capsys):
        code, out, _ = run_cli(capsys, "perfmodel", "--elements", "8,8,8",
                               "--machines", "1", "--timesteps", "10")
        assert code == EXIT_OK
        assert "analytic ledger" in out

    def test_scenario_file(self, capsys, tmp_path):
        scn = tmp_path / "case.cfg"
        scn.write_text("order = 3\nnx = 64\nny = 64\nnz = 32\n"
                       "machines = 4\ntimesteps = 100\n")
        code, out, _ = run_cli(capsys, "perfmodel", "--scenario", str(scn))
        assert code == EXIT_OK
        assert "100 steps on 4 machines" in out

    def test_bad_scenario_key(self, capsys, tmp_path):
        scn = tmp_path / "case.cfg"
        scn.write_text("wavelength = 3\n")
        code, _, err = run_cli(capsys, "perfmodel", "--scenario", str(scn))
        assert code == EXIT_CONFIG

    def test_missing_scenario(self, capsys):
        code, _, err = run_cli(capsys, "perfmodel")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("elements", ["0,0,0", "nan,2,3", "2,inf,3",
                                          "2,-1,3"])
    def test_impossible_elements_exit_2(self, capsys, elements):
        code, out, err = run_cli(capsys, "perfmodel", "--elements", elements)
        assert code == EXIT_CONFIG
        assert "element counts" in err
        assert "analytic ledger" not in out

    @pytest.mark.parametrize("flag,value", [("--bandwidth", "nan"),
                                            ("--bandwidth", "inf"),
                                            ("--peak", "nan"),
                                            ("--peak", "0"),
                                            ("--cache-line", "0"),
                                            ("--l2", "nan"), ("--l2", "inf"),
                                            ("--l2", "-1"), ("--l2", "0.5")])
    def test_non_finite_machine_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "perfmodel", "--preset", "bubble",
                                 flag, value)
        assert code == EXIT_CONFIG
        assert "machine parameters must be finite and positive" in err
        assert err.startswith(f"error: {flag} ")
        assert "analytic ledger" not in out

    @pytest.mark.parametrize("elements,cause", [
        ("8,8", "expected nx,ny,nz, got 2 values"),
        ("8,8,8,8", "expected nx,ny,nz, got 4 values"),
        ("8,x,8", "could not convert string to float: 'x'")])
    def test_malformed_elements_name_the_flag(self, capsys, elements, cause):
        code, out, err = run_cli(capsys, "perfmodel", "--elements", elements)
        assert code == EXIT_CONFIG
        assert err == f"error: --elements {elements!r}: {cause}\n"
        assert out == ""

    @pytest.mark.parametrize("preset", ["table1", "table2", "table3"])
    @pytest.mark.parametrize("penalty", ["on", "off"])
    def test_penalty_on_a_cost_sheet_exits_2(self, capsys, preset, penalty):
        # the published sheets take no repricing
        code, out, err = run_cli(capsys, "perfmodel", "--preset", preset,
                                 "--penalty", penalty)
        assert code == EXIT_CONFIG
        assert f"got --penalty {penalty}" in err
        assert out == ""

    @pytest.mark.parametrize("sources", [
        ("--preset", "table1", "--scenario", "S"),
        ("--preset", "bubble", "--elements", "8,8,8"),
        ("--scenario", "S", "--elements", "8,8,8"),
        ("--preset", "table1", "--scenario", "S", "--elements", "8,8,8")])
    def test_two_scenario_sources_exit_2(self, capsys, tmp_path, sources):
        scn = tmp_path / "case.cfg"
        scn.write_text("nx = 64\n")
        argv = [str(scn) if a == "S" else a for a in sources]
        code, out, err = run_cli(capsys, "perfmodel", *argv)
        assert code == EXIT_CONFIG
        assert "takes one of --preset, --scenario and --elements" in err
        assert out == ""

    @pytest.mark.parametrize("source", [("--preset", "bubble"),
                                        ("--preset", "table1"),
                                        ("--scenario", "S")])
    @pytest.mark.parametrize("flag,value", [("--order", "5"),
                                            ("--machines", "4"),
                                            ("--timesteps", "5")])
    def test_elements_flag_without_elements_exits_2(self, capsys, tmp_path,
                                                    source, flag, value):
        scn = tmp_path / "case.cfg"
        scn.write_text("nx = 64\n")
        argv = [str(scn) if a == "S" else a for a in source]
        code, out, err = run_cli(capsys, "perfmodel", *argv, flag, value)
        assert code == EXIT_CONFIG
        assert f"got {flag} {value} without it" in err
        assert out == ""

    def test_elements_flag_at_its_default_passes(self, capsys):
        # the parser cannot tell an explicit default from an absent flag
        code, out, _ = run_cli(capsys, "perfmodel", "--preset", "table1",
                               "--order", "3")
        assert code == EXIT_OK
        assert "97.94" in out

    @pytest.mark.parametrize("line", ["nx = 0", "nz = nan", "stages = 0"])
    def test_impossible_scenario_exits_2(self, capsys, tmp_path, line):
        scn = tmp_path / "case.cfg"
        scn.write_text(line + "\n")
        code, out, err = run_cli(capsys, "perfmodel", "--scenario", str(scn))
        assert code == EXIT_CONFIG
        assert "error" in err
        assert "analytic ledger" not in out


class TestRunCommand:
    def test_tiny_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", "--nx", "2", "--ny", "2",
                               "--layers", "2", "--steps", "2",
                               "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "steps: 2" in out
        assert (tmp_path / "diagnostics.csv").exists()
        assert (tmp_path / "state.bin").exists()

    def test_snapshot_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "run", "--nx", "2", "--ny", "2",
                             "--layers", "2", "--steps", "1", "--snapshot")
        assert code == EXIT_OK
        assert (tmp_path / "sembox_out" / "state.bin").exists()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "bubble.cfg"
        cfg.write_text("# tiny case\nnx = 2\nny = 2\nlayers = 2\nsteps = 1\n"
                       "theta_pert = 0.25\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == EXIT_OK
        assert "steps: 1" in out

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "bubble.cfg"
        cfg.write_text("nx=2\nny=2\nlayers=2\nsteps=5\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg),
                               "--steps", "1")
        assert code == EXIT_OK
        assert "steps: 1" in out

    def test_end_time_in_file_sets_duration(self, capsys, tmp_path):
        # an end_time key without steps must control the run length
        cfg = tmp_path / "bubble.cfg"
        cfg.write_text("nx=2\nny=2\nlayers=2\nend_time=0.3\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == EXIT_OK
        # dt is ~0.16 s on this mesh, so 0.3 s of model time is 2 steps
        assert "steps: 2" in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble=1\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "wibble" in err

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nx 2\n")
        from sembox.harness import ConfigError
        with pytest.raises(ConfigError):
            load_config_file(cfg)

    def test_invalid_bubble_geometry(self, capsys):
        code, _, err = run_cli(capsys, "run", "--nx", "2", "--ny", "2",
                               "--layers", "2", "--steps", "1",
                               "--radius", "900")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [
        ("--steps", "-3"), ("--end-time", "-1"), ("--snapshot-every", "-2"),
        ("--radius", "-5"), ("--radius", "nan"), ("--courant-h", "nan"),
        ("--end-time", "nan"), ("--theta-pert", "inf")])
    def test_out_of_range_run_control_exits_2(self, capsys, tmp_path, flag,
                                              value):
        code, _, err = run_cli(capsys, "run", "--nx", "2", "--ny", "2",
                               "--layers", "2", "--out", str(tmp_path),
                               flag, value)
        assert code == EXIT_CONFIG
        assert "error" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_snapshot_cadence_needs_out_dir(self, capsys, tmp_path, source):
        argv = ["run", "--nx", "2", "--ny", "2", "--layers", "2",
                "--steps", "2"]
        if source == "flag":
            argv += ["--snapshot-every", "1"]
        else:
            cfg = tmp_path / "bubble.cfg"
            cfg.write_text("snapshot_every = 1\n")
            argv += ["--config", str(cfg)]
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "--out" in err

    @pytest.mark.parametrize("command", ["run", "scale"])
    def test_hybrid_scheme_is_model_only(self, capsys, command):
        # the engine runs cg and dg; cg-dg exists only in the cost model
        code, _, _ = run_cli(capsys, command, "--nx", "2", "--ny", "2",
                             "--layers", "2", "--steps", "1",
                             "--scheme", "cg-dg")
        assert code == EXIT_CONFIG

    def test_diverged_run_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--nx", "2", "--ny", "2",
                               "--layers", "2", "--steps", "40",
                               "--courant-h", "40", "--courant-v", "40")
        assert code == 3
        assert "DIVERGED" in out


class TestScaleCommand:
    def test_two_point_sweep(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "scale", "--nx", "4", "--ny", "4",
                               "--layers", "2", "--steps", "2",
                               "--parts", "1,2", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "efficiency" in out
        csv = (tmp_path / "scaling.csv").read_text()
        assert len(csv.splitlines()) == 3

    def test_diverged_sweep_exits_3_without_timings(self, capsys, tmp_path):
        # Courant 2.0 on this mesh diverges at step 5 at every worker count
        code, out, err = run_cli(capsys, "scale", "--nx", "2", "--ny", "2",
                                 "--layers", "2", "--steps", "40",
                                 "--courant-h", "2.0", "--courant-v", "2.0",
                                 "--parts", "1,2", "--out", str(tmp_path))
        assert code == EXIT_DIVERGED
        assert "the 1-worker run diverged at step 5" in err
        assert "efficiency" not in out
        assert not (tmp_path / "scaling.csv").exists()

    @pytest.mark.parametrize("duration", [("--steps", "1"),
                                          ("--end-time", "0.01")])
    def test_no_timed_step_exits_2(self, capsys, duration):
        # one warm-up step leaves a one-step run nothing to time
        code, out, err = run_cli(capsys, "scale", "--nx", "2", "--ny", "2",
                                 "--layers", "2", "--parts", "1,2", *duration)
        assert code == EXIT_CONFIG
        assert "warmup_steps" in err
        assert "efficiency" not in out

    @pytest.mark.parametrize("parts", [",", "", " , "])
    def test_parts_without_a_count_exits_2(self, capsys, parts):
        code, out, err = run_cli(capsys, "scale", "--nx", "2", "--ny", "2",
                                 "--layers", "2", "--steps", "2",
                                 "--parts", parts)
        assert code == EXIT_CONFIG
        assert "error: --parts" in err
        assert "efficiency" not in out

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_snapshot_cadence_exits_2(self, capsys, tmp_path, source):
        # scale writes no snapshots, so a cadence asks for nothing it does
        argv = ["scale", "--nx", "2", "--ny", "2", "--layers", "2",
                "--steps", "2", "--parts", "1,2"]
        if source == "flag":
            argv += ["--snapshot-every", "1"]
        else:
            cfg = tmp_path / "bubble.cfg"
            cfg.write_text("snapshot_every = 1\n")
            argv += ["--config", str(cfg)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "efficiency" not in out


# run in a subprocess by the run_python fixture (conftest.py)
FAULT_CLI_SCRIPT = """
import sys
from sembox import cli, harness

real = harness.filter_contributions

def faulty(*args):
    if sys._getframe(1).f_locals["self"].t == {target}:
        raise {error}("injected")
    return real(*args)

harness.filter_contributions = faulty
sys.exit(cli.main([{command!r}, "--nx", "2", "--ny", "2", "--layers", "2",
                   "--steps", "2", "--parts", {parts!r}]))
"""


class TestWorkerFaultExit:
    """A fault inside a worker is an internal error, neither bad input
    (exit 2) nor divergence (exit 3)."""

    @pytest.mark.parametrize("command,parts,target", [
        ("run", "1", 0), ("run", "2", 1), ("scale", "1,2", 0)])
    @pytest.mark.parametrize("error", ["KeyError", "ValueError"])
    def test_exits_4_naming_partition_and_step(self, run_python, error,
                                                command, parts, target):
        proc = run_python(FAULT_CLI_SCRIPT.format(
            target=target, error=error, command=command, parts=parts))
        assert proc.returncode == EXIT_FAULT, proc.stderr
        assert f"partition {target}, step 1" in proc.stderr
        assert error in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSweepOrderCommand:
    def test_empty_order_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep-order", "--pmin", "3",
                                 "--pmax", "2")
        assert code == EXIT_CONFIG
        assert "empty order range" in err
        assert out == ""

    def test_default_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-order", "--pmax", "4")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "scheme,order,timesteps,time_per_step,time_to_solution"
        assert len(lines) == 1 + 3 * 4

    def test_calibrated(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-order", "--pmin", "3",
                               "--pmax", "3", "--penalized", "--calibrated")
        assert code == EXIT_OK
        # calibrated, repriced p=3 entries land on the published runtimes
        row = [ln for ln in out.splitlines() if ln.startswith("cg,3")][0]
        assert abs(float(row.split(",")[-1]) - 152.16) < 0.2


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_CONFIG

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "mesh", "--wibble", "3")
        assert code == EXIT_CONFIG

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0


# parser surface per subcommand, in declaration order:
# (option string, dest, type, choices, default)
_HELP = ("-h", "help", None, None, "==SUPPRESS=="), \
    ("--help", "help", None, None, "==SUPPRESS==")
_BUBBLE_FLAGS = (
    ("--config", "config", None, None, None),
    ("--nx", "nx", int, None, None),
    ("--ny", "ny", int, None, None),
    ("--layers", "layers", int, None, None),
    ("--order", "order", int, None, None),
    ("--steps", "steps", int, None, None),
    ("--end-time", "end_time", float, None, None),
    ("--scheme", "scheme", None, ("cg", "dg"), None),
    ("--theta0", "theta0", float, None, None),
    ("--theta-pert", "theta_pert", float, None, None),
    ("--radius", "radius", float, None, None),
    ("--courant-h", "courant_h", float, None, None),
    ("--courant-v", "courant_v", float, None, None),
    ("--filter-mu", "filter_mu", float, None, None),
    ("--out", "out", None, None, None),
)
PARSER_SURFACE = {
    "mesh": _HELP + (
        ("--nx", "nx", int, None, 4),
        ("--ny", "ny", int, None, 4),
        ("--layers", "layers", int, None, 3),
        ("--order", "order", int, None, 3),
        ("--parts", "parts", int, None, 1),
        ("--lx", "lx", float, None, 1000.0),
        ("--ly", "ly", float, None, 1000.0),
        ("--lz", "lz", float, None, 1000.0),
    ),
    "run": _HELP + _BUBBLE_FLAGS + (
        ("--parts", "parts", int, None, 1),
        ("--snapshot", "snapshot", None, None, False),
        ("--snapshot-every", "snapshot_every", int, None, None),
    ),
    "scale": _HELP + _BUBBLE_FLAGS + (
        ("--parts", "parts", None, None, "1,2,4,8"),
    ),
    "perfmodel": _HELP + (
        ("--preset", "preset", None,
         ("table1", "table2", "table3", "bubble", "planetary"), None),
        ("--scenario", "scenario", None, None, None),
        ("--elements", "elements", None, None, None),
        ("--order", "order", int, None, 3),
        ("--machines", "machines", int, None, 768),
        ("--timesteps", "timesteps", int, None, 690),
        ("--penalty", "penalty", None, ("auto", "on", "off"), "auto"),
        ("--bandwidth", "bandwidth", float, None, 28.5e9),
        ("--peak", "peak", float, None, 204.8e9),
        ("--cache-line", "cache_line", int, None, 128),
        ("--l2", "l2", float, None, 32 * 2 ** 20),
        ("--out", "out", None, None, None),
    ),
    "sweep-order": _HELP + (
        ("--pmin", "pmin", int, None, 1),
        ("--pmax", "pmax", int, None, 7),
        ("--penalized", "penalized", None, None, False),
        ("--calibrated", "calibrated", None, None, False),
        ("--out", "out", None, None, None),
    ),
}


class TestParserSurface:
    """Flag names, dests, types, choices and defaults stay as they are."""

    @staticmethod
    def subparsers():
        import argparse
        from sembox.cli import build_parser
        ap = build_parser()
        action = next(a for a in ap._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_subcommands(self):
        assert list(self.subparsers()) == list(PARSER_SURFACE)

    @pytest.mark.parametrize("command", list(PARSER_SURFACE))
    def test_options(self, command):
        surface = tuple(
            (opt, a.dest, a.type,
             None if a.choices is None else tuple(a.choices), a.default)
            for a in self.subparsers()[command]._actions
            for opt in a.option_strings)
        assert surface == PARSER_SURFACE[command]


class TestConfigKeys:
    def test_every_bubble_key(self, capsys, tmp_path, monkeypatch):
        from sembox import cli
        from sembox.harness import BubbleConfig
        seen = []

        def fake_run(cfg, n_partitions, out_dir):
            seen.append(cfg)
            return SimpleNamespace(summary=lambda: "ok", failed_step=None), None

        monkeypatch.setattr(cli, "run_bubble", fake_run)
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "lx = 1200\nly = 900\nlz = 800\ntheta0 = 290\ntheta_pert = 0.75\n"
            "radius = 200\ncx = 600\ncy = 450\ncz = 300\nnx = 3\nny = 5\n"
            "layers = 4\norder = 4\ncourant_h = 0.3\ncourant_v = 0.5\n"
            "end_time = 12.5\nsteps = 6\nfilter_mu = 0.1\nfilter_s = 8\n"
            "filter_cutoff = 2\nscheme = dg\nsnapshot_every = 3\n"
            "warmup_steps = 2\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg),
                               "--out", str(tmp_path))
        assert code == EXIT_OK
        assert seen == [BubbleConfig(
            extents=(1200.0, 900.0, 800.0), theta0=290.0, theta_pert=0.75,
            radius=200.0, center=(600.0, 450.0, 300.0), nx=3, ny=5, layers=4,
            order=4, courant_h=0.3, courant_v=0.5, end_time=12.5, n_steps=6,
            filter_mu=0.1, filter_s=8, filter_cutoff=2, scheme="dg",
            snapshot_every=3, warmup_steps=2)]

    def test_every_scenario_key(self, capsys, tmp_path, monkeypatch):
        from sembox import cli
        from sembox.perf_model import SimConfig
        seen = []
        real = cli.model_table

        def spy(config, *args, **kwargs):
            seen.append(config)
            return real(config, *args, **kwargs)

        monkeypatch.setattr(cli, "model_table", spy)
        scn = tmp_path / "case.cfg"
        scn.write_text("order = 4\nnx = 100\nny = 80\nnz = 50\nmachines = 16\n"
                       "timesteps = 200\nstages = 3\nmetric_scheme = recompute\n")
        code, out, _ = run_cli(capsys, "perfmodel", "--scenario", str(scn))
        assert code == EXIT_OK
        assert seen == [SimConfig(order=4, elements=(100.0, 80.0, 50.0),
                                  machines=16, timesteps=200, stages=3,
                                  metric_scheme="recompute")]
        assert out.splitlines()[0] == ("analytic ledger: p=4, elements="
                                       "(100.0, 80.0, 50.0), 200 steps on "
                                       "16 machines")

    def test_partial_scenario_keeps_float_elements(self, capsys, tmp_path):
        scn = tmp_path / "case.cfg"
        scn.write_text("nx = 100\nmachines = 4\ntimesteps = 10\n")
        code, out, _ = run_cli(capsys, "perfmodel", "--scenario", str(scn))
        assert code == EXIT_OK
        assert out.splitlines()[0] == ("analytic ledger: p=3, elements="
                                       "(100.0, 264.0, 396.0), 10 steps on "
                                       "4 machines")

    @pytest.mark.parametrize("command,flag", [("run", "--config"),
                                              ("scale", "--config"),
                                              ("perfmodel", "--scenario")])
    def test_missing_file_exits_2(self, capsys, tmp_path, command, flag):
        code, _, err = run_cli(capsys, command, flag,
                               str(tmp_path / "absent.cfg"))
        assert code == EXIT_CONFIG
        assert err.startswith("error:") and "absent.cfg" in err

    @pytest.mark.parametrize("command,flag,text,key", [
        ("run", "--config", "steps = abc", "config key 'steps'"),
        ("run", "--config", "nx = 3.5", "config key 'nx'"),
        ("scale", "--config", "lx = wide", "config key 'lx'"),
        ("perfmodel", "--scenario", "order = x", "scenario key 'order'")])
    def test_bad_value_names_its_key(self, capsys, tmp_path, command, flag,
                                     text, key):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run_cli(capsys, command, flag, str(cfg))
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,flag,text,where", [
        ("run", "--config",
         "nx = 2\nny = 2\nlayers = 2\nsteps = 3\n# again\nsteps = 5\n",
         "6: key 'steps'"),
        ("perfmodel", "--scenario", "order = 3\nmachines = 4\n order=5\n",
         "3: key 'order'")])
    def test_key_given_twice_exits_2(self, capsys, tmp_path, command, flag,
                                     text, where):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, command, flag, str(cfg))
        assert code == EXIT_CONFIG and out == ""
        assert err == f"error: {cfg}:{where} given twice\n"

    def test_steps_win_over_end_time_in_flags_and_file(self, capsys,
                                                       tmp_path):
        # dt is ~0.16 s here: end_time alone would give 2 steps
        mesh = ["--nx", "2", "--ny", "2", "--layers", "2"]
        code, out, _ = run_cli(capsys, "run", *mesh, "--steps", "3",
                               "--end-time", "0.3")
        assert code == EXIT_OK
        assert "steps: 3" in out
        cfg = tmp_path / "bubble.cfg"
        cfg.write_text("steps = 3\nend_time = 0.3\n")
        code, out, _ = run_cli(capsys, "run", *mesh, "--config", str(cfg))
        assert code == EXIT_OK
        assert "steps: 3" in out

    def test_end_time_flag_clears_file_steps(self, capsys, tmp_path):
        cfg = tmp_path / "bubble.cfg"
        cfg.write_text("nx=2\nny=2\nlayers=2\nsteps=5\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg),
                               "--end-time", "0.3")
        assert code == EXIT_OK
        assert "steps: 2" in out

    def test_readme_lists_every_config_key(self):
        import pathlib
        import re
        from sembox.cli import _BUBBLE_KEYS
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        keys = re.search(r"\(keys: `([^`]*)`", readme).group(1).split()
        assert sorted(keys) == sorted(_BUBBLE_KEYS)
