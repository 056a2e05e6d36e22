import pytest

from sembox.cli import main, load_config_file, EXIT_CONFIG, EXIT_OK


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


class TestSweepOrderCommand:
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
