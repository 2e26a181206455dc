import json

import pytest

from corrwalk.cli import main


def run_config(tmp_path, **overrides):
    config = dict(N=64, T=48, alpha_t=0.0, beta_s=0.0, realizations=2, seed=5)
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestTrace:
    def test_deterministic_output(self, tmp_path):
        for sub in ("a", "b"):
            code = main(
                ["trace", "--nu", "2", "--length", "64", "--seed", "9", "--out", str(tmp_path / sub)]
            )
            assert code == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_squashed_header_and_range(self, tmp_path):
        assert main(["trace", "--nu", "0", "--length", "32", "--seed", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "j,V"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 32
        assert all(0.0 <= v < 6.2832 for v in values)

    def test_raw_header(self, tmp_path):
        assert main(["trace", "--nu", "1", "--length", "16", "--seed", "1", "--raw", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trace.csv").read_text().splitlines()[0] == "j,value"

    def test_missing_field_is_config_error(self, tmp_path, capsys):
        assert main(["trace", "--length", "16", "--out", str(tmp_path)]) == 2
        assert "'nu'" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["-1", "0"])
    def test_length_below_one_exit_2_before_any_output(self, tmp_path, capsys, length):
        out = tmp_path / "t"
        assert main(["trace", "--nu", "1", "--length", length, "--out", str(out)]) == 2
        assert "length" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_field_exit_2_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "trace.json"
        cfg.write_text(json.dumps({"nu": 1.0, "length": 16, "lenght": 32}))
        out = tmp_path / "t"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 2
        assert "lenght" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_manifest_first_with_config(self, tmp_path):
        assert main(["trace", "--nu", "1", "--length", "16", "--seed", "3", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "trace"
        assert manifest["config"]["nu"] == 1.0
        assert manifest["master_seed"] == 3


class TestRun:
    def test_end_to_end_single_size(self, tmp_path):
        cfg = run_config(tmp_path, snapshot_times=[24])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectory_N64.csv").exists()
        assert (out / "snapshot_N64_t24.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"][0]["N"] == 64
        assert "H" in summary["results"][0]["hurst"]

    def test_sizes_mode_fits_gamma(self, tmp_path):
        cfg = run_config(tmp_path)
        config = json.loads(cfg.read_text())
        del config["N"], config["T"]
        config["sizes"] = [32, 64, 128]
        config["sigma_window"] = 8
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for n in (32, 64, 128):
            assert (out / f"trajectory_N{n}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        # T = N/2: the averaging window grows with the horizon from 8 steps.
        assert [r["sigma_window"] for r in summary["results"]] == [8, 16, 32]
        assert "value" in summary["gamma"]
        assert summary["gamma"]["regime"] in {
            "localized",
            "subdiffusive",
            "diffusive",
            "superdiffusive",
            "ballistic",
        }

    def test_sizes_at_one_fixed_horizon_fit_no_gamma(self, tmp_path, caplog):
        # With "T": 8 every size runs 8 steps, and a fit of those sigma_bar
        # read gamma = -0.19, "localized", where the "N/2" rule reads 0.44.
        cfg = run_config(tmp_path, N=None, T=8, sizes=[16, 32, 64], sigma_window=4)
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="corrwalk"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "gamma" not in summary
        assert [(r["N"], r["T"], r["sigma_window"]) for r in summary["results"]] == [(16, 8, 4), (32, 8, 4), (64, 8, 4)]
        assert all(r["sigma_bar"] > 0 for r in summary["results"])
        assert "gamma not fitted" in caplog.text

    def test_two_sizes_fit_no_gamma_and_say_why(self, tmp_path, caplog):
        # fig3*-desk run two sizes; a gamma fit needs three.
        cfg = run_config(tmp_path, N=None, T=None, sizes=[16, 32], sigma_window=4)
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="corrwalk"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "gamma" not in summary
        assert [r["N"] for r in summary["results"]] == [16, 32]
        assert "gamma not fitted: 2 sizes" in caplog.text

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = run_config(tmp_path, T=0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "T" in capsys.readouterr().err

    def test_missing_alpha_field_message(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        config = json.loads(cfg.read_text())
        del config["alpha_t"]
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "alpha_t" in capsys.readouterr().err

    def test_both_n_and_sizes_rejected(self, tmp_path, capsys):
        cfg = run_config(tmp_path, sizes=[32, 64, 128])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "sizes" in capsys.readouterr().err

    def test_update_cap_refusal_exit_2(self, tmp_path, capsys):
        # N * T = 1.28e9 is over the fixed cap of 1e9 amplitude updates.
        cfg = run_config(tmp_path, T=20_000_000)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "exceeds the cap of 1000000000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, message", [
        (dict(N=64, T=4000, alpha_t=150.0), "alpha_t = 150.0"),
        # beta_s = 150 overflows at N = 1000 only.
        (dict(N=None, T=None, sizes=[16, 32, 1000], beta_s=150.0), "beta_s = 150.0"),
    ])
    def test_exponent_whose_trace_overflows_exit_2_before_any_output(self, tmp_path, capsys, overrides, message):
        cfg = run_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "sigma_window" not in err
        assert not out.exists()

    def test_manifest_reruns_byte_identical(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        first = (out / "trajectory_N64.csv").read_bytes()
        (out / "trajectory_N64.csv").unlink()
        assert main(["run", "--config", str(out / "manifest.json"), "--out", str(out)]) == 0
        assert (out / "trajectory_N64.csv").read_bytes() == first

    def test_manifest_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["phase-diagram", "--config", str(out / "manifest.json"), "--out", str(out)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_workers_flag_matches_serial(self, tmp_path):
        # One size, and three sizes, which run one ensemble after another.
        single = dict(realizations=3)
        multi = dict(N=None, T=None, sizes=[16, 32, 64], alpha_t=2.0, beta_s=1.0, realizations=5, sigma_window=4)
        for name, overrides, sizes in (("single", single, [64]), ("multi", multi, multi["sizes"])):
            (tmp_path / name).mkdir()
            cfg = run_config(tmp_path / name, **overrides)
            out_a, out_b = tmp_path / name / "a", tmp_path / name / "b"
            assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
            assert main(["run", "--config", str(cfg), "--out", str(out_b), "--workers", "2"]) == 0
            for n in sizes:
                traj = f"trajectory_N{n}.csv"
                assert (out_a / traj).read_bytes() == (out_b / traj).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = run_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a), "--seed", "99"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        a = (out_a / "trajectory_N64.csv").read_bytes()
        b = (out_b / "trajectory_N64.csv").read_bytes()
        assert a != b
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["master_seed"] == 99


    def test_sizes_window_longer_than_shortest_run_exit_2(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        config = json.loads(cfg.read_text())
        del config["N"], config["T"]
        config.update(sizes=[16, 32, 64], sigma_window=20)
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sigma_window" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_size_exit_2_before_compute(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        config = json.loads(cfg.read_text())
        del config["N"], config["T"]
        config.update(sizes=[64, 64, 128], sigma_window=8)
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes", [[], [1, 32, 64]])
    def test_bad_sizes_exit_2_before_compute(self, tmp_path, capsys, sizes):
        cfg = run_config(tmp_path, sizes=sizes, sigma_window=4)
        config = json.loads(cfg.read_text())
        del config["N"], config["T"]
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "'sizes'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snapshot_times", ["abc"]),
            ("snapshot_times", [7.9]),
            ("fit_window", ["a", 10]),
            ("fit_window", [10.5, 20]),
            ("fit_window", [10]),
            ("fit_window", [20, 20]),
            ("fit_window", [-1, 20]),
            # JSON booleans and strings are not numbers.
            ("realizations", True),
            ("seed", "12"),
            ("alpha_t", True),
            ("beta_s", "0.5"),
            ("beta_s", 10**400),
            ("snapshot_times", [True]),
            ("sigma_window", 0),
        ],
    )
    def test_malformed_time_list_exit_2_before_compute(self, tmp_path, capsys, field, value):
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_config(tmp_path, **{field: value})), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    # One run of T = 48, and sizes whose shortest run has T = 16.
    @pytest.mark.parametrize("sizes, fit_window", [(None, [5, 49]), ([32, 64, 128], [5, 17])])
    def test_fit_window_past_a_horizon_exit_2_before_compute(self, tmp_path, capsys, sizes, fit_window):
        cfg = run_config(tmp_path, fit_window=fit_window, sizes=sizes, sigma_window=4)
        config = json.loads(cfg.read_text())
        if sizes is not None:
            del config["N"], config["T"]
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "'fit_window'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value", [("realisations", 3), ("sigma_windw", 5), ("snapshot_single", True)]
    )
    def test_unknown_or_removed_field_exit_2_before_compute(self, tmp_path, capsys, field, value):
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_config(tmp_path, **{field: value})), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_rule", [0, False, "", [], "N", "5n"])
    def test_bad_t_rule_exit_2_before_manifest(self, tmp_path, capsys, t_rule):
        cfg = run_config(tmp_path, t_rule=t_rule)
        config = json.loads(cfg.read_text())
        del config["T"]
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "t_rule" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_holding_retired_fields_replays(self, tmp_path):
        # Manifests written while the fields existed hold them at these values.
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_config(tmp_path, snapshot_times=[24])), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"].update(normalize_variance=False, update_cap=1_000_000_000, snapshot_single=False)
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        assert main(["run", "--config", str(old), "--out", str(replay)]) == 0
        for name in ("trajectory_N64.csv", "snapshot_N64_t24.csv"):
            assert (replay / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("field, value", [("update_cap", 5), ("normalize_variance", True)])
    def test_retired_field_at_another_value_exit_2_before_any_output(self, tmp_path, capsys, field, value):
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_config(tmp_path, **{field: value})), "--out", str(out)]) == 2
        assert f"field '{field}': retired" in capsys.readouterr().err
        assert not out.exists()

    def test_single_size_keeps_a_window_longer_than_the_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_config(tmp_path, sigma_window=100)), "--out", str(out)]) == 0
        entry = json.loads((out / "summary.json").read_text())["results"][0]
        assert entry["sigma_bar"] is None and entry["sigma_window"] == 100


class TestPhaseDiagram:
    def write_sweep_config(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "grid_alpha": [0.0],
                    "grid_beta": [0.0],
                    "sizes": [32, 64, 128],
                    "realizations": 2,
                    "seed": 3,
                    "sigma_window": 8,
                }
            )
        )
        return path

    def test_single_cell(self, tmp_path):
        cfg = self.write_sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,gamma,stderr,regime"
        assert len(lines) == 2
        assert (out / "cells" / "cell_000_000.json").exists()

    def test_resume_skips_completed(self, tmp_path):
        cfg = self.write_sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        cell = out / "cells" / "cell_000_000.json"
        payload = json.loads(cell.read_text())
        payload["gamma"] = 42.0
        cell.write_text(json.dumps(payload))
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        assert "42.0" in (out / "grid.csv").read_text()

    def test_force_recomputes(self, tmp_path):
        cfg = self.write_sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        original = (out / "grid.csv").read_text()
        cell = out / "cells" / "cell_000_000.json"
        payload = json.loads(cell.read_text())
        payload["gamma"] = 42.0
        cell.write_text(json.dumps(payload))
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out), "--force"]) == 0
        assert (out / "grid.csv").read_text() == original

    def test_manifest_replays_into_a_fresh_directory(self, tmp_path):
        cfg = self.write_sweep_config(tmp_path)
        config = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**config, "grid_alpha": [0.0, 4.0], "grid_beta": [0.0, 2.0]}))
        out, replay = tmp_path / "out", tmp_path / "replay"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["phase-diagram", "--config", str(out / "manifest.json"), "--out", str(replay)]) == 0
        cells = sorted(p.relative_to(out) for p in (out / "cells").iterdir())
        assert len(cells) == 4
        for name in ["grid.csv", *cells]:
            assert (replay / name).read_bytes() == (out / name).read_bytes()

    def test_cell_without_windows_exit_2(self, tmp_path, capsys):
        cfg = self.write_sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = (out / "manifest.json").read_bytes()
        cell = out / "cells" / "cell_000_000.json"
        payload = json.loads(cell.read_text())
        del payload["windows"]
        cell.write_text(json.dumps(payload))
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cell_000_000.json" in err and "--force" in err
        assert (out / "manifest.json").read_bytes() == manifest


    def test_config_holding_retired_fields_writes_the_same_grid(self, tmp_path):
        cfg = self.write_sweep_config(tmp_path)
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**json.loads(cfg.read_text()), "normalize_variance": False, "update_cap": 10**9}))
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / "new")]) == 0
        assert main(["phase-diagram", "--config", str(old), "--out", str(tmp_path / "old")]) == 0
        for name in ("grid.csv", "cells/cell_000_000.json"):
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()

    @pytest.mark.parametrize(
        "field, value", [("snapshot_single", False), ("update_cap", 5), ("normalize_variance", True)]
    )
    def test_retired_field_refused_exit_2_before_any_output(self, tmp_path, capsys, field, value):
        # snapshot_single was never a phase-diagram field.
        cfg = self.write_sweep_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: value}))
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_window_longer_than_shortest_run_exit_2_before_compute(self, tmp_path, capsys):
        cfg = self.write_sweep_config(tmp_path)
        config = json.loads(cfg.read_text())
        del config["sigma_window"]  # default 100 > 33 entries at N = 64
        config["sizes"] = [64, 128, 256]
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sigma_window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("grid_alpha", [0.0, -1.0], "non-negative"),
            ("grid_beta", [float("inf")], "grid_beta"),
            ("grid_alpha", [], "at least one value"),
            ("grid_beta", ["x"], "grid_beta"),
            ("sizes", [32, 64, 64, 128], "distinct"),
            ("sigma_windw", 5, "sigma_windw"),
            ("grid_alpha", [True], "grid_alpha"),
            ("sizes", [32, "64", 128], "sizes"),
            ("sizes", [], "'sizes'"),
            ("sizes", [16, 32], "'sizes'"),
            ("sizes", [1, 32, 64], "'sizes'"),
            ("sigma_window", 0, "sigma_window"),
            ("grid_beta", [-0.5], "grid_beta"),
            ("grid_alpha", [0.0, 0.0], "grid_alpha"),
        ],
    )
    def test_bad_grid_or_sizes_exit_2_before_compute(self, tmp_path, capsys, field, value, message):
        cfg = self.write_sweep_config(tmp_path)
        config = json.loads(cfg.read_text())
        config[field] = value
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # beta_s = 400 overflows at N = 64 and 128, not at N = 32.
    @pytest.mark.parametrize("grid_beta", [[400.0], [0.0, 400.0]])
    def test_grid_value_whose_trace_overflows_exit_2_before_any_output(self, tmp_path, capsys, grid_beta):
        cfg = self.write_sweep_config(tmp_path)
        config = json.loads(cfg.read_text())
        config["grid_beta"] = grid_beta
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "beta_s = 400.0" in err and "sigma_window" not in err
        assert not out.exists()

    def test_resume_with_another_seed_exit_2(self, tmp_path, capsys):
        cfg = self.write_sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        grid = (out / "grid.csv").read_bytes()
        manifest = (out / "manifest.json").read_bytes()
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 2
        err = capsys.readouterr().err
        assert "cell_000_000.json" in err and "master_seed" in err and "--force" in err
        assert (out / "grid.csv").read_bytes() == grid
        assert (out / "manifest.json").read_bytes() == manifest

    def test_unreadable_cell_path_exit_2_naming_it(self, tmp_path, capsys):
        cfg = self.write_sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = (out / "manifest.json").read_bytes()
        cell = out / "cells" / "cell_000_000.json"
        cell.unlink()
        cell.mkdir()
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cell) in err and "--force" in err
        assert (out / "manifest.json").read_bytes() == manifest

    def test_truncated_cell_exit_2(self, tmp_path, capsys):
        cfg = self.write_sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        cell = out / "cells" / "cell_000_000.json"
        cell.write_bytes(cell.read_bytes()[:-20])
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cell) in err and "--force" in err
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out), "--force"]) == 0


class TestConfigFile:
    @pytest.mark.parametrize("make", [
        lambda path: path.write_bytes(b'{"N": 64, "alpha_t": 0.0, "beta_s": 0.0, "note": "\xff"}'),
        lambda path: path.mkdir(),
    ], ids=["not-utf-8", "directory"])
    def test_unreadable_config_exit_2_naming_the_path(self, tmp_path, capsys, make):
        cfg = tmp_path / "config.json"
        make(cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert str(cfg) in capsys.readouterr().err
        assert not out.exists()


class TestManifestConfig:
    """The resolved config a manifest records, which a replay reads back."""

    ENSEMBLE = {"realizations": 2, "seed": 0, "sigma_window": 4}
    RUN = {"N": None, "sizes": None, "T": None, "t_rule": "N/2", "alpha_t": 0.0, "beta_s": 0.0,
           "snapshot_times": [], "fit_window": None, **ENSEMBLE}

    @pytest.mark.parametrize(
        "command, config, expected",
        [
            ("trace", {"nu": 1, "length": 16}, {"nu": 1.0, "length": 16, "seed": 0, "raw": False}),
            ("run", {"N": 32, "alpha_t": 0, "beta_s": 0, "realizations": 2, "sigma_window": 4}, {**RUN, "N": 32}),
            (
                "run",
                {"sizes": [16, 32, 64], "alpha_t": 0, "beta_s": 0, "realizations": 2, "sigma_window": 4},
                {**RUN, "sizes": [16, 32, 64]},
            ),
            (
                "phase-diagram",
                {"grid_alpha": [0], "grid_beta": [0], "sizes": [16, 32, 64], "realizations": 2, "sigma_window": 4},
                {"grid_alpha": [0.0], "grid_beta": [0.0], "sizes": [16, 32, 64], **ENSEMBLE},
            ),
        ],
    )
    def test_minimal_config_resolved_with_defaults(self, tmp_path, command, config, expected):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == expected
        assert manifest["master_seed"] == 0


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [["trace", "--nu", "1", "--length", "16", "--workers", "2"], ["run", "--force"], ["trace", "--force"]],
    )
    def test_flag_of_another_command_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(run_config(tmp_path)), "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestWorkers:
    @pytest.mark.parametrize("command", ["run", "phase-diagram"])
    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_bad_worker_count_exit_2_before_manifest(self, tmp_path, capsys, command, workers):
        if command == "run":
            cfg = run_config(tmp_path)
        else:
            cfg = tmp_path / "sweep.json"
            sweep = {"grid_alpha": [0.0], "grid_beta": [0.0], "sizes": [16, 32, 64], "sigma_window": 4}
            cfg.write_text(json.dumps(sweep))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out), f"--workers={workers}"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestPresets:
    def test_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fig2a-desk" in out
        assert "fig7-paper" in out

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        assert main(["run", "--preset", "nope", "--out", str(tmp_path)]) == 2
        assert "preset" in capsys.readouterr().err

    def test_preset_command_mismatch_exit_2(self, tmp_path, capsys):
        assert main(["run", "--preset", "fig1a", "--out", str(tmp_path)]) == 2
        assert "trace" in capsys.readouterr().err

    def test_trace_preset_runs(self, tmp_path):
        assert main(["trace", "--preset", "fig1c", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 201

    def test_bare_name_resolves_to_desk(self, tmp_path):
        assert main(["trace", "--preset", "fig1a-desk", "--out", str(tmp_path / "a")]) == 0
        assert main(["trace", "--preset", "fig1a", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


class TestRuntimeErrors:
    def test_unwritable_out_dir_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(
            ["trace", "--nu", "0", "--length", "8", "--seed", "1", "--out", str(blocker / "sub")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_ballistic_run_records_fallback_window(self, tmp_path):
        cfg = run_config(tmp_path, N=64, T=320, alpha_t=4.0, beta_s=4.0, realizations=2)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        hurst = summary["results"][0]["hurst"]
        # boundary contact precedes T/5 here, so the default window dies
        # and the pre-contact fallback must be recorded
        assert hurst.get("window_fallback") is True
        assert "H" in hurst


class TestOutputRoot:
    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QWALK_OUT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--nu", "0", "--length", "16", "--seed", "1"]) == 0
        assert (tmp_path / "root" / "trace" / "trace.csv").exists()

    def test_config_stem_names_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QWALK_OUT", str(tmp_path / "root"))
        cfg = run_config(tmp_path, realizations=1, T=8)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "root" / "config" / "summary.json").exists()
