import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from wicknls import cli
from wicknls import serialization as ser

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


def run(*argv):
    return cli.main(list(argv))


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


def small_simulate_cfg(**overrides):
    cfg = {
        "schema_version": 1,
        "equation": {"variant": "wnls", "sign": 1},
        "integrator": {"scheme": "strang", "dt": 0.01, "t_end": 0.2,
                       "snapshot_stride": 5},
        "data": {"kind": "plane_wave", "mode": 1, "amplitude": 1.0},
    }
    cfg.update(overrides)
    return cfg


def small_weak_cfg(**overrides):
    cfg = {
        "schema_version": 1,
        "experiment": {"kind": "weak-continuity", "verdict": "auto"},
        "equation": {"variant": "wnls", "sign": 1},
        "integrator": {"scheme": "strang", "dt": 0.002, "snapshot_stride": 25},
        "horizon": 0.5,
        "base": {"kind": "plane_wave", "mode": 1, "amplitude": 1.0},
        "bump": {"amplitude": [1.0, 0.0]},
        "modes": [3, 9],
        "probe": {"kind": "plane_wave", "mode": 1, "amplitude": 1.0},
    }
    cfg.update(overrides)
    return cfg


class TestSimulate:
    def test_plane_wave_mass_constant(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg())
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        records = ser.read_ndjson(tmp_path / "o" / "trajectory.ndjson")
        assert records[0]["record"] == "meta"
        masses = [r["mass"] for r in records[1:]]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-12 * masses[0]

    def test_snapshot_files(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml",
                         small_simulate_cfg(output={"snapshots": True}))
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        snaps = sorted((tmp_path / "o" / "snapshots").glob("snapshot_*.json"))
        assert len(snaps) == 5
        u = ser.load_field(snaps[0])
        assert abs(u.coeff(1) - 1.0) < 1e-15

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg())
        run("simulate", "--config", cfg, "--out", str(tmp_path / "a"), "--repro")
        run("simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--repro")
        a = (tmp_path / "a" / "trajectory.ndjson").read_bytes()
        b = (tmp_path / "b" / "trajectory.ndjson").read_bytes()
        assert a == b

    def test_rerun_from_embedded_config(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg())
        run("simulate", "--config", cfg, "--out", str(tmp_path / "a"), "--repro")
        meta = ser.read_ndjson(tmp_path / "a" / "trajectory.ndjson")[0]
        cfg2 = write_yaml(tmp_path / "c2.yaml", meta["config"])
        run("simulate", "--config", cfg2, "--out", str(tmp_path / "b"), "--repro")
        a = (tmp_path / "a" / "trajectory.ndjson").read_bytes()
        b = (tmp_path / "b" / "trajectory.ndjson").read_bytes()
        assert a == b

    def test_diverged_exit_and_partial_flush(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg(
            equation={"variant": "truncated-nls", "sign": -1, "truncation": 8},
            integrator={"scheme": "rk4", "dt": 0.1, "t_end": 2.0,
                        "snapshot_stride": 1},
            data={"kind": "modes",
                  "amplitudes": {"0": [2.0, 0.0], "1": [1.5, 0.0], "-2": [1.0, 0.0]}},
        ))
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 3
        records = ser.read_ndjson(tmp_path / "o" / "trajectory.ndjson")
        assert records[0]["diverged"] is True
        assert len(records) > 1  # partial trajectory flushed

    def test_flag_override_wins(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg())
        out = tmp_path / "o"
        assert run("simulate", "--config", cfg, "--out", str(out),
                   "--set", "integrator.t_end=0.1",
                   "--set", "integrator.snapshot_stride=10") == 0
        records = ser.read_ndjson(out / "trajectory.ndjson")
        assert records[0]["config"]["integrator"]["t_end"] == 0.1
        assert records[-1]["t"] == pytest.approx(0.1)


class TestConfigErrors:
    def test_missing_config(self):
        assert run("simulate") == 2

    def test_nonexistent_file(self):
        assert run("simulate", "--config", "/does/not/exist.yaml") == 2

    def test_bad_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("equation: [unclosed\n")
        assert run("simulate", "--config", str(p)) == 2

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg(schema_version=99))
        assert run("simulate", "--config", cfg) == 2

    def test_missing_section(self, tmp_path):
        cfg = small_simulate_cfg()
        del cfg["integrator"]
        assert run("simulate", "--config", write_yaml(tmp_path / "c.yaml", cfg)) == 2

    def test_invalid_q_rejected(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "seed": 1, "mc_samples": 10_000,
            "hypercontractivity": [{"order": 2, "dim": 1, "q": 1.5}],
        })
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("overrides, key", [
        (["modes=[3, 3]"], "'modes'"),
        (["working_band=8"], "'working_band'"),
        (["horizon=0"], "'horizon'"),
        (["probe.amplitude=0"], "'probe'"),
        (["equation.variant=truncated-wnls-gauged", "equation.truncation=16"],
         "'equation.truncation'"),
    ])
    def test_weak_spec_errors_name_the_field(self, tmp_path, capsys, overrides, key):
        argv = ["weak-limit", "--config", str(CONFIG_DIR / "weak_limit_wnls.yaml"),
                "--out", str(tmp_path / "o")]
        for pair in overrides:
            argv += ["--set", pair]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config field {key}: ")

    @pytest.mark.parametrize("pair, key", [
        ("bump=2", "'bump'"),
        ("bump.amplitude=abc", "'bump.amplitude'"),
        ("bump.amplitude=[1,2,3]", "'bump.amplitude'"),
    ])
    def test_malformed_bump_names_the_field(self, tmp_path, capsys, pair, key):
        assert run("weak-limit", "--config", str(CONFIG_DIR / "weak_limit_wnls.yaml"),
                   "--out", str(tmp_path / "o"), "--set", pair) == 2
        assert capsys.readouterr().err.startswith(f"config error: config field {key}")

    @pytest.mark.parametrize("cap", ["-1", "0", ".nan"])
    def test_bad_amplitude_cap_names_the_field(self, tmp_path, capsys, cap):
        assert run("simulate", "--config", str(CONFIG_DIR / "simulate_plane_wave.yaml"),
                   "--out", str(tmp_path / "o"), "--set", f"amplitude_cap={cap}") == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'amplitude_cap': ")

    def test_malformed_chaos_terms_name_the_field(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "seed": 1, "mc_samples": 10_000,
            "hypercontractivity": [{"order": 2, "dim": 1, "q": 4.0, "terms": 5}],
        })
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'hypercontractivity[0].terms': ")

    def test_missing_offset_file(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1,
            "data": {"alpha": 0.0, "max_mode": 4, "seed": 0,
                     "offset_file": str(tmp_path / "nope.json")},
            "count": 1,
        })
        assert run("sample", "--config", cfg, "--out", str(tmp_path / "o")) == 2


class TestWeakLimit:
    def test_wick_fixture_passes(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_weak_cfg())
        assert run("weak-limit", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--threads", "2") == 0
        records = ser.read_ndjson(tmp_path / "o" / "weak_limit.ndjson")
        kinds = {r["record"] for r in records}
        assert {"meta", "report", "series"} <= kinds
        assert (tmp_path / "o" / "weak_limit_summary.csv").exists()

    def test_plain_fixture_fails_decay_verdict(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_weak_cfg(
            equation={"variant": "nls", "sign": 1},
            experiment={"kind": "weak-continuity", "verdict": "decay"}))
        assert run("weak-limit", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--threads", "2") == 4

    def test_zero_bump_passes_with_zero_gaps(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml",
                         small_weak_cfg(bump={"amplitude": [0.0, 0.0]}))
        assert run("weak-limit", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        records = ser.read_ndjson(tmp_path / "o" / "weak_limit.ndjson")
        gaps = next(r for r in records
                    if r["record"] == "series" and r["name"] == "gap_sup")
        assert all(v == 0.0 for v in gaps["values"])


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "wicknls", "simulate", "--config",
             str(CONFIG_DIR / "simulate_plane_wave.yaml"), "--out", str(out), "--repro"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert any(out.iterdir())
        bad = subprocess.run([sys.executable, "-m", "wicknls", "simulate"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert bad.returncode == 2 and "config error" in bad.stderr


class TestDeterminism:
    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_weak_cfg())
        run("weak-limit", "--config", cfg, "--out", str(tmp_path / "a"),
            "--threads", "1")
        run("weak-limit", "--config", cfg, "--out", str(tmp_path / "b"),
            "--threads", "4")
        a = (tmp_path / "a" / "weak_limit.ndjson").read_bytes()
        b = (tmp_path / "b" / "weak_limit.ndjson").read_bytes()
        assert a == b

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WICKNLS_OUT", str(tmp_path / "envout"))
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg())
        assert run("simulate", "--config", cfg) == 0
        assert (tmp_path / "envout" / "trajectory.ndjson").exists()


class TestWickCheckCommand:
    def test_default_suite_passes(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "seed": 7, "mc_samples": 50_000,
            "wick_variance": 2.0,
            "hypercontractivity": [{"order": 2, "dim": 1, "q": 4.0,
                                    "samples": 50_000}],
        })
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "o")) == 0

    def test_corrupted_variance_fails(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "seed": 7, "mc_samples": 50_000,
            "wick_variance": 3.0, "hypercontractivity": [],
        })
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "o")) == 4

    def test_shipped_configs(self, tmp_path):
        assert run("wick-check", "--config", str(CONFIG_DIR / "wick_check.yaml"),
                   "--out", str(tmp_path / "a")) == 0
        assert run("wick-check",
                   "--config", str(CONFIG_DIR / "wick_check_corrupted.yaml"),
                   "--out", str(tmp_path / "b")) == 4


class TestSampleCommand:
    def test_fields_and_profile(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1,
            "data": {"alpha": 0.0, "max_mode": 16, "seed": 3},
            "count": 2,
            "profile": {"s_values": [0.0], "cutoffs": [4, 8, 16], "samples": 400},
        })
        assert run("sample", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "sample_000.json").exists()
        assert (tmp_path / "o" / "sample_001.json").exists()
        lines = (tmp_path / "o" / "profile.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "s,M,median_norm,q25,q75,samples"
        medians = [float(line.split(",")[2]) for line in lines[2:]]
        assert medians[0] < medians[1] < medians[2]  # white-noise growth

    def test_seed_flag_changes_fields(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1,
            "data": {"alpha": 0.0, "max_mode": 8, "seed": 3},
            "count": 1,
        })
        run("sample", "--config", cfg, "--out", str(tmp_path / "a"))
        run("sample", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "4")
        a = json.loads((tmp_path / "a" / "sample_000.json").read_text())
        b = json.loads((tmp_path / "b" / "sample_000.json").read_text())
        assert a["coeffs"] != b["coeffs"]

    def test_field_file_round_trip_bit_exact(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1,
            "data": {"alpha": 1.0, "max_mode": 8, "seed": 9},
            "count": 1,
        })
        run("sample", "--config", cfg, "--out", str(tmp_path / "o"))
        path = tmp_path / "o" / "sample_000.json"
        u = ser.load_field(path)
        ser.save_field(u, tmp_path / "again.json")
        assert path.read_bytes() == (tmp_path / "again.json").read_bytes()


class TestNormsCommand:
    def test_norms_of_saved_field(self, tmp_path, capsys):
        from wicknls.field import TorusField

        ser.save_field(TorusField.single_mode(2, 1.0), tmp_path / "f.json")
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1,
            "field_file": str(tmp_path / "f.json"),
            "norms": [{"kind": "sobolev", "s": 1.0},
                      {"kind": "fourier_lebesgue", "s": 0.0, "p": 4.0}],
        })
        assert run("norms", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        out = capsys.readouterr().out
        assert "sobolev" in out
        rows = (tmp_path / "o" / "norms.csv").read_text().splitlines()
        assert rows[1] == "kind,s,p,value"
        assert float(rows[2].split(",")[3]) == pytest.approx(3.0)


class TestOrderStudyCommand:
    def test_rk4_config(self, tmp_path):
        assert run("order-study", "--config", str(CONFIG_DIR / "order_study_rk4.yaml"),
                   "--out", str(tmp_path / "o")) == 0
        records = ser.read_ndjson(tmp_path / "o" / "order_study.ndjson")
        head = next(r for r in records if r["record"] == "report")
        assert 3.8 <= head["details"]["fitted_order"] <= 4.2
