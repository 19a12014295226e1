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
        (["modes=[4.5, 8]"], "'modes'"),
        (["horizon=.inf"], "'horizon'"),
        (["bump.amplitude=.nan"], "'bump.amplitude'"),
        (["bump.amplitude=[1,.inf]"], "'bump.amplitude'"),
    ])
    def test_weak_spec_errors_name_the_field(self, tmp_path, capsys, overrides, key):
        argv = ["weak-limit", "--config", str(CONFIG_DIR / "weak_limit_wnls.yaml"),
                "--out", str(tmp_path / "o")]
        for pair in overrides:
            argv += ["--set", pair]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config field {key}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pair, key", [
        ("bump=2", "'bump'"),
        ("bump.amplitude=abc", "'bump.amplitude'"),
        ("bump.amplitude=[1,2,3]", "'bump.amplitude'"),
    ])
    def test_malformed_bump_names_the_field(self, tmp_path, capsys, pair, key):
        assert run("weak-limit", "--config", str(CONFIG_DIR / "weak_limit_wnls.yaml"),
                   "--out", str(tmp_path / "o"), "--set", pair) == 2
        assert capsys.readouterr().err.startswith(f"config error: config field {key}")

    @pytest.mark.parametrize("pair, key", [
        ("amplitude_cap=1e6", "'amplitude_cap'"),
        ("integrator.dtt=1e-3", "'integrator.dtt'"),
    ])
    def test_unknown_key_is_refused(self, tmp_path, capsys, pair, key):
        # a key that no reader asks for would otherwise be ignored silently
        out = tmp_path / "o"
        assert run("simulate", "--config", str(CONFIG_DIR / "simulate_plane_wave.yaml"),
                   "--out", str(out), "--set", pair) == 2
        assert capsys.readouterr().err == f"config error: config field {key}: unknown key\n"
        assert not out.exists()

    def test_malformed_chaos_terms_name_the_field(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "seed": 1, "mc_samples": 10_000,
            "hypercontractivity": [{"order": 2, "dim": 1, "q": 4.0, "terms": 5}],
        })
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'hypercontractivity[0].terms': ")

    @pytest.mark.parametrize("argv, key", [
        (["--seed", "-1"], "'seed'"),
        # five cases: case i keys seed + i + 1, so 2**64 - 5 is one too many
        (["--set", f"seed={2**64 - 5}"], "'seed'"),
        (["--set", "mc_samples=0"], "'mc_samples'"),
        (["--set", "hypercontractivity=[{order: 2, q: .nan}]"],
         "'hypercontractivity[0].q'"),
        (["--set", "hypercontractivity=[{order: 2, q: .inf}]"],
         "'hypercontractivity[0].q'"),
        (["--set", "seed=1.5"], "'seed'"),
        (["--set", "wick_variance=.nan"], "'wick_variance'"),
        (["--set", "wick_variance=.inf"], "'wick_variance'"),
        (["--set", "wick_variance=0"], "'wick_variance'"),
        (["--set", "wick_variance=-2"], "'wick_variance'"),
    ])
    def test_wick_check_errors_name_the_field(self, tmp_path, capsys, argv, key):
        assert run("wick-check", "--config", str(CONFIG_DIR / "wick_check.yaml"),
                   "--out", str(tmp_path / "o"), *argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: config field {key}: ")

    def test_wick_check_accepts_the_last_seed_that_fits(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "seed": 2**64 - 2, "mc_samples": 10_000,
            "hypercontractivity": [{"order": 1, "dim": 1, "q": 4.0, "samples": 10_000}],
        })
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        hyp = ser.read_ndjson(tmp_path / "o" / "wick_check.ndjson")[-1]
        assert hyp["record"] == "hypercontractivity" and hyp["seed"] == 2**64 - 1

    @pytest.mark.parametrize("pair, prefix", [
        ("data.alpha=.nan", "data: alpha must be finite"),
        ("data.gaussian_scale=.nan", "data: gaussian_scale must be finite"),
        ("profile.samples=0", "profile: samples must be >= 1"),
        ("profile.cutoffs=[-1, 8]", "profile: cutoffs must be >= 0"),
        ("data.seed=1.5", "config field 'data.seed': "),
        ("profile.s_values=5", "config field 'profile.s_values': "),
    ])
    def test_sample_errors_name_the_field(self, tmp_path, capsys, pair, prefix):
        assert run("sample", "--config", str(CONFIG_DIR / "sample_white_noise.yaml"),
                   "--out", str(tmp_path / "o"), "--set", pair) == 2
        assert capsys.readouterr().err.startswith(f"config error: {prefix}")

    @pytest.mark.parametrize("pair", ["profile.samples=0", "profile.cutoffs=[-1, 8]"])
    def test_profile_error_writes_no_file(self, tmp_path, pair):
        out = tmp_path / "o"
        assert run("sample", "--config", str(CONFIG_DIR / "sample_white_noise.yaml"),
                   "--out", str(out), "--set", pair) == 2
        assert list(out.iterdir()) == []

    def test_negative_count_is_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("sample", "--config", str(CONFIG_DIR / "sample_white_noise.yaml"),
                   "--out", str(out), "--set", "count=-1") == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'count': must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [".nan", "-1"])
    def test_bad_alpha_is_a_config_error(self, tmp_path, capsys, alpha):
        out = tmp_path / "o"
        assert run("simulate", "--config", str(CONFIG_DIR / "simulate_plane_wave.yaml"),
                   "--out", str(out), "--set", "equation.variant=truncated-wnls-hamiltonian",
                   "--set", "equation.truncation=4", "--set", f"equation.alpha={alpha}") == 2
        assert capsys.readouterr().err.startswith(
            "config error: equation: alpha must be finite and >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_random_field_index_outside_64_bits(self, tmp_path, capsys, index):
        out = tmp_path / "o"
        assert run("simulate", "--config", str(CONFIG_DIR / "simulate_plane_wave.yaml"),
                   "--out", str(out), "--set", "data.kind=random",
                   "--set", "data.max_mode=4", "--set", f"data.index={index}") == 2
        assert capsys.readouterr().err.startswith(
            "config error: data: index must lie in [0, 2**64)")
        assert not out.exists()

    @pytest.mark.parametrize("command, config, pair, key", [
        ("simulate", "simulate_plane_wave.yaml", "equation.sign=1.5", "'equation.sign'"),
        ("simulate", "simulate_plane_wave.yaml", "equation.sign=true", "'equation.sign'"),
        ("simulate", "simulate_plane_wave.yaml", "data.mode=2.9", "'data.mode'"),
        ("simulate", "simulate_plane_wave.yaml", "integrator.dt=.inf", "'integrator.dt'"),
        ("simulate", "simulate_plane_wave.yaml", "integrator.t_end=.inf",
         "'integrator.t_end'"),
        ("order-study", "order_study_rk4.yaml", "dts=[[1],[2],[3]]", "'dts'"),
        ("order-study", "order_study_rk4.yaml", "dts=[.nan,1e-3,5e-4]", "'dts'"),
        ("order-study", "order_study_rk4.yaml", "dts=[1e-2,5e-3]", "'dts'"),
        ("order-study", "order_study_rk4.yaml", "dts=[1e-2,1e-2,5e-3]", "'dts'"),
        ("order-study", "order_study_rk4.yaml", "dts=[1e-2,5e-3,0]", "'dts'"),
        ("order-study", "order_study_rk4.yaml", "t_end=.inf", "'t_end'"),
    ])
    def test_typed_fields_name_the_field(self, tmp_path, capsys, command, config, pair,
                                         key):
        out = tmp_path / "o"
        assert run(command, "--config", str(CONFIG_DIR / config), "--out", str(out),
                   "--set", pair) == 2
        assert capsys.readouterr().err.startswith(f"config error: config field {key}: ")
        assert not out.exists()

    def test_malformed_norm_names_the_field(self, tmp_path, capsys):
        from wicknls.field import TorusField

        ser.save_field(TorusField.single_mode(2, 1.0), tmp_path / "f.json")
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "field_file": str(tmp_path / "f.json"),
            "norms": [{"kind": "sobolev", "s": [1]}],
        })
        assert run("norms", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'norms[0].s': ")

    def test_yaml_string_real_is_accepted(self, tmp_path):
        # PyYAML reads 1e-3 (no decimal point) as the string "1e-3"
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg())
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--set", "integrator.dt=1e-3") == 0
        records = ser.read_ndjson(tmp_path / "o" / "trajectory.ndjson")
        assert records[0]["config"]["integrator"]["dt"] == "1e-3"
        assert len(records) == 1 + 200 // 5 + 1

    def test_missing_offset_file(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1,
            "data": {"alpha": 0.0, "max_mode": 4, "seed": 0,
                     "offset_file": str(tmp_path / "nope.json")},
            "count": 1,
        })
        assert run("sample", "--config", cfg, "--out", str(tmp_path / "o")) == 2


# the command that runs each shipped config
SHIPPED_COMMANDS = {
    "order_study_rk4": "order-study", "phase_defect_contrast": "weak-limit",
    "sample_white_noise": "sample", "simulate_plane_wave": "simulate",
    "weak_limit_nls": "weak-limit", "weak_limit_wnls": "weak-limit",
    "wick_check": "wick-check", "wick_check_corrupted": "wick-check",
}


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_parse_step_accepts(self, path):
        cfg = cli._load_config(str(path))
        cli._check_schema(cfg)
        assert callable(cli._COMMANDS[SHIPPED_COMMANDS[path.stem]](cfg))


class TestWeakLimit:
    def test_wick_fixture_passes(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_weak_cfg())
        assert run("weak-limit", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        records = ser.read_ndjson(tmp_path / "o" / "weak_limit.ndjson")
        kinds = {r["record"] for r in records}
        assert {"meta", "report", "series"} <= kinds
        assert (tmp_path / "o" / "weak_limit_summary.csv").exists()

    def test_plain_fixture_fails_decay_verdict(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_weak_cfg(
            equation={"variant": "nls", "sign": 1},
            experiment={"kind": "weak-continuity", "verdict": "decay"}))
        assert run("weak-limit", "--config", cfg, "--out", str(tmp_path / "o")) == 4

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
    def test_weak_limit_reruns_are_byte_identical(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", small_weak_cfg())
        assert run("weak-limit", "--config", cfg, "--out", str(tmp_path / "a")) == 0
        assert run("weak-limit", "--config", cfg, "--out", str(tmp_path / "b")) == 0
        for name in ("weak_limit.ndjson", "weak_limit_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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
