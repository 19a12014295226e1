import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wicknls import cli
from wicknls import field as fld
from wicknls import random_data as rnd
from wicknls import serialization as ser

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


def run(*argv):
    return cli.main(list(argv))


def run_module(*argv):
    """``python -m wicknls *argv`` in a child interpreter, where numpy's warnings reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, "-m", "wicknls", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def strict_records(path):
    """The records of an NDJSON file, read by a parser that refuses NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")
    return [json.loads(line, parse_constant=refuse) for line in path.read_text().splitlines()]


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


class TestSchemeFailure:
    # RK4 far past its step: a plane wave of amplitude 30 at dt 0.5, and a
    # weak-limit bump of amplitude 20 at dt 0.05
    @pytest.mark.parametrize("command, config, overrides", [
        ("order-study", "order_study_rk4", ["data.amplitude=30", "dts=[0.5, 0.25, 0.125]"]),
        ("weak-limit", "weak_limit_wnls", ["integrator.scheme=rk4", "integrator.dt=0.05",
                                           "integrator.snapshot_stride=5", "bump.amplitude=20"]),
    ], ids=["order-study", "weak-limit"])
    def test_report_commands_flush_the_failing_row(self, tmp_path, command, config,
                                                   overrides):
        out = tmp_path / "o"
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        assert run(command, "--config", str(CONFIG_DIR / f"{config}.yaml"),
                   "--out", str(out), *sets) == 3
        name = command.replace("-", "_") + ".ndjson"
        assert [p.name for p in out.iterdir()] == [name]  # no summary CSV
        records = ser.read_ndjson(out / name)
        assert records[0]["record"] == "meta" and records[0]["diverged"] is True
        assert np.isfinite(records[0]["last_valid_time"])
        assert len(records) > 1
        assert all(r["record"] == "snapshot" for r in records[1:])

    def test_failing_row_keeps_the_wick_hamiltonian(self, tmp_path):
        # the Hamiltonian family steps as truncated-nls; its failing row is
        # flushed as a run of the variant asked for, whose ledger carries the
        # Wick Hamiltonian
        out = tmp_path / "o"
        proc = run_module("weak-limit", "--config", str(CONFIG_DIR / "weak_limit_wnls.yaml"),
                          "--out", str(out), "--set", "integrator.scheme=rk4",
                          "--set", "integrator.dt=0.05", "--set", "integrator.snapshot_stride=5",
                          "--set", "bump.amplitude=20",
                          "--set", "equation.variant=truncated-wnls-hamiltonian",
                          "--set", "equation.truncation=128")
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1
        meta, *snapshots = strict_records(out / "weak_limit.ndjson")
        assert meta["diverged"] is True and meta["last_valid_time"] == 0.05
        assert snapshots and all(r["record"] == "snapshot" for r in snapshots)
        assert all("wick_hamiltonian" in r for r in snapshots)

    def test_contrast_flushes_the_first_failing_row_under_strang(self, tmp_path):
        # a 1e152 bump has a finite mass (6.28e304), so it is stepped; the
        # unnormalised pin target m^2 mu of every bump row of the one (20, m)
        # stack overflows at the first snapshot step, 49, and the first of
        # them in run order is the Wick family's forward mode-4 row. Its t = 0
        # Hamiltonian overflows and is written as null, and the command raises
        # no numpy warning.
        out = tmp_path / "o"
        assert run("weak-limit", "--config", str(CONFIG_DIR / "phase_defect_contrast.yaml"),
                   "--out", str(out), "--set", "bump.amplitude=1e152") == 3
        records = strict_records(out / "weak_limit.ndjson")
        assert records[0]["diverged"] is True and records[0]["last_valid_time"] == 0.098
        assert "non_finite" not in records[0]
        assert [(r["record"], r["t"]) for r in records[1:]] == [("snapshot", 0.0)]
        snapshot = records[1]
        assert snapshot["non_finite"] == ["hamiltonian"] and snapshot["hamiltonian"] is None
        assert snapshot["mass"] == pytest.approx(fld.TWO_PI * 1e304, rel=1e-12)

    def test_exit_3_prints_one_line(self, tmp_path):
        out = tmp_path / "o"
        proc = run_module("weak-limit", "--config",
                          str(CONFIG_DIR / "phase_defect_contrast.yaml"), "--out", str(out),
                          "--set", "bump.amplitude=1e152")
        assert proc.returncode == 3
        assert proc.stderr == ("numerical scheme failure: relative mass drift nan above "
                               "0.001 during step to t=0.1\n")
        assert len(strict_records(out / "weak_limit.ndjson")) == 2

    # 1e155: mu = 1e310 overflows; 1e154: mu = 1e308 is finite, 2 pi mu is not
    @pytest.mark.parametrize("amplitude", ["1e155", "1e154"])
    def test_infinite_mass_bump_is_a_config_error(self, tmp_path, amplitude):
        # refused before any step, with one line and no numpy warning
        out = tmp_path / "o"
        proc = run_module("weak-limit", "--config",
                          str(CONFIG_DIR / "phase_defect_contrast.yaml"), "--out", str(out),
                          "--set", f"bump.amplitude={amplitude}")
        assert proc.returncode == 2
        assert proc.stderr == ("config error: config field 'bump.amplitude': mass 2*pi*mu "
                               "of the mode-4 bump datum must be finite (got inf)\n")
        assert not out.exists()

    def test_overflowed_ledger_is_strict_json(self, tmp_path):
        # a finite run whose Hamiltonian overflows: exit 0, the Hamiltonian
        # written as null, every finite value as before; numpy's error state
        # is back as it was once the command returns
        before = np.geterr()
        out = tmp_path / "o"
        assert run("simulate", "--config", str(CONFIG_DIR / "simulate_plane_wave.yaml"),
                   "--out", str(out), "--set", "data.amplitude=1e100") == 0
        assert np.geterr() == before
        meta, *snapshots = strict_records(out / "trajectory.ndjson")
        assert "non_finite" not in meta and len(snapshots) == 11
        for rec in snapshots:
            assert rec["non_finite"] == ["hamiltonian"] and rec["hamiltonian"] is None
            assert rec["mass"] == pytest.approx(fld.TWO_PI * 1e200, rel=1e-12)


class TestConfigErrors:
    def test_missing_config(self):
        assert run("simulate") == 2

    def test_nonexistent_file(self):
        assert run("simulate", "--config", "/does/not/exist.yaml") == 2

    @pytest.mark.parametrize("text, pair, message", [
        ("equation: [unclosed\n", None, r"cannot parse \S+c\.yaml: expected ',' or '\]', "
                                         r"but got '<stream end>' at line 2, column 1$"),
        ("- 1\n- 2\n", None, r"c\.yaml: top level must be a mapping$"),
        (None, "nokey", r"--set expects key\.path=value, got 'nokey'$"),
        (None, "integrator.dt.x=1", r"--set integrator\.dt\.x: dt is not a mapping$"),
        (None, "integrator.dt=[1", r"--set integrator\.dt: cannot parse value '\[1': "
                                   r"expected ',' or '\]', but got '<stream end>' "
                                   r"at line 1, column 3$"),
        ("a: 1\x07\n", None, r"cannot parse \S+c\.yaml: unacceptable character #x0007: "
                             r"special characters are not allowed in \"<unicode string>\", "
                             r"position 4$"),
    ], ids=["parse-file", "not-a-mapping", "set-without-value", "set-through-scalar",
            "parse-set", "reader-error"])
    def test_config_plumbing_error_is_one_line(self, tmp_path, capsys, text, pair, message):
        # PyYAML's multi-line messages are cut to the problem and its place
        path = tmp_path / "c.yaml"
        if text is None:
            write_yaml(path, small_simulate_cfg())
        else:
            path.write_text(text)
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(path), "--out", str(out)]
        assert run(*argv, *(["--set", pair] if pair else [])) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert re.search(message, lines[0]), lines[0]
        assert captured.out == "" and not out.exists()

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
        (["base.amplitude=1e155"], "'base'"),
        (["probe.amplitude=1e154"], "'probe'"),
        (["equation.variant=truncated-nls", "equation.truncation=-1"],
         "'equation.truncation'"),
        # the integrator's t_end is the top-level horizon
        (["horizon=0.3333"], "'horizon'"),
        (["base.amplitude=.nan"], "'base.amplitude'"),
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
        (["--set", "mc_samples=1"], "'mc_samples'"),
        (["--set", "hypercontractivity=[{order: 2, q: .nan}]"],
         "'hypercontractivity[0].q'"),
        (["--set", "hypercontractivity=[{order: 2, q: .inf}]"],
         "'hypercontractivity[0].q'"),
        (["--set", "seed=1.5"], "'seed'"),
        (["--set", "wick_variance=.nan"], "'wick_variance'"),
        (["--set", "wick_variance=.inf"], "'wick_variance'"),
        (["--set", "wick_variance=0"], "'wick_variance'"),
        (["--set", "wick_variance=-2"], "'wick_variance'"),
        (["--set", "hypercontractivity=[{order: -1, q: 4}]"],
         "'hypercontractivity[0].order'"),
        (["--set", "hypercontractivity=[{order: 2, q: 4, samples: 10}]"],
         "'hypercontractivity[0].samples'"),
        (["--set", "hypercontractivity=[{order: 2, q: 4, terms: [[1.0, [1]]]}]"],
         "'hypercontractivity[0].terms'"),
    ])
    def test_wick_check_errors_name_the_field(self, tmp_path, capsys, argv, key):
        out = tmp_path / "o"
        assert run("wick-check", "--config", str(CONFIG_DIR / "wick_check.yaml"),
                   "--out", str(out), *argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: config field {key}: ")
        assert not out.exists()

    def test_bad_case_draws_no_normals(self, tmp_path, monkeypatch):
        # every case is checked while the config is read, before the
        # Monte-Carlo means or an earlier, valid case draw anything
        from wicknls import wick

        def refuse(*args):
            raise AssertionError("a normal was drawn")
        monkeypatch.setattr(wick, "philox_streams", refuse)
        assert run("wick-check", "--config", str(CONFIG_DIR / "wick_check.yaml"),
                   "--out", str(tmp_path / "o"), "--set",
                   "hypercontractivity=[{order: 2, q: 4}, {order: -1, q: 4}]") == 2

    def test_wick_check_seed_error_names_the_seed_and_the_case_key(self, tmp_path, capsys):
        # five cases: case i keys seed + i + 1, so 2**64 - 5 pushes case 4 past 64 bits
        out = tmp_path / "o"
        assert run("wick-check", "--config", str(CONFIG_DIR / "wick_check.yaml"),
                   "--out", str(out), "--set", "seed=18446744073709551611") == 2
        assert capsys.readouterr().err == (
            "config error: config field 'seed': the key seed + 5 of hypercontractivity case 4 "
            "is 18446744073709551616, outside [0, 2**64) (got seed 18446744073709551611)\n")
        assert not out.exists()

    def test_wick_check_accepts_the_last_seed_that_fits(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "seed": 2**64 - 2, "mc_samples": 10_000,
            "hypercontractivity": [{"order": 1, "dim": 1, "q": 4.0, "samples": 10_000}],
        })
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        hyp = ser.read_ndjson(tmp_path / "o" / "wick_check.ndjson")[-1]
        assert hyp["record"] == "hypercontractivity" and hyp["seed"] == 2**64 - 1

    @pytest.mark.parametrize("pair, prefix", [
        ("data.alpha=.nan", "config field 'data.alpha': alpha must be finite"),
        ("data.alpha=-1", "config field 'data.alpha': alpha must be finite and >= 0"),
        ("data.gaussian_scale=.nan",
         "config field 'data.gaussian_scale': gaussian_scale must be finite"),
        ("data.max_mode=-1", "config field 'data.max_mode': max_mode must be >= 0"),
        ("profile.samples=0", "config field 'profile.samples': samples must be >= 1"),
        ("profile.cutoffs=[-1, 8]", "config field 'profile.cutoffs': cutoffs must be >= 0"),
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
        assert not out.exists()

    def test_negative_count_is_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("sample", "--config", str(CONFIG_DIR / "sample_white_noise.yaml"),
                   "--out", str(out), "--set", "count=-1") == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'count': count must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [".nan", "-1"])
    def test_bad_alpha_is_a_config_error(self, tmp_path, capsys, alpha):
        out = tmp_path / "o"
        assert run("simulate", "--config", str(CONFIG_DIR / "simulate_plane_wave.yaml"),
                   "--out", str(out), "--set", "equation.variant=truncated-wnls-hamiltonian",
                   "--set", "equation.truncation=4", "--set", f"equation.alpha={alpha}") == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'equation.alpha': alpha must be finite and >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_random_field_index_outside_64_bits(self, tmp_path, capsys, index):
        out = tmp_path / "o"
        assert run("simulate", "--config", str(CONFIG_DIR / "simulate_plane_wave.yaml"),
                   "--out", str(out), "--set", "data.kind=random",
                   "--set", "data.max_mode=4", "--set", f"data.index={index}") == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'data.index': index must lie in [0, 2**64)")
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
        ("order-study", "order_study_rk4.yaml", "t_end=0", "'t_end'"),
        ("order-study", "order_study_rk4.yaml", "t_end=-1.0", "'t_end'"),
        ("order-study", "order_study_rk4.yaml", "t_end=0.333", "'dts'"),
        ("order-study", "order_study_rk4.yaml", "scheme=euler", "'scheme'"),
        ("simulate", "simulate_plane_wave.yaml", "schema_version=true", "'schema_version'"),
        ("simulate", "simulate_plane_wave.yaml", "integrator.scheme=euler",
         "'integrator.scheme'"),
        ("weak-limit", "weak_limit_wnls.yaml", "experiment.kind=weak", "'experiment.kind'"),
        ("weak-limit", "weak_limit_wnls.yaml", "experiment.verdict=maybe",
         "'experiment.verdict'"),
        ("weak-limit", "weak_limit_wnls.yaml", "base.kind=gaussian", "'base.kind'"),
        ("simulate", "simulate_plane_wave.yaml", "equation.variant=schrodinger",
         "'equation.variant'"),
        ("simulate", "simulate_plane_wave.yaml", "equation.sign=2", "'equation.sign'"),
        ("norms", None, "norms=[{kind: sobolov}]", "'norms[0].kind'"),
        ("norms", None, "norms=[{kind: fourier_lebesgue, p: 0.5}]", "'norms[0].p'"),
        ("norms", None, "norms=[{kind: fourier_lebesgue, p: .nan}]", "'norms[0].p'"),
        ("simulate", "simulate_plane_wave.yaml", "equation.truncation=4",
         "'equation.truncation'"),
        ("simulate", "simulate_plane_wave.yaml", "integrator.dt=-1e-3", "'integrator.dt'"),
        ("simulate", "simulate_plane_wave.yaml", "integrator.snapshot_stride=0",
         "'integrator.snapshot_stride'"),
        ("simulate", "simulate_plane_wave.yaml", "integrator.snapshot_stride=300",
         "'integrator.snapshot_stride'"),
        ("simulate", "simulate_plane_wave.yaml", "integrator.t_end=0.3333",
         "'integrator.t_end'"),
        ("simulate", "simulate_plane_wave.yaml", "integrator.dt=1e-310", "'integrator.dt'"),
        ("order-study", "order_study_rk4.yaml", "dts=[1e-3,5e-4,1e-310]", "'dts'"),
        # a field whose mass 2 pi mu is infinite
        ("simulate", "simulate_plane_wave.yaml", "data.amplitude=1e155", "'data'"),
        ("order-study", "order_study_rk4.yaml", "data.amplitude=1e154", "'data'"),
        ("simulate", "simulate_plane_wave.yaml", ("data.mode=9", "data.max_mode=4"),
         "'data.mode'"),
        ("simulate", "simulate_plane_wave.yaml", "data.amplitude=.inf", "'data.amplitude'"),
        # a band numpy cannot make, set by the mode or by max_mode
        ("simulate", "simulate_plane_wave.yaml", f"data.mode={10**30}", "'data.mode'"),
        ("simulate", "simulate_plane_wave.yaml", f"data.max_mode={10**30}", "'data.max_mode'"),
        ("simulate", "simulate_plane_wave.yaml", ("data.kind=random", f"data.max_mode={10**30}"),
         "'data.max_mode'"),
        # a band the sampler's spec admits but numpy cannot allocate
        ("simulate", "simulate_plane_wave.yaml",
         'data={"kind": "random", "max_mode": 144115188075855871}', "'data.max_mode'"),
        ("sample", "sample_white_noise.yaml",
         ("data.max_mode=144115188075855871", "profile.cutoffs=[]"), "'data.max_mode'"),
        ("sample", "sample_white_noise.yaml", "data.max_mode=144115188075855871",
         "'data.max_mode'"),
        # no member drawn: the expected mean intensity and the profile are
        # the band-sized arrays, made before main writes anything
        ("sample", "sample_white_noise.yaml",
         ("data.max_mode=144115188075855871", "count=0"), "'data.max_mode'"),
        # a Monte-Carlo draw, a profile's norm table or a chaos batch that
        # numpy cannot allocate
        ("wick-check", "wick_check.yaml", "mc_samples=1152921504606846976", "'mc_samples'"),
        ("sample", "sample_white_noise.yaml", "profile.samples=1152921504606846976",
         "'profile.samples'"),
        ("wick-check", "wick_check.yaml",
         "hypercontractivity=[{q: 4, order: 2, dim: 1152921504606846976}]",
         "'hypercontractivity[0].dim'"),
        # a step count whose snapshots and pairings numpy cannot allocate
        ("simulate", "simulate_plane_wave.yaml", "integrator.dt=1e-15", "'integrator.dt'"),
        ("weak-limit", "phase_defect_contrast.yaml",
         ("integrator.dt=1e-15", "integrator.snapshot_stride=1"), "'integrator.dt'"),
    ])
    def test_typed_fields_name_the_field(self, tmp_path, capsys, command, config, pair,
                                         key):
        from wicknls.field import TorusField

        out = tmp_path / "o"
        if config is None:  # norms reads a field file: write one, with its config
            ser.save_field(TorusField.single_mode(2, 1.0), tmp_path / "f.json")
            path = write_yaml(tmp_path / "c.yaml", {
                "schema_version": 1, "field_file": str(tmp_path / "f.json"),
                "norms": [{"kind": "l2"}]})
        else:
            path = str(CONFIG_DIR / config)
        pairs = [pair] if isinstance(pair, str) else pair
        sets = [arg for one in pairs for arg in ("--set", one)]
        assert run(command, "--config", path, "--out", str(out), *sets) == 2
        assert capsys.readouterr().err.startswith(f"config error: config field {key}: ")
        assert not out.exists()

    def test_offset_band_names_the_config_key(self, tmp_path, capsys):
        from wicknls.field import TorusField

        ser.save_field(TorusField.single_mode(9, 1.0), tmp_path / "f.json")
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "count": 1,
            "data": {"alpha": 0.0, "max_mode": 4, "offset_file": str(tmp_path / "f.json")}})
        assert run("sample", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config field 'data.offset_file': offset must be band-limited")

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

    def test_empty_norms_list_names_the_field(self, tmp_path, capsys):
        from wicknls.field import TorusField

        ser.save_field(TorusField.single_mode(2, 1.0), tmp_path / "f.json")
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "field_file": str(tmp_path / "f.json"), "norms": []})
        assert run("norms", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("config error: config field 'norms': ")
        assert not (tmp_path / "o").exists()

    def test_yaml_string_real_is_accepted(self, tmp_path):
        # PyYAML reads 1e-3 (no decimal point) as the string "1e-3"
        cfg = write_yaml(tmp_path / "c.yaml", small_simulate_cfg())
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--set", "integrator.dt=1e-3") == 0
        records = ser.read_ndjson(tmp_path / "o" / "trajectory.ndjson")
        assert records[0]["config"]["integrator"]["dt"] == "1e-3"
        assert len(records) == 1 + 200 // 5 + 1

    @pytest.mark.parametrize("command", ["norms", "simulate"])
    def test_unreadable_config_file(self, tmp_path, capsys, command):
        (tmp_path / "d").mkdir()
        (tmp_path / "latin1.yaml").write_bytes(b"schema_version: 1\n# caf\xe9\n")
        out = tmp_path / "o"
        for name in ("d", "latin1.yaml"):
            assert run(command, "--config", str(tmp_path / name), "--out", str(out)) == 2
            assert capsys.readouterr().err.startswith("config error: cannot read ")
            assert not out.exists()

    @pytest.mark.parametrize("content", [
        None, "[1, 2]\n", '{"format": "torus-field", "version": 1, "max_mode": 1}\n',
    ], ids=["directory", "list", "no-coeffs"])
    @pytest.mark.parametrize("command, key", [
        ("norms", "field_file"), ("simulate", "data.path"), ("sample", "data.offset_file"),
    ])
    def test_unreadable_field_file(self, tmp_path, capsys, command, key, content):
        path = tmp_path / "f.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        cfg = {
            "norms": {"schema_version": 1, "field_file": str(path),
                      "norms": [{"kind": "l2"}]},
            "simulate": small_simulate_cfg(data={"kind": "file", "path": str(path)}),
            "sample": {"schema_version": 1, "count": 1,
                       "data": {"alpha": 0.0, "max_mode": 4, "offset_file": str(path)}},
        }[command]
        out = tmp_path / "o"
        assert run(command, "--config", write_yaml(tmp_path / "c.yaml", cfg),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"config error: config field '{key}': ")
        assert not out.exists()

    def test_missing_offset_file(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1,
            "data": {"alpha": 0.0, "max_mode": 4, "seed": 0,
                     "offset_file": str(tmp_path / "nope.json")},
            "count": 1,
        })
        assert run("sample", "--config", cfg, "--out", str(tmp_path / "o")) == 2


def _scalar_leaves(value, path=()):
    """The key paths of the scalar leaves of a config, list items included."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _scalar_leaves(item, path + (key,))
    else:
        yield path


def _shipped_leaves():
    """(config name, leaf path) for every scalar leaf of every shipped config."""
    return [(path.stem, leaf) for path in sorted(CONFIG_DIR.glob("*.yaml"))
            for leaf in _scalar_leaves(yaml.safe_load(path.read_text()))]


class TestMalformedLeaf:
    # every shipped config runs valid in under 0.1 s (2-vCPU x86_64), so all are drawn from
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_shipped_leaves()),
           st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 1.5, "abc", True, [], {}]))
    def test_config_error_is_one_named_line_and_no_output(self, leaf, value):
        name, path = leaf
        cfg = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(SHIPPED_COMMANDS[name], "--config",
                           write_yaml(Path(tmp) / "c.yaml", cfg), "--out", str(out))
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("config error: config field '")
                assert not out.exists()


# the command that runs each shipped config
SHIPPED_COMMANDS = {
    "order_study_rk4": "order-study", "phase_defect_contrast": "weak-limit",
    "sample_white_noise": "sample", "simulate_plane_wave": "simulate",
    "weak_limit_nls": "weak-limit", "weak_limit_wnls": "weak-limit",
    "wick_check": "wick-check", "wick_check_corrupted": "wick-check",
}


# the files each command documents in the README, for the shipped configs
DOCUMENTED_FILES = {
    "order-study": {"order_study.ndjson", "order_study.csv"},
    "weak-limit": {"weak_limit.ndjson", "weak_limit_summary.csv"},
    "sample": {"sample.ndjson", "profile.csv", "sample_000.json", "sample_001.json",
               "sample_002.json"},
    "simulate": {"trajectory.ndjson"},
    "wick-check": {"wick_check.ndjson"},
}


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_parse_step_accepts(self, path):
        cfg = cli._tracked(cli._load_config(str(path)), None)
        cli._check_schema(cfg)
        assert callable(cli._COMMANDS[SHIPPED_COMMANDS[path.stem]](cfg))

    @pytest.mark.parametrize("name", sorted(SHIPPED_COMMANDS))
    def test_run_writes_nothing(self, tmp_path, capsys, monkeypatch, name):
        # run() computes; main makes the directory and writes, after run() returns
        command = SHIPPED_COMMANDS[name]
        cfg = cli._tracked(cli._load_config(str(CONFIG_DIR / f"{name}.yaml")), None)
        run_command = cli._COMMANDS[command](cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("run() wrote")
        monkeypatch.setattr(Path, "mkdir", refuse)
        for writer in ("write_ndjson", "write_csv", "save_field"):
            monkeypatch.setattr(ser, writer, refuse)
        code, files, lines = run_command()
        names, lines = [file for file, _ in files], list(lines)
        monkeypatch.undo()
        assert code == (4 if name in ("weak_limit_nls", "wick_check_corrupted") else 0)
        assert set(names) == DOCUMENTED_FILES[command]
        assert run(command, "--config", str(CONFIG_DIR / f"{name}.yaml"),
                   "--out", str(tmp_path / "o")) == code
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("name", sorted(SHIPPED_COMMANDS))
    def test_end_to_end(self, tmp_path, name):
        # the README table's exit codes: the two negative controls fail their
        # verdicts; --repro writes the same bytes
        want = 4 if name in ("weak_limit_nls", "wick_check_corrupted") else 0
        command = SHIPPED_COMMANDS[name]
        plain, repro = tmp_path / "plain", tmp_path / "repro"
        for out, flags in ((plain, []), (repro, ["--repro"])):
            assert run(command, "--config", str(CONFIG_DIR / f"{name}.yaml"),
                       "--out", str(out), *flags) == want
            assert {p.name for p in out.iterdir()} == DOCUMENTED_FILES[command]
        for file in DOCUMENTED_FILES[command]:
            assert (plain / file).read_bytes() == (repro / file).read_bytes(), file

    def test_runtime_dependencies_alone(self, tmp_path):
        # pyproject.toml declares only numpy and PyYAML at run time: every
        # shipped config runs through main in one child interpreter where
        # importing scipy or hypothesis, the test extra, raises
        code = (
            "import importlib.abc, json, sys\n"
            "class Refuse(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] in ('scipy', 'hypothesis'):\n"
            "            raise ImportError(name + ' is not a runtime dependency')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from wicknls import cli\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n")
        names = sorted(SHIPPED_COMMANDS)
        argvs = [[SHIPPED_COMMANDS[name], "--config", str(CONFIG_DIR / f"{name}.yaml"),
                  "--out", str(tmp_path / name)] for name in names]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            4 if name in ("weak_limit_nls", "wick_check_corrupted") else 0 for name in names]
        for name in names:
            assert ({p.name for p in (tmp_path / name).iterdir()}
                    == DOCUMENTED_FILES[SHIPPED_COMMANDS[name]]), name


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

    def test_seed_flag_reaches_random_base_and_probe(self, tmp_path):
        # the base states its seed, the probe takes the default; --seed sets both
        cfg = write_yaml(tmp_path / "c.yaml", small_weak_cfg(
            base={"kind": "random", "alpha": 1.0, "max_mode": 4, "seed": 1},
            probe={"kind": "random", "alpha": 1.0, "max_mode": 4}))
        for name, flags in (("a", []), ("b", ["--seed", "5"])):
            run("weak-limit", "--config", cfg, "--out", str(tmp_path / name), *flags)
        for name in ("weak_limit.ndjson", "weak_limit_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
        embedded = ser.read_ndjson(tmp_path / "b" / "weak_limit.ndjson")[0]["config"]
        assert embedded["base"]["seed"] == embedded["probe"]["seed"] == 5

    def test_zero_bump_passes_with_zero_gaps(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml",
                         small_weak_cfg(bump={"amplitude": [0.0, 0.0]}))
        assert run("weak-limit", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        records = ser.read_ndjson(tmp_path / "o" / "weak_limit.ndjson")
        gaps = next(r for r in records
                    if r["record"] == "series" and r["name"] == "gap_sup")
        assert all(v == 0.0 for v in gaps["values"])

    def test_complex_bump_prints_the_real_bumps_verdicts(self, tmp_path, capsys):
        # the shipped bump and probe are real, so each backward run is the
        # time reversal of a forward run; a complex bump steps its backward runs
        stdout = []
        for name, sets in (("real", []), ("complex", ["--set", "bump.amplitude=[0.6,0.8]"])):
            assert run("weak-limit", "--config", str(CONFIG_DIR / "phase_defect_contrast.yaml"),
                       "--out", str(tmp_path / name), *sets) == 0
            stdout.append(capsys.readouterr().out.splitlines())
        assert stdout[0] == stdout[1]
        assert sum(line.startswith("verdict ") and line.endswith(": pass")
                   for line in stdout[1]) == 3


class TestModuleEntryPoint:
    # exits 0 and 4 through the child interpreter; TestSchemeFailure runs 2 and 3
    @pytest.mark.parametrize("name, want", [("simulate_plane_wave", 0), ("weak_limit_nls", 4)])
    def test_python_dash_m(self, tmp_path, name, want):
        command = SHIPPED_COMMANDS[name]
        out = tmp_path / "o"
        proc = run_module(command, "--config", str(CONFIG_DIR / f"{name}.yaml"),
                          "--out", str(out), "--repro")
        assert (proc.returncode, proc.stderr) == (want, "")
        assert {p.name for p in out.iterdir()} == DOCUMENTED_FILES[command]
        bad = run_module(command)
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

    def test_seed_flag_sets_a_missing_seed(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "schema_version": 1, "mc_samples": 10_000, "hypercontractivity": []})
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "a")) == 0
        assert run("wick-check", "--config", cfg, "--out", str(tmp_path / "b"),
                   "--seed", "99") == 0
        a = (tmp_path / "a" / "wick_check.ndjson").read_bytes()
        b = (tmp_path / "b" / "wick_check.ndjson").read_bytes()
        assert a != b
        assert ser.read_ndjson(tmp_path / "b" / "wick_check.ndjson")[0]["config"]["seed"] == 99


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

    def test_count_spans_several_blocks(self, tmp_path, monkeypatch):
        # 18 normals a band-4 sample: two samples a block, three blocks
        monkeypatch.setattr(rnd, "_BLOCK_NORMALS", 40)
        spec = {"alpha": 0.5, "max_mode": 4, "seed": 5}
        cfg = write_yaml(tmp_path / "c.yaml", {"schema_version": 1, "data": spec, "count": 5})
        assert run("sample", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        records = ser.read_ndjson(tmp_path / "o" / "sample.ndjson")
        for k in range(5):
            u = rnd.sample(rnd.RandomDataSpec(**spec), k)
            ser.save_field(u, tmp_path / "want.json")
            assert ((tmp_path / "o" / f"sample_{k:03d}.json").read_bytes()
                    == (tmp_path / "want.json").read_bytes())
            assert records[1 + k]["mean_intensity"] == fld.mean_intensity(u)
        assert not (tmp_path / "o" / "sample_005.json").exists()

    def test_memory_does_not_grow_with_count(self, tmp_path):
        # 2000 band-256 members hold 15.7 MiB of coefficients; the command
        # holds one sampler block (at most 512 KiB of normals) at a time
        tracemalloc.start()
        try:
            assert run("sample", "--config", str(CONFIG_DIR / "sample_white_noise.yaml"),
                       "--out", str(tmp_path / "o"), "--set", "data.max_mode=256",
                       "--set", "count=2000", "--set", "profile={}") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "o" / "sample_1999.json").exists()
        assert peak < 5 * 2**20

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
