"""Configuration-driven command line front end.

Commands: ``simulate | weak-limit | wick-check | sample | norms | order-study``.
Configs are YAML (schema documented in the README); any scalar field can be
overridden on the command line with ``--set dotted.path=value`` (the flag
wins). Series outputs are newline-delimited JSON records, summaries CSV; every
output embeds the fully resolved config and the tool version, so re-running
from an embedded config reproduces outputs byte-for-byte in reproducibility
mode (``--repro``, which forces a single worker).

Exit codes: 0 success / verdict passed, 2 malformed config, 3 numerical
scheme failure (partial output is still flushed), 4 scientific verdict failed.
"""

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import experiments as xp
from . import field as fld
from . import random_data as rnd
from . import serialization as ser
from . import wick
from .dynamics import (EquationSpec, IntegrationDivergedError, IntegratorSpec,
                       _amplitude_cap, evolve)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERDICT = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("a --config file is required")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:  # yaml errors carry line/column info
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return cfg


def _apply_overrides(cfg: dict, pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key.path=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {key}: cannot parse value {raw!r}: {exc}") from exc
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not a mapping")
        node[parts[-1]] = value
    return cfg


def _check_schema(cfg: dict):
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}")


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    value = cfg.get(name)
    if value is None:
        if required:
            raise ConfigError(f"missing config section {name!r}")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config field {name!r} must be a mapping")
    return value


def _get(section: dict, path: str, cast, default=None, required: bool = False):
    name = path.split(".")[-1]
    if name not in section or section[name] is None:
        if required:
            raise ConfigError(f"missing config field {path!r}")
        return default
    try:
        return cast(section[name])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {path!r}: {exc}") from exc


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError("complex values are [re, im]")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value), 0.0)


def _chaos_terms(value) -> list:
    """Chaos terms [[coefficient, [degree, ...]], ...] as (float, int tuple) pairs."""
    return [(float(coeff), tuple(int(d) for d in degrees)) for coeff, degrees in value]


def _build_field(section: dict, path: str) -> fld.TorusField:
    kind = _get(section, f"{path}.kind", str, required=True)
    try:
        if kind == "plane_wave":
            mode = _get(section, f"{path}.mode", int, default=1)
            amp = _as_complex(section.get("amplitude", 1.0))
            max_mode = _get(section, f"{path}.max_mode", int, default=None)
            return fld.TorusField.single_mode(mode, amp, max_mode=max_mode)
        if kind == "modes":
            amplitudes = section.get("amplitudes")
            if not isinstance(amplitudes, dict):
                raise ConfigError(f"{path}.amplitudes must map mode -> [re, im]")
            parsed = {int(n): _as_complex(a) for n, a in amplitudes.items()}
            max_mode = _get(section, f"{path}.max_mode", int, default=None)
            return fld.TorusField.from_modes(parsed, max_mode)
        if kind == "random":
            spec = _build_random_spec(section, path)
            return rnd.sample(spec, _get(section, f"{path}.index", int, default=0))
        if kind == "file":
            fpath = _get(section, f"{path}.path", str, required=True)
            if not Path(fpath).exists():
                raise ConfigError(f"{path}.path: field file not found: {fpath}")
            return ser.load_field(fpath)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind must be plane_wave | modes | random | file")


def _build_random_spec(section: dict, path: str) -> rnd.RandomDataSpec:
    offset = None
    offset_file = _get(section, f"{path}.offset_file", str, default=None)
    if offset_file is not None:
        if not Path(offset_file).exists():
            raise ConfigError(f"{path}.offset_file not found: {offset_file}")
        offset = ser.load_field(offset_file)
    try:
        return rnd.RandomDataSpec(
            alpha=_get(section, f"{path}.alpha", float, default=0.0),
            max_mode=_get(section, f"{path}.max_mode", int, required=True),
            seed=_get(section, f"{path}.seed", int, default=0),
            offset=offset,
            gaussian_scale=_get(section, f"{path}.gaussian_scale", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_equation(cfg: dict) -> EquationSpec:
    section = _section(cfg, "equation")
    try:
        return EquationSpec(
            variant=_get(section, "equation.variant", str, default="wnls"),
            sign=_get(section, "equation.sign", int, default=1),
            truncation=_get(section, "equation.truncation", int, default=None),
            alpha=_get(section, "equation.alpha", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"equation: {exc}") from exc


def _build_integrator(cfg: dict, t_end: float | None = None) -> IntegratorSpec:
    section = _section(cfg, "integrator")
    try:
        spec = IntegratorSpec(
            scheme=_get(section, "integrator.scheme", str, default="strang"),
            dt=_get(section, "integrator.dt", float, required=True),
            t_end=t_end if t_end is not None
            else _get(section, "integrator.t_end", float, required=True),
            snapshot_stride=_get(section, "integrator.snapshot_stride", int, default=1),
        )
        spec.step_count()  # validates divisibility early
        return spec
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from exc


def _out_dir(args, cfg: dict) -> Path:
    out = args.out or _section(cfg, "output", required=False).get("directory") \
        or os.environ.get("WICKNLS_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_seed_override(cfg: dict, seed: int | None):
    if seed is None:
        return
    if "seed" in cfg:
        cfg["seed"] = seed
    for key in ("data", "ensemble"):
        if isinstance(cfg.get(key), dict) and cfg[key].get("kind", "random") == "random":
            cfg[key]["seed"] = seed


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg: dict) -> int:
    eq = _build_equation(cfg)
    integ = _build_integrator(cfg)
    data = _section(cfg, "data")
    u0 = _build_field(data, "data")
    cap = _get(cfg, "amplitude_cap", _amplitude_cap, default=1e6)
    out = _out_dir(args, cfg)
    write_snapshots = bool(_section(cfg, "output", required=False).get("snapshots", False))

    diverged = None
    try:
        traj = evolve(u0, eq, integ, amplitude_cap=cap)
    except IntegrationDivergedError as exc:
        diverged = exc
        traj = exc.trajectory

    meta = ser.meta_record(cfg, command="simulate",
                           diverged=diverged is not None,
                           last_valid_time=None if diverged is None
                           else diverged.last_valid_time)
    records = [meta] + ser.trajectory_records(traj)
    ser.write_ndjson(out / "trajectory.ndjson", records)
    if write_snapshots:
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for i, u in enumerate(traj.snapshots):
            ser.save_field(u, snap_dir / f"snapshot_{i:06d}.json")
    if diverged is not None:
        print(diverged, file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# the config key behind each WeakSequenceSpec field
_WEAK_SPEC_KEYS = {"mode_list": "modes", "horizon": "horizon", "probe": "probe",
                   "working_band": "working_band", "eq": "equation.truncation"}


def cmd_weak_limit(args, cfg: dict) -> int:
    exp = _section(cfg, "experiment", required=False)
    kind = exp.get("kind", "weak-continuity")
    verdict_mode = exp.get("verdict", "auto")
    if verdict_mode not in ("auto", "decay", "plateau"):
        raise ConfigError("experiment.verdict must be auto | decay | plateau")

    eq = _build_equation(cfg)
    horizon = _get(cfg, "horizon", float, default=1.0)
    integ = _build_integrator(cfg, t_end=horizon)
    base = _build_field(_section(cfg, "base"), "base")
    probe = _build_field(_section(cfg, "probe"), "probe")
    bump = _get(_section(cfg, "bump", required=False), "bump.amplitude", _as_complex,
                default=1.0 + 0.0j)
    modes = cfg.get("modes")
    if not isinstance(modes, list) or not modes:
        raise ConfigError("config field 'modes' must be a non-empty list")
    try:
        mode_list = tuple(int(n) for n in modes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'modes': {exc}") from exc
    try:
        spec = xp.WeakSequenceSpec(
            base=base, bump_amplitude=bump, mode_list=mode_list,
            probe=probe, horizon=horizon, eq=eq, integrator=integ,
            working_band=_get(cfg, "working_band", int, default=None),
        )
    except xp.SpecFieldError as exc:
        raise ConfigError(f"config field {_WEAK_SPEC_KEYS[exc.field]!r}: {exc}") from exc

    if kind == "weak-continuity":
        report = xp.weak_continuity_run(spec, threads=args.threads,
                                        verdict_mode=verdict_mode)
    elif kind == "phase-defect-contrast":
        report = xp.phase_defect_contrast_run(spec, threads=args.threads)
    else:
        raise ConfigError("experiment.kind must be weak-continuity | phase-defect-contrast")

    out = _out_dir(args, cfg)
    ser.write_ndjson(out / "weak_limit.ndjson",
                     [ser.meta_record(cfg, command="weak-limit")] + report.to_records())
    ser.write_csv(out / "weak_limit_summary.csv",
                  ("series", "index_name", "index", "value", "unit"),
                  report.summary_rows(), meta=cfg)
    for name, ok in report.verdicts.items():
        print(f"verdict {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if report.verdict else EXIT_VERDICT


def _wick_identity_checks() -> list[tuple[str, bool]]:
    checks = []
    checks.append(("hermite_h2", wick.hermite(2, 2.0, 1.0) == 3.0))
    checks.append(("hermite_h4", wick.hermite(4, 1.0, 1.0) == -2.0))
    x = np.linspace(-3, 3, 13)
    sigma, t = 1.5, 0.4
    series = sum(wick.hermite(k, x, sigma) * t**k / math.factorial(k) for k in range(13))
    gen = np.exp(t * x - 0.5 * sigma * t * t)
    checks.append(("hermite_generating_function",
                   bool(np.max(np.abs(series - gen)) < 1e-8)))
    xs, ys = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9))
    lhs = wick.wick_abs_fourth(xs + 1j * ys, 2.0)
    rhs = (wick.hermite(4, xs) + 2.0 * wick.hermite(2, xs) * wick.hermite(2, ys)
           + wick.hermite(4, ys))
    checks.append(("wick_fourth_chaos_expansion",
                   bool(np.max(np.abs(lhs - rhs)) < 1e-10)))
    return checks


def cmd_wick_check(args, cfg: dict) -> int:
    seed = _get(cfg, "seed", int, default=0)
    mc_samples = _get(cfg, "mc_samples", int, default=200_000)
    variance = _get(cfg, "wick_variance", float, default=2.0)
    hyp_cases = cfg.get("hypercontractivity", [])
    if not isinstance(hyp_cases, list):
        raise ConfigError("hypercontractivity must be a list of case mappings")
    parsed_cases = []
    for i, case in enumerate(hyp_cases):
        if not isinstance(case, dict):
            raise ConfigError(f"hypercontractivity[{i}] must be a mapping")
        q = _get(case, f"hypercontractivity[{i}].q", float, required=True)
        if q < 2.0:
            raise ConfigError(f"hypercontractivity[{i}].q must be >= 2 (got {q})")
        parsed_cases.append({
            "order": _get(case, f"hypercontractivity[{i}].order", int, required=True),
            "dim": _get(case, f"hypercontractivity[{i}].dim", int, default=1),
            "q": q,
            "samples": _get(case, f"hypercontractivity[{i}].samples", int,
                            default=200_000),
            "terms": _get(case, f"hypercontractivity[{i}].terms", _chaos_terms),
        })

    records = [ser.meta_record(cfg, command="wick-check")]
    all_ok = True

    for name, ok in _wick_identity_checks():
        records.append({"record": "check", "name": name, "pass": bool(ok)})
        all_ok &= ok

    # Monte-Carlo means of the Wick powers under the standard complex
    # Gaussian (true variance 2). A corrupted wick_variance makes these fail.
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    z = gen.standard_normal((mc_samples, 2))
    g = z[:, 0] + 1j * z[:, 1]
    for name, values in (("wick_square_mean", wick.wick_abs_square(g, variance)),
                         ("wick_fourth_mean", wick.wick_abs_fourth(g, variance))):
        mean = float(np.mean(values))
        stderr = float(np.std(values) / math.sqrt(mc_samples))
        ok = abs(mean) <= 3.0 * stderr
        records.append({"record": "check", "name": name, "pass": bool(ok),
                        "mean": mean, "stderr": stderr, "variance": variance})
        all_ok &= ok

    for i, case in enumerate(parsed_cases):
        try:
            report = wick.hypercontractivity_check(
                case["order"], case["dim"], case["q"], samples=case["samples"],
                seed=seed + i + 1, terms=case["terms"])
        except ValueError as exc:
            raise ConfigError(f"hypercontractivity[{i}]: {exc}") from exc
        rec = report.to_dict()
        rec["record"] = "hypercontractivity"
        records.append(rec)
        all_ok &= report.passed

    out = _out_dir(args, cfg)
    ser.write_ndjson(out / "wick_check.ndjson", records)
    for rec in records[1:]:
        label = rec.get("name") or f"hyp(n={rec.get('n')},d={rec.get('d')},q={rec.get('q')})"
        print(f"check {label}: {'pass' if rec.get('pass') else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERDICT


def cmd_sample(args, cfg: dict) -> int:
    data = _section(cfg, "data")
    spec = _build_random_spec(data, "data")
    count = _get(cfg, "count", int, default=1)
    out = _out_dir(args, cfg)

    records = [ser.meta_record(cfg, command="sample")]
    for k, coeffs in enumerate(rnd.sample_block(spec, range(count))):
        u = fld.TorusField(coeffs, spec.max_mode)
        fname = f"sample_{k:03d}.json"
        ser.save_field(u, out / fname)
        records.append({"record": "sample", "index": k, "file": fname,
                        "mean_intensity": fld.mean_intensity(u)})
    records.append({"record": "expected_mean_intensity",
                    "value": rnd.expected_mean_intensity(spec)})

    profile = _section(cfg, "profile", required=False)
    if profile:
        try:
            rows = rnd.regularity_profile(
                spec,
                s_values=[float(s) for s in profile.get("s_values", [0.0])],
                mode_cutoffs=[int(m) for m in profile.get("cutoffs", [])],
                samples=_get(profile, "profile.samples", int, default=1000),
            )
        except ValueError as exc:
            raise ConfigError(f"profile: {exc}") from exc
        ser.write_csv(out / "profile.csv",
                      ("s", "M", "median_norm", "q25", "q75", "samples"),
                      [(r["s"], r["cutoff"], r["median"], r["q25"], r["q75"],
                        r["samples"]) for r in rows], meta=cfg)
    ser.write_ndjson(out / "sample.ndjson", records)
    return EXIT_OK


def cmd_norms(args, cfg: dict) -> int:
    path = _get(cfg, "field_file", str, required=True)
    if not Path(path).exists():
        raise ConfigError(f"field_file not found: {path}")
    u = ser.load_field(path)
    specs = cfg.get("norms")
    if not isinstance(specs, list) or not specs:
        raise ConfigError("config field 'norms' must be a non-empty list")
    rows = []
    for i, item in enumerate(specs):
        if not isinstance(item, dict):
            raise ConfigError(f"norms[{i}] must be a mapping")
        kind = _get(item, f"norms[{i}].kind", str, required=True)
        try:
            spec = fld.NormSpec(kind, s=float(item.get("s", 0.0)),
                                p=float(item.get("p", 2.0)))
        except ValueError as exc:
            raise ConfigError(f"norms[{i}]: {exc}") from exc
        value = fld.norm(u, spec)
        rows.append((kind, spec.s, spec.p, value))
        print(f"{kind}(s={spec.s:g}, p={spec.p:g}) = {value!r}")
    out = _out_dir(args, cfg)
    ser.write_csv(out / "norms.csv", ("kind", "s", "p", "value"), rows, meta=cfg)
    return EXIT_OK


def cmd_order_study(args, cfg: dict) -> int:
    eq = _build_equation(cfg)
    data = _section(cfg, "data")
    u0 = _build_field(data, "data")
    dts = cfg.get("dts")
    if not isinstance(dts, list) or len(dts) < 3:
        raise ConfigError("config field 'dts' must list >= 3 decreasing steps")
    scheme = _get(cfg, "scheme", str, default="strang")
    try:
        report = xp.integrator_order_study(u0, eq, [float(d) for d in dts],
                                           scheme=scheme,
                                           t_end=_get(cfg, "t_end", float, default=1.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args, cfg)
    ser.write_ndjson(out / "order_study.ndjson",
                     [ser.meta_record(cfg, command="order-study")] + report.to_records())
    ser.write_csv(out / "order_study.csv",
                  ("series", "index_name", "index", "value", "unit"),
                  report.summary_rows(), meta=cfg)
    fitted = report.details.get("fitted_order")
    print(f"fitted order: {fitted if fitted is not None else 'exact to roundoff'}")
    return EXIT_OK if report.verdict else EXIT_VERDICT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "weak-limit": cmd_weak_limit,
    "wick-check": cmd_wick_check,
    "sample": cmd_sample,
    "norms": cmd_norms,
    "order-study": cmd_order_study,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wicknls",
        description="Spectral simulation of the cubic Schrodinger equation and "
                    "its Wick-ordered variant on the torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", help="output directory (default: $WICKNLS_OUT or .)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; the bump family runs as one batch")
        p.add_argument("--repro", action="store_true",
                       help="reproducibility mode: force --threads 1")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="override any scalar config field (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.repro:
        args.threads = 1
    try:
        cfg = _load_config(args.config)
        _apply_overrides(cfg, args.overrides)
        _apply_seed_override(cfg, args.seed)
        _check_schema(cfg)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationDivergedError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
