"""Configuration-driven command line front end.

Commands: ``simulate | weak-limit | wick-check | sample | norms | order-study``.
Configs are YAML (schema documented in the README); any scalar field can be
overridden on the command line with ``--set dotted.path=value`` (the flag
wins). Each command checks every field before it writes anything. Series
outputs are newline-delimited JSON records, summaries CSV; every output embeds
the config as given and the tool version, and re-running from an embedded
config reproduces the outputs byte-for-byte.

Exit codes: 0 success / verdict passed, 2 malformed config, 3 numerical
scheme failure, 4 scientific verdict failed. On exit 3, simulate, weak-limit
and order-study write their NDJSON file alone (and simulate its snapshot
files): the meta record, marked ``diverged`` at ``last_valid_time``, then the
snapshot records of the failing row.
"""

import argparse
import math
import numbers
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
from .dynamics import EquationSpec, IntegrationDivergedError, IntegratorSpec, Variant, evolve
from ._kernels import philox_streams

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
    try:
        cfg = yaml.safe_load(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, or not UTF-8
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:  # yaml errors carry line/column info
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return cfg


def _apply_overrides(cfg: dict, pairs: list[str]):
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


def _check_schema(cfg: dict):
    _field(cfg, "schema_version", _one_of(SCHEMA_VERSION))


class _Section(dict):
    """A config mapping that records the keys ``_field`` looks up in it."""

    def __init__(self, items, seed):
        super().__init__(items)
        self.read = set()
        self.seed = seed  # the --seed value, or None


def _tracked(value, seed):
    """``value`` with every mapping in it, also inside lists, a ``_Section``."""
    if isinstance(value, dict):
        return _Section(((key, _tracked(item, seed)) for key, item in value.items()), seed)
    if isinstance(value, list):
        return [_tracked(item, seed) for item in value]
    return value


def _reject_unknown_keys(value, path: str = ""):
    """ConfigError for a key that no reader looked up, in a section that one read.

    Mappings that no reader looked into, such as mode-amplitude data, pass.
    """
    if isinstance(value, list):
        for i, item in enumerate(value):
            _reject_unknown_keys(item, f"{path}[{i}]")
    elif isinstance(value, _Section):
        for key, item in value.items():
            key_path = f"{path}.{key}" if path else str(key)
            if value.read and key not in value.read:
                raise ConfigError(f"config field {key_path!r}: unknown key")
            _reject_unknown_keys(item, key_path)


_REQUIRED = object()


def _field(node: dict, path: str, convert, default=_REQUIRED):
    """Field ``path`` (its last key, looked up in ``node``) through ``convert``.

    A missing or null field takes ``default``, or is an error if there is
    none; a value ``convert`` rejects is reported against ``path``. The key
    is recorded as read when ``node`` is a ``_Section``, and a ``seed`` key
    read there is first set to the section's ``--seed`` value, if any, so the
    embedded config shows it.
    """
    key = path.split(".")[-1]
    if isinstance(node, _Section):
        node.read.add(key)
        if key == "seed" and node.seed is not None:
            node[key] = node.seed
    value = node.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing config field {path!r}")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {path!r}: {exc}") from exc


def _checked(path: str, build, *args, keys: dict | None = None, **kwargs):
    """``build(*args, **kwargs)``, its range-check ValueError reported against ``path``.

    A ``SpecFieldError`` is reported against the config field behind the spec
    field it names: ``keys[field]`` where the two differ, else ``path.field``.
    """
    try:
        return build(*args, **kwargs)
    except fld.SpecFieldError as exc:
        where = (keys or {}).get(exc.field, f"{path}.{exc.field}")
        raise ConfigError(f"config field {where!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _integral(value) -> int:
    """An integer, an integral float or an integer string; never a bool."""
    if (isinstance(value, bool) or not isinstance(value, (numbers.Real, str))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer (got {value!r})")
    return int(value)


def _real(value) -> float:
    """A real number or numeric string (YAML reads ``1e-3`` as one); never a bool."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise ValueError(f"must be a real number (got {value!r})")
    return float(value)


def _finite(value) -> float:
    """A finite real number (see ``_real``)."""
    value = _real(value)
    if not math.isfinite(value):
        raise ValueError(f"must be finite (got {value})")
    return value


def _positive(value) -> float:
    """A finite real number > 0 (see ``_real``)."""
    value = _finite(value)
    if not value > 0:
        raise ValueError(f"must be > 0 (got {value})")
    return value


def _one_of(*choices):
    """A converter for a value equal to one of ``choices``; never a bool."""
    def convert(value):
        if isinstance(value, bool) or value not in choices:
            raise ValueError(f"must be {' | '.join(map(repr, choices))} (got {value!r})")
        return value
    return convert


def _at_least(low, convert):
    """A converter for a value of ``convert`` that is >= ``low``."""
    def check(value):
        value = convert(value)
        if not value >= low:
            raise ValueError(f"must be >= {low} (got {value})")
        return value
    return check


def _complex(value) -> complex:
    """A real number or ``[re, im]``."""
    if isinstance(value, list):
        if len(value) != 2:
            raise ValueError("complex values are [re, im]")
        return complex(_real(value[0]), _real(value[1]))
    return complex(_real(value), 0.0)


def _instance_of(kind: type, what: str):
    def convert(value):
        if not isinstance(value, kind):
            raise ValueError(f"must be {what} (got {value!r})")
        return value
    return convert


_str = _instance_of(str, "a string")
_mapping = _instance_of(dict, "a mapping")


def _list_of(convert):
    """A converter for a list whose items all pass ``convert``."""
    def convert_list(value) -> list:
        return [convert(item) for item in _instance_of(list, "a list")(value)]
    return convert_list


def _non_empty(convert):
    """A converter for a value of ``convert`` that is not empty."""
    def check(value):
        value = convert(value)
        if not value:
            raise ValueError("must not be empty")
        return value
    return check


def _dt_ladder(value) -> list:
    """At least 3 finite step sizes > 0, strictly decreasing."""
    dts = _list_of(_finite)(value)
    if len(dts) < 3 or not dts[-1] > 0 or any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError(f"must be >= 3 strictly decreasing values > 0 (got {dts})")
    return dts


def _chaos_terms(value) -> list:
    """Chaos terms [[coefficient, [degree, ...]], ...] as (float, int tuple) pairs."""
    return [(_real(coeff), tuple(_list_of(_integral)(degrees)))
            for coeff, degrees in value]


def _mode_amplitudes(value) -> dict:
    """A mapping mode -> amplitude as {int: complex}."""
    return {_integral(n): _complex(a) for n, a in _mapping(value).items()}


def _field_file(value) -> fld.TorusField:
    try:
        return ser.load_field(_str(value))
    except OSError as exc:  # missing, or a directory
        raise ValueError(f"cannot read field file: {exc}") from exc


def _build_field(section: dict, path: str) -> fld.TorusField:
    """The field of config section ``path``; its mass 2*pi*mu must be finite."""
    u = _section_field(section, path)
    with np.errstate(over="ignore"):  # the error below reports it
        mass = fld.TWO_PI * fld.mean_intensity(u)
    if not math.isfinite(mass):
        raise ConfigError(f"config field {path!r}: mass 2*pi*mu must be finite (got {mass})")
    return u


def _section_field(section: dict, path: str) -> fld.TorusField:
    kind = _field(section, f"{path}.kind", _one_of("plane_wave", "modes", "random", "file"))
    if kind == "random":
        return _checked(path, rnd.sample, _build_random_spec(section, path),
                        _field(section, f"{path}.index", _integral, 0))
    if kind == "file":
        return _field(section, f"{path}.path", _field_file)
    max_mode = _field(section, f"{path}.max_mode", _integral, None)
    if kind == "plane_wave":
        return _checked(path, fld.TorusField.single_mode,
                        _field(section, f"{path}.mode", _integral, 1),
                        _field(section, f"{path}.amplitude", _complex, 1.0 + 0.0j),
                        max_mode=max_mode)
    return _checked(path, fld.TorusField.from_modes,
                    _field(section, f"{path}.amplitudes", _mode_amplitudes), max_mode)


def _build_random_spec(section: dict, path: str) -> rnd.RandomDataSpec:
    return _checked(
        path, rnd.RandomDataSpec,
        alpha=_field(section, f"{path}.alpha", _real, 0.0),
        max_mode=_field(section, f"{path}.max_mode", _integral),
        seed=_field(section, f"{path}.seed", _integral, 0),
        offset=_field(section, f"{path}.offset_file", _field_file, None),
        gaussian_scale=_field(section, f"{path}.gaussian_scale", _real, 1.0),
        keys={"offset": f"{path}.offset_file"})


def _build_equation(cfg: dict) -> EquationSpec:
    section = _field(cfg, "equation", _mapping)
    return _checked(
        "equation", EquationSpec,
        variant=_field(section, "equation.variant", _one_of(*(v.value for v in Variant)),
                       "wnls"),
        sign=_field(section, "equation.sign", lambda v: _one_of(1, -1)(_integral(v)), 1),
        truncation=_field(section, "equation.truncation", _integral, None),
        alpha=_field(section, "equation.alpha", _real, 1.0))


def _build_integrator(cfg: dict, horizon: float | None = None) -> IntegratorSpec:
    """The integrator section; a ``horizon`` read elsewhere is its t_end."""
    section = _field(cfg, "integrator", _mapping)
    keys = None if horizon is None else {"t_end": "horizon"}
    spec = _checked(
        "integrator", IntegratorSpec,
        scheme=_field(section, "integrator.scheme", _one_of("strang", "rk4"), "strang"),
        dt=_field(section, "integrator.dt", _finite),
        t_end=horizon if horizon is not None else _field(section, "integrator.t_end", _finite),
        snapshot_stride=_field(section, "integrator.snapshot_stride", _integral, 1),
        keys=keys)
    _checked("integrator", spec.step_count, keys=keys)  # validates divisibility early
    return spec


def _out_dir(args, cfg: dict) -> Path:
    """The output directory, not yet made; ``output.directory`` is read even under --out."""
    directory = _field(_field(cfg, "output", _mapping, {}), "output.directory", _str, None)
    return Path(args.out or directory or os.environ.get("WICKNLS_OUT") or ".")


# ---------------------------------------------------------------------------
# commands: each parses ``cfg`` and returns ``run(out_dir) -> exit code``
# ---------------------------------------------------------------------------

def _scheme_failure(out: Path, name: str, cfg: dict, command: str, exc) -> int:
    """Exit 3 after writing ``name``: the meta record, marked ``diverged``, and the failing row."""
    meta = ser.meta_record(cfg, command=command, diverged=True,
                           last_valid_time=exc.last_valid_time)
    ser.write_ndjson(out / name, [meta] + ser.trajectory_records(exc.trajectory))
    print(exc, file=sys.stderr)
    return EXIT_DIVERGED


def _run_report(out: Path, cfg: dict, command: str, summary: str, experiment, lines) -> int:
    """Run ``experiment()``, write its report files, print ``lines(report)``, exit 0 or 4."""
    name = command.replace("-", "_") + ".ndjson"
    try:
        report = experiment()
    except IntegrationDivergedError as exc:
        return _scheme_failure(out, name, cfg, command, exc)
    ser.write_ndjson(out / name, [ser.meta_record(cfg, command=command)] + report.to_records())
    ser.write_csv(out / summary, ("series", "index_name", "index", "value", "unit"),
                  report.summary_rows(), meta=cfg)
    for line in lines(report):
        print(line)
    return EXIT_OK if report.verdict else EXIT_VERDICT


def cmd_simulate(cfg: dict):
    eq = _build_equation(cfg)
    integ = _build_integrator(cfg)
    u0 = _build_field(_field(cfg, "data", _mapping), "data")
    write_snapshots = _field(_field(cfg, "output", _mapping, {}), "output.snapshots",
                             _instance_of(bool, "true or false"), False)

    def save_snapshots(out: Path, traj):
        if write_snapshots:
            (out / "snapshots").mkdir(exist_ok=True)
            for i, u in enumerate(traj.snapshots):
                ser.save_field(u, out / "snapshots" / f"snapshot_{i:06d}.json")

    def run(out: Path) -> int:
        try:
            traj = evolve(u0, eq, integ)
        except IntegrationDivergedError as exc:
            save_snapshots(out, exc.trajectory)
            return _scheme_failure(out, "trajectory.ndjson", cfg, "simulate", exc)
        meta = ser.meta_record(cfg, command="simulate", diverged=False, last_valid_time=None)
        ser.write_ndjson(out / "trajectory.ndjson", [meta] + ser.trajectory_records(traj))
        save_snapshots(out, traj)
        return EXIT_OK
    return run


# the config key behind each WeakSequenceSpec field
_WEAK_SPEC_KEYS = {"mode_list": "modes", "horizon": "horizon", "probe": "probe",
                   "bump_amplitude": "bump.amplitude", "working_band": "working_band",
                   "eq": "equation.truncation"}


def cmd_weak_limit(cfg: dict):
    exp = _field(cfg, "experiment", _mapping, {})
    kind = _field(exp, "experiment.kind",
                  _one_of("weak-continuity", "phase-defect-contrast"), "weak-continuity")
    verdict_mode = _field(exp, "experiment.verdict", _one_of("auto", "decay", "plateau"),
                          "auto")

    # finite before it becomes the integrator's t_end, so its error names it
    horizon = _field(cfg, "horizon", _finite, 1.0)
    spec = _checked(
        "weak-limit", xp.WeakSequenceSpec, keys=_WEAK_SPEC_KEYS,
        base=_build_field(_field(cfg, "base", _mapping), "base"),
        bump_amplitude=_field(_field(cfg, "bump", _mapping, {}), "bump.amplitude",
                              _complex, 1.0 + 0.0j),
        mode_list=tuple(_field(cfg, "modes", _list_of(_integral))),
        probe=_build_field(_field(cfg, "probe", _mapping), "probe"),
        horizon=horizon, eq=_build_equation(cfg),
        integrator=_build_integrator(cfg, horizon),
        working_band=_field(cfg, "working_band", _integral, None))

    def experiment():
        if kind == "weak-continuity":
            return xp.weak_continuity_run(spec, verdict_mode=verdict_mode)
        return xp.phase_defect_contrast_run(spec)

    return lambda out: _run_report(
        out, cfg, "weak-limit", "weak_limit_summary.csv", experiment,
        lambda report: (f"verdict {name}: {'pass' if ok else 'FAIL'}"
                        for name, ok in report.verdicts.items()))


def _wick_identity_checks():
    """The algebraic identity checks, as (name, passed) pairs."""
    yield "hermite_h2", wick.hermite(2, 2.0, 1.0) == 3.0
    yield "hermite_h4", wick.hermite(4, 1.0, 1.0) == -2.0
    x = np.linspace(-3, 3, 13)
    sigma, t = 1.5, 0.4
    series = sum(wick.hermite(k, x, sigma) * t**k / math.factorial(k) for k in range(13))
    gen = np.exp(t * x - 0.5 * sigma * t * t)
    yield "hermite_generating_function", bool(np.max(np.abs(series - gen)) < 1e-8)
    xs, ys = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9))
    lhs = wick.wick_abs_fourth(xs + 1j * ys, 2.0)
    rhs = (wick.hermite(4, xs) + 2.0 * wick.hermite(2, xs) * wick.hermite(2, ys)
           + wick.hermite(4, ys))
    yield "wick_fourth_chaos_expansion", bool(np.max(np.abs(lhs - rhs)) < 1e-10)


def cmd_wick_check(cfg: dict):
    hyp_cases = _field(cfg, "hypercontractivity", _list_of(_mapping), [])
    seed = _field(cfg, "seed", _integral, 0)
    # case i draws from the key seed + i + 1, which must fit in 64 bits too
    if not 0 <= seed < 2**64 - len(hyp_cases):
        raise ConfigError(f"config field 'seed': must lie in [0, 2**64 - {len(hyp_cases)}) "
                          f"so that every case key seed + i + 1 fits in 64 bits (got {seed})")
    mc_samples = _field(cfg, "mc_samples", _at_least(2, _integral), 200_000)  # for a stderr
    variance = _field(cfg, "wick_variance", _positive, 2.0)
    parsed_cases = []
    for i, case in enumerate(hyp_cases):
        path = f"hypercontractivity[{i}]"
        parsed_cases.append(dict(
            q=_field(case, f"{path}.q", _at_least(2, _finite)),
            order=_field(case, f"{path}.order", _integral),
            dim=_field(case, f"{path}.dim", _integral, 1),
            samples=_field(case, f"{path}.samples", _integral, 200_000),
            terms=_field(case, f"{path}.terms", _chaos_terms, None)))

    def run(out: Path) -> int:
        records = [ser.meta_record(cfg, command="wick-check")]
        for name, ok in _wick_identity_checks():
            records.append({"record": "check", "name": name, "pass": bool(ok)})

        # Monte-Carlo means of the Wick powers under the standard complex
        # Gaussian (true variance 2). A corrupted wick_variance makes these fail.
        z = next(philox_streams(seed, [0])).standard_normal((mc_samples, 2))
        g = z[:, 0] + 1j * z[:, 1]
        for name, values in (("wick_square_mean", wick.wick_abs_square(g, variance)),
                             ("wick_fourth_mean", wick.wick_abs_fourth(g, variance))):
            mean = float(np.mean(values))
            stderr = float(np.std(values) / math.sqrt(mc_samples))
            ok = abs(mean) <= 3.0 * stderr
            records.append({"record": "check", "name": name, "pass": bool(ok),
                            "mean": mean, "stderr": stderr, "variance": variance})

        for i, case in enumerate(parsed_cases):
            report = _checked(f"hypercontractivity[{i}]", wick.hypercontractivity_check,
                              seed=seed + i + 1, **case)
            rec = report.to_dict()
            rec["record"] = "hypercontractivity"
            records.append(rec)

        ser.write_ndjson(out / "wick_check.ndjson", records)
        for rec in records[1:]:
            label = rec.get("name") or f"hyp(n={rec.get('n')},d={rec.get('d')},q={rec.get('q')})"
            print(f"check {label}: {'pass' if rec.get('pass') else 'FAIL'}")
        return EXIT_OK if all(rec["pass"] for rec in records[1:]) else EXIT_VERDICT
    return run


def cmd_sample(cfg: dict):
    spec = _build_random_spec(_field(cfg, "data", _mapping), "data")
    count = _field(cfg, "count", _at_least(0, _integral), 1)
    profile = _field(cfg, "profile", _mapping, {})
    s_values = _field(profile, "profile.s_values", _list_of(_real), [0.0])
    cutoffs = _field(profile, "profile.cutoffs", _list_of(_integral), [])
    samples = _field(profile, "profile.samples", _integral, 1000)

    def run(out: Path) -> int:
        # the profile's own checks run before the first sample is written
        rows = _checked("profile", rnd.regularity_profile, spec, s_values, cutoffs,
                        samples) if profile else []
        records = [ser.meta_record(cfg, command="sample")]
        for k, u in enumerate(rnd.sample_ensemble(spec, count)):
            fname = f"sample_{k:03d}.json"
            ser.save_field(u, out / fname)
            records.append({"record": "sample", "index": k, "file": fname,
                            "mean_intensity": fld.mean_intensity(u)})
        records.append({"record": "expected_mean_intensity",
                        "value": rnd.expected_mean_intensity(spec)})
        if profile:
            ser.write_csv(out / "profile.csv",
                          ("s", "M", "median_norm", "q25", "q75", "samples"),
                          [(r["s"], r["cutoff"], r["median"], r["q25"], r["q75"],
                            r["samples"]) for r in rows], meta=cfg)
        ser.write_ndjson(out / "sample.ndjson", records)
        return EXIT_OK
    return run


def cmd_norms(cfg: dict):
    u = _field(cfg, "field_file", _field_file)
    items = _field(cfg, "norms", _non_empty(_list_of(_mapping)))
    kinds = _one_of("sobolev", "fourier_lebesgue", "l2")
    specs = [_checked(f"norms[{i}]", fld.NormSpec, _field(item, f"norms[{i}].kind", kinds),
                      s=_field(item, f"norms[{i}].s", _real, 0.0),
                      p=_field(item, f"norms[{i}].p", _real, 2.0))
             for i, item in enumerate(items)]

    def run(out: Path) -> int:
        rows = []
        for spec in specs:
            value = fld.norm(u, spec)
            rows.append((spec.kind, spec.s, spec.p, value))
            print(f"{spec.kind}(s={spec.s:g}, p={spec.p:g}) = {value!r}")
        ser.write_csv(out / "norms.csv", ("kind", "s", "p", "value"), rows, meta=cfg)
        return EXIT_OK
    return run


def cmd_order_study(cfg: dict):
    eq = _build_equation(cfg)
    u0 = _build_field(_field(cfg, "data", _mapping), "data")
    dts = _field(cfg, "dts", _dt_ladder)
    scheme = _field(cfg, "scheme", _one_of("strang", "rk4"), "strang")
    t_end = _field(cfg, "t_end", _positive, 1.0)
    for dt in dts:  # the runner's step counts; its reference step dts[-1] / 4 follows
        try:
            IntegratorSpec(scheme, dt, t_end).step_count()
        except ValueError:
            raise ConfigError(
                f"config field 'dts': {dt!r} does not divide t_end = {t_end!r}") from None

    def fitted_order(report) -> list[str]:
        fitted = report.details.get("fitted_order")
        return [f"fitted order: {fitted if fitted is not None else 'exact to roundoff'}"]

    return lambda out: _run_report(
        out, cfg, "order-study", "order_study.csv",
        lambda: xp.integrator_order_study(u0, eq, dts, scheme=scheme, t_end=t_end),
        fitted_order)


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
        p.add_argument("--seed", type=int, help="set every seed the command reads")
        p.add_argument("--repro", action="store_true",
                       help="reproducibility mode; every run is deterministic, so "
                            "outputs are byte-identical with or without it")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="override any scalar config field (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _apply_overrides(cfg, args.overrides)
        cfg = _tracked(cfg, args.seed)
        _check_schema(cfg)
        run = _COMMANDS[args.command](cfg)
        out = _out_dir(args, cfg)
        _reject_unknown_keys(cfg)
        out.mkdir(parents=True, exist_ok=True)
        # a scheme failure is reported by exit 3 and one line, and a
        # non-finite output by the NDJSON non_finite field: numpy's own
        # floating-point warnings would only repeat them
        with np.errstate(all="ignore"):
            return run(out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
