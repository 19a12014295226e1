"""Configuration-driven command line front end.

Commands: ``simulate | weak-limit | wick-check | sample | norms | order-study``.
Configs are YAML (schema documented in the README); any scalar field can be
overridden on the command line with ``--set dotted.path=value`` (the flag
wins). A command parses its config and returns a ``run`` that computes its
outputs but writes none; ``main`` writes only after ``run`` returns, so a config
that a command refuses, while it parses or while it runs, leaves no output. Series
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
from .dynamics import EquationSpec, IntegrationDivergedError, IntegratorSpec, evolve

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

def _yaml_problem(exc: yaml.YAMLError) -> str:
    """PyYAML's error on one line: its problem, line and column, without the excerpt."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:  # a reader error: its message and position
        return " ".join(str(exc).split())
    return f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("a --config file is required")
    try:
        cfg = yaml.safe_load(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, or not UTF-8
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {_yaml_problem(exc)}") from exc
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
            raise ConfigError(f"--set {key}: cannot parse value {raw!r}: "
                              f"{_yaml_problem(exc)}") from exc
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not a mapping")
        node[parts[-1]] = value


def _check_schema(cfg: dict):
    _field(cfg, "schema_version", _one_of(SCHEMA_VERSION))


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


class _Section(dict):
    """A config mapping at ``path`` ("" at the top) that records the keys ``_field`` reads."""

    def __init__(self, items, seed, path: str):
        super().__init__(items)
        self.read = set()
        self.seed = seed  # the --seed value, or None
        self.path = path


def _tracked(value, seed, path: str = ""):
    """``value`` with each mapping in it a ``_Section`` at its path (list items at ``name[i]``)."""
    if isinstance(value, dict):
        return _Section({key: _tracked(item, seed, _join(path, key))
                         for key, item in value.items()}, seed, path)
    if isinstance(value, list):
        return [_tracked(item, seed, f"{path}[{i}]") for i, item in enumerate(value)]
    return value


def _reject_unknown_keys(value):
    """ConfigError for a key that no reader looked up, in a section that one read.

    Mappings that no reader looked into, such as mode-amplitude data, pass.
    """
    if isinstance(value, list):
        for item in value:
            _reject_unknown_keys(item)
    elif isinstance(value, _Section):
        for key, item in value.items():
            if value.read and key not in value.read:
                raise ConfigError(f"config field {_join(value.path, key)!r}: unknown key")
            _reject_unknown_keys(item)


_REQUIRED = object()


def _field(section: _Section, key: str, convert, default=_REQUIRED):
    """Field ``key`` of ``section`` through ``convert``, recorded as read.

    A missing or null field takes ``default`` (a mapping default becomes the
    empty section at its path), or is an error if there is none. A ``seed``
    key is first set to the ``--seed`` value, if any, so the embedded config
    shows it.
    """
    path = _join(section.path, key)
    section.read.add(key)
    if key == "seed" and section.seed is not None:
        section[key] = section.seed
    value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing config field {path!r}")
        return _tracked(default, section.seed, path)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {path!r}: {exc}") from exc


def _checked(section: _Section, build, *args, keys: dict | None = None, **kwargs):
    """``build(*args, **kwargs)``; a ``SpecFieldError`` naming ``field`` is reported against
    config path ``keys[field]``, else against field ``field`` of ``section``."""
    try:
        return build(*args, **kwargs)
    except fld.SpecFieldError as exc:
        where = (keys or {}).get(exc.field) or _join(section.path, exc.field)
        raise ConfigError(f"config field {where!r}: {exc}") from exc


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


def _one_of(*choices):
    """A converter for a value equal to one of ``choices``; never a bool."""
    def convert(value):
        if isinstance(value, bool) or value not in choices:
            raise ValueError(f"must be {' | '.join(map(repr, choices))} (got {value!r})")
        return value
    return convert


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


def _list_of(convert, non_empty: bool = False):
    """A converter for a list whose items all pass ``convert``; not empty if ``non_empty``."""
    def convert_list(value) -> list:
        if non_empty and value == []:
            raise ValueError("must not be empty")
        return [convert(item) for item in _instance_of(list, "a list")(value)]
    return convert_list


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


def _build_field(cfg: _Section, key: str) -> fld.TorusField:
    """The field of config section ``key``; its mass 2*pi*mu must be finite."""
    section = _field(cfg, key, _mapping)
    kind = _field(section, "kind", _one_of("plane_wave", "modes", "random", "file"))
    if kind == "random":
        u = _checked(section, rnd.sample, _build_random_spec(section),
                     _field(section, "index", _integral, 0))
    elif kind == "file":
        u = _field(section, "path", _field_file)
    elif kind == "plane_wave":
        u = _checked(section, fld.TorusField.single_mode,
                     _field(section, "mode", _integral, 1),
                     _field(section, "amplitude", _complex, 1.0 + 0.0j),
                     max_mode=_field(section, "max_mode", _integral, None),
                     keys={"amplitudes": _join(section.path, "mode"),
                           "coeffs": _join(section.path, "amplitude")})
    else:
        u = _checked(section, fld.TorusField.from_modes,
                     _field(section, "amplitudes", _mode_amplitudes),
                     _field(section, "max_mode", _integral, None),
                     keys={"coeffs": _join(section.path, "amplitudes")})
    _checked(cfg, fld.require_finite_mass, key, u)
    return u


def _build_random_spec(section: _Section) -> rnd.RandomDataSpec:
    return _checked(
        section, rnd.RandomDataSpec,
        alpha=_field(section, "alpha", _real, 0.0),
        max_mode=_field(section, "max_mode", _integral),
        seed=_field(section, "seed", _integral, 0),
        offset=_field(section, "offset_file", _field_file, None),
        gaussian_scale=_field(section, "gaussian_scale", _real, 1.0),
        keys={"offset": _join(section.path, "offset_file")})


def _build_equation(cfg: _Section) -> EquationSpec:
    section = _field(cfg, "equation", _mapping)
    return _checked(
        section, EquationSpec,
        variant=_field(section, "variant", _str, "wnls"),
        sign=_field(section, "sign", _integral, 1),
        truncation=_field(section, "truncation", _integral, None),
        alpha=_field(section, "alpha", _real, 1.0))


def _build_integrator(cfg: _Section, t_end: float | None = None) -> IntegratorSpec:
    """The integrator section; a given ``t_end`` stands in for a ``t_end`` key it lacks."""
    section = _field(cfg, "integrator", _mapping)
    return _checked(
        section, IntegratorSpec,
        scheme=_field(section, "scheme", _str, "strang"),
        dt=_field(section, "dt", _real),
        t_end=_field(section, "t_end", _real) if t_end is None else t_end,
        snapshot_stride=_field(section, "snapshot_stride", _integral, 1))


def _out_dir(args, cfg: _Section) -> Path:
    """The output directory, not yet made; ``output.directory`` is read even under --out."""
    directory = _field(_field(cfg, "output", _mapping, {}), "directory", _str, None)
    return Path(args.out or directory or os.environ.get("WICKNLS_OUT") or ".")


# ---------------------------------------------------------------------------
# commands: each parses ``cfg`` and returns ``run() -> (exit code, files, stdout
# lines)``, where ``files`` are (name, payload) pairs that ``main`` writes
# ---------------------------------------------------------------------------

# a run whose records numpy cannot allocate is refused by its step count
# (``dynamics._Recorder``), which the integrator's dt sets
_STEPS = {"dt": "integrator.dt"}


def _scheme_failure(name: str, cfg: dict, command: str, exc, files=()):
    """Exit 3, one stderr line, and ``files`` then ``name``: the meta record, marked
    ``diverged``, and the failing row."""
    meta = ser.meta_record(cfg, command=command, diverged=True,
                           last_valid_time=exc.last_valid_time)
    print(exc, file=sys.stderr)
    return EXIT_DIVERGED, [*files, (name, [meta] + ser.trajectory_records(exc.trajectory))], ()


def _run_report(cfg: dict, command: str, summary: str, experiment, lines):
    """A ``run`` of ``experiment()``: its report files, ``lines(report)``, exit 0 or 4."""
    def run():
        name = command.replace("-", "_") + ".ndjson"
        try:
            report = experiment()
        except IntegrationDivergedError as exc:
            return _scheme_failure(name, cfg, command, exc)
        files = [(name, [ser.meta_record(cfg, command=command)] + report.to_records()),
                 (summary, (("series", "index_name", "index", "value", "unit"),
                            report.summary_rows()))]
        return EXIT_OK if report.verdict else EXIT_VERDICT, files, lines(report)
    return run


def cmd_simulate(cfg: _Section):
    eq = _build_equation(cfg)
    integ = _build_integrator(cfg)
    u0 = _build_field(cfg, "data")
    write_snapshots = _field(_field(cfg, "output", _mapping, {}), "snapshots",
                             _instance_of(bool, "true or false"), False)

    def snapshots(traj) -> list:
        return [(f"snapshots/snapshot_{i:06d}.json", u) for i, u in enumerate(traj.snapshots)
                ] if write_snapshots else []

    def run():
        try:
            traj = _checked(cfg, evolve, u0, eq, integ, keys=_STEPS)
        except IntegrationDivergedError as exc:
            return _scheme_failure("trajectory.ndjson", cfg, "simulate", exc,
                                   snapshots(exc.trajectory))
        meta = ser.meta_record(cfg, command="simulate", diverged=False, last_valid_time=None)
        return EXIT_OK, [("trajectory.ndjson", [meta] + ser.trajectory_records(traj)),
                         *snapshots(traj)], ()
    return run


def cmd_weak_limit(cfg: _Section):
    exp = _field(cfg, "experiment", _mapping, {})
    kind = _field(exp, "kind",
                  _one_of("weak-continuity", "phase-defect-contrast"), "weak-continuity")
    verdict_mode = _field(exp, "verdict", _one_of(*xp._VERDICT_MODES), "auto")
    spec = _checked(
        cfg, xp.WeakSequenceSpec,
        horizon=_field(cfg, "horizon", _real, 1.0),
        base=_build_field(cfg, "base"),
        bump_amplitude=_field(_field(cfg, "bump", _mapping, {}), "amplitude",
                              _complex, 1.0 + 0.0j),
        mode_list=tuple(_field(cfg, "modes", _list_of(_integral))),
        probe=_build_field(cfg, "probe"), eq=_build_equation(cfg),
        integrator=_build_integrator(cfg, t_end=0.0),  # the spec runs it to horizon
        working_band=_field(cfg, "working_band", _integral, None),
        keys={"mode_list": "modes", "bump_amplitude": "bump.amplitude",
              "eq": "equation.truncation"})

    def experiment():
        if kind == "weak-continuity":
            return xp.weak_continuity_run(spec, verdict_mode=verdict_mode)
        return xp.phase_defect_contrast_run(spec)

    return _run_report(
        cfg, "weak-limit", "weak_limit_summary.csv", lambda: _checked(cfg, experiment, keys=_STEPS),
        lambda report: [f"verdict {name}: {'pass' if ok else 'FAIL'}"
                        for name, ok in report.verdicts.items()])


def cmd_wick_check(cfg: _Section):
    seed = _field(cfg, "seed", _integral, 0)
    mc_samples = _field(cfg, "mc_samples", _integral, 200_000)
    variance = _field(cfg, "wick_variance", _real, 2.0)
    cases = []  # (section, arguments) of each hypercontractivity case
    for i, case in enumerate(_field(cfg, "hypercontractivity", _list_of(_mapping), [])):
        args = dict(q=_field(case, "q", _real), order=_field(case, "order", _integral),
                    dim=_field(case, "dim", _integral, 1),
                    seed=_checked(cfg, wick._case_seed, seed, i),
                    samples=_field(case, "samples", _integral, 200_000),
                    terms=_field(case, "terms", _chaos_terms, None))
        _checked(case, wick._case_terms, **args)
        cases.append((case, args))

    def run():
        checks = wick.identity_checks() + _checked(
            cfg, wick.wick_power_means, seed, mc_samples, variance,
            keys={"samples": "mc_samples", "variance": "wick_variance"})
        records = [{"record": "check", **check} for check in checks]
        records += [{**_checked(case, wick.hypercontractivity_check, **args).to_dict(),
                     "record": "hypercontractivity"} for case, args in cases]
        labels = [rec.get("name") or f"hyp(n={rec['n']},d={rec['d']},q={rec['q']})"
                  for rec in records]
        return (EXIT_OK if all(rec["pass"] for rec in records) else EXIT_VERDICT,
                [("wick_check.ndjson", [ser.meta_record(cfg, command="wick-check")] + records)],
                [f"check {label}: {'pass' if rec['pass'] else 'FAIL'}"
                 for label, rec in zip(labels, records)])
    return run


def cmd_sample(cfg: _Section):
    data = _field(cfg, "data", _mapping)
    spec = _build_random_spec(data)
    count = _field(cfg, "count", _integral, 1)
    profile = _field(cfg, "profile", _mapping, {})
    s_values = _field(profile, "s_values", _list_of(_real), [0.0])
    cutoffs = _field(profile, "cutoffs", _list_of(_integral), [])
    samples = _field(profile, "samples", _integral, 1000)
    band = {"max_mode": _join(data.path, "max_mode")}

    def run():
        # every call that can refuse is made before the first file is yielded:
        # the members' first block is drawn here, the rest as main writes them
        members = _checked(cfg, rnd.sample_ensemble, spec, count, keys=band)
        expected = _checked(cfg, rnd.expected_mean_intensity, spec, keys=band)
        rows = _checked(profile, rnd.regularity_profile, spec, s_values, cutoffs, samples,
                        keys=band) if profile else None

        def files():
            records = [ser.meta_record(cfg, command="sample")]
            for k, u in enumerate(members):
                fname = f"sample_{k:03d}.json"
                records.append({"record": "sample", "index": k, "file": fname,
                                "mean_intensity": fld.mean_intensity(u)})
                yield fname, u
            records.append({"record": "expected_mean_intensity", "value": expected})
            if profile:  # the keys of regularity_profile's rows are in column order
                yield "profile.csv", (("s", "M", "median_norm", "q25", "q75", "samples"),
                                      [list(r.values()) for r in rows])
            yield "sample.ndjson", records
        return EXIT_OK, files(), ()
    return run


def cmd_norms(cfg: _Section):
    u = _field(cfg, "field_file", _field_file)
    items = _field(cfg, "norms", _list_of(_mapping, non_empty=True))
    specs = [_checked(item, fld.NormSpec, _field(item, "kind", _str),
                      s=_field(item, "s", _real, 0.0), p=_field(item, "p", _real, 2.0))
             for item in items]

    def run():
        rows = [(spec.kind, spec.s, spec.p, fld.norm(u, spec)) for spec in specs]
        return (EXIT_OK, [("norms.csv", (("kind", "s", "p", "value"), rows))],
                [f"{kind}(s={s:g}, p={p:g}) = {value!r}" for kind, s, p, value in rows])
    return run


def cmd_order_study(cfg: _Section):
    eq = _build_equation(cfg)
    u0 = _build_field(cfg, "data")
    dts = _field(cfg, "dts", _list_of(_real))
    scheme = _field(cfg, "scheme", _str, "strang")
    t_end = _field(cfg, "t_end", _real, 1.0)
    _checked(cfg, xp._order_ladder, dts, scheme, t_end)

    def fitted_order(report) -> list[str]:
        fitted = report.details.get("fitted_order")
        return [f"fitted order: {fitted if fitted is not None else 'exact to roundoff'}"]

    return _run_report(
        cfg, "order-study", "order_study.csv",
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
        # a scheme failure is reported by exit 3 and one line, and a
        # non-finite output by the NDJSON non_finite field: numpy's own
        # floating-point warnings would only repeat them
        with np.errstate(all="ignore"):
            code, files, lines = run()
            # the one writer: nothing is written until run() has returned
            out.mkdir(parents=True, exist_ok=True)
            for name, payload in files:
                path = out / name
                if name.endswith(".ndjson"):
                    ser.write_ndjson(path, payload)
                elif name.endswith(".csv"):
                    ser.write_csv(path, *payload, meta=cfg)
                else:  # a field, perhaps in a subdirectory
                    path.parent.mkdir(exist_ok=True)
                    ser.save_field(payload, path)
        for line in lines:
            print(line)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
