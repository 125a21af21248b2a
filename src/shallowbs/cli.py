"""Reproducible experiment runner.

Every subcommand resolves its configuration from an optional JSON config file
plus command-line flags (flags win), validates it, runs the experiment, and
writes exactly one result file plus a ``<out>.manifest.json`` sidecar holding
the resolved configuration, package version and wall time; a failed write
leaves neither (see ``_write_files``).  Result files are
byte-identical across reruns with the same configuration; the manifest is
the only place wall time appears.  Every experiment runs as one sequential
loop; ``--threads`` is accepted and recorded for compatibility but has no
effect.

Each setting's kind and allowed values are declared once, in ``_FLAGS``.  A
flag's text and a config-file value go through the same converter: the file
may give the flag's text or a JSON value of the setting's kind (a finite
number, ``true``/``false`` for ``--effective``, a list of integers for
``--sides`` and ``--input``).  Every bad value and broken rule is reported
before work starts; a rule the library owns is checked by calling the library.

Exit codes: 0 success, 2 invalid configuration, 3 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import time
from typing import Any, Callable, Optional, Union

from ._version import __version__
from .arch import (
    CircuitArchitecture,
    _check_depth,
    arch_to_dict,
    build_local_parallel,
    build_nlhs,
)
from .fock import (
    _check_lattice,
    _effective_cones,
    _input_pattern,
    count_permitted_fbs,
    count_permitted_fbs_effective,
    fbs_depth_thresholds,
)
from .gaussian import (
    _check_entropy_squeezing,
    _check_even,
    _check_pairs,
    count_permitted_gbs,
    gbs_depth_thresholds,
    page_curve,
)
from .linalg import RngStream, _count
from .matfn import GuardError
from .stats import (
    _check_buckets,
    _check_moment,
    _check_placeable,
    _hiding_scale,
    density_function,
    fbs_probability_samples,
    frame_potential,
    gbs_probability_samples,
    hiding_samples,
)

__all__ = ["main", "run", "validate_config", "EXPERIMENTS"]

# What a setting accepts beyond its kind: (phrase, test) or None for any value of the kind.
_POSITIVE = ("positive", lambda v: v > 0)


def _one_of(*names: str) -> tuple[str, Callable[[Any], bool]]:
    return ", ".join(names[:-1]) + " or " + names[-1], lambda v: v in names


# flag name -> (kind, allowed values, help); kinds: int, float, str, intlist, flag
_FLAGS: dict[str, tuple[str, Any, str]] = {
    "seed": ("int", ("non-negative", lambda v: v >= 0),
             "master random seed, required and recorded in the manifest"),
    "out": ("str", ("a file path in an existing directory, with no directory at it"
                    " or at <out>.manifest.json",
                    lambda v: os.path.isdir(os.path.dirname(v) or ".")
                    and not any(os.path.isdir(p) for p in (v, v + ".manifest.json"))),
            "result file path; a .manifest.json sidecar is written next to it"),
    "format": ("str", _one_of("csv", "json"), "output format"),
    "threads": ("int", _POSITIVE, "accepted for compatibility and recorded; has no effect"),
    "ensemble": ("str", _one_of("local-parallel", "nlhs", "haar"), "circuit ensemble"),
    "modes": ("int", _POSITIVE, "number of optical modes"),
    "dim": ("int", _POSITIVE, "lattice dimension for the local-parallel ensemble"),
    "sides": ("intlist", None, "comma-separated lattice side lengths (default: one row of all modes)"),
    # range depends on the ensemble: >= 1 for local-parallel, [0, log2(modes)*rounds] for nlhs counts
    "depth": ("int", None, "number of circuit layers"),
    "rounds": ("int", _POSITIVE, "number of full sweeps for the nlhs ensemble"),
    "photons": ("int", _POSITIVE, "number of photons"),
    "pairs": ("int", _POSITIVE, "number of photon pairs (gbs)"),
    "k-inputs": ("int", _POSITIVE, "number of squeezed input modes (gbs)"),
    "squeeze": ("float", _POSITIVE, "squeezing parameter r"),
    "buckets": ("int", _POSITIVE, "number of equal-count density buckets"),
    "samples": ("int", _POSITIVE, "number of Monte-Carlo samples"),
    "k-moment": ("int", _POSITIVE, "frame-potential moment order"),
    "lambda": ("float", _POSITIVE, "effective-lightcone exponent"),
    "beta": ("float", ("in (0, 1)", lambda v: 0 < v < 1), "leakage exponent"),
    "gamma": ("float", (">= 1", lambda v: v >= 1), "mode-scaling exponent"),
    "c-const": ("float", _POSITIVE, "mode-scaling constant"),
    "scheme": ("str", _one_of("fbs", "gbs"), "counting scheme"),
    "input": ("intlist", None, "comma-separated input mode pattern"),
    "kind": ("str", _one_of("fbs", "gbs"), "hiding ensemble kind"),
    "effective": ("flag", None, "clip lightcones to the effective radius"),
}

# kind -> (what a value must be, parser of the flag's text, JSON types taken as they are)
_KINDS: dict[str, tuple[str, Optional[Callable[[str], Any]], tuple[type, ...]]] = {
    "int": ("an integer", int, (int,)),
    "float": ("a finite number", float, (int, float)),
    "str": ("a string", None, (str,)),
    "intlist": ("comma-separated integers or a list of integers",
                lambda text: [int(p) for p in text.split(",") if p.strip() != ""], ()),
    "flag": ("true or false", None, (bool,)),
}

_COMMON = ("seed", "out", "format", "threads")
_ENSEMBLE = ("ensemble", "modes", "dim", "sides", "depth", "rounds")
_LAW = ("gamma", "c_const", "dim", "lambda", "beta")  # the depth thresholds' scaling-law settings

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowbs",
        description="Shallow-circuit sampling experiments with reproducible outputs.",
    )
    sub = parser.add_subparsers(dest="experiment")
    for name, info in EXPERIMENTS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file; flags override it")
        for flag in _COMMON + info["flags"]:
            kind, allowed, help_text = _FLAGS[flag]
            if allowed is not None:
                help_text = f"{help_text}; must be {allowed[0]}"
            switch = {"action": "store_const", "const": True} if kind == "flag" else {}
            p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), help=help_text, **switch)
    return parser


def _convert(flag: str, value: Any) -> Any:
    """Typed value of one setting from its flag text or its JSON config-file value."""
    kind = _FLAGS[flag][0]
    expected, from_text, json_types = _KINDS[kind]
    typed = None
    try:
        if isinstance(value, str) and from_text is not None:
            typed = from_text(value)
        elif kind == "intlist" and isinstance(value, list) and all(type(v) is int for v in value):
            typed = value
        elif type(value) in json_types:
            typed = float(value) if kind == "float" else value
    except (ValueError, OverflowError):
        pass
    if typed is not None and (kind != "float" or math.isfinite(typed)):
        return typed
    raise ValueError(f"--{flag} expects {expected}, got {value!r}")


def resolve_config(experiment: str, namespace: argparse.Namespace) -> tuple[dict, list[str]]:
    """Merge config file, flags and defaults into one flat dictionary of typed values."""
    diags: list[str] = []
    info = EXPERIMENTS[experiment]
    keys = _COMMON + info["flags"]
    file_cfg: dict = {}
    if namespace.config is not None:
        try:
            with open(namespace.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return {}, [f"config file: {exc}"]
        if not isinstance(file_cfg, dict):
            return {}, ["config file: top level must be a JSON object"]
        unknown = set(file_cfg) - {k.replace("-", "_") for k in keys} - set(keys) - {"experiment"}
        for key in sorted(unknown):
            diags.append(f"config file: unknown key {key!r} for experiment {experiment}")

    resolved: dict = {"experiment": experiment}
    for flag in keys:
        dest = flag.replace("-", "_")
        value = getattr(namespace, dest, None)
        if value is None:
            value = file_cfg.get(dest, file_cfg.get(flag))
        if value is None:
            value = info["defaults"].get(flag)
        resolved[dest] = None if value is None else _check(diags, _convert, flag, value)
    return resolved, diags


def _setting(cfg: dict, key: str) -> Any:
    """A setting's value, or None when it is absent or outside its ``_FLAGS`` range."""
    value, allowed = cfg.get(key), _FLAGS[key.replace("_", "-")][1]
    return None if value is None or (allowed and not allowed[1](value)) else value


def _need(cfg: dict, key: str, diags: list[str]) -> bool:
    """Whether a required setting is usable; only a missing one is reported here."""
    if cfg.get(key) is None:
        diags.append(f"missing required option --{key.replace('_', '-')}")
    return _setting(cfg, key) is not None


def _check(diags: list[str], rule: Callable[..., Any], *args: Any) -> Any:
    """``rule(*args)``, or None with the library's refusal added to ``diags``; guards propagate."""
    try:
        return rule(*args)
    except GuardError:
        raise
    except (ValueError, IndexError, TypeError) as exc:
        diags.append(str(exc))


def _check_settings(cfg: dict, diags: list[str], rule: Callable[..., Any], *keys: str) -> Any:
    """``_check`` of ``rule`` on the named settings; None unless each is set and in its range."""
    values = [_setting(cfg, key) for key in keys]
    return None if None in values else _check(diags, rule, *values)


def _validate_ensemble(cfg: dict, diags: list[str]) -> Optional[CircuitArchitecture]:
    """Check the ensemble settings and build the circuit; None for haar or a refused circuit."""
    ensemble = cfg.get("ensemble")
    if not _need(cfg, "ensemble", diags) or not _need(cfg, "modes", diags) or ensemble == "haar":
        return None
    # the builders derive the mode count, so the empty circuit of the family on --modes
    # checks it: a power of two for nlhs, filled by the side lengths on a lattice
    m = cfg["modes"]
    if ensemble == "nlhs":
        rounds = _need(cfg, "rounds", diags)
        if _check(diags, CircuitArchitecture, m, (), "nlhs") and rounds:
            return _check(diags, build_nlhs, m.bit_length() - 1, cfg["rounds"])
        return None
    if not _need(cfg, "depth", diags):
        return None
    if cfg["depth"] < 1:
        diags.append(f"--depth must be positive, got {cfg['depth']}")
    cfg["dim"] = 1 if cfg.get("dim") is None else cfg["dim"]
    dim, sides = _setting(cfg, "dim"), cfg.get("sides")
    if dim is None:
        return None
    if sides is None and dim != 1:
        diags.append("--sides is required for lattices with dim > 1")
        return None
    sides = cfg["sides"] = [m] if sides is None else sides
    if _check(diags, CircuitArchitecture, m, (), "local-parallel", sides) and cfg["depth"] >= 1:
        return _check(diags, build_local_parallel, dim, sides, cfg["depth"])
    return None


def _validate_count(cfg: dict, diags: list[str], arch: Optional[CircuitArchitecture]) -> None:
    """Check the counting settings of permitted-count and resolve its depth and input pattern."""
    scheme, lattice = cfg.get("scheme"), None
    if cfg.get("effective"):
        if scheme == "gbs":
            diags.append("effective clipping applies to the fbs scheme only")
        for key in ("lambda", "beta"):
            _need(cfg, key, diags)
        if arch is not None:
            lattice = _check(diags, _check_lattice, arch)
    if arch is not None and arch.family == "nlhs":
        cfg["depth"] = arch.depth if cfg.get("depth") is None else cfg["depth"]
        _check(diags, _check_depth, arch, cfg["depth"])
    key = {"fbs": "photons", "gbs": "pairs"}.get(scheme)
    if key is None or not _need(cfg, key, diags):
        return
    what = "photons" if scheme == "fbs" else "modes" if cfg.get("k_inputs") is None else "k_inputs"
    size, m = _setting(cfg, what), _setting(cfg, "modes")
    if size is None or m is None:
        return
    if scheme == "gbs":
        _check(diags, _check_pairs, cfg["pairs"], size)
    pattern = cfg.get("input")
    if pattern and len(pattern) != size:
        diags.append(f"--input holds {len(pattern)} modes but --{what.replace('_', '-')} is {size}")
    # a default pattern longer than m + 1 modes is refused just as that one is
    t = cfg["input"] = _check(diags, _input_pattern, pattern or range(min(size, m + 1)), m)
    if lattice is not None and scheme == "fbs" and t:
        clip = functools.partial(_effective_cones, arch, t, cfg["depth"])
        # a count its guard refuses is left to the run, which exits 3 before any output
        with contextlib.suppress(GuardError):
            _check_settings(cfg, diags, clip, "lambda", "beta")


def _validate(cfg: dict) -> tuple[list[str], Optional[CircuitArchitecture]]:
    """Diagnostics for a resolved configuration, and the circuit it describes, if any."""
    diags: list[str] = []
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        return [f"unknown experiment {experiment!r}"], None
    for flag in _COMMON + EXPERIMENTS[experiment]["flags"]:
        key = flag.replace("-", "_")
        if cfg.get(key) is not None and _setting(cfg, key) is None:
            diags.append(f"--{flag} must be {_FLAGS[flag][1][0]}, got {cfg[key]!r}")
    _need(cfg, "seed", diags)
    _need(cfg, "out", diags)
    nested = experiment in ("arch-info", "permitted-count")
    if nested and cfg.get("format") == "csv":
        diags.append(f"{experiment} emits a nested report; use --format json")
    if nested and cfg.get("ensemble") == "haar":
        diags.append(f"{experiment} needs a gate architecture; the haar ensemble has none")

    arch = _validate_ensemble(cfg, diags) if "ensemble" in EXPERIMENTS[experiment]["flags"] else None
    if experiment == "permitted-count":
        _validate_count(cfg, diags, arch)
    elif experiment == "thresholds":
        if _need(cfg, "photons", diags) and cfg.get("pairs") is None and cfg["photons"] >= 2:
            cfg["pairs"] = cfg["photons"] // 2
        for key in ("pairs", "gamma", "c_const", "lambda", "beta"):
            _need(cfg, key, diags)
        # the gbs thresholds are checked only once the fbs ones pass: one bad value, one diagnostic
        if _check_settings(cfg, diags, fbs_depth_thresholds, "photons", *_LAW) is not None:
            _check_settings(cfg, diags, gbs_depth_thresholds, "pairs", *_LAW)
    elif experiment in ("density-fbs", "density-gbs"):
        _need(cfg, "photons", diags)
        if experiment == "density-gbs":
            _check_settings(cfg, diags, _check_even, "photons")
        _check_settings(cfg, diags, _check_placeable, "modes", "photons")
        _check_settings(cfg, diags, _check_buckets, "buckets", "samples")
    elif experiment in ("page-curve", "frame-potential"):
        if experiment == "page-curve":
            bipartition = functools.partial(_count, what="mode count", minimum=2,
                                            need="two modes for a bipartition")
            _check_settings(cfg, diags, bipartition, "modes")
            _check_settings(cfg, diags, _check_entropy_squeezing, "squeeze")
        else:
            _check_settings(cfg, diags, _check_moment, "modes", "k_moment", "samples")
        standard_error = functools.partial(_count, what="sample count", minimum=2, need="two samples")
        _check_settings(cfg, diags, standard_error, "samples")
    elif experiment == "hiding":
        for key in ("kind", "modes", "photons"):
            _need(cfg, key, diags)
        if cfg.get("kind") == "gbs":
            _check_settings(cfg, diags, _check_even, "photons")
        _check_settings(cfg, diags, _hiding_scale, "modes", "photons")
    return diags, arch


def validate_config(cfg: dict) -> list[str]:
    """Diagnostics for a resolved configuration; empty means runnable.  It also resolves
    derived defaults into ``cfg`` in place, which ``run`` relies on: ``dim``, ``sides``,
    the nlhs ``depth``, ``input`` and ``pairs``."""
    return _validate(cfg)[0]


def _ensemble(
    cfg: dict, arch: Optional[CircuitArchitecture]
) -> tuple[str, Union[CircuitArchitecture, int]]:
    """The result-file tag of the run's ensemble, and the ensemble the drivers take."""
    if arch is None:
        return f"haar(m={cfg['modes']})", cfg["modes"]
    if arch.family == "nlhs":
        return f"nlhs(p={arch.log2_modes},rounds={arch.rounds})", arch
    sides = "x".join(str(s) for s in arch.side_lengths)
    return f"local-parallel(d={arch.dimension},sides={sides},depth={arch.depth})", arch


def _run_arch_info(cfg: dict, arch: CircuitArchitecture, master: RngStream) -> dict:
    return {"json": {**arch_to_dict(arch), "depth": arch.depth, "gate_count": arch.gate_count}}


def _run_permitted_count(cfg: dict, arch: CircuitArchitecture, master: RngStream) -> dict:
    pattern, depth = cfg["input"], cfg["depth"]
    if cfg["scheme"] == "gbs":
        report = count_permitted_gbs(arch, pattern, cfg["pairs"], depth)
    elif cfg["effective"]:
        report = count_permitted_fbs_effective(arch, pattern, depth, cfg["lambda"], cfg["beta"])
    else:
        report = count_permitted_fbs(arch, pattern, depth)
    out = dict(report.to_dict(), scheme=cfg["scheme"], depth=depth, input=list(pattern),
               modes=arch.mode_count, effective=bool(cfg.get("effective")))
    return {"json": out}


def _run_thresholds(cfg: dict, arch: Optional[CircuitArchitecture], master: RngStream) -> dict:
    law = [cfg[key] for key in _LAW]
    fbs, gbs = fbs_depth_thresholds(cfg["photons"], *law), gbs_depth_thresholds(cfg["pairs"], *law)
    if cfg["format"] == "csv":
        return {"rows": [fbs.to_dict(), gbs.to_dict()]}
    return {"json": {"fbs": fbs.to_dict(), "gbs": gbs.to_dict()}}


def _run_density(cfg: dict, arch: Optional[CircuitArchitecture], master: RngStream) -> dict:
    tag, ensemble = _ensemble(cfg, arch)
    fbs = cfg["experiment"] == "density-fbs"
    driver = fbs_probability_samples if fbs else gbs_probability_samples
    values = driver(ensemble, cfg["photons"], cfg["samples"], master)
    curve = density_function(values, cfg["buckets"])
    extra = {"ensemble": tag, **{k: cfg[k] for k in ("modes", "photons", "samples", "seed")}}
    return {"rows": [{**row, **extra} for row in curve.to_rows()]}


def _run_page_curve(cfg: dict, arch: Optional[CircuitArchitecture], master: RngStream) -> dict:
    tag, ensemble = _ensemble(cfg, arch)
    rows = page_curve(ensemble, cfg["squeeze"], cfg["samples"], master)
    extra = {"ensemble": tag, "M": cfg["modes"], "r": cfg["squeeze"],
             "samples": cfg["samples"], "seed": cfg["seed"]}
    return {"rows": [{"k": k, "mean_S2": mean, "stderr": err, **extra} for k, mean, err in rows]}


def _run_frame_potential(cfg: dict, arch: Optional[CircuitArchitecture], master: RngStream) -> dict:
    tag, ensemble = _ensemble(cfg, arch)
    est = frame_potential(ensemble, cfg["k_moment"], cfg["samples"], master)
    extra = {"ensemble": tag, "modes": cfg["modes"], "seed": cfg["seed"]}
    return {"rows": [{**est.to_dict(), **extra}]}


def _run_hiding(cfg: dict, arch: Optional[CircuitArchitecture], master: RngStream) -> dict:
    values = hiding_samples(cfg["kind"], cfg["modes"], cfg["photons"], cfg["samples"], master)
    extra = {k: cfg[k] for k in ("kind", "modes", "photons", "seed")}
    return {"rows": [{"value": float(v), **extra} for v in values]}


# experiment -> flags beyond common, defaults, runner
EXPERIMENTS: dict[str, dict[str, Any]] = {
    "arch-info": {
        "flags": _ENSEMBLE,
        "defaults": {"format": "json"},
        "run": _run_arch_info,
    },
    "permitted-count": {
        "flags": _ENSEMBLE
        + ("scheme", "photons", "pairs", "k-inputs", "input", "effective", "lambda", "beta"),
        "defaults": {"format": "json", "scheme": "fbs", "effective": False},
        "run": _run_permitted_count,
    },
    "thresholds": {
        "flags": ("photons", "pairs", "gamma", "c-const", "dim", "lambda", "beta"),
        "defaults": {"format": "json", "dim": 1},
        "run": _run_thresholds,
    },
    "density-fbs": {
        "flags": _ENSEMBLE + ("photons", "samples", "buckets"),
        "defaults": {"format": "csv", "samples": 10000, "buckets": 20},
        "run": _run_density,
    },
    "density-gbs": {
        "flags": _ENSEMBLE + ("photons", "samples", "buckets"),
        "defaults": {"format": "csv", "samples": 10000, "buckets": 20},
        "run": _run_density,
    },
    "page-curve": {
        "flags": _ENSEMBLE + ("squeeze", "samples"),
        "defaults": {"format": "csv", "squeeze": 0.4, "samples": 10000},
        "run": _run_page_curve,
    },
    "frame-potential": {
        "flags": _ENSEMBLE + ("k-moment", "samples"),
        "defaults": {"format": "csv", "k-moment": 2, "samples": 50000},
        "run": _run_frame_potential,
    },
    "hiding": {
        "flags": ("kind", "modes", "photons", "samples"),
        "defaults": {"format": "csv", "samples": 10000},
        "run": _run_hiding,
    },
}


def _render(cfg: dict, result: dict) -> str:
    if "json" in result:
        return json.dumps(result["json"], indent=2, sort_keys=True) + "\n"
    rows = result["rows"]
    if cfg["format"] == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row[c] is None else row[c] for c in columns])
    return buf.getvalue()


def _write_files(files: list[tuple[str, str]]) -> None:
    """Write each ``(path, text)`` to a temporary file, then move the files into place in order.

    A failure while writing leaves no file at any of the paths and no temporary
    file behind, so a result never appears half-written.
    """
    staged = [(f"{path}.{os.getpid()}.tmp", path, text) for path, text in files]
    try:
        for tmp, _, text in staged:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for tmp, path, _ in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def _fail(code: int, **report: Any) -> int:
    """Write ``report`` to standard error as indented JSON and a newline; return ``code``."""
    json.dump(report, sys.stderr, indent=2)
    sys.stderr.write("\n")
    return code


def run(cfg: dict) -> int:
    """Validate and execute one resolved configuration.  Returns an exit code."""
    diags, arch = _validate(cfg)
    if diags:
        return _fail(2, error="invalid-config", diagnostics=diags)
    master = RngStream(cfg["seed"], 0)
    started = time.monotonic()
    try:
        result = EXPERIMENTS[cfg["experiment"]]["run"](cfg, arch, master)
    except GuardError as exc:
        return _fail(3, error="resource-guard", detail=str(exc))
    wall = time.monotonic() - started
    manifest = json.dumps({"experiment": cfg["experiment"], "config": dict(cfg),
                           "version": __version__, "wall_time_s": wall}, indent=2, sort_keys=True)
    out = cfg["out"]
    _write_files([(out, _render(cfg, result)), (out + ".manifest.json", manifest + "\n")])
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.experiment is None:
        parser.print_help()
        return 2
    cfg, diags = resolve_config(namespace.experiment, namespace)
    if diags:
        return _fail(2, error="invalid-config", diagnostics=diags)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
