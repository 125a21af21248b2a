"""Benchmark workloads for the ``shallowbs`` CLI: task generation and output checks.

A task is one CLI experiment.  Each workload cycles through a fixed list of
task kinds; the ``--seed`` (and, for counting, ``--input``) values of task
``i`` come from a stream keyed by (workload, workload seed, i), so one
workload seed always yields the same tasks and the program sees only the
generated values.

Every output is checked for invariants that hold at any seed.  At the
reference seed the outputs are also compared with ``reference.json``,
recorded from the seed commit: exact counts must match exactly; Monte-Carlo
summaries must match task by task while the random draws are unchanged, and
after a documented change of draw order must agree, pooled over all tasks of
a kind, within ``REFERENCE_Z`` standard errors.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
REFERENCE_Z = 5.0
# Fewer tasks of a kind than this give no usable spread or correlation; such
# kinds are only invariant-checked.  A run does every kind at least 13 times.
MIN_POOLED = 4
# Task summaries that track the reference this closely across tasks come from
# the same random draws, and must then agree task by task.
PAIRED_CORRELATION = 0.5
PAIRED_REL_TOL = 1e-6


def import_shallowbs():
    """Import ``shallowbs`` from this checkout's ``src``, never from elsewhere."""
    package = SRC / "shallowbs"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no shallowbs sources at {package}")
    sys.path.insert(0, str(SRC))
    import shallowbs
    import shallowbs.cli

    if Path(shallowbs.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported shallowbs from {shallowbs.__file__}, not {package}")
    return shallowbs


def _pattern(rng: random.Random, modes: int, size: int) -> str:
    return ",".join(str(m) for m in sorted(rng.sample(range(modes), size)))


def _fbs_input(modes: int, photons: int) -> Callable[[random.Random], list[str]]:
    return lambda rng: ["--input", _pattern(rng, modes, photons)]


def _gbs_input(modes: int, pairs: int) -> Callable[[random.Random], list[str]]:
    def draw(rng: random.Random) -> list[str]:
        k = rng.randint(pairs, modes)
        return ["--k-inputs", str(k), "--input", _pattern(rng, modes, k)]

    return draw


@dataclass(frozen=True)
class Kind:
    """One task shape: fixed CLI arguments plus seeded extra arguments."""

    label: str
    argv: tuple[str, ...]
    extra: Optional[Callable[[random.Random], list[str]]] = None


def _args(text: str) -> tuple[str, ...]:
    return tuple(text.split())


_GBS_NLHS = Kind("gbs-nlhs", _args(
    "permitted-count --scheme gbs --ensemble nlhs --modes 8 --rounds 1 --depth 2 --pairs 4"), _gbs_input(8, 4))
_GBS_CHAIN = Kind("gbs-chain", _args(
    "permitted-count --scheme gbs --ensemble local-parallel --modes 8 --depth 1 --pairs 4"), _gbs_input(8, 4))
_FBS_CHAIN = Kind("fbs-chain", _args(
    "permitted-count --scheme fbs --ensemble local-parallel --modes 20 --depth 2 --photons 5"), _fbs_input(20, 5))
_FBS_GRID = Kind("fbs-grid", _args(
    "permitted-count --scheme fbs --ensemble local-parallel --modes 20 --dim 2 --sides 4,5 --depth 4 --photons 5"),
    _fbs_input(20, 5))

# Task sizes are set so that a 34 s run holds 100-250 tasks on a 2-core Xeon
# host in both its fast and its slow states.  On each workload one kind is
# the slowest (page-curve; the single n=16 permanent; the 4x5-lattice count)
# and makes up 20-25% of a cycle, so the p90 tail falls inside its block, and
# the median falls inside a block of similar faster tasks rather than on a
# boundary between kinds.
WORKLOADS: dict[str, tuple[Kind, ...]] = {
    "montecarlo": (
        Kind("frame-potential", _args(
            "frame-potential --ensemble nlhs --modes 16 --rounds 1 --k-moment 2 --samples 270")),
        Kind("density-fbs", _args(
            "density-fbs --ensemble nlhs --modes 16 --rounds 1 --photons 3 --samples 450 --buckets 20")),
        Kind("density-gbs", _args(
            "density-gbs --ensemble nlhs --modes 16 --rounds 1 --photons 4 --samples 500 --buckets 20")),
        Kind("page-curve", _args("page-curve --ensemble nlhs --modes 16 --rounds 2 --samples 41")),
    ),
    "exact-kernels": (
        Kind("density-fbs-haar", _args(
            "density-fbs --ensemble haar --modes 32 --photons 8 --samples 135 --buckets 20")),
        Kind("hiding-fbs-12", _args("hiding --kind fbs --modes 144 --photons 12 --samples 10")),
        Kind("hiding-fbs-16", _args("hiding --kind fbs --modes 256 --photons 16 --samples 1")),
        Kind("hiding-gbs-12", _args("hiding --kind gbs --modes 144 --photons 12 --samples 300")),
        Kind("hiding-gbs-20", _args("hiding --kind gbs --modes 400 --photons 20 --samples 4")),
    ),
    # Per cycle two GBS counts (a quarter), four 1-D FBS counts (a half) and two
    # 4x5-lattice FBS counts (a quarter): the median falls in the middle of the
    # 1-D FBS block and the tail among the lattice counts.
    "permitted-counting": (_GBS_NLHS, _FBS_CHAIN, _FBS_CHAIN, _FBS_GRID,
                           _GBS_CHAIN, _FBS_CHAIN, _FBS_CHAIN, _FBS_GRID),
}


def task_kind(workload: str, index: int) -> Kind:
    kinds = WORKLOADS[workload]
    return kinds[index % len(kinds)]


def task_argv(workload: str, seed: int, index: int, out: Path) -> list[str]:
    """CLI arguments of task ``index``; index -1 is the warm-up task."""
    kind = WORKLOADS[workload][0] if index < 0 else task_kind(workload, index)
    rng = random.Random(f"{workload}/{seed}/{index}")
    argv = list(kind.argv) + ["--seed", str(rng.randrange(2**31)), "--threads", "1"]
    if kind.extra is not None:
        argv += kind.extra(rng)
    return argv + ["--out", str(out)]


def flag(argv: list[str], name: str) -> Optional[str]:
    """Value following ``--name`` in ``argv``, or None."""
    key = f"--{name}"
    return argv[argv.index(key) + 1] if key in argv else None


class CheckError(Exception):
    """An output that violates an invariant of its experiment."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _number(text: str, what: str) -> float:
    """A finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{what}: not a number: {text!r}") from None
    _require(math.isfinite(value) and value >= 0.0, f"{what}: {value} is not finite and non-negative")
    return value


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(text.splitlines()))


def _check_page_curve(argv: list[str], text: str) -> dict:
    rows = _rows(text)
    modes = int(flag(argv, "modes"))
    _require([int(r["k"]) for r in rows] == list(range(1, modes)), "page-curve: rows are not k = 1..M-1")
    est = {}
    for r in rows:
        _require(r["seed"] == flag(argv, "seed") and r["samples"] == flag(argv, "samples"),
                 "page-curve: provenance columns do not echo the task")
        est[f"k{r['k']}"] = [_number(r["mean_S2"], "mean_S2"), _number(r["stderr"], "stderr")]
    return {"est": est}


def _check_frame_potential(argv: list[str], text: str) -> dict:
    rows = _rows(text)
    _require(len(rows) == 1, f"frame-potential: {len(rows)} rows, expected 1")
    (r,) = rows
    k = int(flag(argv, "k-moment"))
    _require(int(r["k_moment"]) == k and r["n_sam"] == flag(argv, "samples"),
             "frame-potential: provenance columns do not echo the task")
    raw = _number(r["raw_mean"], "raw_mean")
    normalized = _number(r["normalized"], "normalized")
    _require(math.isclose(normalized, raw / math.factorial(k), rel_tol=1e-12),
             "frame-potential: normalized != raw_mean / k!")
    return {"est": {"normalized": [normalized, _number(r["bootstrap_std"], "bootstrap_std")]}}


def _check_density(argv: list[str], text: str) -> dict:
    rows = _rows(text)
    samples, buckets = int(flag(argv, "samples")), int(flag(argv, "buckets"))
    _require(len(rows) == buckets, f"density: {len(rows)} buckets, expected {buckets}")
    counts = [int(r["count"]) for r in rows]
    _require(sum(counts) == samples and max(counts) - min(counts) <= 1,
             f"density: bucket counts {counts} do not split {samples} samples evenly")
    xs = [_number(r["x"], "x") for r in rows]
    _require(all(a <= b for a, b in zip(xs, xs[1:])), "density: bucket midpoints not sorted")
    for r in rows:
        _number(r["width"], "width")
        if r["density"] != "":
            _number(r["density"], "density")
    if argv[0] == "density-fbs":
        _require(xs[-1] <= 1.0 + 1e-12, f"density-fbs: probability {xs[-1]} above 1")
    return {"scalar": {f"x{i}": x for i, x in enumerate(xs)}}


def _check_hiding(argv: list[str], text: str) -> dict:
    rows = _rows(text)
    _require(len(rows) == int(flag(argv, "samples")), f"hiding: {len(rows)} rows")
    values = [_number(r["value"], "value") for r in rows]
    # Squared permanents and hafnians of Gaussian matrices vanish with probability 0.
    _require(min(values) > 0.0, "hiding: a sample is exactly zero")
    return {"scalar": {"mean_log_value": sum(math.log(v) for v in values) / len(values)}}


def _check_count(argv: list[str], text: str) -> dict:
    report = json.loads(text)
    modes = int(flag(argv, "modes"))
    fbs = flag(argv, "scheme") == "fbs"
    photons = int(flag(argv, "photons")) if fbs else 2 * int(flag(argv, "pairs"))
    exact, total = report["exact_count"], report["total_outcomes"]
    _require(total == math.comb(modes + photons - 1, photons),
             f"count: total {total} != C(M+n-1, n) for M={modes}, n={photons}")
    _require(isinstance(exact, int) and 0 <= exact <= total, f"count: {exact} outside [0, {total}]")
    _require(report["exact_ratio"] == exact / total, "count: exact_ratio != exact_count / total")
    _require(report["input"] == [int(m) for m in flag(argv, "input").split(",")],
             "count: input pattern not echoed")
    if fbs:
        _require(exact <= report["upper_bound"], f"count: {exact} above product bound {report['upper_bound']}")
    return {"exact": {"exact_count": exact, "total_outcomes": total}}


_CHECKS = {
    "page-curve": _check_page_curve,
    "frame-potential": _check_frame_potential,
    "density-fbs": _check_density,
    "density-gbs": _check_density,
    "hiding": _check_hiding,
    "permitted-count": _check_count,
}


def check_output(argv: list[str], data: bytes) -> tuple[dict, str]:
    """Invariant-check one task's output; returns its summary and content digest.

    Raises CheckError when the output breaks an invariant of its experiment.
    """
    try:
        summary = _CHECKS[argv[0]](argv, data.decode("utf-8"))
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise CheckError(f"{argv[0]}: malformed output ({exc!r})") from None
    return summary, hashlib.sha256(data).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> list[dict]:
    """Reference entries for ``workload``, or [] when ``seed`` is not the reference seed."""
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text())["workloads"].get(workload, [])


def _pooled(summaries: list[dict]) -> dict[str, tuple[float, float]]:
    """Pool per-task summaries of one kind into (mean, standard error) per label.

    Estimates that carry their own standard error ("est") combine those; bare
    per-task values ("scalar") take the error from their spread across tasks.
    """
    t = len(summaries)
    out = {}
    if "est" in summaries[0]:
        for label in summaries[0]["est"]:
            pairs = [s["est"][label] for s in summaries]
            out[label] = (sum(m for m, _ in pairs) / t, math.sqrt(sum(e * e for _, e in pairs)) / t)
        return out
    for label in summaries[0]["scalar"]:
        values = [s["scalar"][label] for s in summaries]
        mean = sum(values) / t
        var = sum((v - mean) ** 2 for v in values) / (t - 1)
        out[label] = (mean, math.sqrt(var / t))
    return out


def _values(summary: dict) -> dict[str, float]:
    if "est" in summary:
        return {label: mean for label, (mean, _) in summary["est"].items()}
    return summary["scalar"]


def _correlation(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy) if sxx > 0 and syy > 0 else 0.0


def reference_failures(workload: str, done: list[tuple[int, dict, str]], reference: list[dict]) -> dict[int, str]:
    """Tasks that disagree with the reference, as {task index: reason}.

    ``done`` holds (index, summary, digest) for every task that passed its
    invariant checks.  Exact counts are compared per task.  A Monte-Carlo
    kind whose outputs are all byte-identical to the reference passes.
    Otherwise, if its per-task summaries correlate with the reference's, the
    random draws are unchanged and each task must match its reference within
    ``PAIRED_REL_TOL``; if they do not, the draws changed, and the summaries
    pooled over the kind must lie within ``REFERENCE_Z`` combined standard
    errors of the reference, label by label, or every task of the kind fails.
    """
    failures: dict[int, str] = {}
    by_kind: dict[str, list[tuple[int, dict, str]]] = {}
    for index, summary, digest in done:
        if index >= len(reference):
            continue
        ref = reference[index]
        if "exact" in summary:
            if summary["exact"] != ref["summary"]["exact"]:
                failures[index] = f"count {summary['exact']} != reference {ref['summary']['exact']}"
        else:
            by_kind.setdefault(task_kind(workload, index).label, []).append((index, summary, digest))
    for label, entries in by_kind.items():
        if all(digest == reference[i]["sha256"] for i, _, digest in entries) or len(entries) < MIN_POOLED:
            continue
        ours = [_values(s) for _, s, _ in entries]
        theirs = [_values(reference[i]["summary"]) for i, _, _ in entries]
        keys = list(ours[0])
        rho = sum(_correlation([o[k] for o in ours], [t[k] for t in theirs]) for k in keys) / len(keys)
        if rho > PAIRED_CORRELATION:
            for (index, _, _), o, t in zip(entries, ours, theirs):
                off = [k for k in keys if not math.isclose(o[k], t[k], rel_tol=PAIRED_REL_TOL)]
                if off:
                    failures[index] = (f"{label} {off[0]}: {o[off[0]]:.9g} != reference {t[off[0]]:.9g} "
                                       f"on the same random draws")
            continue
        pooled = _pooled([s for _, s, _ in entries])
        pooled_ref = _pooled([reference[i]["summary"] for i, _, _ in entries])
        for key, (mean, se) in pooled.items():
            ref_mean, ref_se = pooled_ref[key]
            if abs(mean - ref_mean) > REFERENCE_Z * math.hypot(se, ref_se):
                reason = (f"{label} {key}: pooled mean {mean:.6g} +- {se:.3g} vs reference "
                          f"{ref_mean:.6g} +- {ref_se:.3g} on new random draws")
                failures.update({i: reason for i, _, _ in entries})
                break
    return failures
