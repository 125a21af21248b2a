import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import shallowbs.cli
from shallowbs.arch import arch_to_dict, build_local_parallel
from shallowbs.cli import (
    EXPERIMENTS,
    main,
    resolve_config,
    validate_config,
    _build_parser,
    _render,
)
from shallowbs.fock import count_permitted_fbs


# a child interpreter finds the package where this one imported it
_CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(shallowbs.cli.__file__).parents[1])}


def parse(argv):
    return _build_parser().parse_args(argv)


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"modes": 8, "seed": 1, "samples": 50}))
    ns = parse(
        ["hiding", "--config", str(cfg_file), "--modes", "4", "--kind", "fbs", "--photons", "2"]
    )
    cfg, diags = resolve_config("hiding", ns)
    assert diags == []
    assert cfg["modes"] == 4  # flag wins
    assert cfg["seed"] == 1  # file fills the gap
    assert cfg["samples"] == 50
    assert cfg["format"] == "csv"  # default fills the rest


def test_config_file_dash_keys_accepted(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"k-moment": 3}))
    ns = parse(["frame-potential", "--config", str(cfg_file)])
    cfg, diags = resolve_config("frame-potential", ns)
    assert diags == []
    assert cfg["k_moment"] == 3


def test_unknown_config_key_is_flagged(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"photon": 2}))
    ns = parse(["hiding", "--config", str(cfg_file)])
    _, diags = resolve_config("hiding", ns)
    assert any("unknown key 'photon'" in d for d in diags)


def test_validate_config_reports_all_gaps():
    cfg, _ = resolve_config("thresholds", parse(["thresholds", "--gamma", "0.5"]))
    diags = validate_config(cfg)
    assert any("--seed" in d for d in diags)
    assert any("--out" in d for d in diags)
    assert any("--gamma must be >= 1" in d for d in diags)


def test_validate_config_ensemble_rules():
    cfg, _ = resolve_config(
        "density-fbs",
        parse(
            ["density-fbs", "--seed", "1", "--out", "x.csv", "--ensemble", "nlhs",
             "--modes", "6", "--rounds", "1", "--photons", "2"]
        ),
    )
    assert any("power-of-two" in d for d in validate_config(cfg))
    cfg, _ = resolve_config(
        "density-fbs",
        parse(
            ["density-fbs", "--seed", "1", "--out", "x.csv", "--ensemble",
             "local-parallel", "--modes", "8", "--dim", "2", "--sides", "2,3",
             "--depth", "1", "--photons", "2"]
        ),
    )
    assert any("do not fill" in d for d in validate_config(cfg))


def test_arch_info_round_trip(tmp_path):
    out = tmp_path / "arch.json"
    code = main(
        ["arch-info", "--seed", "3", "--modes", "8", "--ensemble", "local-parallel",
         "--dim", "1", "--sides", "8", "--depth", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    arch = build_local_parallel(1, [8], 2)
    for key, value in arch_to_dict(arch).items():
        assert report[key] == value
    assert report["depth"] == arch.depth
    assert report["gate_count"] == arch.gate_count
    manifest = json.loads((tmp_path / "arch.json.manifest.json").read_text())
    assert set(manifest) == {"experiment", "config", "version", "wall_time_s"}
    assert manifest["experiment"] == "arch-info"
    assert "wall_time_s" not in report


def test_permitted_count_matches_library(tmp_path):
    out = tmp_path / "count.json"
    code = main(
        ["permitted-count", "--seed", "1", "--modes", "8", "--ensemble",
         "local-parallel", "--dim", "1", "--sides", "8", "--depth", "1",
         "--photons", "2", "--scheme", "fbs", "--input", "0,7", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    expect = count_permitted_fbs(build_local_parallel(1, [8], 1), (0, 7), 1)
    assert report["exact_count"] == expect.exact_count
    assert report["upper_bound"] == expect.upper_bound
    assert report["total_outcomes"] == expect.total_outcomes


def test_reruns_are_byte_identical(tmp_path):
    argv = ["density-fbs", "--seed", "9", "--modes", "5", "--photons", "2",
            "--ensemble", "haar", "--samples", "60", "--buckets", "6"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    argv = ["page-curve", "--seed", "9", "--modes", "8", "--ensemble", "nlhs",
            "--rounds", "1", "--squeeze", "0.4", "--samples", "20"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--threads", "1", "--out", str(out_a)]) == 0
    assert main(argv + ["--threads", "4", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_render_writes_none_as_empty_field():
    result = {"rows": [{"x": 0.5, "density": None, "count": 3}]}
    text = _render({"format": "csv"}, result)
    assert text == "x,density,count\n0.5,,3\n"
    as_json = _render({"format": "json"}, result)
    assert json.loads(as_json) == [{"x": 0.5, "density": None, "count": 3}]


def test_invalid_config_exit_code(tmp_path, capsys):
    code = main(["arch-info", "--seed", "1", "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid-config" in err
    assert "--ensemble" in err


def test_resource_guard_exit_code(tmp_path, capsys):
    code = main(
        ["permitted-count", "--seed", "1", "--modes", "128", "--ensemble", "nlhs",
         "--rounds", "1", "--photons", "8", "--scheme", "fbs",
         "--input", "0,1,2,3,4,5,6,7", "--out", str(tmp_path / "x.json")]
    )
    assert code == 3
    assert "resource-guard" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "argv, guard",
    [
        # the count's guard runs before its product bound, which would overflow a float
        (["permitted-count", "--ensemble", "local-parallel", "--modes", "1000", "--depth", "100",
          "--photons", "200"], "enumeration guard"),
        (["permitted-count", "--ensemble", "local-parallel", "--modes", "1000", "--depth", "100",
          "--photons", "200", "--effective", "--lambda", "1", "--beta", "0.5"],
         "enumeration guard"),
        # a 100000 x 100000 Ginibre draw would need about 150 GiB
        (["density-fbs", "--ensemble", "haar", "--modes", "100000", "--photons", "2",
          "--samples", "2", "--buckets", "1"], "dense guard: a 100000 x 100000 matrix"),
        # 25 disjoint 2-mode cones: under the visit cap, but 2^25 rows of 25 bytes
        (["permitted-count", "--ensemble", "local-parallel", "--modes", "50", "--dim", "1",
          "--depth", "1", "--scheme", "fbs", "--photons", "25",
          "--input", ",".join(map(str, range(0, 50, 2)))], "byte budget"),
    ],
    ids=["fbs-count", "effective-count", "haar-draw", "fbs-count-bytes"],
)
def test_oversized_work_exits_3(tmp_path, capsys, argv, guard):
    out = tmp_path / "x.out"
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resource-guard"
    assert guard in err["detail"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "launch",
    [["-c", "import sys; from shallowbs.cli import main; sys.exit(main())"],
     ["-m", "shallowbs.cli"]],
    ids=["import-main", "run-module"],
)
def test_console_script_entry_point(tmp_path, launch):
    out = tmp_path / "th.json"
    proc = subprocess.run(
        [sys.executable, *launch,
         "thresholds", "--seed", "1", "--photons", "4", "--pairs", "2",
         "--gamma", "1.0", "--c-const", "1.0", "--lambda", "0.5",
         "--beta", "0.5", "--out", str(out)],
        env=_CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"fbs", "gbs"}


_CHAIN = ["--ensemble", "local-parallel", "--modes", "8", "--depth", "1"]
_NLHS = ["--ensemble", "nlhs", "--modes", "8", "--rounds", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # the library's refusal is the diagnostic; each id names the case as before
        pytest.param(_CHAIN + ["--photons", "2", "--input", "0,8"],
                     "input pattern (0, 8) out of range for 8 modes",
                     id="argv0-strictly increasing"),
        pytest.param(_CHAIN + ["--photons", "2", "--input", "5,1"],
                     "input pattern must be sorted, got (5, 1)", id="argv1-strictly increasing"),
        pytest.param(_CHAIN + ["--photons", "2", "--input", "3,3"],
                     "input pattern must be collision-free, got (3, 3)",
                     id="argv2-strictly increasing"),
        (_CHAIN + ["--photons", "3", "--input", "0,7"], "--photons is 3"),
        pytest.param(_CHAIN + ["--photons", "9"], "out of range for 8 modes",
                     id="argv4---photons 9 exceeds the 8 modes"),
        pytest.param(_CHAIN + ["--scheme", "gbs", "--pairs", "3", "--k-inputs", "2"],
                     "need 0 <= pairs <= 2 squeezed inputs, got pairs=3",
                     id="argv5---pairs 3 exceeds"),
        pytest.param(_CHAIN + ["--scheme", "gbs", "--pairs", "1", "--k-inputs", "9"],
                     "out of range for 8 modes", id="argv6---k-inputs 9 exceeds"),
        (_CHAIN + ["--scheme", "gbs", "--pairs", "1", "--k-inputs", "2", "--input", "0,1,2"],
         "--k-inputs is 2"),
        (_CHAIN + ["--scheme", "gbs", "--pairs", "1", "--squeeze", "0"],
         "unrecognized arguments: --squeeze"),
        pytest.param(_NLHS + ["--photons", "2", "--depth", "4"], "depth 4 outside [0, 3]",
                     id="argv9---depth must lie in [0, 3]"),
        (_CHAIN + ["--photons", "2", "--format", "csv"], "use --format json"),
        (_CHAIN + ["--photons", "2", "--dim", "0"], "--dim must be positive, got 0"),
        (_CHAIN + ["--photons", "2", "--threads", "0"], "--threads must be positive, got 0"),
        (_CHAIN + ["--scheme", "gbs", "--pairs", "1", "--photons", "0"],
         "--photons must be positive, got 0"),
        (_NLHS + ["--photons", "2", "--dim", "0"], "--dim must be positive, got 0"),
        # --k-inputs defaults to --modes, so three inputs on 8 modes are refused
        (_CHAIN + ["--scheme", "gbs", "--pairs", "1", "--input", "0,1,2"],
         "--input holds 3 modes but --modes is 8"),
    ],
)
def test_permitted_count_bad_input_exit_code(tmp_path, capsys, argv, message):
    out = tmp_path / "x.json"
    try:
        code = main(["permitted-count", "--seed", "1", "--out", str(out)] + argv)
    except SystemExit as exc:
        # argparse itself rejects a flag the experiment does not take
        code = exc.code
        assert message in capsys.readouterr().err
    else:
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
        assert any(message in d for d in err["diagnostics"]), err["diagnostics"]
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["permitted-count"] + _CHAIN + ["--photons", "2"], ["arch-info"] + _CHAIN,
     ["density-fbs", "--photons", "2"] + _CHAIN],
    ids=["permitted-count", "arch-info", "density-fbs"],
)
def test_refused_value_gives_one_diagnostic(tmp_path, capsys, argv):
    assert main(argv + ["--dim", "0", "--seed", "1", "--out", str(tmp_path / "x.out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["diagnostics"] == ["--dim must be positive, got 0"]


def test_library_and_cli_refusals_reported_together(tmp_path, capsys):
    argv = ["permitted-count", "--seed", "1", "--out", str(tmp_path / "x.json")]
    assert main(argv + _CHAIN + ["--photons", "2", "--input", "5,1", "--format", "csv"]) == 2
    diags = json.loads(capsys.readouterr().err)["diagnostics"]
    assert any("input pattern must be sorted, got (5, 1)" in d for d in diags), diags
    assert any("use --format json" in d for d in diags), diags


def test_nlhs_depth_checked_only_where_read(tmp_path):
    # arch-info ignores --depth on nlhs, so an out-of-range value still runs
    out = tmp_path / "arch.json"
    assert main(["arch-info", "--seed", "1", "--out", str(out)] + _NLHS + ["--depth", "5"]) == 0


def test_import_does_not_load_networkx():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, shallowbs, shallowbs.cli; print('networkx' in sys.modules, 'scipy' in sys.modules)"],
        env=_CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


_MISSING = object()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["arch-info", "--ensemble", "haar", "--modes", "4"], None,
         "arch-info needs a gate architecture; the haar ensemble has none"),
        (["permitted-count"] + _NLHS + ["--photons", "2", "--effective", "--lambda", "0.5",
                                        "--beta", "0.5"], None,
         "effective clipping requires the local-parallel ensemble"),
        (["permitted-count"] + _CHAIN + ["--scheme", "gbs", "--pairs", "1", "--effective",
                                         "--lambda", "0.5", "--beta", "0.5"], None,
         "effective clipping applies to the fbs scheme only"),
        (["density-gbs", "--ensemble", "haar", "--modes", "6", "--photons", "3"], None,
         "outcome must hold an even photon number, got 3"),
        (["density-fbs", "--ensemble", "haar", "--modes", "4", "--photons", "5"], None,
         "cannot place 5 collision-free photons in 4 modes"),
        (["density-fbs", "--ensemble", "haar", "--modes", "6", "--photons", "2",
          "--samples", "5", "--buckets", "6"], None,
         "bucket count must lie in [1, 5] for 5 samples, got 6"),
        (["page-curve", "--ensemble", "haar", "--modes", "1"], None,
         "need at least two modes for a bipartition, got 1"),
        (["frame-potential", "--ensemble", "haar", "--modes", "2", "--k-moment", "171",
          "--samples", "2"], None, "frame potential at k=171, M=2: k! or M^(2k) overflows a float"),
        (["frame-potential", "--ensemble", "haar", "--modes", "16", "--k-moment", "128",
          "--samples", "2"], None, "frame potential at k=128, M=16: k! or M^(2k) overflows a float"),
        (["hiding", "--kind", "gbs", "--modes", "8", "--photons", "3"], None,
         "outcome must hold an even photon number, got 3"),
        (["arch-info", "--ensemble", "local-parallel", "--modes", "8", "--dim", "2",
          "--depth", "2"], None, "--sides is required for lattices with dim > 1"),
        (["arch-info", "--ensemble", "local-parallel", "--modes", "8", "--depth", "0"], None,
         "--depth must be positive, got 0"),
        (["arch-info"], [1, 2], "config file: top level must be a JSON object"),
        (["arch-info"], _MISSING, "No such file or directory"),
    ],
    ids=["arch-info-haar", "effective-nlhs", "effective-gbs", "density-gbs-odd",
         "density-fbs-photons-over-modes", "buckets-over-samples", "page-curve-one-mode",
         "moment-factorial-overflow", "moment-trace-bound-overflow",
         "hiding-gbs-odd", "dim-without-sides", "depth-zero", "config-list", "config-missing"],
)
def test_invalid_config_diagnostics_exit_2(tmp_path, capsys, argv, config, message):
    out = tmp_path / "x.out"
    argv = argv + ["--seed", "1", "--out", str(out)]
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        if config is not _MISSING:
            cfg_file.write_text(json.dumps(config))
        argv += ["--config", str(cfg_file)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert any(message in d for d in err["diagnostics"]), err["diagnostics"]
    assert not out.exists()
    assert not (tmp_path / "x.out.manifest.json").exists()


_HIDING = ["hiding", "--seed", "1", "--kind", "fbs", "--modes", "4", "--photons", "2"]
_COUNT = ["permitted-count", "--seed", "1"] + _CHAIN + ["--photons", "2"]
_PAGE = ["page-curve", "--seed", "1", "--ensemble", "haar", "--modes", "4", "--samples", "2"]


@pytest.mark.parametrize(
    "file_cfg, argv, flag",
    [
        ({"samples": "abc"}, _HIDING, "--samples"),
        ({"samples": 2.7}, _HIDING, "--samples"),
        ({"modes": True}, ["hiding", "--seed", "1", "--kind", "fbs", "--photons", "2"], "--modes"),
        ({"effective": "no"}, _COUNT, "--effective"),
        ({"input": [0, "x"]}, _COUNT, "--input"),
        (None, _HIDING + ["--samples", "abc"], "--samples"),
        pytest.param(None, ["frame-potential", "--seed", "1", "--ensemble", "haar", "--modes",
                            "4", "--samples", "1"], "need at least two samples, got 1",
                     id="None-argv6---samples"),
        (None, _PAGE + ["--squeeze", "inf"], "--squeeze expects a finite number, got 'inf'"),
        ({"squeeze": float("inf")}, _PAGE, "--squeeze expects a finite number, got inf"),
        ({"squeeze": float("nan")}, _PAGE, "--squeeze expects a finite number, got nan"),
        (None, ["thresholds", "--seed", "1", "--photons", "4", "--c-const", "1", "--lambda", "1",
                "--beta", "0.5", "--gamma", "inf"], "--gamma expects a finite number"),
        (None, _COUNT + ["--effective", "--lambda", "inf", "--beta", "0.5"],
         "--lambda expects a finite number"),
        (None, _COUNT + ["--effective", "--lambda", "1e400", "--beta", "0.5"],
         "--lambda expects a finite number"),
        # finite settings whose closed forms overflow a float
        (None, ["permitted-count", "--seed", "1", "--ensemble", "local-parallel", "--modes", "8",
                "--depth", "2", "--photons", "3", "--effective", "--lambda", "1000",
                "--beta", "0.5"],
         "effective lightcone 2*n^lambda*depth/(beta*d) at n=3, lambda=1000.0 overflows a float"),
        (None, ["thresholds", "--seed", "1", "--photons", "4", "--gamma", "1e300", "--c-const",
                "1", "--lambda", "1", "--beta", "0.5"],
         "mode count c*n^gamma at n=4, gamma=1e+300, c=1.0 overflows a float"),
        (None, ["page-curve", "--seed", "1", "--ensemble", "nlhs", "--modes", "4", "--rounds",
                "1", "--samples", "2", "--squeeze", "400"],
         "squeezed variance exp(2r) at r=400.0 overflows a float"),
        # a page curve needs two samples for its standard errors
        (None, _PAGE[:-1] + ["1"], "need at least two samples, got 1"),
        # squeezing whose evolved covariance loses its determinant to float64 rounding
        (None, ["page-curve", "--seed", "1", "--ensemble", "nlhs", "--modes", "4", "--rounds",
                "1", "--samples", "2", "--squeeze", "10"], "past float64 precision"),
        (None, ["page-curve", "--seed", "1", "--ensemble", "nlhs", "--modes", "4", "--rounds",
                "1", "--samples", "2", "--squeeze", "300"], "past float64 precision"),
        (None, ["hiding", "--seed", "1", "--kind", "fbs", "--modes", "100000000000", "--photons",
                "30", "--samples", "2"],
         "hiding scale m^n at m=100000000000, n=30 overflows a float"),
    ],
)
def test_bad_setting_values_exit_2(tmp_path, capsys, file_cfg, argv, flag):
    out = tmp_path / "x.out"
    argv = argv + ["--out", str(out)]
    if file_cfg is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_cfg))
        argv += ["--config", str(cfg_file)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert any(flag in d for d in err["diagnostics"]), err["diagnostics"]
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "manifest-is-directory"])
def test_bad_out_path_exit_2(tmp_path, capsys, where):
    out = {
        "missing-directory": tmp_path / "missing" / "x.csv",
        "a-directory": tmp_path,
        "manifest-is-directory": tmp_path / "x.csv",
    }[where]
    (tmp_path / "x.csv.manifest.json").mkdir()
    assert main(_HIDING + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert any("--out" in d for d in err["diagnostics"]), err["diagnostics"]
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize(
    "experiment, file_cfg, key, expect",
    [
        ("hiding", {"samples": "30"}, "samples", 30),
        ("arch-info", {"sides": [2, 4]}, "sides", [2, 4]),
        ("permitted-count", {"effective": True}, "effective", True),
        ("page-curve", {"squeeze": 1}, "squeeze", 1.0),
    ],
)
def test_config_file_values_are_converted(tmp_path, experiment, file_cfg, key, expect):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(file_cfg))
    cfg, diags = resolve_config(experiment, parse([experiment, "--config", str(cfg_file)]))
    assert diags == []
    assert cfg[key] == expect
    assert type(cfg[key]) is type(expect)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_help_names_every_flag(capsys, experiment):
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("config", "seed", "out", "format", "threads") + EXPERIMENTS[experiment]["flags"]:
        assert f"--{flag}" in text


class _FailingFile:
    """A text file whose write stores half the text and then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", [1, 2], ids=["result", "manifest"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, failing):
    opened = []

    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        opened.append(path)
        return _FailingFile(fh) if len(opened) == failing else fh

    out = tmp_path / "x.csv"
    monkeypatch.setattr(shallowbs.cli, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        main(_HIDING + ["--out", str(out)])
    assert len(opened) == failing
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    assert main(_HIDING + ["--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.csv.manifest.json"]


_SWEEP_BASES = {
    "arch-info": [_CHAIN, _NLHS, ["--ensemble", "local-parallel", "--modes", "8", "--dim", "2",
                                  "--sides", "2,4", "--depth", "3"]],
    "permitted-count": [
        _CHAIN + ["--photons", "2", "--input", "0,4"],
        _NLHS + ["--scheme", "gbs", "--pairs", "1", "--k-inputs", "4", "--depth", "2"],
        _CHAIN + ["--photons", "2", "--effective", "--lambda", "0.5", "--beta", "0.5"],
        ["--ensemble", "local-parallel", "--modes", "8", "--dim", "2", "--sides", "2,4",
         "--depth", "2", "--photons", "2", "--effective", "--lambda", "1", "--beta", "0.5"],
    ],
    "density-fbs": [["--ensemble", "haar", "--modes", "4", "--photons", "2", "--samples", "6",
                     "--buckets", "3"], _NLHS + ["--photons", "2", "--samples", "4", "--buckets", "2"]],
    "density-gbs": [["--ensemble", "haar", "--modes", "4", "--photons", "2", "--samples", "6",
                     "--buckets", "3"], _CHAIN + ["--photons", "2", "--samples", "4", "--buckets", "2"]],
    "page-curve": [["--ensemble", "haar", "--modes", "4", "--samples", "3"],
                   ["--ensemble", "nlhs", "--modes", "4", "--rounds", "1", "--samples", "2"]],
    "frame-potential": [["--ensemble", "haar", "--modes", "3", "--samples", "4"],
                        _CHAIN + ["--samples", "3", "--k-moment", "1"]],
    "thresholds": [["--photons", "4", "--gamma", "1.5", "--c-const", "1", "--lambda", "0.5",
                    "--beta", "0.5"],
                   ["--photons", "3", "--pairs", "2", "--gamma", "1", "--c-const", "2",
                    "--dim", "2", "--lambda", "1", "--beta", "0.25"]],
    "hiding": [["--kind", "fbs", "--modes", "4", "--photons", "2", "--samples", "3"],
               ["--kind", "gbs", "--modes", "6", "--photons", "2", "--samples", "2"]],
}
# None drops the setting; --samples is never dropped, since its defaults take seconds
_SWEEP_VALUES = {
    "ensemble": ["local-parallel", "nlhs", "haar", None],
    "modes": ["1", "2", "4", "6", "8", None],
    "dim": ["0", "1", "2", None],
    "sides": ["2,2", "2,4", "4,2", "1,8", "8", "2,3", "", None],
    "depth": ["-1", "0", "1", "2", "3", "9", None],
    "rounds": ["0", "1", "2", None],
    "photons": ["0", "1", "2", "3", "9", None],
    "pairs": ["0", "1", "2", "5", None],
    "k-inputs": ["0", "1", "2", "4", "9", None],
    "input": ["0,1", "0,7", "1,0", "3,3", "0,9", "0,2,5", "", None],
    "scheme": ["fbs", "gbs", "bs", None],
    "effective": [True, None],
    "samples": ["1", "2", "6"],
    "buckets": ["1", "3", "8", None],
    "k-moment": ["0", "1", "2", None],
    "format": ["json", "csv", None],
    "threads": ["0", "1", None],
    "squeeze": ["0.3", "inf", "-inf", "nan", "0", "400", None],
    "lambda": ["0.5", "inf", "-inf", "nan", "0", "1000", "1e300", None],
    "beta": ["0.5", "inf", "nan", "1", "1e-300", None],
    "gamma": ["1", "2.5", "0.5", "1e300", "inf", None],
    "c-const": ["1", "0", "1e-300", "1e300", None],
    "kind": ["fbs", "gbs", "bs", None],
}


def sweep_argv(gen):
    """A random small configuration near a runnable one, as an argv for ``main``."""
    experiment = gen.choice(sorted(_SWEEP_BASES))
    base = gen.choice(_SWEEP_BASES[experiment])
    settings, i = {}, 0
    while i < len(base):
        if base[i] == "--effective":
            settings["effective"], i = True, i + 1
        else:
            settings[base[i][2:]], i = base[i + 1], i + 2
    takes = [f for f in EXPERIMENTS[experiment]["flags"] + ("format", "threads") if f in _SWEEP_VALUES]
    for flag in gen.sample(takes, gen.choice([0, 1, 1, 2])):
        settings[flag] = gen.choice(_SWEEP_VALUES[flag])
    for flag in ("squeeze", "lambda"):
        if flag in takes and gen.random() < 0.5:
            settings[flag] = gen.choice(["inf", settings.get(flag)])
    argv = [experiment]
    for flag, value in settings.items():
        if value is True:
            argv.append(f"--{flag}")
        elif value is not None:
            argv.append(f"--{flag}={value}")
    return argv


def test_random_settings_end_in_a_known_exit_code(tmp_path, capsys):
    gen = random.Random(2026)
    failures = []
    for i in range(300):
        out = tmp_path / f"run{i}.out"
        argv = sweep_argv(gen) + ["--seed", "1", "--out", str(out)]
        try:
            code = main(argv)
        except Exception as exc:  # every escape is a failure to report
            failures.append((argv, repr(exc)))
            continue
        written = out.exists() or (tmp_path / f"run{i}.out.manifest.json").exists()
        if code not in (0, 2, 3) or (code == 2 and written):
            failures.append((argv, code, written))
    capsys.readouterr()
    assert failures == []
