"""Command-line behavior: envelopes, formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from coarse_ends import (
    CoarseEndsError,
    CoreRadiusError,
    CoverVerificationError,
    ElementSyntaxError,
    EmptyShellError,
    Group,
    MismatchError,
    NonHyperbolicError,
    OutOfWindowError,
    ParameterError,
    SelectorError,
    SpecSyntaxError,
    UnsupportedSpecError,
    Window,
    WindowCapError,
    __version__,
    build_window,
    cli,
    covering_number,
    parse_spec,
    power_generators,
    standard_generators,
)
from coarse_ends.asdim import covering_samples
from coarse_ends.cayley import TABLE_ENTRIES
from coarse_ends.cli import main
from oracles import spec_spheres


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Envelope and formats


def test_json_envelope(capsys):
    code, out, _ = run_cli(capsys, ["ends", "--group", "Z", "--rmax", "3"])
    assert code == 0
    assert out.endswith("\n")
    doc = json.loads(out)
    assert doc["schema"] == "coarse-ends.report/1"
    assert doc["version"] == __version__
    assert doc["command"] == "ends"
    assert doc["seed"] == 0
    assert doc["warnings"] == []
    assert doc["config"]["group"] == "Z"
    assert doc["config"]["window"] == 10
    assert doc["config"]["rmax"] == 3
    assert doc["result"]["verdict"] == "Two"
    assert [row["outer"] for row in doc["result"]["counts"]] == [2, 2, 2]


def test_text_format_frozen(capsys):
    code, out, _ = run_cli(capsys, ["ends", "--group", "C6", "--format", "text"])
    assert code == 0
    assert out.splitlines() == [
        "group: C6",
        "verdict: Zero",
        "note: the window exhausts the group, which is therefore finite and has no ends",
        "window radius: 12",
        "r=1 outer=0 inner=1",
        "r=2 outer=0 inner=1",
        "r=3 outer=0 inner=1",
        "exhausted at r=4",
    ]


def test_csv_format_frozen(capsys):
    code, out, _ = run_cli(
        capsys, ["ends", "--group", "Z", "--rmax", "3", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == [
        "# cap=5000000",
        "# gen_power=1",
        "# group=Z",
        "# growth_span=3",
        "# rmax=3",
        "# seed=0",
        "# span=3",
        "# verdict=Two",
        "# window=10",
        "r,outer,inner",
        "1,2,0",
        "2,2,0",
        "3,2,0",
    ]


# Every command in every format, with --out, growth warnings and both clopen
# set sources, and the refusals and usage errors the package raises: argv,
# exit code, stdout sha256 (None: no stdout), and stderr after "coarse-ends: ".
# For --out the digest is of the file written. Frozen from the reports of the
# code before the commands shared one report builder; a row changes only
# with a deliberate report change.
_FROZEN = [
    ("ends --group Z --rmax 3", 0,
     "3fa59016e3ab23b6de2a1fefdc44b74fb78b85ee62f55638e22ba2d276b1e837", ""),
    ("ends --group Z --rmax 3 --format csv", 0,
     "704956b6361226402fbdc66432986dd3e44b84231cf84860e31fd54fd709c62b", ""),
    ("ends --group Z --rmax 3 --format text", 0,
     "bd1576143002fa9143cbc34953a0a40c4b008101b2e4808184bdc2a6d4045990", ""),
    ('ends --group "(C2 * C3)" --rmax 3 --seed 5', 0,
     "934266237bc366f8dab5f0ec8ab66993fb99dcf8396374a41e6998020198b700", ""),
    ('ends --group "(C2 * C3)" --rmax 3 --format csv --gen-power 2', 0,
     "f147bb3c0e7bfa894cd0013d22acf15bb7201d274d725a38106a6f96d4e27232", ""),
    ("ends --group Z^2 --rmax 2 --format text", 3,
     "83110b21a12163d8fb22d0bc8de34711bebceb91090428064b5e021d69489653", ""),
    ('ends --group "(Z x C8)" --format text', 3,
     "b0a8730f41e49387ac082637c73da1bb20d24502e866ce320b44c38296ac2379", ""),
    ('ends --group "(Z x C8)" --format csv', 3,
     "b5afbb43b69cef21851a69e8da0cfa91ca210c91d814d9a413b60cb85d064966", ""),
    # the radius-16 window holds all of C30 (diameter 15): Zero
    ("ends --group C30 --rmax 6", 0,
     "5cfbf12ea94a7945abe8b33a9316c7d4567e2e4c50adfe4184a41af90527d1d2", ""),
    ("tree --group F2 --rmax 2 --window 6", 3,
     "f0fffc4b07de629cd64d1daec03067edea784bc950a7fee289de58fb755aa5e3", ""),
    ("tree --group F2 --rmax 2 --window 6 --format csv", 3,
     "97bb0c0ccd4b1e63e7ae4eb5130c34b39eb07bdabe9091083429f6e6179e8a0b", ""),
    ("tree --group F2 --rmax 2 --window 6 --format text", 3,
     "e11d8bb0b45e74be40f319cccdb3e8730ad5add2533466db727f51fd689264f5", ""),
    ("tree --group F2 --rmax 2 --window 6 --format dot", 3,
     "6f2e53b251c36f05002b3d47a36057e10822871c5556da2a9435af45d1957be0", ""),
    ("tree --group Z --rmin 0 --rmax 2 --window 8 --format dot", 3,
     "28516e58e45b26b33d9ab4b2d505cb8476d4480e867959e37e661ebad542f31c", ""),
    ("clopen --group Z^2 --window 8 --tmax 1 --select component:r=1:index=0", 0,
     "f1a8c015c2e111cf9c15a5d6418f4f96f6700e1a9bebfe15d1043fb06cfe5a15", ""),
    ("clopen --group Z^2 --window 8 --tmax 1 --select component:r=1:index=0 --format csv", 0,
     "090bfadeb9557dff9dbb849057a02ad02bbe69ffda9d0fa638ad437835544fd3", ""),
    ("clopen --group Z^2 --window 8 --tmax 1 --select component:r=1:index=0 --format text", 0,
     "c9b60377c8658a358e52c249a62740539b5e9885f35c5d279f3479b03f64ce03", ""),
    ("clopen --group C6 --window 8 --tmax 3 --select component:r=1:index=0 --format text", 0,
     "be5dd33cd99e958c1068202941f79800dc8d296db6c04e3093e559396dbbe83d", ""),
    ("clopen --group Z --window 12 --tmax 2 --elements-file set.txt", 0,
     "e5bfebba1167d7de092388883ded95c826a7707cc2a2b32a8767f2ac9affdac5", ""),
    ("clopen --group Z --window 12 --tmax 2 --elements-file set.txt --format csv", 0,
     "aa240a8ffc6827f5a724dc467b4336aae147253327e4b2dfdfa3247e841c523d", ""),
    ("clopen --group Z --window 12 --tmax 2 --elements-file set.txt --format text", 0,
     "ff38d4ad76a1ffa6106b7a4f6d054d4bdf924f5461e09d1cc96a83bc7647632c", ""),
    ('growth --group "(C2 * C3)" --window 6', 0,
     "0d6464fda70b1b174a429624a591c34ab8090df6aca7f24af96e065d5431e56e", ""),
    ('growth --group "(C2 * C3)" --window 6 --format csv', 0,
     "3116277ce4e294d0caf23a1d9c40ce92927de260912e1f05e73d675b690730c9", ""),
    ('growth --group "(C2 * C3)" --window 6 --format text', 0,
     "c2591b5ae41a7e8aa90c23c8af7286addc23d1974238b16347b22df7c50bc929", ""),
    ("growth --group Z^2 --window 3 --gen-power 2 --seed -2 --format csv", 0,
     "44c432a18d6946c132730683d67e0b6251433245ee8708c79530dde916d72ad6", ""),
    ("growth --group Z --window 2 --cover-offsets 1,3", 0,
     "58dbf2518033b9a88a1d0f7ca627fcad9dafb0f6f01d0f37b0e4e3bd1800bcfc", ""),
    ("growth --group Z --window 2 --cover-offsets 1,3 --format csv", 0,
     "98e09e8eb27a16defb12dfdbc9a61f251140ffed362c3bf60500543d9d028711", ""),
    ("growth --group Z --window 2 --cover-offsets 1,3 --format text", 0,
     "8252e145916b679f776af0a3830015a93977c524abcb056b96e13dfee2ed49b7", ""),
    ("asdim --group Z --seed 3", 0,
     "c0086caee1b432832e2826f78cc27e5610729f718585a99ab85a7091e9359713", ""),
    ("asdim --group Z --seed 3 --format csv", 0,
     "92d70ce7bccf4a0b1d35034b73241a9837005fd419a5a75c4b2a9e64e4cfb0ce", ""),
    ("asdim --group Z --seed 3 --format text", 0,
     "205ff6c427f90f64840a9b6df5793906e9857ffe0d2401ea497c467cf18d977f", ""),
    ('asdim --group "(C2 * C3)" --window 12 --pair-budget 500 --n-list 2,3 --format text', 0,
     "7edf767f3ad393a2234b53a8d2933e3a5ce28ca829378811804a38c783c238bc", ""),
    # the three larger benchmark asdim jobs, and two direct products
    ("asdim --group F2 --window 9 --n-list 2 --pair-budget 4000 --seed 11", 0,
     "ae3cb4598185be9e7a2e193731985d1e4911c6947a3fb2c49776a33286f93dc3", ""),
    ('asdim --group "(C2 * C3)" --window 16 --pair-budget 4000 --seed 11', 0,
     "bda4d0cd8368fffa921526e50f3128b6d689abcdb7dad184146fe62390aedd7d", ""),
    ('asdim --group "(C2 * C2)" --window 30 --seed 11', 0,
     "04d8328c107f18a3481efccf5bbbda307652e61d5fa95b12130799bf0afffc84", ""),
    ('asdim --group "(Z x C2)"', 0,
     "761d2e1d2d7ba05e4c6a5823739457881232901809c93d4b7bfc8c99b3e2983e", ""),
    ('asdim --group "(Z x C3)" --gen-power 2', 0,
     "7f5c760059a3737697f3fbe09e7ec983337d6f3059eb11ea793c387b908fdd16", ""),
    # two annuli, so a cross multiplicity
    ("asdim --group F2 --window 8 --pair-budget 2000", 0,
     "74405872f7723be83e855ed297aa8476d61ef708e07d8d6110025ec9f25731be", ""),
    ("growth --group Z --window 4 --format csv --out report.csv", 0,
     "007d4eed33b686e66f26a79e301b14decde0d49fd1523b8f8bbd6ede0a4c876a", ""),
    ('tree --group "(C2 * C3)" --rmax 3 --format dot --out tree.dot', 0,
     "466932ef70416da53edece1d4d7e72a61dcbbfb68ff90d16abfa21a5271d0dcb", ""),
    # an outer sphere added in one step (every F2 step is odd), and one whose
    # C3 steps join elements of the sphere
    ("tree --group F2 --rmax 3 --window 8", 0,
     "9f8cd8de11b900c6162b04ff82c011ecea90c4c27a07ffddd4632ca8f3adffb5", ""),
    ('tree --group "(Z x C3)" --rmax 3 --format text', 3,
     "980afff84b8b4ff41c0b8f9f880f45b3f92dd6e089a0b6a2d578e669e73b3dee", ""),
    ('ends --group "(Z x C8)" --format text --out ends.txt', 3,
     "b0a8730f41e49387ac082637c73da1bb20d24502e866ce320b44c38296ac2379", ""),
    ("asdim --group Z --out report.json", 0,
     "a17f04294928566140e93f6b5f66da5ff88df03f173b582567d55909011363bf", ""),
    ("ends --group F2 --cap 100", 2, None,
     "resource cap: window element cap 100 exceeded; last fully built radius 3"),
    # the window is built, under its cap, before --rmax is checked against it
    ("ends --group F2 --rmax 9 --window 8 --cap 100", 2, None,
     "resource cap: window element cap 100 exceeded; last fully built radius 3"),
    ("ends --group Z^3 --rmax 3 --cap 3000", 2, None,
     "resource cap: window element cap 3000 exceeded; last fully built radius 12"),
    ("tree --group F2 --window 9 --cap 20000 --format dot", 2, None,
     "resource cap: window element cap 20000 exceeded; last fully built radius 8"),
    ("clopen --group Z^2 --window 22 --tmax 5 --select component:r=1:index=0 --cap 1100", 2, None,
     "resource cap: window element cap 1100 exceeded; last fully built radius 22"),
    ("growth --group F2 --window 8 --gen-power 3 --cap 1000", 2, None,
     "resource cap: window element cap 1000 exceeded; last fully built radius 1"),
    ("asdim --group Z^2 --window 8", 4, None,
     "refusing: geodesic divergence grows with the window (delta_hat [4, 6, 8] at radii [4, "
     "6, 8]); refusing"),
    # the probe at radius 8 is read off a window grown past radius 6
    ("asdim --group Z^2 --window 6", 4, None,
     "refusing: geodesic divergence grows with the window (delta_hat [4, 6, 8] at radii [4, "
     "6, 8]); refusing"),
    ("asdim --group Z^2 --window 8 --pair-budget 1 --seed 1", 4, None,
     "refusing: no sampled pair in the radius-8 window compares geodesics; pair budget 1 is "
     "too small"),
    ("asdim --group C6", 4, None,
     "refusing: the norm-4 sphere is empty; the group is exhausted"),
    ("clopen --group Z --window 0 --tmax 1 --select component:r=1:index=0", 4, None,
     "refusing: ball B(1) reaches past the radius-0 window"),
    ("clopen --group Z --window 6 --tmax 4 --select component:r=1:index=0 --format csv", 4, None,
     "refusing: window radius 6 cannot host a core at scale t=4"),
    ('ends --group "(Z x Z"', 1, None,
     "error: expected ')' (offset 6)"),
    ("ends --group Z^0 --format text", 1, None,
     "error: 'Z^' parameter must be at least 1 (offset 2)"),
    ("ends --group Z --cap 0", 1, None,
     "error: --cap must be at least 1, got 0"),
    ("ends --group Z --window -3", 1, None,
     "error: --window must be nonnegative, got -3"),
    ("ends --group Z --gen-power 0", 1, None,
     "error: --gen-power must be at least 1, got 0"),
    ("ends --group Z^2 --growth-span 1 --span 5", 1, None,
     "error: --growth-span must be at least 2, got 1"),
    ("tree --group Z --rmin 3 --rmax 2", 1, None,
     "error: --rmax must be at least 3, got 2"),
    ("clopen --group Z --select component:r=0:index=7", 1, None,
     "error: component index 7 does not resolve: only 1 components at r=0"),
    ("clopen --group Z --select shell:r=1", 1, None,
     "error: unknown selector 'shell:r=1'; expected component:r=<int>:index=<int>"),
    ("clopen --group Z --window 6 --tmax 1 --elements-file outside.txt", 1, None,
     "error: outside.txt:1: element '(99)' lies outside the window"),
    ("clopen --group Z --window 6 --tmax 1 --elements-file missing.txt", 1, None,
     "error: cannot read elements file: [Errno 2] No such file or directory: 'missing.txt'"),
    ("growth --group Z --cover-offsets x", 1, None,
     "error: --cover-offsets takes comma-separated integers, got 'x'"),
    ("growth --group Z --cover-offsets ,", 1, None,
     "error: --cover-offsets names no integer, got ','"),
    ("growth --group Z --window 4 --out missing/report.json", 1, None,
     "error: cannot write the report: [Errno 2] No such file or directory: "
     "'missing/report.json'"),
    ("asdim --group Z --n-list ,", 1, None,
     "error: --n-list names no integer, got ','"),
    ('asdim --group Z --n-list ""', 1, None,
     "error: --n-list names no integer, got ''"),
    ("asdim --group Z --p 0 --format csv", 1, None,
     "error: --p must be at least 1, got 0"),
]


def test_reports_frozen(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.txt").write_text("(1)\n(2)\n# a comment\n\n", encoding="utf-8")
    (tmp_path / "outside.txt").write_text("(99)\n", encoding="utf-8")
    for line, code, digest, err in _FROZEN:
        argv = shlex.split(line)
        got, out, stderr = run_cli(capsys, argv)
        if digest is None:
            assert (got, out, stderr) == (code, "", f"coarse-ends: {err}\n"), line
            continue
        if "--out" in argv:
            assert out == "", line
            out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (got, sha, stderr) == (code, digest, ""), line


def test_ends_result_frozen(capsys):
    code, out, _ = run_cli(capsys, ["ends", "--group", "Z^2", "--rmax", "4"])
    assert code == 0
    rows = [{"r": r, "outer": 1, "inner": 0} for r in range(1, 5)]
    assert json.loads(out)["result"] == {
        "verdict": "One",
        "note": "a single unbounded complementary component persists at every radius "
        "and survives window enlargement",
        "counts": rows,
        "recheck_counts": rows,
        "stab_span": 3,
        "growth_span": 3,
        "window_radius": 12,
        "recheck_radius": 16,
        "exhausted_at": None,
        "growth_flag": False,
        "stable": True,
        "anomaly": None,
    }


def test_clopen_result_frozen(capsys):
    code, out, _ = run_cli(
        capsys,
        ["clopen", "--group", "Z^2", "--window", "12", "--tmax", "2",
         "--select", "component:r=1:index=0"],
    )
    assert code == 0
    assert json.loads(out)["result"] == {
        "verdict": True,
        "affine_ok": True,
        "window_radius": 12,
        "enlarged_radius": 16,
        "entries": [
            {"scale_t": 1, "rho": 2, "core_radius": 10, "stable": True, "verdict": True},
            {"scale_t": 2, "rho": 4, "core_radius": 8, "stable": True, "verdict": True},
        ],
    }


def test_clopen_selector_stable_on_a_grown_window(capsys):
    # a component is labelled by the least printed element of its sphere-r
    # part, so the R + 4 window re-resolves each index to the same branch:
    # every branch of F2 is coarsely clopen, and the recheck agrees
    code, out, _ = run_cli(
        capsys,
        ["clopen", "--group", "F2", "--window", "6", "--tmax", "1",
         "--select", "component:r=2:index=0"],
    )
    assert code == 0
    result = {
        "verdict": True,
        "affine_ok": True,
        "window_radius": 6,
        "enlarged_radius": 10,
        "entries": [
            {"scale_t": 1, "rho": 3, "core_radius": 4, "stable": True, "verdict": True},
        ],
    }
    assert json.loads(out)["result"] == result
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "ab1005c301565d095f4b79ee74cca93e52620fdda00d45ed7c7eb0d2f4502ff1"
    )
    code, out, _ = run_cli(
        capsys,
        ["clopen", "--group", "F2", "--window", "6", "--tmax", "1",
         "--select", "component:r=2:index=0", "--format", "text"],
    )
    assert out.splitlines()[2:] == [
        "verdict: clopen-consistent",
        "t=1 rho=3 core=4 stable=true verdict=true",
    ]
    # the indexes whose label the old whole-component anchor moved
    for index in (1, 2, 6):
        code, out, _ = run_cli(
            capsys,
            ["clopen", "--group", "F2", "--window", "6", "--tmax", "1",
             "--select", f"component:r=2:index={index}"],
        )
        assert code == 0 and json.loads(out)["result"] == result


def test_clopen_scales_past_an_exhausted_window(capsys):
    # C6 has spheres 1, 2, 2, 1, so its radius-8 window is the group: every
    # scale from t = 3 on is the whole window, with core 8 - 2*3
    code, out, _ = run_cli(
        capsys,
        ["clopen", "--group", "C6", "--window", "8", "--tmax", "10",
         "--select", "component:r=1:index=0"],
    )
    assert code == 0
    entries = [
        {"scale_t": t, "rho": rho, "core_radius": core, "stable": True, "verdict": rho < core}
        for t, rho, core in [(1, 2, 6), (2, 3, 4)] + [(t, 2, 2) for t in range(3, 11)]
    ]
    assert json.loads(out)["result"] == {
        "verdict": False,
        "affine_ok": True,
        "window_radius": 8,
        "enlarged_radius": 12,
        "entries": entries,
    }


def test_clopen_refuses_a_scale_past_the_window(capsys):
    code, out, err = run_cli(
        capsys,
        ["clopen", "--group", "Z", "--window", "0", "--tmax", "1",
         "--select", "component:r=1:index=0"],
    )
    assert (code, out) == (4, "")
    assert err == "coarse-ends: refusing: ball B(1) reaches past the radius-0 window\n"


def test_asdim_result_frozen(capsys):
    def result(argv):
        code, out, _ = run_cli(capsys, ["asdim", *argv, "--pair-budget", "4000", "--seed", "1"])
        assert code == 0
        return json.loads(out)["result"]

    def annulus(n, net_size, max_diameter, max_multiplicity):
        return {"n": n, "net_size": net_size, "sets": net_size,
                "max_diameter": max_diameter, "max_multiplicity": max_multiplicity}

    common = {"delta_hat": 0, "delta": 2, "p": 1, "s": 1,
              "probe_radii": [4, 6, 8], "probe_values": [0, 0, 0]}
    assert result(["--group", "F2", "--window", "9", "--n-list", "2"]) == {
        **common,
        "N2delta": 108,
        "samples": [{"S": 4, "t": 4, "N": 108}, {"S": 5, "t": 4, "N": 108}],
        "annuli": [annulus(2, 108, 6, 3)],
        "cross_multiplicity": None,
        "bound": 215,
        "n_list": [2],
    }
    assert result(["--group", "(C2 * C3)", "--window", "16"]) == {
        **common,
        "N2delta": 8,
        "samples": [{"S": S, "t": 4, "N": 8} for S in range(4, 8)],
        "annuli": [annulus(n, 3 * 2 ** (n - 1), 5, 1) for n in range(2, 8)],
        "cross_multiplicity": 2,
        "bound": 15,
        "n_list": [2, 3, 4, 5, 6, 7],
    }


def test_asdim_p2_result_frozen(capsys):
    # p = 2 probes each annulus cover with balls of radius 2
    code, out, _ = run_cli(capsys, ["asdim", "--group", "Z", "--p", "2"])
    assert code == 0
    annulus = {"net_size": 2, "sets": 2, "max_diameter": 3, "max_multiplicity": 1}
    assert json.loads(out)["result"] == {
        "delta_hat": 0,
        "delta": 2,
        "N2delta": 2,
        "samples": [{"S": S, "t": 4, "N": 2} for S in range(4, 8)],
        "annuli": [{"n": 3, **annulus}, {"n": 5, **annulus}],
        "cross_multiplicity": 2,
        "bound": 3,
        "p": 2,
        "s": 1,
        "n_list": [3, 5],
        "probe_radii": [4, 6, 8],
        "probe_values": [0, 0, 0],
    }


def test_tree_dot_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["tree", "--group", "Z", "--rmax", "2", "--window", "8", "--format", "dot"],
    )
    assert code == 3  # two levels, fewer than the stabilization span: Undetermined
    assert out.startswith("digraph endtree {")
    assert out.endswith("}\n")
    assert out.count("->") == 2


def test_tree_json(capsys):
    code, out, _ = run_cli(capsys, ["tree", "--group", "F2", "--rmax", "2", "--window", "6"])
    assert code == 3
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "Undetermined"  # only two levels
    sizes = [len(lv["components"]) for lv in doc["result"]["levels"]]
    assert sizes == [4, 12]


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["growth", "--group", "Z", "--window", "6"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    path = tmp_path / "report.json"
    code2 = main(argv + ["--out", str(path)])
    captured = capsys.readouterr()
    assert code2 == 0 and captured.out == ""
    assert path.read_text(encoding="utf-8") == out


def test_growth_report(capsys):
    code, out, _ = run_cli(capsys, ["growth", "--group", "(C2 * C3)", "--window", "6"])
    assert code == 0
    doc = json.loads(out)
    balls = [row["ball"] for row in doc["result"]["rows"]]
    assert balls == [1, 4, 8, 14, 22, 34, 50]
    assert doc["result"]["bounded_geometry"] == 3
    offsets = {s["t"] for s in doc["result"]["covering"]}
    assert offsets == {1, 2}


def test_growth_small_window_warning(capsys):
    code, out, _ = run_cli(
        capsys, ["growth", "--group", "Z", "--window", "2", "--cover-offsets", "1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["bounded_geometry"] is None
    assert any("bounded-geometry" in w for w in doc["warnings"])


def test_growth_small_window_text_has_no_count(capsys):
    # the text report drops the count line, as the csv drops its row
    argv = ["growth", "--group", "Z", "--window", "2"]
    code, text, _ = run_cli(capsys, argv + ["--format", "text"])
    assert code == 0
    assert text == "group: Z\nr sphere ball\n0 1 1\n1 2 3\n2 2 5\n" + (
        "covering numbers (cover K^(S+t) by translates of K^S):\nS=1 t=1 N=2\n"
    )
    code, csv, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0 and "bounded_geometry" not in csv
    code, text, _ = run_cli(capsys, ["growth", "--group", "Z", "--window", "3", "--format", "text"])
    assert code == 0 and text.endswith("bounded geometry count: 2\n")


def _growth_fields(fmt, out):
    """(window, spheres, covering, bounded geometry) of a growth report;
    text prints no window, so it reads None there."""
    if fmt == "json":
        doc = json.loads(out)
        res = doc["result"]
        return (doc["config"]["window"], [row["sphere"] for row in res["rows"]],
                [(c["S"], c["t"], c["N"]) for c in res["covering"]], res["bounded_geometry"])
    lines = out.splitlines()
    if fmt == "csv":
        config = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        rows = [line.split(",") for line in lines[len(config) + 1 :]]
        bg = [int(row[1]) for row in rows if row[0] == "bounded_geometry"]
        return (int(config["window"]), [int(row[2]) for row in rows if row[0] == "sphere"],
                [tuple(map(int, row[1:])) for row in rows if row[0] == "covering"],
                bg[0] if bg else None)
    cut = lines.index("covering numbers (cover K^(S+t) by translates of K^S):")
    covering = [tuple(int(f.split("=")[1]) for f in line.split()) for line in lines[cut + 1 :]
                if line.startswith("S=")]
    bg = [int(line.split()[-1]) for line in lines if line.startswith("bounded geometry count")]
    return (None, [int(line.split()[1]) for line in lines[2:cut]], covering,
            bg[0] if bg else None)


@pytest.mark.parametrize("text", ["Z^2", "C5", "(C2 * C3)"])
@pytest.mark.parametrize("power", [1, 2])
def test_growth_reads_the_series_and_a_short_window(capsys, text, power):
    # rows come from the spec's series and the covering numbers from a window
    # of radius min(R, 2T + 3): both must read as on the full radius-R window.
    # C5 is exhausted at radius 2 (1 under K^2); R = 12 exceeds every 2T + 3 here
    spec = parse_spec(text)
    group = Group(spec)
    gens = standard_generators(group)
    if power > 1:
        gens = power_generators(group, gens, power)
    for radius in (0, 1, 2, 3, 5, 12):
        full = build_window(group, gens, radius)
        spheres = spec_spheres(spec, radius + 1, power)
        bg = covering_number(full, 1, 1) if radius >= 3 else None
        for offsets in ("1,2", "1,3", "2,1"):
            covering = [tuple(c) for t in map(int, offsets.split(","))
                        for c in covering_samples(full, t)]
            for fmt in ("json", "csv", "text"):
                code, out, _ = run_cli(capsys, [
                    "growth", "--group", text, "--window", str(radius), "--gen-power", str(power),
                    "--cover-offsets", offsets, "--format", fmt])
                want = (None if fmt == "text" else radius, spheres, covering, bg)
                assert (code, _growth_fields(fmt, out)) == (0, want), (radius, offsets, fmt)


def test_growth_cap_refusal_builds_nothing(capsys):
    # the series refuses F2's radius 40 at |B(14)| = 9,565,937 before any
    # window is built; the child's address space is far below what the
    # 3,188,645 words of B(13) would take
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from coarse_ends.cli import main\n"
        "sys.exit(main(['growth', '--group', 'F2', '--window', '40']))\n"
    )
    run = _python(["-c", code])
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr == (
        b"coarse-ends: resource cap: window element cap 5000000 exceeded; "
        b"last fully built radius 13\n"
    )
    # the group is bound before the series reads the cap: F26 needs more
    # letters than there are, whatever the cap
    code, out, err = run_cli(capsys, ["growth", "--group", "F26", "--cap", "10"])
    assert (code, out) == (1, "")
    assert err.startswith("coarse-ends: error: spec needs more than 25 generator letters")


def test_asdim_report(capsys):
    code, out, _ = run_cli(capsys, ["asdim", "--group", "Z"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["bound"] == 3
    assert doc["result"]["N2delta"] == 2
    assert doc["config"]["n_list"] == "2,3,4,5,6"
    assert doc["result"]["cross_multiplicity"] == 2


def test_clopen_selector(capsys):
    code, out, _ = run_cli(
        capsys,
        ["clopen", "--group", "Z", "--window", "12", "--tmax", "2",
         "--select", "component:r=1:index=1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] is True
    assert doc["result"]["enlarged_radius"] == 16
    assert [e["scale_t"] for e in doc["result"]["entries"]] == [1, 2]
    assert all(e["stable"] and e["verdict"] for e in doc["result"]["entries"])


def test_clopen_elements_file(capsys, tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("(1)\n(2)\n# a comment\n\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        ["clopen", "--group", "Z", "--window", "12", "--tmax", "2",
         "--elements-file", str(path)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] is True  # bounded sets are coarsely clopen
    assert doc["config"]["set"] == f"elements_file={path}"


def test_gen_power(capsys):
    code, out, _ = run_cli(capsys, ["ends", "--group", "Z", "--gen-power", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "Two"
    assert doc["config"]["gen_power"] == 2
    # at r=1 only the identity is removed and steps of size 2 jump the gap
    assert [row["outer"] for row in doc["result"]["counts"]] == [1, 2, 2, 2]


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_usage_errors(capsys):
    for argv in [
        ["ends", "--group", "(Z x Z"],
        ["ends", "--group", "Z^0"],
        ["clopen", "--group", "Z", "--select", "component:r=0:index=7"],
        ["clopen", "--group", "Z", "--select", "shell:r=1"],
        ["clopen", "--group", "Z", "--select", "component:r=1"],
    ]:
        code, out, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert "coarse-ends: error:" in err


def test_exit_usage_errors_elements_file(capsys, tmp_path):
    outside = tmp_path / "outside.txt"
    outside.write_text("(99)\n", encoding="utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_text("(x)\n", encoding="utf-8")
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"\xff\xfe(1)\n")
    for path in (outside, bad, tmp_path / "missing.txt", undecodable):
        code, _, err = run_cli(
            capsys,
            ["clopen", "--group", "Z", "--window", "12", "--elements-file", str(path)],
        )
        assert code == 1, path
        assert err.startswith("coarse-ends: error:")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("line", ["a99999999999999999999", "a10000000000"])
def test_long_free_run_lies_outside_the_window(tmp_path, line):
    # F2's radius-4 window holds no word of more than 4 letters, so a longer
    # run is refused before it is spelled: 10^20 letters cannot be spelled
    # at all, and 10^10 would not fit the child's address space
    path = tmp_path / "long.txt"
    path.write_text(line + "\n", encoding="utf-8")
    argv = ["clopen", "--group", "F2", "--window", "4", "--tmax", "1", "--elements-file", str(path)]
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from coarse_ends.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    run = _python(["-c", code])
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr.decode("utf-8") == (
        f"coarse-ends: error: {path}:1: element {line!r} lies outside the window\n"
    )
    # a cancelling spelling is read whatever its runs' lengths
    path.write_text("a10000000000A9999999999\n", encoding="utf-8")
    run = _python(["-c", code])
    assert (run.returncode, run.stderr) == (0, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--group", "Z", "--window", "4", "--cover-offsets", "x"],
        ["asdim", "--group", "Z", "--n-list", "1,a"],
        ["asdim", "--group", "Z", "--n-list", ","],
        ["growth", "--group", "Z", "--window", "4", "--out", "{missing}"],
        ["ends", "--group", "Z", "--window", "-3"],
        ["ends", "--group", "Z", "--gen-power", "0"],
        ["growth", "--group", "Z", "--window", "4", "--gen-power", "-2"],
        ["ends", "--group", "(Z * " * 600 + "Z" + ")" * 600],
        ["ends", "--group", "Z^2", "--growth-span", "1", "--span", "5"],
        ["ends", "--group", "Z", "--span", "0"],
        ["ends", "--group", "Z", "--span", "-1"],
        ["asdim", "--group", "Z^2", "--window", "8", "--pair-budget", "0"],
        ["asdim", "--group", "Z^2", "--window", "8", "--pair-budget", "-5"],
        ["ends", "--group", "Z", "--rmax", "0"],
        ["tree", "--group", "Z", "--rmin", "-1"],
        ["tree", "--group", "Z", "--rmin", "3", "--rmax", "2"],
        ["clopen", "--group", "Z", "--tmax", "0", "--select", "component:r=1:index=0"],
        ["asdim", "--group", "Z", "--p", "0"],
        ["asdim", "--group", "Z", "--s", "0"],
        ["growth", "--group", "Z", "--cover-offsets", "0"],
        ["ends", "--group", "Z", "--cap", "0"],
        ["ends", "--group", "Z", "--cap", "-1"],
        ["growth", "--group", "Z", "--cover-offsets", ","],
        ["asdim", "--group", "Z", "--n-list", ""],
    ],
    ids=["cover-offsets", "n-list", "n-list-empty", "out-dir", "negative-window", "gen-power-0",
         "gen-power-negative", "nested-spec", "growth-span-1", "span-0", "span-negative",
         "pair-budget-0", "pair-budget-negative", "rmax-0", "rmin-negative",
         "rmin-above-rmax", "tmax-0", "p-0", "s-0", "cover-offsets-0", "cap-0",
         "cap-negative", "cover-offsets-empty", "n-list-blank"],
)
def test_bad_flag_values_are_usage_errors(capsys, tmp_path, argv):
    argv = [a.replace("{missing}", str(tmp_path / "missing" / "f")) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("coarse-ends: error:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_cap(capsys):
    # Z^3: B(10) fits the cap, and growing the recheck window passes it after radius 12
    for argv, radius in [(["ends", "--group", "F2", "--cap", "1000"], 5),
                         (["ends", "--group", "Z^3", "--rmax", "3", "--cap", "3000"], 12)]:
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"coarse-ends: resource cap: window element cap {argv[-1]} exceeded; "
            f"last fully built radius {radius}\n"
        )


def test_exit_cap_before_a_large_step_set(capsys, monkeypatch):
    # B(1) is K^t, so a radius-1 window stops at the cap while K^t is formed
    # (K^6 of F2 has 1,457 elements); a radius-0 window needs no K^t to fit
    calls = []
    mul = Group.mul
    monkeypatch.setattr(Group, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    code, out, err = run_cli(capsys, ["growth", "--group", "F2", "--window", "1",
                                      "--gen-power", "6", "--cap", "10"])
    assert (code, out) == (2, "")
    assert err == "coarse-ends: resource cap: window element cap 10 exceeded; last fully built radius 0\n"
    assert len(calls) <= 5 * 10 * 5
    code, out, _ = run_cli(capsys, ["growth", "--group", "F2", "--window", "0",
                                    "--gen-power", "6", "--cap", "10"])
    assert code == 0
    assert json.loads(out)["result"]["rows"] == [{"r": 0, "sphere": 1, "ball": 1}]


def test_exit_cap_before_free_abelian_generators(capsys):
    # Z^k's 2k generator tuples hold 2k^2 coordinates, all built with the
    # group: (Z^2 x Z^3) holds 8 + 18, and a cap below that is refused
    argv = ["growth", "--group", "(Z^2 x Z^3)", "--window", "1", "--cover-offsets", "1"]
    code, _, _ = run_cli(capsys, argv + ["--cap", "26"])
    assert code == 0
    code, out, err = run_cli(capsys, argv + ["--cap", "25"])
    assert (code, out) == (2, "")
    assert err == "coarse-ends: resource cap: window element cap 25 exceeded; last fully built radius 0\n"
    # Z^100000's would hold 2*10^10: the child's address space is limited, so
    # a build that goes ahead fails there with a MemoryError, not here
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from coarse_ends.cli import main\n"
        "sys.exit(main(['ends', '--group', 'Z^100000']))\n"
    )
    run = _python(["-c", code])
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr == (
        b"coarse-ends: resource cap: window element cap 5000000 exceeded; last fully built radius 0\n"
    )


@pytest.mark.parametrize(
    "argv,key,value",
    [
        (["ends", "--group", "Z^2", "--rmax", "4"], "recheck_radius", 16),
        (["tree", "--group", "Z^2", "--rmax", "3"], None, None),
        (["clopen", "--group", "Z^2", "--window", "12", "--tmax", "2",
          "--select", "component:r=1:index=0"], "enlarged_radius", 16),
        (["clopen", "--group", "Z", "--window", "12", "--tmax", "2",
          "--elements-file", "{set}"], "enlarged_radius", 16),
        (["growth", "--group", "Z^2", "--window", "6"], None, None),
        (["asdim", "--group", "F2", "--window", "9", "--n-list", "2",
          "--pair-budget", "400"], "probe_radii", [4, 6, 8]),
    ],
    ids=["ends", "tree", "clopen", "clopen-file", "growth", "asdim"],
)
def test_one_search_per_command(capsys, monkeypatch, tmp_path, argv, key, value):
    path = tmp_path / "set.txt"
    path.write_text("(1)\n(2)\n", encoding="utf-8")
    argv = [a.replace("{set}", str(path)) for a in argv]
    calls, grown = [], []
    at = Window.at

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return build_window(*args, **kwargs)

    def counted_at(self, radius):
        grown.append((self.radius, radius))
        return at(self, radius)

    for name, module in list(sys.modules.items()):
        if name.startswith("coarse_ends") and getattr(module, "build_window", None) is build_window:
            monkeypatch.setattr(module, "build_window", counted)
    monkeypatch.setattr(Window, "at", counted_at)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(calls) == 1
    # every command that reads a neighbour has the search write the table
    assert calls[0].get("table", False) == (argv[0] in ("ends", "tree", "clopen"))
    if "--elements-file" in argv:
        # a fixed set grows no window past the one build_window seeds
        assert grown == [(0, 12)]
    if key is not None:  # the command did read a second radius
        assert json.loads(out)["result"][key] == value


def test_exit_undetermined(capsys):
    # the radius-14 window stops short of C30's diameter 15, so no sphere of
    # it is empty and no component reaches its boundary
    code, out, _ = run_cli(capsys, ["ends", "--group", "C30", "--rmax", "5", "--window", "14"])
    assert code == 3
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "Undetermined"


def test_exit_refusals(capsys):
    for argv in [
        ["asdim", "--group", "Z^2", "--window", "8"],
        ["clopen", "--group", "Z", "--window", "6", "--tmax", "4",
         "--select", "component:r=1:index=0"],
        ["asdim", "--group", "Z", "--n-list", "2,4"],
        ["asdim", "--group", "C6"],
    ]:
        code, out, err = run_cli(capsys, argv)
        assert code == 4, argv
        assert out == ""
        assert "coarse-ends: refusing:" in err


def test_asdim_refuses_an_empty_sample(capsys):
    code, out, err = run_cli(capsys, ["asdim", "--group", "Z^2", "--window", "8",
                                      "--pair-budget", "1", "--seed", "1"])
    assert (code, out) == (4, "")
    assert err == (
        "coarse-ends: refusing: no sampled pair in the radius-8 window compares"
        " geodesics; pair budget 1 is too small\n"
    )


# The exit code and stderr label of every deliberate error type. Each
# class defined by the package must appear here exactly once.
_EXIT_POLICY = [
    (cli._ArgumentError("flag"), 1, "error"),
    (SpecSyntaxError("spec", 3), 1, "error"),
    (ElementSyntaxError("element"), 1, "error"),
    (SelectorError("selector"), 1, "error"),
    (UnsupportedSpecError("letters"), 1, "error"),
    (MismatchError("payload"), 1, "error"),
    (WindowCapError(100, 2), 2, "resource cap"),
    (NonHyperbolicError((4, 6, 8), (1, 2, 3)), 4, "refusing"),
    (EmptyShellError("shell"), 4, "refusing"),
    (ParameterError("parameter"), 4, "refusing"),
    (CoreRadiusError("core"), 4, "refusing"),
    (OutOfWindowError("window"), 4, "refusing"),
    (CoverVerificationError("cover"), 4, "refusing"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_code_policy(capsys, monkeypatch):
    assert sorted(type(e).__name__ for e, _, _ in _EXIT_POLICY) == sorted(
        c.__name__ for c in _subclasses(CoarseEndsError)
    )
    for exc, code, label in _EXIT_POLICY:
        def command(args, _exc=exc):
            raise _exc

        monkeypatch.setitem(cli._DISPATCH, "growth", command)
        assert run_cli(capsys, ["growth", "--group", "Z"]) == (
            code, "", f"coarse-ends: {label}: {exc}\n"
        ), type(exc).__name__


def test_argparse_exits(capsys, tmp_path, monkeypatch):
    assert main(["--version"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"coarse-ends {__version__}\n"
    assert main([]) == 1
    capsys.readouterr()
    assert main(["ends"]) == 1  # --group is required
    capsys.readouterr()
    assert main(["frobnicate", "--group", "Z"]) == 1
    capsys.readouterr()
    # the window cache is gone: its flag is unknown and its variable is ignored
    assert main(["ends", "--group", "Z", "--cache-dir", str(tmp_path)]) == 1
    capsys.readouterr()
    code, plain, _ = run_cli(capsys, ["ends", "--group", "Z"])
    assert code == 0
    monkeypatch.setenv("COARSE_ENDS_CACHE", str(tmp_path))
    code, with_env, _ = run_cli(capsys, ["ends", "--group", "Z"])
    assert code == 0
    assert with_env == plain
    assert list(tmp_path.iterdir()) == []


# Every flag value is drawn small: the window is always given and at most 6,
# and the cap is at most 3000, so even a default probe or recheck window
# stops at the cap instead of growing. Drawn values are mostly valid; one
# optional fragment at the end overrides a flag with a bad value.
_SELECTORS = ["component:r=1:index=0", "component:r=2:index=1", "component:r=0:index=9"]
# the text of an elements file: letter runs with exponents up to 10^20, which
# the test writes to a file whose path replaces the text in argv
_RUN = st.tuples(st.sampled_from("aAbBc"),
                 st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20)))
_ELEMENT_LINES = st.lists(
    st.one_of(st.lists(_RUN.map(lambda run: f"{run[0]}{run[1]}"), min_size=1, max_size=3)
              .map("".join),
              st.sampled_from(["e", "(1)", "(1,0)", "a.b", "(a,e)"])),
    min_size=1, max_size=3,
).map("\n".join)


def _num(lo, hi):
    return st.integers(lo, hi).map(str)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


_COMMON = [
    st.sampled_from(["Z", "Z^2", "F2", "C6", "(C2 * C3)", "(Z x C2)"]).map(
        lambda g: ["--group", g]
    ),
    _num(0, 6).map(lambda v: ["--window", v]),
    st.sampled_from(["40", "400", "3000"]).map(lambda v: ["--cap", v]),
    _flag("--gen-power", _num(1, 3)),
    _flag("--format", st.sampled_from(["json", "csv", "text"])),
    _flag("--seed", _num(-3, 3)),
]
_COMMAND_FLAGS = {
    "ends": [_flag("--rmax", _num(1, 5)), _flag("--span", _num(1, 4)),
             _flag("--growth-span", _num(2, 4))],
    "tree": [_flag("--rmin", _num(1, 5)), _flag("--rmax", _num(1, 5)),
             _flag("--format", st.just("dot"))],
    "clopen": [_flag("--tmax", _num(1, 3)),
               st.one_of(st.sampled_from(_SELECTORS).map(lambda v: ["--select", v]),
                         _ELEMENT_LINES.map(lambda text: ["--elements-file", text]))],
    "growth": [_flag("--cover-offsets", st.sampled_from(["1", "1,2", "2,3"]))],
    "asdim": [_flag("--p", _num(1, 2)), _flag("--s", _num(1, 2)),
              _flag("--n-list", st.sampled_from(["2", "2,3", "3"])),
              _flag("--pair-budget", _num(1, 200))],
}
_OVERRIDE = st.one_of(st.just([]), st.tuples(
    st.sampled_from(["--group", "--window", "--cap", "--gen-power", "--format", "--rmin",
                     "--rmax", "--span", "--growth-span", "--tmax", "--select",
                     "--cover-offsets", "--p", "--s", "--n-list", "--pair-budget", "--bogus"]),
    st.sampled_from(["-1", "0", "x", "", "1,a", "1.5", "Z^", "(Z", "Q7", "dot", "xml",
                     "component:r=1", "shell:r=1"]),
).map(list))


def _argv():
    return st.sampled_from(sorted(_COMMAND_FLAGS)).flatmap(
        lambda cmd: st.tuples(*_COMMON, *_COMMAND_FLAGS[cmd], _OVERRIDE).map(
            lambda parts: [cmd] + [a for part in parts for a in part]
        )
    )


@settings(max_examples=150, deadline=None)
@given(_argv())
@example(["clopen", "--group", "F2", "--window", "4", "--elements-file", "a99999999999999999999"])
def test_any_argv_maps_to_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if "--elements-file" in argv:
            i = argv.index("--elements-file") + 1
            path = Path(tmp) / "elements.txt"
            path.write_text(argv[i] + "\n", encoding="utf-8")
            argv = argv[:i] + [str(path)] + argv[i + 1 :]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    if code not in (0, 3):
        assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# Determinism across processes


def _python(args, **env):
    return subprocess.run(
        [sys.executable] + args,
        capture_output=True,
        timeout=120,
        env={**os.environ, **env},
    )


def _spawn(argv, **env):
    return _python(["-m", "coarse_ends"] + argv, **env)


def test_subprocess_byte_identical():
    argv = ["ends", "--group", "(C2 * C3)", "--rmax", "5"]
    a = _spawn(argv)
    b = _spawn(argv)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"\n")
    doc = json.loads(a.stdout.decode("utf-8"))
    assert doc["result"]["verdict"] == "Infinite"


def test_subprocess_asdim_seeded():
    argv = ["asdim", "--group", "Z", "--seed", "7", "--format", "csv"]
    a = _spawn(argv)
    b = _spawn(argv)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert b"# seed=7" in a.stdout


@pytest.mark.parametrize("group", ["F2", "(C2 * C3)"])
def test_subprocess_refusal_ignores_hash_seed(group):
    # a radius-0 window holds no generator; the refusal must not name one
    # picked by set order, which for string payloads follows the hash seed
    # (seeds 0 and 2 put different F2 generators first)
    argv = ["clopen", "--group", group, "--window", "0", "--tmax", "1",
            "--select", "component:r=1:index=0"]
    runs = [_spawn(argv, PYTHONHASHSEED=seed) for seed in ("0", "1", "2")]
    assert {(r.returncode, r.stdout, r.stderr) for r in runs} == {
        (4, b"", b"coarse-ends: refusing: ball B(1) reaches past the radius-0 window\n")
    }


@pytest.mark.parametrize("argv,radius", [
    # 354,292 columns from radius 1 on
    (["ends", "--group", "F2", "--gen-power", "11"], 0),
    # B(2) has 180,601 rows of 600 entries, and Z^1000's would hold 2,000 each
    (["ends", "--group", "Z^300", "--rmax", "1"], 1),
    (["ends", "--group", "Z^1000", "--rmax", "1"], 1),
])
def test_table_entry_budget_refuses_before_allocating(argv, radius):
    # each table fits the element cap but not a 1.5 GB address space: the
    # search refuses it where its columns would pass the entry budget
    limit = 1_500_000 * 1024

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    run = subprocess.run([sys.executable, "-m", "coarse_ends"] + argv, capture_output=True,
                         timeout=120, preexec_fn=limited)
    assert (run.returncode, run.stdout, run.stderr.decode("utf-8")) == (2, b"", (
        f"coarse-ends: resource cap: generator table entry budget {TABLE_ENTRIES} exceeded;"
        f" last fully built radius {radius}\n"))


def test_greedy_cover_refusal_ignores_hash_seed():
    # the first target element outside the window is named, not the first in
    # set order (seeds 0 and 1 put abab and aaaa first)
    code = (
        "from coarse_ends import Group, build_window, greedy_ball_cover, parse_spec,"
        " standard_generators\n"
        "grp = Group(parse_spec('F2'))\n"
        "window = build_window(grp, standard_generators(grp), 2)\n"
        "target = [grp.parse(t) for t in ('a', 'aaaa', 'bbbb', 'abab')]\n"
        "greedy_ball_cover(window, target, 1)\n"
    )
    runs = [_python(["-c", code], PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [r.returncode for r in runs] == [1, 1]
    for run in runs:
        last = run.stderr.decode("utf-8").splitlines()[-1]
        assert last == (
            "coarse_ends.errors.OutOfWindowError: element a4 lies outside the radius-2 window"
        )


# ---------------------------------------------------------------------------
# Package surface


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "Two"


def test_public_names_resolve():
    # a deleted name must leave no export behind
    import coarse_ends
    from coarse_ends import asdim, cayley, covers, ends, errors, groups

    for module in (coarse_ends, groups, cayley, ends, covers, asdim, errors):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    assert set(coarse_ends.__all__) == {
        "AnnulusCover", "AsdimWitness", "ClopenCertificate", "CoarseEndsError", "Component",
        "ComponentDecomposition", "CoreRadiusError", "CoverStats", "CoverVerificationError",
        "CoveringSample", "Cyclic", "DEFAULT_CAP", "DirectProduct", "ElementSyntaxError",
        "EmptyShellError", "EndEvidence", "EndTree", "EndVerdict", "Free", "FreeAbelian",
        "FreeProduct", "Group", "GrowthRow", "InterfaceReport", "MismatchError",
        "NonHyperbolicError", "OutOfWindowError", "ParameterError", "RadiusCount",
        "ScaleEntry", "SelectorError", "SpecSyntaxError", "TreeLevel", "TreeNode",
        "UnsupportedSpecError", "Window", "WindowCapError", "asdim_upper_bound",
        "build_annulus_cover", "build_window", "classify_counts", "clopen_scale_test",
        "component_tree", "components", "covering_number", "end_count", "estimate_delta",
        "greedy_ball_cover", "growth_series", "interface", "parse_spec", "power_generators",
        "spec_to_string", "standard_generators", "verify_cover",
    }
    assert len(coarse_ends.__all__) == 55


def test_records_are_read_only_named_tuples():
    # every value record, spec nodes included, is a named tuple: no field can
    # be set and no attribute added. Window and AnnulusCover keep caches, so
    # they are plain classes.
    import coarse_ends

    public = [getattr(coarse_ends, name) for name in coarse_ends.__all__]
    records = [cls for cls in public if isinstance(cls, type) and issubclass(cls, tuple)]
    assert len(records) == 20
    for cls in records:
        record = cls._make(range(len(cls._fields)))
        assert record._asdict() == dict(zip(cls._fields, range(len(cls._fields))))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], -1)
        with pytest.raises(AttributeError):
            record.extra = -1


def test_cli_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter pays for each module the CLI imports: dataclasses
    # compiles several methods per class it decorates, and imports inspect
    code = "import sys, coarse_ends.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    run = _python(["-c", code])
    assert (run.returncode, run.stdout, run.stderr) == (0, b"[]\n", b"")
