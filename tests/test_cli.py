"""Command-line behavior: envelopes, formats, exit codes, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from coarse_ends import __version__
from coarse_ends.cli import main


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


def test_tree_dot_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["tree", "--group", "Z", "--rmax", "2", "--window", "8", "--format", "dot"],
    )
    assert code == 0
    assert out.startswith("digraph endtree {")
    assert out.endswith("}\n")
    assert out.count("->") == 2


def test_tree_json(capsys):
    code, out, _ = run_cli(capsys, ["tree", "--group", "F2", "--rmax", "2", "--window", "6"])
    assert code == 0
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
    for path in (outside, bad, tmp_path / "missing.txt"):
        code, _, err = run_cli(
            capsys,
            ["clopen", "--group", "Z", "--window", "12", "--elements-file", str(path)],
        )
        assert code == 1, path
        assert "coarse-ends: error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--group", "Z", "--window", "4", "--cover-offsets", "x"],
        ["asdim", "--group", "Z", "--n-list", "1,a"],
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
    ],
    ids=["cover-offsets", "n-list", "out-dir", "negative-window", "gen-power-0",
         "gen-power-negative", "nested-spec", "growth-span-1", "span-0", "span-negative",
         "pair-budget-0", "pair-budget-negative", "rmax-0", "rmin-negative",
         "rmin-above-rmax", "tmax-0", "p-0", "s-0", "cover-offsets-0", "cap-0",
         "cap-negative"],
)
def test_bad_flag_values_are_usage_errors(capsys, tmp_path, argv):
    argv = [a.replace("{missing}", str(tmp_path / "missing" / "f")) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("coarse-ends: error:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_cap(capsys):
    code, out, err = run_cli(capsys, ["ends", "--group", "F2", "--cap", "1000"])
    assert code == 2
    assert out == ""
    assert "resource cap" in err and "1000" in err


def test_exit_undetermined(capsys):
    code, out, _ = run_cli(capsys, ["ends", "--group", "C30", "--rmax", "6"])
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
               st.sampled_from(_SELECTORS).map(lambda v: ["--select", v])],
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
def test_any_argv_maps_to_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    if code not in (0, 3):
        assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# Determinism across processes


def _spawn(argv):
    return subprocess.run(
        [sys.executable, "-m", "coarse_ends"] + argv,
        capture_output=True,
        timeout=120,
    )


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
