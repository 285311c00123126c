"""Command-line behavior: envelopes, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from coarse_ends import __version__
from coarse_ends.cli import main


@pytest.fixture(autouse=True)
def _no_cache_env(monkeypatch):
    monkeypatch.delenv("COARSE_ENDS_CACHE", raising=False)


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
    ],
    ids=["cover-offsets", "n-list", "out-dir", "negative-window", "gen-power-0",
         "gen-power-negative", "nested-spec"],
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


def test_argparse_exits(capsys):
    assert main(["--version"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"coarse-ends {__version__}\n"
    assert main([]) == 1
    capsys.readouterr()
    assert main(["ends"]) == 1  # --group is required
    capsys.readouterr()
    assert main(["frobnicate", "--group", "Z"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Cache wiring


def test_cache_dir_flag(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["ends", "--group", "Z", "--cache-dir", str(cache)]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    files = list(cache.glob("window-*.json.gz"))
    assert files  # both the base and the recheck window land here
    code, second, _ = run_cli(capsys, argv)
    assert code == 0 and second == first


def test_cache_env_overrides_flag(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("COARSE_ENDS_CACHE", str(env_dir))
    code, _, _ = run_cli(
        capsys, ["ends", "--group", "Z", "--cache-dir", str(flag_dir)]
    )
    assert code == 0
    assert list(env_dir.glob("window-*.json.gz"))
    assert not flag_dir.exists()


# ---------------------------------------------------------------------------
# Determinism across processes


def _spawn(argv):
    env = dict(os.environ)
    env.pop("COARSE_ENDS_CACHE", None)
    return subprocess.run(
        [sys.executable, "-m", "coarse_ends"] + argv,
        capture_output=True,
        env=env,
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
