"""CLI surface: exit codes, report structure, file round-trips, determinism."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from erdosrogers import Hypergraph, build_complete, build_h
from erdosrogers import cli
from erdosrogers.cli import run
from erdosrogers.hgio import load_hg, save_hg
from conftest import random_hypergraph, tight_c5_minus_edge, tight_cycle


HOSTS = {
    "k33": build_complete(3, 3),
    "k34": build_complete(3, 4),
    "h32": build_h(3, 2),
    "tc5": tight_c5_minus_edge(),
    "k312": build_complete(3, 12),
    "m2": Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5))),
    # 40 vertices, 87 triples: about a third of its 8-sets hold one.
    "r40": random_hypergraph(random.Random(40), 3, 40, p=0.01),
    # The exponents' 16 covered vertices (VERTEX_ENUM_CAP), then one more.
    # Two disjoint K^3_8 tie between two 8-vertex witnesses.
    "tc16": tight_cycle(3, 16),
    "k38x2": Hypergraph(3, 16, tuple(
        e for e in itertools.combinations(range(16), 3) if max(e) < 8 or min(e) > 7
    )),
    "tc17": tight_cycle(3, 17),
}

# Per invocation: argv (paths relative to the directory holding HOSTS), the
# exit code, the SHA-256 of every file it writes (files; absent: none), and
# the whole report without wall_time_ms (null: no report).
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, h in HOSTS.items():
        path = str(tmp_path / f"{name}.hg")
        save_hg(h, path)
        paths[name] = path
    paths["dir"] = tmp_path
    return paths


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    report = json.loads(out) if out else None
    # The report's bytes are those json.dumps(..., indent=2) writes.
    assert out == ("" if report is None else json.dumps(report, indent=2) + "\n")
    return code, report


def test_shadow(files, capsys):
    code, report = run_json(capsys, ["shadow", files["h32"], "-k", "2"])
    assert code == 0
    assert report["result"]["hypergraph"]["edges"] == [
        [0, 1], [0, 2], [0, 3], [1, 2], [1, 3]
    ]


def test_hom_exit_codes(files, capsys):
    code, report = run_json(capsys, ["hom", files["h32"], files["k33"]])
    assert code == 0 and report["result"]["found"]
    code, report = run_json(capsys, ["hom", files["k34"], files["k33"]])
    assert code == 1 and not report["result"]["found"]


def test_shadow_hom_golden(files, capsys):
    code, report = run_json(capsys, ["shadow-hom", files["tc5"], files["k33"], "-k", "2"])
    assert code == 0 and report["result"]["found"]
    assert report["result"]["witness"]["k"] == 2
    code, report = run_json(capsys, ["shadow-hom", files["k34"], files["k33"], "-k", "2"])
    assert code == 1 and not report["result"]["found"]


def test_tight(files, capsys):
    code, report = run_json(capsys, ["tight", files["tc5"], "-k", "2"])
    assert code == 0 and len(report["result"]["order"]) == 4


def test_blowup_member(files, capsys):
    code, report = run_json(
        capsys, ["blowup-member", files["k34"], files["k33"], "--max-steps", "2"]
    )
    assert code == 1 and not report["result"]["found"]


def test_alpha_beta_print_rationals(files, capsys):
    code, report = run_json(capsys, ["alpha", files["k33"]])
    assert code == 0 and report["result"]["value"] == "2/1"
    code, report = run_json(capsys, ["alpha", files["k34"]])
    assert report["result"]["value"] == "7/3"
    code, report = run_json(capsys, ["beta", files["k33"]])
    assert report["result"]["value"] == "3/2"


def test_construct_round_trip(files, capsys):
    out = str(files["dir"] / "h.hg")
    cert = str(files["dir"] / "cert.json")
    code, report = run_json(
        capsys,
        ["construct", "coloring", "-n", "16", "-F", files["k33"],
         "--seed", "3", "-o", out, "--cert", cert],
    )
    assert code == 0
    assert report["seed"] == 3
    written = load_hg(out)
    assert written == Hypergraph(3, 16, tuple(
        tuple(e) for e in report["result"]["hypergraph"]["edges"]
    ))
    with open(cert) as fobj:
        assert json.load(fobj)["ell"] == report["result"]["ell"]
    # CLI verification of the written file matches the in-process result
    from erdosrogers import contains_copy
    in_process_free = contains_copy(written, build_complete(3, 4)) is None
    code, report = run_json(capsys, ["verify-gfree", out, files["k34"]])
    assert report["result"]["g_free"] == in_process_free
    assert code == 0 and report["result"]["g_free"]


def test_verify_gfree_violation(files, capsys):
    code, report = run_json(capsys, ["verify-gfree", files["k34"], files["k33"]])
    assert code == 1 and not report["result"]["g_free"]
    assert report["result"]["violation"]["images"]


def test_cover(files, capsys):
    code, report = run_json(
        capsys,
        ["cover", files["k312"], files["k33"], "-w", "3", "--trials", "20",
         "--seed", "9"],
    )
    assert code == 0 and report["result"]["fraction"] == 1.0


def test_extract(files, capsys):
    code, report = run_json(
        capsys, ["extract", files["k312"], files["k33"], "--steps", "0"]
    )
    assert code == 0 and report["result"]["found"]
    assert len(report["result"]["embedding"]["images"]) == 5


def test_maxfree(files, capsys):
    code, report = run_json(capsys, ["maxfree", files["k34"], files["k33"]])
    assert code == 0 and report["result"]["size"] == 2


def test_f_exact(files, capsys):
    code, report = run_json(
        capsys, ["f-exact", files["k33"], files["k34"], "-n", "4"]
    )
    assert code == 0 and report["result"]["value"] == 3


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_golden_report(files, capsys, monkeypatch, case):
    monkeypatch.chdir(files["dir"])
    inputs = set(files["dir"].iterdir())
    code, report = run_json(capsys, case["argv"])
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in set(files["dir"].iterdir()) - inputs
    }
    assert written == case.get("files", {})
    if report is not None:
        assert report.pop("wall_time_ms") >= 0
    assert code == case["code"]
    assert report == case["report"]
    # key order too: the report's keys, the inputs echo and every nested object
    assert json.dumps(report) == json.dumps(case["report"])


def test_usage_error_exit_2(capsys):
    assert run(["shadow"]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_malformed_file_exit_2(files, capsys, tmp_path):
    bad = str(tmp_path / "bad.hg")
    with open(bad, "w") as fobj:
        fobj.write("3 4\n0 1\n")
    assert run(["shadow", bad, "-k", "2"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_non_integer_json_vertex_exit_2(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fobj:
        json.dump({"r": 3, "n": 4, "edges": [[0, 1, 2.5]]}, fobj)
    assert run(["shadow", bad, "-k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and "2.5" in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("list.json", "[1, 2]"),
        ("no-edges.json", '{\n  "r": 3,\n  "n": 4\n}'),
        ("r0.hg", "0 4\n"),
    ],
    ids=["list", "no-edges", "r0"],
)
def test_hypergraph_errors_name_line_1(tmp_path, capsys, name, text):
    # Errors of the whole hypergraph, not of one .hg edge line, name line 1.
    bad = tmp_path / name
    bad.write_text(text)
    assert run(["shadow", str(bad), "-k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("suffix", [".hg", ".json"])
def test_non_utf8_file_exit_2(tmp_path, capsys, suffix):
    bad = tmp_path / f"bad{suffix}"
    bad.write_bytes(b"3 4\n\xff\xfe\n")
    assert run(["shadow", str(bad), "-k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: not UTF-8")
    assert captured.err.count("\n") == 1


def test_missing_file_exit_2(files, capsys):
    missing = str(files["dir"] / "missing.hg")
    # The only file, and the second of two after the first has loaded.
    for argv in (["shadow", missing, "-k", "2"], ["hom", files["k33"], missing]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing.hg" in captured.err


def test_files_load_in_declared_order(tmp_path, capsys):
    # Both files are malformed; the error is G's, the first file hom declares.
    bad_g, bad_f = str(tmp_path / "bad_g.hg"), str(tmp_path / "bad_f.hg")
    Path(bad_g).write_text("3 4\n0 1 2\n0 1\n")
    Path(bad_f).write_text("3 4\n0 1\n")
    assert run(["hom", bad_g, bad_f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 3")


def test_crash_while_loading_exit_4(files, capsys, monkeypatch):
    def boom(*args):
        raise RecursionError("boom")

    monkeypatch.setattr(cli.hgio, "parse_hg", boom)
    assert run(["hom", files["k33"], files["k34"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RecursionError")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "k312", "k33", "--steps", "0,x"],
        ["construct", "coloring", "-n", "8", "-F", "k33", "--seed", "1", "--c1", "abc"],
        ["construct", "coloring", "-n", "8", "-F", "k33", "--seed", "1", "--c1", "1/0"],
        ["construct", "coloring", "-n", "8", "-F", "k33", "--seed", "1", "--c1", "nan"],
    ],
    ids=["steps-not-int", "c1-not-rational", "c1-zero-denominator", "c1-nan"],
)
def test_malformed_argument_exit_2(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err


def test_c1_float_overflow_exit_2(files, capsys):
    argv = ["construct", "coloring", "-n", "8", "-F", files["k33"], "--seed", "1",
            "--c1", "1e400"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: c1")


def test_c1_zero_read_only_by_coloring(files, capsys):
    # Only the coloring's color count reads c1, so only it rejects c1 = 0.
    argv = ["construct", "labeling", "-n", "8", "-F", files["k33"], "-k", "2",
            "--seed", "1", "--c1", "0"]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["inputs"]["c1"] == "0"
    argv = ["construct", "coloring", "-n", "8", "-F", files["k33"], "--seed", "1",
            "--c1", "0"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: c1")


@pytest.mark.parametrize(
    "n, c1", [("30", "1e308"), ("8", "20")], ids=["c1-ln-n-inf", "colors-over-pairs"]
)
def test_c1_color_count_exit_3(files, capsys, n, c1):
    argv = ["construct", "coloring", "-n", n, "-F", files["k33"], "--seed", "1",
            "--c1", c1]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: c1")


@pytest.mark.parametrize("exc", [RecursionError, MemoryError, KeyError])
def test_internal_error_exit_4(files, capsys, monkeypatch, exc):
    def boom(*args):
        raise exc("boom")

    monkeypatch.setattr(cli, "shadow", boom)
    assert run(["shadow", files["h32"], "-k", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: " + exc.__name__)
    assert captured.err.count("\n") == 1


def test_capacity_error_exit_3(files, capsys):
    # C(9, 3) = 84 exceeds the enumeration bound
    assert run(["f-exact", files["k33"], files["k34"], "-n", "9"]) == 3
    capsys.readouterr()


def test_reports_reparse_and_decisions_match(files, capsys):
    for argv, expect in [
        (["hom", files["h32"], files["k33"]], True),
        (["shadow-hom", files["k34"], files["k33"], "-k", "2"], False),
        (["tight", files["tc5"], "-k", "2"], True),
    ]:
        code, report = run_json(capsys, argv)
        assert report["result"]["found"] == expect
        assert code == (0 if expect else 1)
        assert "wall_time_ms" in report


def strip_time(report):
    report = dict(report)
    report.pop("wall_time_ms")
    return report


def test_seeded_commands_bit_identical(files, capsys):
    argv = ["construct", "labeling", "-n", "12", "-F", files["k33"], "-k", "2",
            "--seed", "17"]
    _, a = run_json(capsys, argv)
    _, b = run_json(capsys, argv)
    _, c = run_json(capsys, argv + ["--threads", "8"])
    assert strip_time(a) == strip_time(b)
    # thread flag is echoed nowhere; results must be identical
    assert strip_time(a) == strip_time(c)


def test_module_entry_point(files, capsys, monkeypatch):
    # python -m erdosrogers.cli exits through main() with the code run() returns.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    monkeypatch.chdir(files["dir"])
    for argv, expected in [
        (["shadow-hom", "k34.hg", "k33.hg", "-k", "2"], 1),
        (["construct", "coloring", "-n", "12", "-F", "k33.hg", "--seed", "5"], 0),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "erdosrogers.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == expected, proc.stderr
        code, report = run_json(capsys, argv)
        assert code == expected
        child = strip_time(json.loads(proc.stdout))
        assert json.dumps(child) == json.dumps(strip_time(report))
