"""CLI behavior: formats, exit codes, determinism, output files."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from kummer_spin import cli, suites, weil

PKG_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*args, env_extra=None, python_flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "kummer_spin.cli", *args],
        capture_output=True, text=True, env=env)


def test_gamma_text_output():
    result = run_cli("verify", "gamma", "--n", "5")
    assert result.returncode == 0
    assert "[PASS] gamma:snf_factors (rem-Z-w)" in result.stdout
    assert "result: ok" in result.stdout


def test_json_format_and_schema():
    result = run_cli("verify", "gamma", "--n", "3", "--format", "json")
    assert result.returncode == 0
    body = json.loads(result.stdout)
    assert body["schema"] == 1
    assert body["ok"] is True
    assert body["suites"][0]["suite"] == "gamma"
    for check in body["suites"][0]["checks"]:
        assert set(check) == {"name", "ref", "status", "detail"}
        assert check["status"] in ("pass", "fail", "skipped")


def test_determinism_same_seed():
    a = run_cli("verify", "modn", "--n", "4", "--seed", "9", "--format", "json")
    b = run_cli("verify", "modn", "--n", "4", "--seed", "9", "--format", "json")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_env_seed_override():
    with_env = run_cli("verify", "gamma", env_extra={"KUMMER_SPIN_SEED": "42"})
    explicit = run_cli("verify", "gamma", "--seed", "42")
    assert with_env.stdout == explicit.stdout


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    result = run_cli("verify", "gamma", "--format", "json", "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    body = json.loads(target.read_text())
    assert body["schema"] == 1


def test_unknown_subcommand_exits_2():
    result = run_cli("verify", "nonsense")
    assert result.returncode == 2
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_bad_h_coords_exit_2():
    for args in (("verify", "weil", "--h", "1,2,3"),
                 ("verify", "cayley", "--with-h", "1,x,0,0,0,0")):
        result = run_cli(*args)
        assert result.returncode == 2
        assert args[2] in result.stderr
        assert "Traceback" not in result.stderr


def test_malformed_env_seed_exits_2():
    result = run_cli("verify", "gamma", env_extra={"KUMMER_SPIN_SEED": "x7"})
    assert result.returncode == 2
    assert "KUMMER_SPIN_SEED" in result.stderr
    assert result.stdout == ""


def test_timings_go_to_stderr_only():
    result = run_cli("verify", "gamma")
    assert "elapsed" in result.stderr
    assert "elapsed" not in result.stdout


def test_inadmissible_h_exits_2_cleanly():
    result = run_cli("verify", "weil", "--n", "3", "--h", "1,1,0,0,0,0,1,3")
    assert result.returncode == 2
    assert "admissible" in result.stderr
    assert "Traceback" not in result.stderr


def test_non_degree_two_h_skips_commutant():
    result = run_cli("verify", "weil", "--n", "3", "--h", "1,2,0,0,0,0,2,3")
    assert result.returncode == 0
    assert "[SKIP] weil:commutant_preserves_hermitian" in result.stdout


def test_degenerate_with_h_exits_2():
    result = run_cli("verify", "cayley", "--n", "3", "--with-h", "1,0,0,0,0,0")
    assert result.returncode == 2


@pytest.mark.parametrize("n, row", [
    ("3", '[{"0": "9", "20": "3/2", "27": "3/2", "42": "3/2", "49": "3/2", '
          '"60": "3/2", "69": "1", "9": "3/2"}]'),
    ("4", '[{"0": "16", "20": "2", "27": "2", "42": "2", "49": "2", '
          '"60": "2", "69": "1", "9": "2"}]'),
])
def test_cayley_kernel_basis_row(n, row):
    result = run_cli("verify", "cayley", "--n", n, "--seed", "0")
    assert result.returncode == 0
    assert ("[PASS] cayley:kernel_basis (prop-equation-for-Cayley-class) -- "
            + row + "\n") in result.stdout


def test_cayley_with_h_report_bytes():
    result = run_cli("verify", "cayley", "--n", "3", "--with-h",
                     "1,0,0,0,0,1", "--seed", "0")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "a7cfe96520f368351d1b3483894403d60d50fadb91c29d1596ae1b81ff876dd0")


@pytest.mark.parametrize("args, digest", [
    (("discriminant", "--n", "3"),
     "f12b63efe6ddf7007047d31f360f723c883e814ec7b2b0e1676ecf076aea0aee"),
    (("discriminant", "--n", "4"),
     "8ea2f6165d0c4160607130c78961df96bc0c6a2afb6055a16081db0353ee02ce"),
    (("discriminant", "--n", "5"),
     "c954c37b77a956eb500b4790a32be5bb9a9c896d120307a920d729441608a428"),
    (("weil", "--n", "3", "--h", "0,1,0,0,0,0,1,0"),
     "91c7fab5e83f30e812eb0b1dd8273876504a91d6708f165d5e258f7863465aa4"),
])
def test_weil_side_report_bytes(args, digest):
    # the certificate's basis is built from the exact plane intersections,
    # so these bytes pin their scale as well as their span
    result = run_cli("verify", *args, "--seed", "0")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_verify_all_report_bytes_without_asserts():
    # -O strips assert statements; the report must not depend on them
    result = run_cli("verify", "all", "--n", "4", "--seed", "7",
                     python_flags=("-O",))
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "47180dc5c2479b988b9b274cefbecee7bb11a5a65401aa27005ddba5a54bc503")


SUITE_ORDER = ("clifford", "triality", "fm", "stabilizer", "modn", "detchi",
               "gamma", "cayley", "weil", "discriminant")

# each subcommand's own flags and their parsed defaults
SUITE_FLAGS = {
    "clifford": {}, "triality": {}, "fm": {},
    "stabilizer": {"n": 3, "samples": 12}, "modn": {"n": 3},
    "detchi": {"n": 3, "samples": 8}, "gamma": {"n": 3},
    "cayley": {"n": 3, "with_h": None}, "weil": {"n": 3, "h": None},
    "discriminant": {"n": 3}, "all": {"n": 4},
}


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_interface_pinned():
    parser = cli.build_parser()
    verify = _subcommands(parser)["verify"]
    assert list(_subcommands(verify)) == [*SUITE_ORDER, "all"]
    for name, flags in SUITE_FLAGS.items():
        args = parser.parse_args(["verify", name])
        assert vars(args) == {"command": "verify", "suite": name,
                              "seed": None, "format": "text", "out": None,
                              **flags}


def test_verify_all_dispatches_by_module_global(monkeypatch, tmp_path):
    calls = []

    def stub(name):
        def run(**params):
            calls.append((name, params))
            return suites.SuiteReport(name, params["seed"])
        return run

    for name in SUITE_ORDER:
        monkeypatch.setattr(suites, "suite_" + name, stub(name))
    out = tmp_path / "report.txt"
    assert cli.main(["verify", "all", "--seed", "5", "--out", str(out)]) == 0
    assert calls == [(name, {"seed": 5, **({"n": 4} if SUITE_FLAGS[name]
                                           else {})})
                     for name in SUITE_ORDER]


@pytest.mark.parametrize("args", [("verify", "stabilizer", "--samples", "0"),
                                  ("verify", "detchi", "--samples", "-3")])
def test_nonpositive_samples_exit_2(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "--samples must be an integer of at least 1" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("suite, n, message", [
    ("weil", "60", "orthogonal degree-two classes of square 118: "
     "fewer than 1 in 20000 draws"),
    ("modn", "250", "degree-two classes of square 498: "
     "fewer than 1 in 10000 draws"),
    ("stabilizer", "250", "degree-two classes of square 498: "
     "fewer than 1 in 10000 draws"),
], ids=["weil-60", "modn-250", "stabilizer-250"])
def test_exhausted_search_exits_2(suite, n, message):
    # a class parameter too large for the bounded searches is a usage
    # error: one stderr line, no report, no FAIL rows
    result = run_cli("verify", suite, "--n", n)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr == "suite %s: bounded search exhausted: %s\n" \
        % (suite, message)
    assert result.stdout == ""


class _Rejecting:
    """A seeded rng whose randint draws on one range are all 0, a value
    the rejection sampler drawing on that range never accepts."""

    def __init__(self, lo, hi, real):
        self.lo, self.hi, self.real = lo, hi, real

    def randint(self, a, b):
        return 0 if (a, b) == (self.lo, self.hi) else self.real.randint(a, b)

    def __getattr__(self, name):
        return getattr(self.real, name)


@pytest.mark.parametrize("argv, patch, draw_range, message", [
    (("verify", "clifford"), "suites", (-3, 3),
     "square +-2 vectors: fewer than 50 in 20000 draws"),
    (("verify", "gamma"), "suites", (-3, 3),
     "primitive classes of square below -2: fewer than 3 in 20000 draws"),
    (("verify", "detchi"), "random", (-3, 3),
     "square +-2 classes: fewer than 50 in 20000 draws"),
    (("verify", "cayley", "--with-h", "1,0,0,0,0,1"), "suites", (-2, 2),
     "nonzero transvection vectors: fewer than 1 in 20000 draws"),
])
def test_rejection_sampler_cap_exits_2(monkeypatch, capsys, argv, patch,
                                       draw_range, message):
    real_random = random.Random
    if patch == "suites":
        monkeypatch.setattr(suites, "_rng", lambda seed, name: _Rejecting(
            *draw_range, real_random("%d|%s" % (seed, name))))
    else:
        monkeypatch.setattr(random, "Random", lambda seed: _Rejecting(
            *draw_range, real_random(seed)))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(list(argv))
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "suite %s: bounded search exhausted: %s\n" % (argv[1], message)


def _run_out(*args, **kwargs):
    raise weil.SearchExhausted("patched to run out")


@pytest.mark.parametrize("argv, patched, message", [
    (("verify", "weil"), "find_orthogonal_square_vectors",
     "admissible (w, h, J) triples: fewer than 4 in 80 draws"),
    (("verify", "discriminant"), "hermitian_and_discriminant",
     "trivial-discriminant certificates: fewer than 3 in 90 draws"),
], ids=["weil", "discriminant"])
def test_weil_sampling_run_out_exits_2(monkeypatch, capsys, argv, patched,
                                       message):
    # a weil or discriminant search that runs out is no FAIL row: the run
    # stops with one stderr line, like every other bounded search
    monkeypatch.setattr(weil, patched, _run_out)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(list(argv))
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "suite %s: bounded search exhausted: %s\n" % (argv[1], message)


def test_kahler_failure_is_a_fail_row(monkeypatch, capsys):
    # a Kahler form that is not definite is an accepted sample that fails,
    # not a rejected draw; the first call is kahler_definite's first sample
    real, calls = weil.kahler_metric, []

    def first_indefinite(ws, j):
        calls.append(ws)
        if len(calls) == 1:
            raise ValueError("indefinite")
        return real(ws, j)

    monkeypatch.setattr(weil, "kahler_metric", first_indefinite)
    assert cli.main(["verify", "weil"]) == 1
    out, _ = capsys.readouterr()
    assert "[FAIL] weil:kahler_definite (prop-Theta-h-is-a-Kahler-form) " \
        "-- 4 admissible sampled triples\n" in out
    assert out.count("[FAIL]") == 1
