"""Tests of the benchmark's own machinery: span self times, search
statistics, wrapper removal, pass failure accounting and the metric
lists declared in BENCHMARK.json."""

import fractions
import json
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from tracing import ROOT, Span

from kummer_spin import cli, exact, weil
from kummer_spin.exact import IntMatrix, RatMatrix


def _span(key, start, end, parent, outcome=None, pass_id=1):
    span = Span(key, parent, pass_id)
    span.start, span.end = start, end
    span.outcome = outcome
    return span


def test_self_times_of_nested_spans():
    keys = [("cli", "main"), ("exact", "RatMatrix.rref"),
            ("weil", "hermitian_and_discriminant"),
            ("weil", "find_orthogonal_square_vectors")]
    spans = [
        _span(ROOT, 0.0, 10.0, ROOT),               # the pass
        _span(0, 1.0, 9.0, 0),                      # cli.main
        _span(1, 2.0, 5.0, 1),                      # rref inside main
        _span(2, 6.0, 8.0, 1, "SearchExhausted"),   # outer search
        _span(3, 6.5, 7.0, 3, "SearchExhausted"),   # nested search
        _span(3, 8.5, 8.75, 1),                     # direct search
        _span(0, 20.0, 30.0, ROOT, pass_id=2),      # another pass
    ]
    assert tracing.self_times(spans)[:6] == [2.0, 2.75, 3.0, 1.5, 0.5, 0.25]

    times, counts = tracing.summarize(spans, keys, 1)
    assert times["pass_s"] == 10.0
    assert times["bench.self_s"] == 2.0
    assert times["cli.self_s"] == 2.75
    assert times["exact.self_s"] == times["exact.rref.self_s"] == 3.0
    assert times["weil.self_s"] == 2.25
    assert times["weil.discriminant.self_s"] == 1.5
    assert times["weil.search.self_s"] == 0.75
    layers = sum(times[layer + ".self_s"] for layer in tracing.LAYERS)
    assert layers + times["bench.self_s"] == times["pass_s"]
    assert counts["cli.calls"] == 1 and counts["weil.calls"] == 3
    # the nested search is part of the outer attempt
    assert counts["weil.search.attempts"] == 2
    assert counts["weil.search.exhausted"] == 1


def _namespace_snapshot():
    snapshot = {}
    for name, module in sys.modules.items():
        if name.startswith("kummer_spin"):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type):
                    for method, raw in vars(value).items():
                        snapshot[(name, attr, method)] = raw
    return snapshot


def _assert_restored(before):
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_nests_spans_and_passes_exceptions_through():
    before = _namespace_snapshot()
    singular = IntMatrix([[1, 2], [2, 4]]).to_rat()
    with tracing.Tracer() as tracer:
        assert tracer.missing == []
        assert exact.RatMatrix.rref \
            is not before[("kummer_spin.exact", "RatMatrix", "rref")]

        def work():
            # rational_kernel calls IntMatrix.to_rat and RatMatrix.rref
            basis = exact.rational_kernel(IntMatrix([[1, 1], [2, 2]]))
            with pytest.raises(ValueError, match="singular"):
                singular.inverse()
            with pytest.raises(weil.SearchExhausted):
                weil.find_orthogonal_square_vectors([], (-2,), budget=0)
            # an isotropic h gives the degenerate d == 0
            weil.weil_structure((1, 0, 0, 0, 0, 0, 0, -3),
                                (0, -1, -1, -1, -1, -1, 0, 0))
            return basis

        basis, seconds = tracer.run_pass(1, work)
        assert tracer.stack == [ROOT]
    _assert_restored(before)
    assert len(basis) == 1

    # weil_structure's own children (matmuls and the like) follow it
    names = [tracer.keys[s.key][1] if s.key != ROOT else "bench"
             for s in tracer.spans[:8]]
    assert names == ["bench", "rational_kernel", "IntMatrix.to_rat",
                     "RatMatrix.rref", "RatMatrix.inverse", "RatMatrix.rref",
                     "find_orthogonal_square_vectors", "weil_structure"]
    assert [s.parent for s in tracer.spans[:8]] == [ROOT, 0, 1, 1, 0, 4, 0, 0]
    assert all(s.parent >= 7 for s in tracer.spans[8:])
    assert tracer.spans[4].outcome == "ValueError"
    assert tracer.spans[6].outcome == "SearchExhausted"

    times, counts = tracing.summarize(tracer.spans, tracer.keys, 1)
    assert times["pass_s"] == pytest.approx(seconds, abs=1e-12)
    layers = sum(times[layer + ".self_s"] for layer in tracing.LAYERS)
    assert layers + times["bench.self_s"] == pytest.approx(times["pass_s"],
                                                           rel=1e-9)
    assert counts["exact.rref.calls"] == 2
    assert counts["exact.inverse.calls"] == 1
    assert counts["weil.search.attempts"] == 1
    assert counts["weil.search.exhausted"] == 1
    assert counts["weil.degenerate_rejects"] == 1


def test_wrappers_removed_after_exception_in_traced_block():
    before = _namespace_snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    _assert_restored(before)


def test_fraction_counter_is_exact_and_restored():
    raw = vars(fractions.Fraction)["__new__"]
    with tracing.FractionCounter() as counter:
        RatMatrix([[1, 2], [3, 4]])
        fractions.Fraction(1, 3) + fractions.Fraction(1, 6)
    assert counter.count == 4 + 3
    assert vars(fractions.Fraction)["__new__"] is raw


def _fake_main(bodies):
    """A stand-in for cli.main that writes the next body, or raises when
    the next body is an exception."""
    bodies = iter(bodies)

    def main(argv):
        body = next(bodies)
        if isinstance(body, Exception):
            raise body
        Path(argv[argv.index("--out") + 1]).write_text(body)
        return 1 if "[FAIL]" in body else 0

    return main


def test_fail_ratio_counts_injected_failures(tmp_path):
    good = "[PASS] s:a (r)\n[PASS] s:b (r)\nresult: ok\n"
    main = _fake_main([good, good,
                       "[PASS] s:a (r)\n[FAIL] s:b (r)\nresult: 1 failed\n",
                       good.replace("b (r)", "b (r) -- other detail"),
                       RuntimeError("injected")])
    out = tmp_path / "report"
    passes = [workloads.run_pass(main, [["verify", "x"]], out)
              for _ in range(5)]
    assert [p.rows for p in passes] == [2, 2, 2, 2, 0]
    assert workloads.check_stable(passes) == 3
    assert [p.failure is None for p in passes] == [True, True, False, False,
                                                   False]
    assert "FAIL row" in passes[2].failure
    assert "differs" in passes[3].failure
    assert "injected" in passes[4].failure


def test_workload_lines_parse():
    parser = cli.build_parser()
    for name, make in workloads.WORKLOADS.items():
        for line in make(7):
            args = parser.parse_args(line)
            assert args.seed == 7 or name == "weil_search"
    assert workloads.verify_all(7) == [
        ["verify", "all", "--n", "4", "--seed", "7"]]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
