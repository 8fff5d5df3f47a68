"""Benchmark of the kummer-spin verification engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from a checkout of the repository; the program is imported from the
checkout's ``src/``.  Workloads are defined in ``workloads.py``.  Each
run is one single-threaded process.

``--trace 0`` (timed run): measures set-up in fresh interpreters, then
runs whole passes of the workload until at least T seconds of passes
have elapsed, and prints the end-to-end metrics.

``--trace 1`` (traced run): a warm-up pass, an untraced baseline pass,
one traced pass (spans at every wrapped public function; per-layer self
times come from it), then two traced passes that also count
``Fraction.__new__``.  Every count must repeat exactly across the traced
passes; mismatches are flagged.  T is not used.

Every pass's report bodies must match the first pass's, byte for byte.
The last line of stdout is one JSON object with ``correct``,
``attempted`` and ``failed`` passes, and ``metrics``.  Full results
(machine record, per-pass times and report digests) go to
``perfbench/out/``, spans of traced runs as gzipped JSON lines.
"""

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 5
# import the CLI with its suites and build the lazy Clifford tables
# (monomials for monomial_matrix, reversed monomials for tau)
SETUP_CODE = ("import kummer_spin.cli, kummer_spin.suites\n"
              "from kummer_spin import clifford\n"
              "clifford.tau(clifford.monomial_matrix(0))\n")
# a traced run skips its last (repeat-check) pass past this many seconds,
# so that it ends within three minutes
TRACE_BUDGET_S = 140.0

END_TO_END = (("wall_s", "s"), ("checks_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = tuple(
    [(layer + suffix, unit) for layer in tracing.LAYERS
     for suffix, unit in ((".self_s", "s"), (".calls", "count"))]
    + [("exact.fraction_new", "count"),
       ("exact.matmul.calls", "count"), ("exact.matmul.self_s", "s"),
       ("exact.apply.self_s", "s"),
       ("exact.rref.calls", "count"), ("exact.rref.self_s", "s"),
       ("exact.inverse.calls", "count"), ("exact.inverse.self_s", "s"),
       ("exact.rational_kernel.self_s", "s"), ("exact.snf.self_s", "s"),
       ("clifford.group_flags.calls", "count"),
       ("clifford.group_flags.self_s", "s"),
       ("clifford.tau.calls", "count"), ("clifford.tau.self_s", "s"),
       ("triality.ax_product.calls", "count"),
       ("triality.ax_product.self_s", "s"),
       ("triality.mult_operator.self_s", "s"),
       ("triality.ax_inverse.calls", "count"),
       ("triality.ax_inverse.self_s", "s"),
       ("triality.automorphism_check.self_s", "s"),
       ("fm.reflection_lift.self_s", "s"),
       ("stabilizer.generators.self_s", "s"),
       ("stabilizer.mod_n_rep.self_s", "s"),
       ("cayley.wedge4.calls", "count"), ("cayley.wedge4.self_s", "s"),
       ("cayley.invariant_rank.self_s", "s"),
       ("weil.search.attempts", "count"),
       ("weil.search.exhausted", "count"),
       ("weil.search_yield", "ratio"),
       ("weil.degenerate_rejects", "count"),
       ("weil.discriminant.self_s", "s"),
       ("lattice.characters.self_s", "s"),
       ("lattice.discriminant_group.self_s", "s"),
       ("trace.overhead_ratio", "ratio"),
       ("trace.pass_s", "s"),
       ("trace.unspanned_s", "s"),
       ("trace.count_mismatches", "count"),
       ("trace.missing_targets", "count")])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    """Imports kummer_spin.cli from this checkout's src/ and finishes the
    lazy set-up, so that no pass pays for it."""
    sys.path.insert(0, str(SRC))
    from kummer_spin import cli, clifford

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError("kummer_spin imported from %s, not from %s"
                          % (cli.__file__, SRC))
    clifford.tau(clifford.monomial_matrix(0))
    return cli


# -- machine record -----------------------------------------------------

def calibrate():
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "kummer_spin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": git_commit(),
            "src_sha256": src_digest()}


# -- runs ---------------------------------------------------------------

def measure_setup():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=str(ROOT),
                       env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def one_pass(cli, lines, out_path, tracer=None, pass_id=None):
    gc.collect()

    def run():
        return workloads.run_pass(cli.main, lines, out_path)

    return run() if tracer is None else tracer.run_pass(pass_id, run)[0]


def timed_run(cli, lines, seconds, out_path):
    setup = measure_setup()
    passes = []
    while not passes or sum(p.seconds for p in passes) < seconds:
        passes.append(one_pass(cli, lines, out_path))
    failed = workloads.check_stable(passes)
    metrics = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "checks_per_s": statistics.median(p.rows / p.seconds for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, failed, metrics, {"setup_samples": setup}


def traced_run(cli, lines, out_path):
    """Pass 0 warms up, pass 1 is the untraced baseline, pass 2 is traced
    and gives the self times, passes 3 and 4 are traced and count
    ``Fraction.__new__``; tracer pass ids are indices into the passes."""
    started = time.perf_counter()
    passes = [one_pass(cli, lines, out_path), one_pass(cli, lines, out_path)]
    tracer = tracing.Tracer()
    fraction_counts = {}
    with tracer:
        passes.append(one_pass(cli, lines, out_path, tracer, 2))
        for pass_id in (3, 4):
            elapsed = time.perf_counter() - started
            if pass_id == 4 and elapsed + passes[-1].seconds > TRACE_BUDGET_S:
                break
            with tracing.FractionCounter() as counter:
                passes.append(one_pass(cli, lines, out_path, tracer, pass_id))
            fraction_counts[pass_id] = counter.count
    failed = workloads.check_stable(passes)

    summaries = {p: tracing.summarize(tracer.spans, tracer.keys, p)
                 for p in range(2, len(passes))}
    times, counts = summaries[2]
    mismatched = {name for _, other in summaries.values() for name in other
                  if other[name] != counts[name]}
    if len(set(fraction_counts.values())) > 1:
        mismatched.add("exact.fraction_new")
    mismatched = sorted(mismatched)
    counts = dict(counts, **{"exact.fraction_new": fraction_counts[3]})
    attempts = counts["weil.search.attempts"]
    layer_self = sum(times[layer + ".self_s"] for layer in tracing.LAYERS)
    metrics = dict(times)
    metrics.update(counts)
    metrics.update({
        # 0 on workloads that make no search
        "weil.search_yield": (attempts - counts["weil.search.exhausted"])
        / attempts if attempts else 0.0,
        "trace.overhead_ratio": passes[2].seconds / passes[1].seconds,
        "trace.pass_s": times["pass_s"],
        "trace.unspanned_s": times["bench.self_s"],
        "trace.count_mismatches": len(mismatched),
        "trace.missing_targets": len(tracer.missing),
    })
    sums_match = abs(layer_self + times["bench.self_s"] - times["pass_s"]) \
        <= 1e-6 * times["pass_s"]
    extra = {"count_passes": sorted(summaries),
             "fraction_new_by_pass": fraction_counts,
             "count_mismatches": mismatched,
             "missing_targets": tracer.missing,
             "self_times_sum_to_pass": sums_match,
             "spans": len(tracer.spans)}
    with gzip.open(out_path.with_name(out_path.stem + ".spans.jsonl.gz"),
                   "wt", compresslevel=1) as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.to_json(tracer.keys)) + "\n")
    return passes, failed, metrics, extra


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = load_cli()
    except ImportError as exc:
        sys.stderr.write("cannot import kummer_spin from %s: %s\n"
                         % (SRC, exc))
        return 2
    lines = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    machine = machine_record()
    machine["start"] = {"loadavg": os.getloadavg(),
                        "calibration_s": calibrate()}

    if args.trace:
        passes, failed, metrics, extra = traced_run(
            cli, lines, stem.with_suffix(".report"))
        wanted = PER_LAYER
        correct = failed == 0 and extra["self_times_sum_to_pass"]
    else:
        passes, failed, metrics, extra = timed_run(
            cli, lines, args.seconds, stem.with_suffix(".report"))
        wanted = END_TO_END
        correct = failed == 0
    machine["end"] = {"loadavg": os.getloadavg(),
                      "calibration_s": calibrate()}

    fail_ratio = failed / len(passes)
    results = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "lines": lines, "machine": machine,
               "passes": [p.to_json() for p in passes],
               "fail_ratio": fail_ratio, "metrics": metrics, **extra}
    stem.with_suffix(".json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n")

    print("workload %s, seed %d: %d pass(es) of %d command line(s)"
          % (args.workload, args.seed, len(passes), len(lines)))
    for p in passes:
        if p.failure:
            print("FAILED PASS: %s" % p.failure.strip().splitlines()[-1])
    for key in ("count_mismatches", "missing_targets"):
        if extra.get(key):
            print("FLAGGED %s: %s" % (key, ", ".join(extra[key])))
    print("fail_ratio %.6g (%d of %d passes failed)"
          % (fail_ratio, failed, len(passes)))
    for name, unit in wanted:
        print("%-36s %.9g %s" % (name, metrics[name], unit))
    print(json.dumps({"correct": correct, "attempted": len(passes),
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
