"""The benchmark's workloads and the pass runner.

A workload is a list of ``kummer-spin`` command lines generated from the
workload seed S.  One pass runs every line once, in process, through
``kummer_spin.cli.main`` with ``--out`` to a file inside the checkout,
and reads the report body back.  Why each workload exists:

- verify_all: the contract line users wait on; it mixes every layer.
  BENCHMARK.json does not list it: one pass takes about 20 s on a shared
  2-core machine, so a run of run_seconds holds only one or two passes,
  and its work is the union of the three workloads below (the algebra
  suites at n=4, cayley's kernels, weil and discriminant at n=4), so
  every layer is still measured there.
- fixed_space: the exact layer's large rational kernels and Fraction
  vectors (cayley invariant ranks) with almost no algebra-layer work.
- algebra_sweep: many small integer matmuls, 24x24 rational inverses,
  group_flags/tau, ax_product and SNF, with no 70-dimensional kernels.
- weil_search: the weil and lattice layers and the bounded randomized
  searches, which drown in the noise of verify_all.
"""

import contextlib
import hashlib
import io
import os
import time
import traceback

# (suite, --n) for algebra_sweep; the first three suites take no --n
ALGEBRA_SUITES = (("clifford", None), ("triality", None), ("fm", None),
                  ("stabilizer", 4), ("modn", 4), ("detchi", 4), ("gamma", 4))


def _line(suite, seed, n=None, *extra):
    argv = ["verify", suite]
    if n is not None:
        argv += ["--n", str(n)]
    return argv + list(extra) + ["--seed", str(seed)]


def verify_all(seed):
    return [_line("all", seed, 4)]


def fixed_space(seed):
    return [_line("cayley", seed, 3, "--with-h", "1,0,0,0,0,1")]


def algebra_sweep(seed):
    return [_line(suite, seed, n) for suite, n in ALGEBRA_SUITES]


def weil_search(seed):
    lines = [_line("weil", seed, 3, "--h", "0,1,0,0,0,0,1,0")]
    for n in (3, 4, 5):
        derived = 10 * seed + n
        lines += [_line("weil", derived, n), _line("discriminant", derived, n)]
    return lines


WORKLOADS = {f.__name__: f for f in (verify_all, fixed_space, algebra_sweep,
                                     weil_search)}


class PassResult:
    """Outcome of one pass: time, completed check rows, per-line times,
    report digests and exit codes, and why it failed (None when it did
    not)."""

    __slots__ = ("seconds", "rows", "line_seconds", "digests", "codes",
                 "failure")

    def __init__(self):
        self.seconds = 0.0
        self.rows = 0
        self.line_seconds = []
        self.digests = []
        self.codes = []
        self.failure = None

    def to_json(self):
        return {"seconds": self.seconds, "rows": self.rows,
                "line_seconds": self.line_seconds, "digests": self.digests,
                "codes": self.codes, "failure": self.failure}


def run_pass(main, lines, out_path, clock=time.perf_counter):
    """Runs every command line once through ``main(argv)``.

    Only the calls into ``main`` are timed.  A line fails when it raises,
    exits non-zero or reports a FAIL row; the caller compares digests
    across passes.  The program's stderr (per-suite elapsed times) is
    discarded.
    """
    result = PassResult()
    for argv in lines:
        if os.path.exists(out_path):
            os.remove(out_path)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                start = clock()
                try:
                    code = main(argv + ["--out", str(out_path)])
                except SystemExit as exc:
                    code = exc.code
                finally:
                    result.line_seconds.append(clock() - start)
        except Exception:
            code = "raised"
            result.failure = result.failure or traceback.format_exc(limit=8)
        result.codes.append(code)
        digest = None
        if os.path.exists(out_path):
            with open(out_path, "rb") as handle:
                body = handle.read()
            digest = hashlib.sha256(body).hexdigest()
            rows = [r for r in body.decode("utf-8", "replace").splitlines()
                    if r.startswith(("[PASS]", "[FAIL]"))]
            result.rows += len(rows)
            if any(r.startswith("[FAIL]") for r in rows):
                result.failure = result.failure or \
                    "FAIL row from %s" % " ".join(argv)
        result.digests.append(digest)
        if code != 0:
            result.failure = result.failure or "exit code %r from %s" % (
                code, " ".join(argv))
    result.seconds = sum(result.line_seconds)
    return result


def check_stable(passes):
    """Marks every pass whose report bodies differ from the first pass's
    as failed.  Returns the number of failed passes."""
    reference = passes[0].digests if passes else []
    for p in passes[1:]:
        if p.failure is None and p.digests != reference:
            p.failure = "report body differs from the first pass"
    return sum(1 for p in passes if p.failure is not None)
