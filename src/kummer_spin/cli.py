"""Command-line entry point: deterministic verification suites with text
and JSON reports.

Exit status 0 when every non-skipped check passes, 1 on any failure, 2 on
usage errors and when a bounded search runs out.  Report bodies contain
no timestamps or timings, so a fixed command line produces byte-identical
output; per-suite elapsed times go to stderr.
"""

import argparse
import json
import os
import sys

from . import suites
from .lattice import SearchExhausted
from .stabilizer import h2_square, s_n
from .weil import weil_structure

SCHEMA_VERSION = 1

# `verify all` runs every suite at this n, other parameters at their defaults
ALL_DEFAULTS = {"n": 4}


def _at_least(flag, low):
    def parse(text):
        value = int(text) if text.removeprefix("-").isdecimal() else low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                "%s must be an integer of at least %d" % (flag, low))
        return value
    return parse


def _coords(flag, count):
    def parse(text):
        try:
            coords = tuple(int(x) for x in text.split(","))
        except ValueError:
            coords = ()
        if len(coords) != count:
            raise argparse.ArgumentTypeError(
                "expected %d comma-separated integers for %s" % (count, flag))
        return coords
    return parse


def _with_h(text):
    coords = _coords("--with-h", 6)(text)
    if h2_square(coords) <= 0:
        raise argparse.ArgumentTypeError(
            "--with-h must be a degree-two class of positive "
            "self-intersection")
    return coords


# suite parameter -> argparse keywords of its flag --<parameter>
FLAGS = {
    "n": {"type": _at_least("--n", 2),
          "help": "class parameter n >= 2 (default %(default)s)"},
    "samples": {"type": _at_least("--samples", 1)},
    "with_h": {"type": _with_h,
               "help": "six comma-separated degree-two coordinates; adds "
                       "the rank-3 joint-stabilizer check"},
    "h": {"type": _coords("--h", 8),
          "help": "eight comma-separated even-half coordinates of the "
                  "polarization class (default (0, e1e2+e3e4, 0))"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kummer-spin",
        description="Exact verification suites for the lattice, Clifford, "
                    "triality, and period computations.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a named verification suite")
    subparsers = verify.add_subparsers(dest="suite", required=True)
    for name, params in [*suites.SUITES.items(), ("all", ALL_DEFAULTS)]:
        p = subparsers.add_parser(name)
        p.add_argument("--seed", type=int, default=None,
                       help="deterministic seed (default 0 or "
                            "KUMMER_SPIN_SEED)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        for param, default in params.items():
            if param != "seed":
                p.add_argument("--" + param.replace("_", "-"), dest=param,
                               default=default, **FLAGS[param])
    return parser


def render_text(reports):
    lines = []
    failures = 0
    for rep in reports:
        for c in rep.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            if c.status == "fail":
                failures += 1
            line = "[%s] %s:%s (%s)" % (mark, rep.suite, c.name, c.ref)
            if c.detail:
                line += " -- " + c.detail
            lines.append(line)
        passed = sum(1 for c in rep.checks if c.status == "pass")
        lines.append("suite %s: %d/%d passed, seed %d"
                     % (rep.suite, passed, len(rep.checks), rep.seed))
    lines.append("result: %s" % ("ok" if failures == 0 else
                                 "%d check(s) failed" % failures))
    return "\n".join(lines) + "\n"


def render_json(reports, seed):
    body = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "suites": [rep.to_json() for rep in reports],
        "ok": all(rep.ok for rep in reports),
    }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = args.seed
    if seed is None:
        text = os.environ.get("KUMMER_SPIN_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            parser.error("KUMMER_SPIN_SEED must be an integer, got %r" % text)
    if getattr(args, "h", None) is not None:
        try:
            weil_structure(s_n(args.n), args.h)
        except ValueError as exc:
            sys.stderr.write("--h is not an admissible polarization class: "
                             "%s\n" % exc)
            raise SystemExit(2)

    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        params = {key: getattr(args, key) for key in suites.SUITES[name]
                  if key != "seed" and hasattr(args, key)}
        # looked up at call time, so wrappers installed on the module apply
        try:
            reports.append(getattr(suites, "suite_" + name)(seed=seed, **params))
        except SearchExhausted as exc:
            sys.stderr.write("suite %s: bounded search exhausted: %s\n"
                             % (name, exc))
            raise SystemExit(2)

    for rep in reports:
        sys.stderr.write("# suite %s elapsed %.1f ms\n"
                         % (rep.suite, rep.elapsed_ms))
    text = render_json(reports, seed) if args.format == "json" \
        else render_text(reports)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(rep.ok for rep in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
