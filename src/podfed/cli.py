"""Command line front-end.

Subcommands: run a federated query against a scenario, measure the filter
false-positive rate, run the leakage experiment, rotate a policy key, and
dump summaries in their binary form.

Exit codes: 0 success, 1 experiment or assertion failure, 2 usage error.
`PODFED_SEED` in the environment overrides any --seed argument.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .experiments import fpr_experiment, leakage_experiment
from .harness import (
    ANONYMOUS,
    Federation,
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    parse_pattern_text,
)
from .pod import UnknownFileError
from .quads import COMPONENTS, serialize_quad

logger = logging.getLogger(__name__)


def _resolve_scenario(value: str) -> Path:
    path = Path(value)
    if path.exists():
        return path
    try:
        bundled = bundled_scenario_path(value)
    except Exception:
        bundled = None
    if bundled is not None and bundled.exists():
        return bundled
    raise ScenarioError(f"scenario: no file {value!r} and no bundled scenario of that name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podfed",
        description="Federated quad-pattern queries over access-controlled pods "
        "with privacy-preserving summaries.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_opts = argparse.ArgumentParser(add_help=False)
    scenario_opts.add_argument(
        "--scenario",
        default="addressbook",
        help="scenario file path or bundled scenario name (default: addressbook)",
    )
    scenario_opts.add_argument("--seed", type=int, default=None, help="deterministic seed")
    scenario_opts.add_argument(
        "--fixed-keys",
        action="store_true",
        help="derive policy keys from the seed instead of at random (debug)",
    )

    p_run = sub.add_parser(
        "run", parents=[scenario_opts], help="run one federated quad-pattern query"
    )
    p_run.add_argument("--as", dest="identity", default=ANONYMOUS, metavar="NAME",
                       help="identity name from the scenario (default: anonymous)")
    p_run.add_argument(
        "--pattern",
        required=True,
        help='four terms: ?var, <iri>, "literal", _:label, or _ for the default graph',
    )
    p_run.add_argument(
        "--parallel", action="store_true", help="query selected sources concurrently"
    )

    p_fpr = sub.add_parser("fpr", help="measure the false-positive rate of one filter")
    p_fpr.add_argument("--m", type=int, required=True, help="filter size in bits")
    p_fpr.add_argument("--h", type=int, required=True, help="hash probes per element")
    p_fpr.add_argument("--inserts", type=int, required=True, help="elements to insert")
    p_fpr.add_argument("--probes", type=int, required=True, help="non-members to probe")
    p_fpr.add_argument("--seed", type=int, default=None)
    p_fpr.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="max relative deviation from the analytic rate (default 0.2)",
    )

    p_leak = sub.add_parser(
        "leak", parents=[scenario_opts], help="probe restricted terms with wrong keys"
    )
    p_leak.add_argument(
        "--probes", type=int, default=25000, help="wrong-key probes per restricted term"
    )

    p_rot = sub.add_parser(
        "rotate-key", parents=[scenario_opts], help="rotate one policy's access key"
    )
    p_rot.add_argument("--policy", required=True, metavar="ID", help="policy id to rotate")

    p_dump = sub.add_parser(
        "dump-summary", parents=[scenario_opts], help="write summaries in binary form"
    )
    p_dump.add_argument(
        "--file",
        default=None,
        metavar="URI",
        help="dump this file's summary; omit for the aggregator's combined summary",
    )
    p_dump.add_argument(
        "--component",
        default=None,
        choices=COMPONENTS,
        help="with --file, dump a single component filter",
    )
    p_dump.add_argument("--out", required=True, help="output path, or - for stdout")
    return parser


def _load(args) -> Federation:
    return load_scenario(
        _resolve_scenario(args.scenario), seed=args.seed, fixed_keys=args.fixed_keys
    )


def _cmd_run(args) -> int:
    fed = _load(args)
    pattern = parse_pattern_text(args.pattern)
    result, report = fed.federated_query(args.identity, pattern, parallel=args.parallel)
    lines = sorted(f"{serialize_quad(quad)}\t[{uri}]" for quad, uri in result.bindings)
    for line in lines:
        print(line)
    print(f"# results: {len(result)}")
    print(
        f"# sources: {len(report.candidates)} candidate(s), "
        f"{len(report.selected)} selected, {len(result.failures)} failed"
    )
    if report.selected:
        print("# selected: " + ", ".join(report.selected))
    if report.pruned_by_global:
        print("# pruned by the global pre-filter: no source holds the pattern")
    print(
        f"# summary probes: {report.probes_performed} "
        f"(global {report.global_probes}, per source {report.source_probes})"
    )
    for uri, message in sorted(result.failures.items()):
        print(f"# failed: {uri}: {message}")
    return 0


def _cmd_fpr(args) -> int:
    report = fpr_experiment(args.m, args.h, args.inserts, args.probes, seed=args.seed)
    print(f"m={report.m} h={report.h} inserts={report.inserts} probes={report.probes}")
    print(f"measured  {report.measured:.6e}  ({report.positives} positives)")
    print(f"expected  {report.expected:.6e}")
    print(f"deviation {report.relative_deviation:.3%} (tolerance {args.tolerance:.0%})")
    print(f"elapsed   {report.elapsed_seconds:.2f}s")
    if not report.within(args.tolerance):
        print("FAIL: measured rate outside tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_leak(args) -> int:
    fed = _load(args)
    report = leakage_experiment(fed, probes=args.probes, seed=args.seed)
    for t in report.per_term:
        control = "ok" if t.control_positive else "MISSING"
        print(
            f"{t.component:9s} {t.term}  positives {t.positives}/{t.probes} "
            f"rate {t.rate:.2e} bound {t.bound:.2e} control {control}"
        )
    print(
        f"# overall: {report.total_positives}/{report.total_probes} wrong-key "
        f"positives (rate {report.overall_rate:.2e})"
    )
    print(f"# aggregator interface opaque: {'yes' if report.interface_opaque else 'NO'}")
    for note in report.notes:
        print(f"# note: {note}")
    if not report.passed:
        print("FAIL: leakage experiment failed", file=sys.stderr)
        return 1
    return 0


def _cmd_rotate(args) -> int:
    fed = _load(args)
    fed.rotate_key(args.policy)
    print(
        f"rotated key for policy {args.policy}; file summary rebuilt, "
        f"combined summary at generation {fed.aggregator.generation}"
    )
    print("note: scenario state is in-memory; rerunning starts fresh")
    return 0


def _cmd_dump(args) -> int:
    fed = _load(args)
    if args.component is not None and args.file is None:
        raise ValueError("--component needs --file")
    if args.file is None:
        data = fed.dump_combined_summary()
    elif args.component is None:
        data = fed.dump_file_summary(args.file)
    else:
        data = fed.dump_component_filter(args.file, args.component)
    if args.out == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(args.out).write_bytes(data)
        print(f"wrote {len(data)} bytes to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "fpr": _cmd_fpr,
    "leak": _cmd_leak,
    "rotate-key": _cmd_rotate,
    "dump-summary": _cmd_dump,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    env_seed = os.environ.get("PODFED_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"PODFED_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioError, UnknownFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
