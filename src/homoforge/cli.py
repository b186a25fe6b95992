"""Command-line interface.

One executable with subcommands for sampling, homology, shadows, Smith
form, partition verification, and the Monte Carlo campaigns. Every
randomized subcommand requires an explicit --seed so published numbers
are reproducible. Exit codes: 0 success, 1 runtime failure, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .complexes import load_complex, save_complex, uncovered_edges
from .exact_linalg import MatrixFormatError, read_matrix_file, smith_normal_form
from .experiments import CampaignConfig, run_campaign
from .homology import homology_Z, shadow
from .shady_partitions import Thresholds, load_labels, verify_shady


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homoforge",
        description="Random 2-complex process: exact homology, shadows, hitting times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a random complex and write it out")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--p", type=float, help="binomial face probability")
    grp.add_argument("--m", type=int, help="fixed number of faces (process prefix)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d", type=int, default=2, help="face dimension (default 2)")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("homology", help="first homology of a complex file")
    p.add_argument("--in", dest="infile", required=True, help="complex file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("snf", help="invariant factors of an integer matrix file")
    p.add_argument("--in", dest="infile", required=True, help="matrix file")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("shadow", help="F_p-shadow of a complex file")
    p.add_argument("--in", dest="infile", required=True, help="complex file")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--out", help="output prefix for <out>.bits and <out>.json")
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("verify-partition", help="check a good/bad labeling against a complex")
    p.add_argument("--in", dest="infile", required=True, help="complex file")
    p.add_argument("--labels", required=True, help="labels bitset file")
    p.add_argument("--theta-edge", type=int)
    p.add_argument("--theta-vertex", type=int)
    p.add_argument("--max-bad", type=int)
    p.set_defaults(func=cmd_verify_partition)

    for kind in experiments.CAMPAIGN_KINDS:
        help_text, options = _CAMPAIGN_COMMANDS[kind]
        p = sub.add_parser(kind.replace("_", "-"), help=help_text)
        _campaign_args(p)
        for flags, kwargs in options:
            p.add_argument(*flags, default=argparse.SUPPRESS, **kwargs)
        p.set_defaults(func=cmd_campaign, kind=kind)

    return parser


# The help of each campaign subcommand and the options it adds to
# _campaign_args, as (flags, add_argument keywords). An option that is not
# given leaves its CampaignConfig field at the default.
_CAMPAIGN_COMMANDS = {
    "hitting_time": ("hitting-time campaign over seeded trials", []),
    "shadow_growth": ("shadow deficit campaign at M = (ln n / n) C(n,3)",
                      [(["--prime"], {"type": int})]),
    "uncovered_rank": ("torsion-free rank vs uncovered edges campaign",
                       [(["--p-scale"], {"type": float, "help": "p = p_scale * ln(n)/n"})]),
    "torsion_scan": ("torsion burst scan of the d-dimensional process", [
        (["--d"], {"type": int}),
        (["--stride"], {"type": int}),
        (["-v", "--verbose"], {"dest": "verbose_factors", "action": "store_true",
                               "help": "record exact torsion factors"}),
    ]),
}


def _campaign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="base seed; trial i uses seed+i")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", help="output prefix for <out>.csv and <out>.json")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="stdout row format when --out is omitted")


def cmd_sample(args: argparse.Namespace) -> int:
    from .complexes import complex_to_json, complex_to_text, sample_binomial, sample_fixed_size

    if args.p is not None:
        Y = sample_binomial(args.n, args.p, args.seed, dim=args.d)
    else:
        Y = sample_fixed_size(args.n, args.m, args.seed, dim=args.d)
    if args.out:
        save_complex(Y, args.out, fmt=args.format)
    else:
        text = complex_to_json(Y) + "\n" if args.format == "json" else complex_to_text(Y)
        sys.stdout.write(text)
    return 0


def cmd_homology(args: argparse.Namespace) -> int:
    Y = load_complex(args.infile)
    summary = homology_Z(Y)
    if args.format == "json":
        doc = {
            "n": Y.n,
            "dim": Y.dim,
            "betti": summary.betti,
            "torsion": list(summary.torsion),
            "uncovered_edges": len(uncovered_edges(Y)) if Y.dim == 2 else None,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        torsion = ",".join(map(str, summary.torsion))
        print(f"betti={summary.betti} torsion={torsion}")
    return 0


def cmd_snf(args: argparse.Namespace) -> int:
    m = read_matrix_file(args.infile)
    for d in smith_normal_form(m).invariant_factors:
        print(d)
    return 0


def cmd_shadow(args: argparse.Namespace) -> int:
    Y = load_complex(args.infile)
    sh = shadow(Y, args.prime)
    deficit = sh.total - sh.size
    if args.out:
        with open(f"{args.out}.bits", "wb") as fh:
            fh.write(sh.to_bytes())
        summary = {"n": Y.n, "p": args.prime, "size": sh.size, "deficit": deficit}
        with open(f"{args.out}.json", "w", newline="\n") as fh:
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
    print(f"size={sh.size} deficit={deficit}")
    return 0


def cmd_verify_partition(args: argparse.Namespace) -> int:
    Y = load_complex(args.infile)
    bad = load_labels(args.labels)
    if Y.n != bad.n:
        raise ValueError(f"complex n={Y.n} does not match labels n={bad.n}")
    base = Thresholds.defaults(Y.n)
    thresholds = Thresholds(
        theta_edge=args.theta_edge if args.theta_edge is not None else base.theta_edge,
        theta_vertex=(
            args.theta_vertex if args.theta_vertex is not None else base.theta_vertex
        ),
        max_bad_triples=args.max_bad if args.max_bad is not None else base.max_bad_triples,
    )
    report = verify_shady(Y, bad, thresholds)
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return 0 if report.passed else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    options = {
        name: getattr(args, name)
        for name in ("d", "stride", "p_scale", "verbose_factors")
        if name in args
    }
    if "prime" in args:
        options["primes"] = (args.prime,)
    cfg = CampaignConfig(
        kind=args.kind,
        n=args.n,
        trials=args.trials,
        seed_base=args.seed,
        jobs=args.jobs,
        out=args.out,
        **options,
    )
    report = run_campaign(cfg)
    if not args.out:
        if args.format == "json":
            sys.stdout.write(json.dumps(report.rows, sort_keys=True) + "\n")
        else:
            sys.stdout.write(report.csv_text())
    s = report.summary
    printed = experiments.CAMPAIGN_KINDS[args.kind].printed
    print(*(f"{key}={s[key]}" for key in printed), f"n={args.n}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
