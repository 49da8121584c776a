"""Command-line surface: synth, train, eval, infer, gradcheck.

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .tensor import GraphConsumedError, NumericError


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="cbce", description="phrase-conditioned affordance segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic shape dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=_positive_int, default=None,
                   help="also emit N two-object fixture images")

    p = sub.add_parser("train", help="train on a generated dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="score a checkpoint on a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="dataset dir (test.jsonl) or manifest path")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--beta-sq", type=float, default=0.3)
    p.add_argument("--report", default=None, help="prefix for report.csv/json")
    p.add_argument("--limit", type=_positive_int, default=None)

    p = sub.add_parser("infer", help="segment one image from phrases")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--phrase", action="append", default=[], help="repeatable")
    p.add_argument("--out", default="infer_out")
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--op", action="append", default=None, help="restrict to named entries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=_positive_int, default=20, help="random draws per op")
    p.add_argument("--tol", type=float, default=1e-4)
    return parser


def _cmd_synth(args) -> int:
    from .datakit import generate_pair_fixtures, synth_generate
    from .train import load_config

    cfg = load_config(args.config)
    records = synth_generate(cfg.synth, args.out)
    print(f"wrote {len(records)} samples under {args.out}")
    if args.pairs:
        pairs = generate_pair_fixtures(cfg.synth, os.path.join(args.out, "pairs"),
                                       count=args.pairs)
        print(f"wrote {len(pairs)} pair records under {os.path.join(args.out, 'pairs')}")
    return 0


def _cmd_train(args) -> int:
    from .train import load_config, smoothed, train

    cfg = load_config(args.config)
    result = train(cfg, args.data, args.out,
                   log_stream=None if args.quiet else sys.stdout)
    head, tail = smoothed(result.losses)
    print(f"finished {result.steps} steps; smoothed loss {head:.2f} -> {tail:.2f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    from .train import evaluate_checkpoint

    report = evaluate_checkpoint(args.ckpt, args.data, threshold=args.threshold,
                                 beta_sq=args.beta_sq, report_prefix=args.report,
                                 limit=args.limit)
    print(json.dumps({"overall": report.overall, "images": len(report.per_image),
                      "cc_images": report.cc_images["overall"]}, indent=1))
    return 0


def _cmd_infer(args) -> int:
    from .train import infer

    if not args.phrase:
        raise UsageError("at least one --phrase is required")
    _, _, stats = infer(args.ckpt, args.image, args.phrase, args.out,
                        threshold=args.threshold)
    print(json.dumps(stats, indent=1))
    print(f"wrote {args.out}_mask.pgm and {args.out}_probs.npy")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_suite

    reports = run_suite(seeds=[args.seed + i for i in range(args.seeds)], ops=args.op,
                        tol=args.tol)
    failed = 0
    for rep in sorted(reports, key=lambda r: r.label):
        status = "pass" if rep.passed else "FAIL"
        failed += not rep.passed
        print(f"{status}  {rep.label:28s} max_rel_err={rep.max_rel_error:.3e} "
              f"tol={rep.tol:.0e} coords={rep.checked}")
    if failed:
        print(f"{failed} op(s) failed gradient check", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, GraphConsumedError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
