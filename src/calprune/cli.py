"""Command-line interface: train, evaluate, calibrate, report.

Every command is one process with no shared state. Numeric output is printed
one metric per line at six significant digits; bundles are written atomically
and exit status 0 means a complete manifest landed on disk.
"""

import argparse
import sys
import warnings

from .config import ConfigError, OUTPUT_DIR_ENV, build_datasets, build_train_config, \
    load_config, model_widths, source_name
from .data import read_json
from .metrics import binned_ece, report_from_dict
from .mlp import checkpoint_text, init_mlp, load_checkpoint
from .ranges import require_kind
from .reporting import (CHECKPOINT_JSON, bundle_texts, check_output_dir, fmt_sig,
                        run_result_doc, write_bundle)
from .trainer import (NonFiniteLogits, TrainingDiverged, evaluate_model, fit_temperature,
                      records_for, train_with_pruning)


def _metric_line(name, value):
    if value is None:
        return f"{name} undefined"
    if isinstance(value, float):
        return f"{name} {fmt_sig(value)}"
    return f"{name} {value}"


def _print_report(report):
    lines = [_metric_line("ece", report.ece)]
    for s in report.subsets:
        tag = repr(s.delta)  # "g" would print both 0.9999999 and 0.99999999 as 1
        lines.append(_metric_line(f"ece_s{tag}", s.ece))
        lines.append(_metric_line(f"frac_s{tag}_pct", s.fraction_pct))
    lines.append(_metric_line("test_error_pct", report.test_error_pct))
    lines.append(_metric_line("auroc", report.auroc))
    return lines


def cmd_train(args):
    cfg = load_config(args.config, overrides=args.set or ())
    check_output_dir(cfg["output_dir"])
    train, _, test = build_datasets(cfg, splits=("train", "test"))
    widths = model_widths(cfg, train.x.shape[1], train.n_classes)
    train_config = build_train_config(cfg)
    params = init_mlp(widths, train_config.seed)
    try:
        result = train_with_pruning(train, params, train_config)
        report = evaluate_model(result.params, test, cfg["eval"]["bins"], cfg["eval"]["deltas"])
    except (TrainingDiverged, NonFiniteLogits) as exc:  # either way the run diverged
        raise TrainingDiverged(f"{source_name(cfg, 'train')}: {exc}") from None
    files = bundle_texts(report, run_doc=run_result_doc(result, report, cfg))
    write_bundle(cfg["output_dir"], files,
                 extra_files={CHECKPOINT_JSON: checkpoint_text(result.params)})
    for line in _print_report(report):
        print(line)
    print(_metric_line("sample_updates", result.total_sample_updates))
    print(_metric_line("sample_updates_full",
                       train_config.max_epochs * len(train)))
    print(_metric_line("output_dir", cfg["output_dir"]))
    return 0


def _checkpoint_and_data(args, cfg, splits):
    """The checkpoint at --checkpoint, then the val and test Datasets of
    `splits` (None if not named); a test set the checkpoint cannot score
    raises naming both."""
    params = load_checkpoint(args.checkpoint)
    _, val, test = build_datasets(cfg, splits=splits, n_classes=params.n_classes)
    source = source_name(cfg, "test")
    if params.widths[0] != test.x.shape[1]:
        raise ValueError(f"{source}: {test.x.shape[1]} features per row, checkpoint "
                         f"{args.checkpoint} expects {params.widths[0]}")
    if params.n_classes != test.n_classes:
        raise ValueError(f"{source}: dataset declares {test.n_classes} classes, checkpoint "
                         f"{args.checkpoint} predicts {params.n_classes}")
    return params, val, test


def cmd_evaluate(args):
    cfg = load_config(args.config, overrides=args.set or ())
    check_output_dir(args.out)
    params, _, test = _checkpoint_and_data(args, cfg, splits=("test",))
    try:
        report = evaluate_model(params, test, cfg["eval"]["bins"], cfg["eval"]["deltas"])
    except NonFiniteLogits as exc:
        raise ValueError(f"checkpoint {args.checkpoint}: {exc}") from None
    write_bundle(args.out, bundle_texts(report))
    for line in _print_report(report):
        print(line)
    return 0


def cmd_calibrate(args):
    cfg = load_config(args.config, overrides=args.set or ())
    params, val, test = _checkpoint_and_data(args, cfg, splits=("val", "test"))
    try:
        temperature = fit_temperature(params, val)
        before, after = records_for(params, test, temperatures=(1.0, temperature))
    except NonFiniteLogits as exc:
        raise ValueError(f"checkpoint {args.checkpoint}: {exc}") from None
    _, ece_before = binned_ece(*before, cfg["eval"]["bins"])
    _, ece_after = binned_ece(*after, cfg["eval"]["bins"])
    print(_metric_line("temperature", temperature))
    print(_metric_line("ece_before", ece_before))
    print(_metric_line("ece_after", ece_after))
    return 0


def cmd_report(args):
    check_output_dir(args.out)
    doc = read_json(args.run)
    require_kind("object", doc, f"{args.run}: run document")
    if "report" not in doc:
        raise ValueError(f'{args.run}: run document lacks key "report"')
    try:
        report = report_from_dict(doc["report"])
    except ValueError as exc:
        raise ValueError(f"{args.run}: {exc}") from None
    write_bundle(args.out, bundle_texts(report))
    print(_metric_line("output_dir", args.out))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="calprune",
        description="Calibration-aware training with dynamic data pruning.")
    sub = parser.add_subparsers(dest="command", required=True)
    configured = argparse.ArgumentParser(add_help=False)  # the flags of every config reader
    configured.add_argument("--config", required=True, help="JSON config path")
    configured.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                            help="override a config value (beats the file and "
                                 f"the {OUTPUT_DIR_ENV} env var)")

    train = sub.add_parser("train", parents=[configured],
                           help="train a model end-to-end from a config file")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", parents=[configured],
                              help="evaluate a checkpoint on the test set")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--out", required=True, help="bundle output directory")
    evaluate.set_defaults(func=cmd_evaluate)

    calibrate = sub.add_parser("calibrate", parents=[configured],
                               help="fit a softmax temperature on the validation split")
    calibrate.add_argument("--checkpoint", required=True)
    calibrate.set_defaults(func=cmd_calibrate)

    report = sub.add_parser("report", help="regenerate CSV/SVG artifacts from a run JSON")
    report.add_argument("--run", required=True, help="path to run.json")
    report.add_argument("--out", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def _warning_line(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
