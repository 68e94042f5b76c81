"""Command-line surface: ingest, classify, eval, report.

Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file (``--config``), then explicit CLI flags.
Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import sys
from dataclasses import fields as dataclass_fields
from datetime import date
from pathlib import Path

from .corpus import (
    CorpusError,
    HAM,
    ingest_enron_dir,
    read_canonical,
    write_canonical,
)
from .corpus import Message, split_subject
from .evaluation import (
    EvalError,
    compare_reports,
    eval_dynamic,
    eval_static,
    format_summary_table,
    format_ttest_block,
    make_factory,
    write_runs_csv,
    write_summary_csv,
    write_ttest_csv,
)
from .files import read_text
from .model import IcrmClassifier, IcrmConfig, SnapshotError
from .nbayes import ModelError
from .textprep import SAMPLERS, parse_stopwords

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class ConfigError(Exception):
    pass


def _keyword_defaults(func) -> dict[str, object]:
    return {
        name: p.default
        for name, p in inspect.signature(func).parameters.items()
        if p.default is not p.empty
    }


# Every setting takes the library's own default, so the command line and
# library callers cannot disagree; only the CLI's file locations are set here.
DEFAULTS: dict[str, object] = {
    **_keyword_defaults(eval_static),
    **_keyword_defaults(eval_dynamic),
    **{f.name: f.default for f in dataclass_fields(IcrmConfig)},
    "limit": _keyword_defaults(ingest_enron_dir)["limit_per_class"],
    "feature_sampler": SAMPLERS[0],
    "out": "icrm-out",
    "stopwords": None,
}
_PROTOCOLS = {"static": eval_static, "dynamic": eval_dynamic}
# Settings whose flags are common to all commands, or belong to ingest.
_NOT_EVAL_FLAGS = {"seed", "jobs", "out", "stopwords", "limit"}
_EVAL_HELP = {
    "balance": "balanced evaluation counting",
    "n": "feature sample cap",
    "n_a": "slots per feature",
    "feature_sampler": "ablation switch for the feature selection rule",
}

_BOOL_STRINGS = {"true": True, "yes": True, "1": True,
                 "false": False, "no": False, "0": False}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    if key == "balance" or isinstance(default, bool):
        value = _BOOL_STRINGS.get(raw.strip().lower())
        if value is None:
            raise ConfigError(f"config key {key!r}: expected a boolean, got {raw!r}")
        return value
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def _parse_config_file(path) -> dict:
    settings = {}
    text = read_text(path, ConfigError, "config file")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            settings[key] = _coerce(key, raw.strip())
        except ValueError:
            raise ConfigError(
                f"config line {lineno}: bad value {raw.strip()!r} for {key!r}"
            ) from None
    return settings


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_parse_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["feature_sampler"] not in SAMPLERS:
        raise ConfigError(
            f"feature_sampler must be one of {SAMPLERS}, "
            f"got {settings['feature_sampler']!r}"
        )
    return settings


def _icrm_config(settings: dict) -> IcrmConfig:
    kwargs = {f.name: settings[f.name] for f in dataclass_fields(IcrmConfig)}
    cfg = IcrmConfig(**kwargs)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _load_stopwords(settings: dict):
    path = settings.get("stopwords")
    if path is None:
        return None  # modules fall back to the shipped list
    return parse_stopwords(read_text(path, ConfigError, "stopword file"))


# -- commands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    settings = _merge_settings(args)
    result = ingest_enron_dir(args.src_dir, limit_per_class=settings["limit"])
    try:
        write_canonical(result.dataset, args.out_file)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out_file}: {exc}") from None
    ds = result.dataset
    print(f"ham: {len(ds.ham)}  spam: {len(ds.spam)}  rejected: {result.rejected}")
    print(f"wrote {args.out_file}")
    return EXIT_OK


def cmd_classify(args) -> int:
    settings = _merge_settings(args)
    clf = IcrmClassifier.load(args.state_file, stopwords=_load_stopwords(settings))
    try:
        text = Path(args.message_file).read_text("utf-8", errors="replace")
    except OSError as exc:
        raise CorpusError(f"cannot read message file: {exc}") from None
    subject, body = split_subject(text)
    msg = Message(
        id=Path(args.message_file).name,
        timestamp=date(1970, 1, 1),
        label=HAM,  # placeholder; the test stage never reads the label
        subject=subject,
        body=body,
    )
    verdict = clf.verdict(msg)
    print(f"{verdict.label} {verdict.score:.6f}")
    if args.explain:
        for feature, score in verdict.per_feature:
            print(f"  {feature} {score:+.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = _merge_settings(args)
    cfg = _icrm_config(settings)
    for key in ("runs", "window", "shift", "train_per_class", "test_size", "jobs"):
        if settings[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {settings[key]}")
    if not 0.0 < settings["spam_ratio"] < 1.0:
        raise ConfigError(
            f"spam_ratio must be in (0, 1), got {settings['spam_ratio']}"
        )
    stopwords = _load_stopwords(settings)
    dataset = read_canonical(args.data)
    out_dir = Path(settings["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from None
    kinds = ["icrm", "nb"] if args.model == "both" else [args.model]
    protocol = _PROTOCOLS[args.mode]
    protocol_settings = {key: settings[key] for key in _keyword_defaults(protocol)}
    reports = []
    for kind in kinds:
        factory = make_factory(kind, cfg, stopwords, settings["feature_sampler"])
        report = protocol(dataset, factory, **protocol_settings)
        write_runs_csv(report, out_dir / f"{args.mode}_{kind}.csv")
        write_summary_csv(report, out_dir / f"{args.mode}_{kind}_summary.csv")
        reports.append(report)
    print(format_summary_table(reports, dataset.name))
    if len(reports) == 2:
        rows = compare_reports(reports[0], reports[1])
        write_ttest_csv(rows, out_dir / f"{args.mode}_ttest.csv")
        print(format_ttest_block(rows, reports[0].classifier, reports[1].classifier))
    return EXIT_OK


def cmd_report(args) -> int:
    out_dir = Path(args.path)
    if not out_dir.is_dir():
        raise CorpusError(f"not a report directory: {out_dir}")
    summaries = sorted(out_dir.glob("*_summary.csv"))
    ttests = sorted(out_dir.glob("*_ttest.csv"))
    if not summaries and not ttests:
        raise CorpusError(f"no report files under {out_dir}")
    for path in summaries:
        print(path.name)
        for row in _read_csv(path, ("metric", "mean", "sd", "slope", "r_squared")):
            slope, r2 = row["slope"], row["r_squared"]
            extra = f"  slope {slope} R2 {r2}" if slope else ""
            print(f"  {row['metric']:<12} {row['mean']} +/- {row['sd']}{extra}")
    for path in ttests:
        print(path.name)
        for row in _read_csv(path, ("metric", "t", "p")):
            t, p = _number(path, row, "t"), _number(path, row, "p")
            print(f"  {row['metric']:<12} t = {t:+.3f}  p = {p:.3f}")
    return EXIT_OK


def _read_csv(path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """The rows of a report CSV, each holding every one of ``columns``."""
    reader = csv.DictReader(io.StringIO(read_text(path, CorpusError, "report file")))
    rows = []
    try:
        for row in reader:
            missing = [c for c in columns if row.get(c) is None]
            if missing:
                raise CorpusError(
                    f"{path}: line {reader.line_num}: missing column "
                    f"{', '.join(missing)}"
                )
            rows.append(row)
    except csv.Error as exc:
        raise CorpusError(f"cannot read report file {path}: {exc}") from None
    return rows


def _number(path, row: dict[str, str], column: str) -> float:
    try:
        return float(row[column])
    except ValueError:
        raise CorpusError(
            f"{path}: column {column} is not a number: {row[column]!r}"
        ) from None


# -- argument wiring -------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int,
                        help=f"randomization seed (default {DEFAULTS['seed']})")
    common.add_argument("--config", help="flat key = value settings file")
    common.add_argument("--out", help="output directory for report files")
    common.add_argument("--jobs", type=int, help="parallel evaluation runs")
    common.add_argument("--stopwords", help="override the shipped stopword list")
    return common


def build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(prog="icrm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser(
        "ingest", parents=[common], help="convert an Enron-spam tree to canonical form"
    )
    p_ingest.add_argument("src_dir")
    p_ingest.add_argument("out_file")
    p_ingest.add_argument("--limit", type=int,
                          help=f"messages kept per class (default {DEFAULTS['limit']})")
    p_ingest.set_defaults(handler=cmd_ingest)

    p_classify = sub.add_parser(
        "classify", parents=[common], help="classify one message file with a saved state"
    )
    p_classify.add_argument("state_file")
    p_classify.add_argument("message_file")
    p_classify.add_argument("--explain", action="store_true",
                            help="also print one score line per sampled feature")
    p_classify.set_defaults(handler=cmd_classify)

    p_eval = sub.add_parser(
        "eval", parents=[common], help="run an evaluation protocol"
    )
    p_eval.add_argument("mode", choices=["static", "dynamic"])
    p_eval.add_argument("model", choices=["icrm", "nb", "both"])
    p_eval.add_argument("--data", required=True, help="canonical dataset file")
    for key, default in DEFAULTS.items():
        if key in _NOT_EVAL_FLAGS:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "balance" or isinstance(default, bool):
            spec = {"action": argparse.BooleanOptionalAction}
        elif key == "feature_sampler":
            spec = {"choices": SAMPLERS}
        else:
            spec = {"type": type(default)}
        p_eval.add_argument(flag, help=_EVAL_HELP.get(key), **spec)
    p_eval.set_defaults(handler=cmd_eval)

    p_report = sub.add_parser(
        "report", parents=[common], help="re-render tables from an output directory"
    )
    p_report.add_argument("path")
    p_report.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"icrm: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, SnapshotError, ModelError, EvalError) as exc:
        print(f"icrm: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
