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
from typing import get_args

from .corpus import (
    CorpusError,
    HAM,
    Message,
    ingest_enron_dir,
    read_canonical,
    read_message_file,
    write_canonical,
)
from .evaluation import (
    SUMMARY_COLUMNS,
    TTEST_COLUMNS,
    EvalError,
    check_settings,
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
from .model import IcrmClassifier, IcrmConfig, SnapshotError
from .ranges import RANGES
from .textprep import parse_stopwords

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class ConfigError(Exception):
    pass


def _read_text(path, error: type[Exception], what: str) -> str:
    """The whole of the UTF-8 text file at ``path``; a file that cannot be
    read or is not UTF-8 is ``error`` naming it as ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


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
    "out": "icrm-out",
    "stopwords": None,
}
_PROTOCOLS = {"static": eval_static, "dynamic": eval_dynamic}
_HELP = {
    "seed": f"randomization seed (default {DEFAULTS['seed']})",
    "limit": f"messages kept per class (default {DEFAULTS['limit']})",
    "out": "output directory for report files",
    "stopwords": "override the shipped stopword list",
    "balance": "balanced evaluation counting",
    "n": "feature sample cap",
    "n_a": "slots per feature",
    "feature_sampler": "ablation switch for the feature selection rule",
}

_BOOL_STRINGS = {"true": True, "yes": True, "1": True,
                 "false": False, "no": False, "0": False}
# the type each setting is read as: its row's (bool for balance), str for a path
_TYPES = {k: (get_args(t) or (t,))[0] for k, (t, _) in RANGES.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print it and exit 2
        raise ConfigError(message)


# every character str.splitlines breaks a line at, escaped as repr escapes it
_ONE_LINE = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _coerce(key: str, raw: str):
    kind = _TYPES.get(key, str)
    try:
        return _BOOL_STRINGS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ValueError(f"bad value {raw!r} for {key!r}") from None


def _parse_config_file(path) -> dict:
    settings = {}
    text = _read_text(path, ConfigError, "config file")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = (part.strip() for part in stripped.partition("="))
        try:
            if not sep:
                raise ValueError("expected 'key = value'")
            if key not in DEFAULTS:
                raise ValueError(f"unknown key {key!r}")
            settings[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    return settings


def _settings(args: argparse.Namespace, reads) -> dict:
    """A command's settings: ``DEFAULTS``, then the config file's keys in
    ``reads``, then the flags. A given flag outside ``reads`` is refused
    before the config file is read; only ``eval`` wires flags a run of it
    may not read. A config key outside ``reads`` is parsed, never merged, so
    its range is never checked."""
    flags = {key: value for key in DEFAULTS
             if (value := getattr(args, key, None)) is not None}
    for key, value in flags.items():
        if key not in reads:
            flag = "--" + "no-" * (value is False) + key.replace("_", "-")
            raise ConfigError(f"eval {args.mode} {args.model} does not read {flag}")
    config = _parse_config_file(args.config) if args.config else {}
    return {**DEFAULTS, **{k: v for k, v in config.items() if k in reads}, **flags}


def _run_settings(mode: str, model: str) -> set[str]:
    """The settings an ``eval`` run of ``model`` under ``mode`` reads."""
    keys = {*_keyword_defaults(_PROTOCOLS[mode]), "out", "stopwords", "n"}
    if model != "nb":
        keys |= {f.name for f in dataclass_fields(IcrmConfig)}
    elif mode == "dynamic":
        # the dynamic protocol hands its seed to the classifier alone, and
        # Naive Bayes draws nothing
        keys.discard("seed")
    return keys


def _load_stopwords(settings: dict):
    path = settings.get("stopwords")
    if path is None:
        return None  # modules fall back to the shipped list
    return parse_stopwords(_read_text(path, ConfigError, "stopword file"))


# -- commands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    settings = _settings(args, {"limit"})
    try:
        result = ingest_enron_dir(args.src_dir, limit_per_class=settings["limit"])
    except ValueError as exc:  # only the limit check raises it
        raise ConfigError(str(exc)) from None
    try:
        write_canonical(result.dataset, args.out_file)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out_file}: {exc}") from None
    ds = result.dataset
    print(f"ham: {len(ds.ham)}  spam: {len(ds.spam)}  rejected: {result.rejected}")
    print(f"wrote {args.out_file}")
    return EXIT_OK


def cmd_classify(args) -> int:
    """Classify each message file, in the order given, with one loaded state.

    The config and stopword files are read first, then every message file,
    and only then the state, so a file that cannot be read prints nothing.
    The messages run as one stream through the loaded classifier, as
    :meth:`IcrmClassifier.verdict` calls would: each verdict sees the
    adaptation of the ones before it, and nothing is written back to the
    state file. Each message prints its block: ``label score`` and, with
    ``--explain``, one line per sampled feature.
    """
    settings = _settings(args, {"stopwords"})
    stopwords = _load_stopwords(settings)
    messages = []
    for path in args.message_files:
        subject, body = read_message_file(path)
        # the label is a placeholder: the test stage never reads it
        messages.append(Message(id=Path(path).name, timestamp=date(1970, 1, 1),
                                label=HAM, subject=subject, body=body))
    clf = IcrmClassifier.load(args.state_file, stopwords=stopwords)
    for msg in messages:
        verdict = clf.verdict(msg)
        print(f"{verdict.label} {verdict.score:.6f}")
        if args.explain:
            for feature, score in verdict.per_feature:
                print(f"  {feature} {score:+.6f}")
    return EXIT_OK


def _write_report(write, data, path: Path) -> None:
    """Write ``data`` to ``path`` with ``write``, making the output
    directory and its missing parents first."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(data, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def cmd_eval(args) -> int:
    settings = _settings(args, _run_settings(args.mode, args.model))
    model_settings = {f.name: settings[f.name] for f in dataclass_fields(IcrmConfig)}
    try:
        cfg = IcrmConfig(**model_settings)
        check_settings(settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.mode == "static" and args.model == "both" and settings["runs"] < 2:
        raise ConfigError(f"eval static both compares the two models' runs with a "
                          f"paired t-test and needs runs >= 2, got {settings['runs']}")
    stopwords = _load_stopwords(settings)
    dataset = read_canonical(args.data)
    # the output directory is made by the first report written; what --out
    # names is checked here, before any computation, and nothing is made
    out_dir = Path(settings["out"])
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write into {out_dir}: {existing} is not a directory")
    kinds = ["icrm", "nb"] if args.model == "both" else [args.model]
    names = [f"{kind}{part}" for kind in kinds for part in ("", "_summary")]
    names += ["ttest"] if len(kinds) == 2 else []
    paths = {name: out_dir / f"{args.mode}_{name}.csv" for name in names}
    for path in paths.values():
        if path.is_dir():
            raise ConfigError(f"report path {path} is a directory")
    protocol = _PROTOCOLS[args.mode]
    protocol_settings = {key: settings[key] for key in _keyword_defaults(protocol)}
    reports = []
    for kind in kinds:
        factory = make_factory(kind, cfg, stopwords)
        report = protocol(dataset, factory, **protocol_settings)
        _write_report(write_runs_csv, report, paths[kind])
        _write_report(write_summary_csv, report, paths[f"{kind}_summary"])
        reports.append(report)
    print(format_summary_table(reports, dataset.name))
    if len(reports) == 2:
        rows = compare_reports(reports[0], reports[1])
        _write_report(write_ttest_csv, rows, paths["ttest"])
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
        rows = _read_csv(path, SUMMARY_COLUMNS)
        for row in rows:
            _number(path, row, "mean")
            _number(path, row, "sd")
            for column in ("slope", "r_squared"):  # empty outside dynamic mode
                if row[column]:
                    _number(path, row, column)
        print(path.name)
        for row in rows:
            slope, r2 = row["slope"], row["r_squared"]
            extra = f"  slope {slope} R2 {r2}" if slope else ""
            print(f"  {row['metric']:<12} {row['mean']} +/- {row['sd']}{extra}")
    for path in ttests:
        rows = _read_csv(path, TTEST_COLUMNS)
        numbers = [(_number(path, row, "t"), _number(path, row, "p")) for row in rows]
        print(path.name)
        for row, (t, p) in zip(rows, numbers):
            print(f"  {row['metric']:<12} t = {t:+.3f}  p = {p:.3f}")
    return EXIT_OK


def _read_csv(path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """The rows of a report CSV: a header naming every one of ``columns``,
    then one or more rows, each holding every one of them."""
    reader = csv.DictReader(io.StringIO(_read_text(path, CorpusError, "report file")))
    rows = []
    try:
        if reader.fieldnames is None:
            raise CorpusError(f"{path}: empty report file")
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise CorpusError(
                f"{path}: line {reader.line_num}: missing column {', '.join(missing)}"
            )
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
    if not rows:
        raise CorpusError(f"{path}: no rows below the header")
    return rows


def _number(path, row: dict[str, str], column: str) -> float:
    try:
        return float(row[column])
    except ValueError:
        raise CorpusError(
            f"{path}: column {column} is not a number: {row[column]!r}"
        ) from None


# -- argument wiring -------------------------------------------------------


def _add_settings(parser: argparse.ArgumentParser, keys) -> None:
    """``--config`` and one flag per setting in ``keys``, each defaulting to None."""
    parser.add_argument("--config", help="flat key = value settings file")
    for key in keys:
        kind = _TYPES.get(key, str)
        limits = dict(RANGES[key][1]) if key in RANGES else {}
        spec = ({"action": argparse.BooleanOptionalAction} if kind is bool
                else {"type": kind, "choices": limits.get("one of")})
        parser.add_argument("--" + key.replace("_", "-"), help=_HELP.get(key), **spec)


def _wire_ingest(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("src_dir")
    parser.add_argument("out_file")
    _add_settings(parser, ["limit"])
    parser.set_defaults(handler=cmd_ingest)


def _wire_classify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("state_file")
    parser.add_argument("message_files", nargs="+", metavar="message_file",
                        help="classified in the order given, as one stream")
    _add_settings(parser, ["stopwords"])
    parser.add_argument("--explain", action="store_true",
                        help="also print one score line per sampled feature")
    parser.set_defaults(handler=cmd_classify)


def _wire_eval(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("mode", choices=list(_PROTOCOLS))
    parser.add_argument("model", choices=["icrm", "nb", "both"])
    parser.add_argument("--data", required=True, help="canonical dataset file")
    read = _run_settings("static", "icrm") | _run_settings("dynamic", "icrm")
    _add_settings(parser, [key for key in DEFAULTS if key in read])
    parser.set_defaults(handler=cmd_eval)


def _wire_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path")
    parser.set_defaults(handler=cmd_report)


# command name -> (help line, wiring); each wiring names its handler when it
# runs, so a handler rebound on this module is the one called
_COMMANDS = {
    "ingest": ("convert an Enron-spam tree to canonical form", _wire_ingest),
    "classify": ("classify message files with one saved state", _wire_classify),
    "eval": ("run an evaluation protocol", _wire_eval),
    "report": ("re-render tables from an output directory", _wire_report),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="icrm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, wire) in _COMMANDS.items():
        wire(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        # the full tree's subparser for this command, built alone: it has the
        # same prog, so its help, errors and exit codes are the same
        name, argv = argv[0], argv[1:]
        parser = _Parser(prog=f"icrm {name}")
        _COMMANDS[name][1](parser)
        parser.set_defaults(command=name)
    else:  # top-level help, or an error about the command
        parser = build_parser()
    # the one printer of refusals: one stderr line, whatever the values it quotes
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse printed help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"icrm: config error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, SnapshotError, EvalError) as exc:
        print(f"icrm: error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
