"""Command-line interface.

Subcommands:

    shock-table   grid of extreme deviations a(n, kappa) next to sqrt(n-1)
    bounds        evaluate one of the moment bounds over an (n, kappa) grid
    tail-factor   once-in-n quantile of a reference model (normal/student-t)
    validate      check a quoted (or published BLR) tail factor
    empirical     check a tail factor against a CSV of observed returns
    appendix      shape-comparison table for the outlier search

Exit codes (stable contract): 0 success or PASS, 1 usage or parse error,
2 validation FAIL, 3 infeasible domain.  Each subcommand's builder returns
its document with its own exit code, 3 for a grid with an infeasible cell;
main maps errors to 1 and 3.

Each subcommand accepts --format {csv,json,markdown}, --output FILE and
--precision K (decimal places, default 3).  The JSON layout is described by
docs/output_schema.json.

main builds the parser of the subcommand that its first argument names, and
all six only for -h, no subcommand or an unknown one; help and usage errors
read as the full parser's (build_parser) byte for byte.

CSV input for `empirical`: UTF-8, with or without a byte-order mark (as
Excel's "CSV UTF-8" writes); an optional header line (detected by a
non-numeric last field, the value); then one observation per line, either
`value` or `date,value`; plain decimal-point numbers; blank lines are
skipped.  A stream that cannot seek, such as a pipe, is read record by
record.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from . import appendix_search, chebyshev_bounds, distributions, extreme_point, validator
from .errors import DomainError, TailboundError
from .output import FORMATS, INFEASIBLE_MARKER, OutputDocument

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INFEASIBLE = 3

SHOCK_TABLE_N = [250, 500, 1000, 10_000, 100_000, 1_000_000, 833_208]
DEFAULT_KAPPAS = [7.0, 10.0, 13.0, 16.0]
EVEN_MOMENT_N = [250, 500, 1000, 10_000, 100_000, 1_000_000]
BHATTACHARYYA_N = [10_000, 100_000, 1_000_000, 10_000_000, 100_000_000]
APPENDIX_M = [500, 1000, 2000, 3000, 4000, 5000, 10_000]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int(text: str) -> int:
    """An int that converts to a float, as every count here is used as one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        float(value)
    except OverflowError:
        raise argparse.ArgumentTypeError("integer too large to convert to float") from None
    return value


def _precision(text: str) -> int:
    value = _int(text)
    if not 0 <= value <= 17:
        raise argparse.ArgumentTypeError(f"precision must be within 0..17, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="markdown",
                   help="output format (default: markdown)")
    p.add_argument("--output", metavar="FILE", default=None,
                   help="write the document to FILE instead of stdout")
    p.add_argument("--precision", type=_precision, default=3, metavar="K",
                   help="decimal places for rendered numbers, 0..17 (default: 3)")


def _shock_table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int, nargs="+", default=SHOCK_TABLE_N,
                   help="history lengths (rows)")
    p.add_argument("--kurtosis", type=float, nargs="+", default=DEFAULT_KAPPAS,
                   help="kurtosis values (columns)")
    p.set_defaults(build=build_shock_table)


def _bounds_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", required=True,
                   choices=["even-moment", "zelen", "bhattacharyya"])
    p.add_argument("--n", type=_int, nargs="+", default=None,
                   help="sample sizes (rows; default depends on method)")
    p.add_argument("--kurtosis", type=float, nargs="+", default=DEFAULT_KAPPAS)
    p.set_defaults(build=build_bounds_table)


def _tail_factor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=["normal", "student-t"])
    p.add_argument("--dof", type=_int, default=None,
                   help="degrees of freedom (student-t only)")
    p.add_argument("--horizon", type=float, required=True, metavar="N",
                   help="exceedance horizon n; quantile level is 1 - 1/n")
    p.set_defaults(build=build_tail_factor)


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tail-factor", type=float, default=None,
                   help="quoted tail factor in sigmas")
    p.add_argument("--blr", action="store_true",
                   help="look the tail factor up in the published BLR grid")
    p.add_argument("--g-inv", default=None, metavar="LABEL",
                   help="BLR mean-reversion time label, e.g. 6m")
    p.add_argument("--kurtosis", type=float, required=True)
    p.add_argument("--history", type=_int, required=True, metavar="N")
    p.add_argument("--days-per-year", type=_positive_int, default=None,
                   help="business days per year (reporting only; default 250)")
    p.set_defaults(build=build_validate)


def _empirical_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="CSV of observations: `value` or `date,value` lines")
    p.add_argument("--tail-factor", type=float, required=True)
    p.set_defaults(build=build_empirical)


def _appendix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int, nargs="+", default=APPENDIX_M,
                   help="base sizes m (each search uses m + 1 points)")
    p.add_argument("--kappa", type=float, default=16.0,
                   help="target kurtosis (default 16)")
    p.set_defaults(build=build_appendix)


#: each subcommand's help line and the function that adds its arguments, in
#: the order help lists them; the functions look their builder up when
#: called, so a builder replaced on the module is the one that runs
_COMMANDS = {
    "shock-table": ("extreme-deviation grid a(n, kappa)", _shock_table_args),
    "bounds": ("moment-bound grid", _bounds_args),
    "tail-factor": ("once-in-n model quantile", _tail_factor_args),
    "validate": ("check a tail factor against the bound", _validate_args),
    "empirical": ("check a tail factor against observed data", _empirical_args),
    "appendix": ("base-shape comparison table", _appendix_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of all six subcommands."""
    return _parser(None)


def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.  With one
    subcommand its usage line still names all six, as the full parser's
    does, so its help and errors read the same byte for byte."""
    parser = _Parser(prog="tailbound",
                     description="Kurtosis-constrained extreme-deviation bounds "
                                 "and shock-model validation.")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (help_text, add_args) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            _add_output_flags(p)
    return parser


# ---------------------------------------------------------------------------
# document builders
# ---------------------------------------------------------------------------


def _grid(n_list: Sequence[int], kappa_list: Sequence[float], cell, lead) -> tuple[list, int]:
    """One row per n: lead(n), then cell(n, kappa) for each kappa or the
    marker where that is out of domain; exit 3 once any cell is."""
    rows, code = [], EXIT_OK
    for n in n_list:
        row = lead(n)
        for kappa in kappa_list:
            try:
                row.append(cell(n, kappa))
            except DomainError:
                row.append(INFEASIBLE_MARKER)
                code = EXIT_INFEASIBLE
        rows.append(row)
    return rows, code


def _kappa_labels(kappa_list: Sequence[float]) -> list[str]:
    """Column labels: each kurtosis in %g form where that reads back as the
    same float, else as its repr, so no two distinct values share a label."""
    return [f"kurtosis={k:g}" if float(f"{k:g}") == k else f"kurtosis={k!r}"
            for k in kappa_list]


def build_shock_table(args) -> tuple[OutputDocument, int]:
    rows, code = _grid(args.n, args.kurtosis,
                       lambda n, kappa: extreme_point.solve_extreme_point(n, kappa).a,
                       lambda n: [n, extreme_point.samuelson_bound(n)])
    return OutputDocument(
        title="extreme deviation by history length and kurtosis",
        columns=["N", "sqrt(N-1)"] + _kappa_labels(args.kurtosis),
        rows=rows,
        notes=["cells are max standardised deviations a(N, kurtosis); "
               "population moments, divisor N"],
    ), code


def build_bounds_table(args) -> tuple[OutputDocument, int]:
    method = args.method

    def cell(n: int, kappa: float):
        if method == "even-moment":
            return chebyshev_bounds.even_moment_endpoint(n, kappa).threshold_t
        sol = extreme_point.solve_extreme_point(n, kappa)
        if method == "zelen":
            return chebyshev_bounds.zelen_bound(sol.a, sol.theta3, kappa).one_in_n
        return chebyshev_bounds.bhattacharyya_bound(sol.a, sol.theta3, kappa).probability

    n_list = args.n or (BHATTACHARYYA_N if method == "bhattacharyya" else EVEN_MOMENT_N)
    rows, code = _grid(n_list, args.kurtosis, cell, lambda n: [n])
    titles = {
        "even-moment": "fourth-moment bound threshold (kappa*N)^(1/4) at probability 1/N",
        "zelen": "Zelen bound expressed as one-in-N at the extreme-point threshold",
        "bhattacharyya": "Bhattacharyya one-sided bound at the extreme-point threshold",
    }
    return OutputDocument(
        title=titles[method],
        columns=["N"] + _kappa_labels(args.kurtosis),
        rows=rows,
    ), code


def build_tail_factor(args) -> tuple[OutputDocument, int]:
    model, dof, horizon = args.model, args.dof, args.horizon
    if model == "student-t" and dof is None:
        raise _UsageError("--model student-t requires --dof")
    if model == "normal" and dof is not None:
        raise _UsageError("--dof applies to --model student-t only")
    query = distributions.TailFactorQuery(horizon_n=horizon, model=model, dof=dof)
    doc = OutputDocument(
        title="once-in-horizon tail factor",
        columns=["model", "dof", "horizon_n", "probability", "tail_factor"],
        rows=[[model, dof, horizon, query.probability, query.tail_factor()]],
    )
    if model == "student-t" and dof <= 2:  # after the solve, so a rejected dof gets none
        print(f"warning: student-t with dof={dof} has infinite "
              "variance; the raw quantile is still reported", file=sys.stderr)
    return doc, EXIT_OK


def build_validate(args) -> tuple[OutputDocument, int]:
    if args.blr:
        if args.g_inv is None:
            raise _UsageError("--blr requires --g-inv")
        if args.tail_factor is not None:
            raise _UsageError("--tail-factor conflicts with --blr (it is looked up)")
        v = validator.validate_model(distributions.blr_tail_factor(args.g_inv, args.kurtosis),
                                     args.history, args.kurtosis)
        days = args.days_per_year or 250  # a given one is positive
        notes = [f"BLR tail factor for 1/g = {args.g_inv}, table {distributions.BLR_TABLE_VERSION}",
                 f"history of {args.history} days is {args.history / days:.1f} years at "
                 f"{days} days/year"]
    else:
        if args.tail_factor is None:
            raise _UsageError("provide --tail-factor, or --blr with --g-inv")
        if args.g_inv is not None:
            raise _UsageError("--g-inv applies to --blr only")
        if args.days_per_year is not None:
            raise _UsageError("--days-per-year applies to --blr only")
        v = validator.validate_model(args.tail_factor, args.history, args.kurtosis)
        notes = []
    safe = v.max_safe_history
    return OutputDocument(
        title="shock model validation",
        columns=["tail_factor", "history_n", "kurtosis", "required_a",
                 "margin", "max_safe_history", "verdict"],
        rows=[[v.tail_factor, v.history_n, v.kappa, v.required_a, v.margin,
               "unbounded" if safe is None else safe,
               "PASS" if v.passed else "FAIL"]],
        notes=notes,
    ), EXIT_OK if v.passed else EXIT_FAIL


def build_empirical(args) -> tuple[OutputDocument, int]:
    values = read_return_csv(args.file)
    result = validator.empirical_validate(values, args.tail_factor)
    s, v = result.series, result.verdict
    return OutputDocument(
        title="empirical tail-factor validation",
        columns=["n", "mean", "sigma", "kurtosis", "max_abs_dev_sigmas",
                 "tail_factor", "required_a", "margin", "historical_breach",
                 "kurtosis_infeasible", "verdict"],
        rows=[[s.n, s.mean, s.sigma, s.kurtosis, s.max_abs_deviation_in_sigmas,
               v.tail_factor, v.required_a, v.margin,
               str(result.historical_breach), str(result.kurtosis_infeasible),
               "PASS" if result.passed else "FAIL"]],
        notes=(["observed kurtosis outside the feasible range; Samuelson "
                "fallback threshold sqrt(n-1) applied"]
               if result.kurtosis_infeasible else []),
    ), EXIT_OK if result.passed else EXIT_FAIL


def build_appendix(args) -> tuple[OutputDocument, int]:
    rows = [list(r) for r in appendix_search.comparison_table(args.n, args.kappa)]
    return OutputDocument(
        title=f"outlier deviation by base shape at kurtosis {args.kappa:g}",
        columns=["N-1", "sqrt(N-1)", *appendix_search.SHAPES],
        rows=rows,
        notes=["each row grafts one outlier onto an (N-1)-point base; "
               "sqrt(N-1) is the kurtosis-free ceiling for the N-point dataset"],
    ), EXIT_OK


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


class CsvFormatError(TailboundError, ValueError):
    """Line-numbered CSV parse failure."""


def _parse_number(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CsvFormatError(f"line {lineno}: cannot parse value {text!r}") from None
    if not math.isfinite(value):
        raise CsvFormatError(f"line {lineno}: non-finite value {text!r}")
    return value


def read_return_csv(path: str) -> list[float]:
    """Read observations per the CSV contract in the module docstring.

    A regular file is read in 64 KiB blocks; any other, and any stream that
    cannot seek back to its start, goes to the record loop, with the same
    values and the same messages.

    Raises:
        CsvFormatError: malformed content, with the offending line number,
            or a file that is not UTF-8 text.
        OSError: unreadable file.
    """
    import csv  # only empirical pays for loading it

    # utf-8-sig drops a leading byte-order mark, after seek(0) too: float()
    # does not parse one, so a first value behind it would read as a header
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        if fh.seekable():  # a pipe cannot seek back for the record loop
            try:
                fast = _read_blocks(fh)
            except UnicodeDecodeError:  # the record loop finds any earlier error
                fast = None
            if fast is not None:
                return fast
            fh.seek(0)
        reader = csv.reader(fh)
        values: list[float] = []
        first_record_seen = False
        try:
            # messages give reader.line_num, the record's last physical line,
            # since a quoted field can span lines
            for fields in reader:
                if not fields or all(not f.strip() for f in fields):
                    continue
                fields = [f.strip() for f in fields]
                if len(fields) > 2:
                    raise CsvFormatError(
                        f"line {reader.line_num}: expected `value` or `date,value`, "
                        f"got {len(fields)} fields"
                    )
                if not first_record_seen:
                    first_record_seen = True
                    try:
                        float(fields[-1])
                    except ValueError:
                        continue  # header line
                values.append(_parse_number(fields[-1], reader.line_num))
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path} is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise CsvFormatError(f"line {reader.line_num}: {exc}") from None
    return values


def _read_blocks(fh) -> list[float] | None:
    """The values of a regular file, or None for any other.

    A regular file has no quote, no CR but in a CRLF line end, and no blank
    line but in the whitespace that ends its last block; in each block every
    line is `value` or every line is `date,value`, and every value is finite.
    The CR of a CRLF is whitespace to float() and strip(), as the record
    loop's csv module drops it.
    A block is about 64 KiB of whole lines, irregular if longer than the
    csv field limit.  It is split by str methods and converted by map; the
    only bytecode run per row is the comprehension that takes a dated
    line's value after its comma.  The values are finite when their plain
    sum is, and only a sum that is not (a non-finite value, or an overflow)
    checks them one by one.
    """
    import csv

    values: list[float] = []
    limit = csv.field_size_limit()
    header = True
    while text := fh.read(1 << 16):
        text += fh.readline()
        if ('"' in text or "\r" in text and text.count("\r") != text.count("\r\n")
                or len(text) > limit):
            return None
        body = text.rstrip()
        if "\n" in text[len(body):-1]:  # blank lines after the last value
            if fh.read(1):  # and more of the file after them
                return None
            if not body:
                break
            text = body  # blank lines at the end, as the record loop skips them
        lines = text.removesuffix("\n").split("\n")
        if header:
            header = False
            head = lines[0].split(",")
            try:
                float(head[-1].strip())
            except ValueError:
                if len(head) < 3:
                    del lines[0]  # header line, as in the record loop
        fields = lines
        if "," in text:  # "" for no comma and "b,c" for two: float() fails
            fields = [line.partition(",")[2] for line in lines]
        try:
            values.extend(map(float, fields))
        except ValueError:
            return None
    return values if math.isfinite(sum(values)) or all(map(math.isfinite, values)) else None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _UsageError(TailboundError, ValueError):
    pass


def _emit(doc: OutputDocument, args) -> None:
    text = doc.render(args.format, args.precision)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        doc, code = args.build(args)
        _emit(doc, args)
    except (_UsageError, CsvFormatError, OSError) as exc:
        print(f"tailbound: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TailboundError as exc:
        print(f"tailbound: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return code


if __name__ == "__main__":
    sys.exit(main())
