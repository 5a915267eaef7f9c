"""End-to-end CLI runs: formats, exit codes, file IO."""

import contextlib
import csv
import io
import json
import math
import random
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailbound import cli, construct_distribution, solve_extreme_point

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output_schema.json")
    .read_text(encoding="utf-8")
)


def write_values(path, values, header=None, dates=False):
    lines = []
    if header:
        lines.append(header)
    for i, v in enumerate(values):
        lines.append(f"2024-01-{i % 28 + 1:02d},{v!r}" if dates else repr(v))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# shock-table
# ---------------------------------------------------------------------------


def test_shock_table_markdown_default(run_cli):
    res = run_cli("shock-table")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].startswith("### ")
    assert lines[1] == ""
    assert lines[2].startswith("| N | sqrt(N-1) | kurtosis=7 |")
    assert set(lines[3].replace("|", "").split()) == {"---"}
    assert lines[4].startswith("| 250 | 15.780 | 6.296 |")


def test_shock_table_json_matches_schema(run_cli):
    res = run_cli("shock-table", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["columns"][:2] == ["N", "sqrt(N-1)"]
    assert doc["rows"][0][0] == 250
    assert doc["rows"][0][2] == pytest.approx(6.296, abs=5e-4)


def test_shock_table_csv_round_trips_at_full_precision(run_cli):
    res = run_cli("shock-table", "--format", "csv", "--precision", 17)
    assert res.returncode == 0
    records = list(csv.reader(io.StringIO(res.stdout)))
    header, body = records[0], records[1:]
    assert header[0] == "N"
    kappas = [float(c.split("=")[1]) for c in header[2:]]
    for record in body:
        n = int(record[0])
        assert float(record[1]) == math.sqrt(n - 1)
        for kappa, cell in zip(kappas, record[2:]):
            assert float(cell) == solve_extreme_point(n, kappa).a


def test_shock_table_output_file(run_cli, tmp_path):
    target = tmp_path / "table.md"
    res = run_cli("shock-table", "--n", 250, "--output", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    assert target.read_text(encoding="utf-8").startswith("### ")


def test_shock_table_infeasible_cells_exit_3(run_cli):
    res = run_cli("shock-table", "--n", 250, "--kurtosis", 7, 500)
    assert res.returncode == 3
    assert "infeasible" in res.stdout  # table still rendered, with markers
    assert "6.296" in res.stdout


def test_precision_out_of_range_is_usage_error(run_cli):
    res = run_cli("shock-table", "--precision", 18)
    assert res.returncode == 1
    assert "precision" in res.stderr


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_even_moment(run_cli):
    res = run_cli("bounds", "--method", "even-moment", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    jsonschema.validate(doc, SCHEMA)
    row = dict(zip((r[0] for r in doc["rows"]), doc["rows"]))
    assert row[10_000][4] == pytest.approx(20.0, abs=5e-4)  # (16 * 1e4) ** 0.25


def test_bounds_zelen_reports_one_in_n(run_cli):
    res = run_cli("bounds", "--method", "zelen", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    for row in doc["rows"]:
        for cell in row[1:]:
            assert cell == pytest.approx(row[0], abs=0.01)


def test_bounds_bhattacharyya_probabilities(run_cli):
    res = run_cli("bounds", "--method", "bhattacharyya", "--format", "json",
                  "--precision", 6)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["rows"][0][0] == 10_000
    assert doc["rows"][0][1] == pytest.approx(0.003453, rel=0.02)


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_bounds_non_finite_kurtosis_is_infeasible(fmt, capsys):
    code = cli.main(["bounds", "--method", "even-moment", "--n", "250",
                     "--kurtosis", "inf", "16", "--format", fmt])
    out, _ = capsys.readouterr()
    assert code == 3
    if fmt == "json":
        doc = json.loads(out, parse_constant=_no_constants)
        jsonschema.validate(doc, SCHEMA)
        cells = doc["rows"][0]
    elif fmt == "csv":
        cells = list(csv.reader(io.StringIO(out)))[1]
    else:
        cells = [c.strip() for c in out.splitlines()[4].strip("|").split("|")]
    assert cells[1] == "infeasible"
    assert float(cells[2]) == pytest.approx((16 * 250) ** 0.25, abs=5e-4)


def test_bounds_requires_method(run_cli):
    res = run_cli("bounds")
    assert res.returncode == 1
    assert "--method" in res.stderr


# ---------------------------------------------------------------------------
# tail-factor
# ---------------------------------------------------------------------------


def test_tail_factor_normal(run_cli):
    res = run_cli("tail-factor", "--model", "normal", "--horizon", 1_000_000,
                  "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["tail_factor"] == pytest.approx(4.753, abs=5e-4)
    assert row["probability"] == pytest.approx(1 - 1e-6, abs=1e-3)


def test_tail_factor_student_t(run_cli):
    res = run_cli("tail-factor", "--model", "student-t", "--dof", 3,
                  "--horizon", 1_000_000, "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["tail_factor"] == pytest.approx(103.299, abs=5e-3)


def test_tail_factor_low_dof_warns_but_computes(run_cli):
    res = run_cli("tail-factor", "--model", "student-t", "--dof", 2,
                  "--horizon", 250)
    assert res.returncode == 0
    assert "infinite variance" in res.stderr
    assert "tail_factor" in res.stdout


@pytest.mark.parametrize("dof, code", [(0, 3), (1, 0), (2, 0)])
def test_tail_factor_warns_only_for_an_accepted_low_dof(dof, code, capsys):
    assert cli.main(["tail-factor", "--model", "student-t", "--dof", str(dof),
                     "--horizon", "10"]) == code
    _, err = capsys.readouterr()
    assert ("infinite variance" in err) == (code == 0)


@pytest.mark.parametrize("dof", [10**6 + 1, 10**20, 10**300])
def test_tail_factor_dof_above_the_limit_exits_3(dof, capsys):
    # past 10**6 the Student-t tail went wrong without an error, and 10**20
    # and 10**300 ended in tracebacks
    assert cli.main(["tail-factor", "--model", "student-t", "--dof", str(dof),
                     "--horizon", "10"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("tailbound: infeasible: degrees of freedom above 1000000")


def test_tail_factor_flag_misuse(run_cli):
    res = run_cli("tail-factor", "--model", "student-t", "--horizon", 250)
    assert res.returncode == 1
    assert "--dof" in res.stderr

    res = run_cli("tail-factor", "--model", "normal", "--dof", 5,
                  "--horizon", 250)
    assert res.returncode == 1


def test_tail_factor_horizon_below_two_is_infeasible(run_cli):
    res = run_cli("tail-factor", "--model", "normal", "--horizon", 1)
    assert res.returncode == 3
    assert "infeasible" in res.stderr


@pytest.mark.parametrize("model", [["normal"], ["student-t", "--dof", "3"]])
def test_tail_factor_deep_horizon_is_finite(model, capsys):
    # the level 1 - 1/horizon rounds to 1.0; the tail mass does not
    code = cli.main(["tail-factor", "--model", *model, "--horizon", "1e200",
                     "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["probability"] == 1.0
    assert math.isfinite(row["tail_factor"]) and row["tail_factor"] > 30.0


@pytest.mark.parametrize("argv", [
    ["tail-factor", "--model", "normal", "--horizon", "inf"],
    ["tail-factor", "--model", "student-t", "--dof", "3", "--horizon", "inf"],
    ["validate", "--tail-factor", "inf", "--history", "500", "--kurtosis", "7",
     "--format", "json"],
    ["validate", "--tail-factor", "nan", "--history", "500", "--kurtosis", "7"],
    ["appendix", "--n", "5", "--kappa", "nan"],
    ["appendix", "--n", "5", "--kappa", "inf"],
])
def test_non_finite_inputs_exit_3_with_no_output(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "infeasible" in err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_fail_exits_2(run_cli):
    res = run_cli("validate", "--tail-factor", 7, "--history", 500,
                  "--kurtosis", 7)
    assert res.returncode == 2
    assert "FAIL" in res.stdout
    assert "7.464" in res.stdout


def test_validate_pass_exits_0(run_cli):
    res = run_cli("validate", "--tail-factor", 103.299, "--history", 1_000_000,
                  "--kurtosis", 16, "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["verdict"] == "PASS"
    assert row["margin"] > 0


def test_validate_blr_lookup(run_cli):
    res = run_cli("validate", "--blr", "--g-inv", "6m", "--kurtosis", 7,
                  "--history", 5250, "--format", "json")
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["tail_factor"] == pytest.approx(13.115)
    assert row["verdict"] == "FAIL"
    assert any("6m" in note for note in doc["notes"])
    assert any("21.0 years" in note for note in doc["notes"])


def test_validate_blr_flag_misuse(run_cli):
    res = run_cli("validate", "--blr", "--kurtosis", 7, "--history", 250)
    assert res.returncode == 1
    assert "--g-inv" in res.stderr

    res = run_cli("validate", "--blr", "--g-inv", "6m", "--tail-factor", 5,
                  "--kurtosis", 7, "--history", 250)
    assert res.returncode == 1

    res = run_cli("validate", "--kurtosis", 7, "--history", 250)
    assert res.returncode == 1
    assert "--tail-factor" in res.stderr


@pytest.mark.parametrize("days", ["0", "-250"])
def test_days_per_year_must_be_positive(days, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--blr", "--g-inv", "6m", "--kurtosis", "7",
                  "--history", "500", "--days-per-year", days])
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == ""
    assert f"argument --days-per-year: must be a positive integer, got {days}" in err


def test_validate_unknown_blr_label(run_cli):
    res = run_cli("validate", "--blr", "--g-inv", "9m", "--kurtosis", 7,
                  "--history", 250)
    assert res.returncode == 3
    assert "9m" in res.stderr


def test_validate_infeasible_kurtosis_exits_3(run_cli):
    res = run_cli("validate", "--tail-factor", 5, "--history", 250,
                  "--kurtosis", 300)
    assert res.returncode == 3
    assert "infeasible" in res.stderr


def test_validate_missing_required_flag(run_cli):
    res = run_cli("validate", "--tail-factor", 5, "--kurtosis", 7)
    assert res.returncode == 1
    assert "--history" in res.stderr


# ---------------------------------------------------------------------------
# empirical
# ---------------------------------------------------------------------------


def test_empirical_pass_and_fail(run_cli, tmp_path):
    data = construct_distribution(101, 7.0)
    path = write_values(tmp_path / "r.csv", data, header="date,value", dates=True)

    res = run_cli("empirical", path, "--tail-factor", 6.0)
    assert res.returncode == 0
    assert "PASS" in res.stdout

    res = run_cli("empirical", path, "--tail-factor", 5.0, "--format", "json")
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    jsonschema.validate(doc, SCHEMA)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["verdict"] == "FAIL"
    assert row["historical_breach"] == "True"
    assert row["n"] == 101


def test_empirical_plain_values_and_blank_lines(run_cli, tmp_path):
    data = construct_distribution(11, 4.0)
    path = tmp_path / "plain.csv"
    body = "\n\n".join(repr(v) for v in data)  # blank line between records
    path.write_text(body + "\n", encoding="utf-8")
    res = run_cli("empirical", str(path), "--tail-factor", 10.0, "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert dict(zip(doc["columns"], doc["rows"][0]))["n"] == 11


def test_empirical_samuelson_fallback_note(run_cli, tmp_path):
    path = write_values(tmp_path / "flat.csv", [-1.0, 1.0] * 13)
    res = run_cli("empirical", path, "--tail-factor", 6.0, "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert any("Samuelson" in note for note in doc["notes"])


def test_empirical_missing_file(run_cli):
    res = run_cli("empirical", "/no/such/file.csv", "--tail-factor", 5)
    assert res.returncode == 1
    assert "error" in res.stderr


def test_empirical_bad_value_reports_line_number(run_cli, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,value\n2024-01-01,0.5\n2024-01-02,oops\n",
                    encoding="utf-8")
    res = run_cli("empirical", str(path), "--tail-factor", 5)
    assert res.returncode == 1
    assert "line 3" in res.stderr


@pytest.mark.parametrize("tail", ["abc", "1,2,3"], ids=["value", "fields"])
def test_empirical_line_numbers_count_lines_inside_quoted_fields(tmp_path, capsys, tail):
    # the quoted first record spans lines 1-2, so the bad record is on line 8,
    # not the 7th record
    path = tmp_path / "quoted.csv"
    path.write_text('"1\n2"\n3\n4\n5\n6\n7\n' + tail + "\n", encoding="utf-8")
    code = cli.main(["empirical", str(path), "--tail-factor", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("tailbound: error: line 8: ")


def test_empirical_too_many_fields(run_cli, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1.0\n2.0,3.0,4.0\n", encoding="utf-8")
    res = run_cli("empirical", str(path), "--tail-factor", 5)
    assert res.returncode == 1
    assert "line 2" in res.stderr


def test_empirical_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1\n2\n\xff\xfe\n3\n")
    code = cli.main(["empirical", str(path), "--tail-factor", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"tailbound: error: {path} is not UTF-8 text (invalid start byte)\n"


def test_empirical_oversized_field_reports_line_number(tmp_path, capsys):
    # the csv module's field limit stays at its default of 131072 characters
    path = tmp_path / "long.csv"
    path.write_text("1\n2\n" + "9" * 200_000 + "\n3\n", encoding="utf-8")
    code = cli.main(["empirical", str(path), "--tail-factor", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "tailbound: error: line 3: field larger than field limit (131072)\n"


def test_empirical_rejects_non_finite(run_cli, tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0\nnan\n2.0\n", encoding="utf-8")
    res = run_cli("empirical", str(path), "--tail-factor", 5)
    assert res.returncode == 1
    assert "line 2" in res.stderr


def test_empirical_too_few_observations(run_cli, tmp_path):
    path = write_values(tmp_path / "short.csv", [0.1, 0.2, 0.3])
    res = run_cli("empirical", path, "--tail-factor", 5)
    assert res.returncode == 3


def test_empirical_zero_variance(run_cli, tmp_path):
    path = write_values(tmp_path / "const.csv", [2.0] * 30)
    res = run_cli("empirical", path, "--tail-factor", 5)
    assert res.returncode == 3


def _reference_read_return_csv(path: str) -> list[float]:
    """The reader before its fast path: every record stripped and checked."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first_record_seen = False
        for lineno, fields in enumerate(reader, start=1):
            if not fields or all(not f.strip() for f in fields):
                continue
            fields = [f.strip() for f in fields]
            if len(fields) > 2:
                raise cli.CsvFormatError(
                    f"line {lineno}: expected `value` or `date,value`, "
                    f"got {len(fields)} fields"
                )
            if not first_record_seen:
                first_record_seen = True
                try:
                    float(fields[-1])
                except ValueError:
                    continue  # header line
            text = fields[-1]
            try:
                value = float(text)
            except ValueError:
                raise cli.CsvFormatError(
                    f"line {lineno}: cannot parse value {text!r}") from None
            if not math.isfinite(value):
                raise cli.CsvFormatError(f"line {lineno}: non-finite value {text!r}")
            values.append(value)
    return values


# \x1c-\x1f are whitespace to str.strip() but not to float()
_PAD = st.sampled_from(["", "", " ", "\t", "\x0b", "\u00a0", "\u2003", "\u3000", "\x1c"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-Infinity", "1e400", "-1e400", "oops", "1.2.3",
                     "1_000", "0x10", "\u0663.\u0665", ""]),
)
_VALUE = st.tuples(_PAD, _NUMBER, _PAD).map("".join)
_ROW = st.one_of(
    _VALUE,
    _VALUE.map(lambda v: f"2024-01-02,{v}"),
    _VALUE.map(lambda v: f' "2024-01-02" ,"{v}"'),
    _VALUE.map(lambda v: f'"{v}"'),
    _VALUE.map(lambda v: f"a,b,{v}"),
    st.sampled_from(["", "   ", "\t \u00a0", " , ", " , , ", ","]),
)
_HEADER = st.sampled_from(["", "value", "date,value", " Date , Return ", '"date","value"'])
_EOL = st.sampled_from(["\n", "\r\n", "\r"])


def _read_outcome(reader, path):
    try:
        return reader(path)
    except cli.CsvFormatError as exc:
        return ("CsvFormatError", str(exc))


@settings(max_examples=400)
@given(header=_HEADER, rows=st.lists(st.tuples(_ROW, _EOL), max_size=12),
       last_eol=st.booleans())
def test_reader_matches_reference(tmp_path_factory, header, rows, last_eol):
    text = "".join(row + eol for row, eol in [(header, "\n")] + rows)
    if not last_eol:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.getbasetemp() / "reader.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _read_outcome(_reference_read_return_csv, str(path))
    got = _read_outcome(cli.read_return_csv, str(path))
    assert repr(got) == repr(expected)


def _gauss_csv(path, scale):
    rng = random.Random(20191)
    path.write_text("".join(f"{rng.gauss(0.0, 1.0) * scale!r}\n" for _ in range(1000)),
                    encoding="utf-8")
    return str(path)


def _empirical_row(argv, capsys):
    code = cli.main(argv + ["--format", "csv"])
    out, _ = capsys.readouterr()
    records = list(csv.reader(io.StringIO(out)))
    return code, dict(zip(records[0], records[1]))


def test_empirical_kurtosis_is_scale_free(tmp_path, capsys):
    rows = {
        scale: _empirical_row(["empirical", _gauss_csv(tmp_path / f"{scale}.csv", scale),
                               "--tail-factor", "5"], capsys)
        for scale in (1.0, 1e-90, 1e90)
    }
    code, row = rows[1.0]
    assert code in (0, 2)
    for scale in (1e-90, 1e90):
        assert rows[scale][0] == code
        assert rows[scale][1]["kurtosis"] == row["kurtosis"]
        assert rows[scale][1]["max_abs_dev_sigmas"] == row["max_abs_dev_sigmas"]
    assert rows[1e90][1]["sigma"].endswith(("e+89", "e+90"))  # exponent form


def test_empirical_variance_beyond_float_exits_3(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("1e308\n0.1\n0.2\n0.3\n0.4\n0.5\n", encoding="utf-8")
    code = cli.main(["empirical", str(path), "--tail-factor", "5"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "does not fit" in err


@pytest.mark.parametrize("argv", [
    ["shock-table", "--n", str(10**400)],
    ["bounds", "--method", "zelen", "--n", str(10**400)],
    ["appendix", "--n", str(10**400)],
    ["tail-factor", "--model", "student-t", "--horizon", "250", "--dof", str(10**400)],
    ["validate", "--tail-factor", "5", "--kurtosis", "7", "--history", str(10**400)],
    ["validate", "--blr", "--g-inv", "6m", "--kurtosis", "7", "--history", "500",
     "--days-per-year", str(10**400)],
])
def test_integer_beyond_float_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == 1
    assert "too large to convert to float" in err


@pytest.mark.parametrize("argv, code, marker", [
    (["shock-table", "--n", str(10**160)], 0, None),
    (["bounds", "--method", "zelen", "--n", str(10**160), "--kurtosis", "7"], 0, None),
    (["validate", "--tail-factor", "3", "--kurtosis", "7", "--history", str(10**160)],
     2, "FAIL"),
    (["shock-table", "--n", str(10**200), "--kurtosis", "7", "1e150"], 3, "infeasible"),
], ids=["shock-table", "bounds", "validate", "shock-table-n-times-kappa-overflows"])
def test_history_past_the_float_squares_gives_a_finite_row(argv, code, marker, capsys):
    # the solver's (n-1)**2 used to overflow: a traceback and exit 1
    assert cli.main([*argv, "--format", "json"]) == code
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    jsonschema.validate(doc, SCHEMA)
    cells = doc["rows"][0][1:]
    assert all(math.isfinite(c) for c in cells if not isinstance(c, str))
    assert [c for c in cells if isinstance(c, str)] == ([marker] if marker else [])


def test_malformed_integer_keeps_argparse_message(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["shock-table", "--n", "25x"])
    assert exc.value.code == 1
    assert "argument --n: invalid int value: '25x'" in capsys.readouterr().err


def test_huge_cells_render_in_exponent_form(capsys):
    code = cli.main(["validate", "--tail-factor", "1e308", "--history", "500",
                     "--kurtosis", "7", "--format", "csv"])
    out, _ = capsys.readouterr()
    assert code == 0
    row = dict(zip(*csv.reader(io.StringIO(out))))
    assert row["tail_factor"] == "1.000e+308"
    assert row["margin"] == "1.000e+308"
    assert row["required_a"] == "7.464"

    code = cli.main(["validate", "--tail-factor", "1e308", "--history", "500",
                     "--kurtosis", "7", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert dict(zip(doc["columns"], doc["rows"][0]))["tail_factor"] == 1e308


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------


def test_appendix_small_grid(run_cli):
    res = run_cli("appendix", "--n", 20, 50, "--kappa", 12, "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["columns"] == ["N-1", "sqrt(N-1)", "bimodal", "trimodal",
                              "two_thirds", "uniform"]
    assert [r[0] for r in doc["rows"]] == [20, 50]
    assert doc["rows"][0][2] == pytest.approx(
        solve_extreme_point(21, 12.0).a, abs=5e-4
    )


def test_appendix_unreachable_target_exits_3(run_cli):
    res = run_cli("appendix", "--n", 10, "--kappa", 100)
    assert res.returncode == 3
    assert "infeasible" in res.stderr


def test_appendix_base_below_four_names_the_base_size(capsys):
    # the table searches base sizes, so the message must not speak of n = m + 1
    assert cli.main(["appendix", "--n", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "base size must be an integer >= 4, got 3" in err


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(run_cli):
    res = run_cli()
    assert res.returncode == 1


def test_unknown_subcommand_is_usage_error(run_cli):
    res = run_cli("frobnicate")
    assert res.returncode == 1


# ---------------------------------------------------------------------------
# the exit-code contract under generated input
# ---------------------------------------------------------------------------

HISTORY_FLOOR_FAR_FROM_ITS_ESTIMATE = [
    ["validate", "--tail-factor", "3", "--history", str(10**154), "--kurtosis", "1e150"],
    ["validate", "--tail-factor", "3", "--kurtosis", "1.0000000000009095",
     "--history", "2000000000000"],
]


@pytest.mark.parametrize("argv", HISTORY_FLOOR_FAR_FROM_ITS_ESTIMATE,
                         ids=["kurtosis-1e150", "kurtosis-near-1"])
def test_history_floor_far_from_its_estimate_exits_3_promptly(run_cli, argv):
    # the feasibility floor of these kurtoses lies near 10**150 or near
    # 2**40; the timeout fails a search that walks there one size at a time
    res = run_cli(*argv, timeout=10)
    assert res.returncode == 3
    assert res.stdout == ""
    assert "no feasible history length" in res.stderr


_CSV_PATH = "<csv>"  # replaced by the path of the generated file
_FLOAT = st.one_of(
    st.floats().map(repr),
    st.floats(1.0, 1e3).map(repr),
    st.sampled_from(["nan", "inf", "1e308", "1e-320", "0", "1", "-1", "7", "16", "abc", ""]),
)
_INT = st.one_of(
    st.integers(-10, 10**7),
    st.sampled_from([10**153, 10**154, 10**200, 10**400]),
).map(str)
_BLR_LABEL = st.sampled_from(["1m", "3m", "6m", "7m", "x"])
_OUTPUT = st.builds(lambda fmt, precision: ["--format", fmt, "--precision", str(precision)],
                    st.sampled_from(["csv", "json", "markdown"]), st.integers(-1, 18))


def _args(*parts):
    """argv from lists of arguments and strategies for them."""
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map(lambda ps: [a for p in ps for a in p])


def _flag(name, values, optional=True):
    """[name, value] (the list spliced in when the value is a list), or
    sometimes [] when optional."""
    flag = values.map(lambda v: [name, *(v if isinstance(v, list) else [v])])
    return st.one_of(st.just([]), flag) if optional else flag


def _mixture_csv(rows, seed, scale):
    rng = random.Random(seed)
    return "\n".join(repr(scale * rng.gauss(0.0, 1.0) * math.exp(rng.gauss(0.0, 0.5)))
                     for _ in range(rows)).encode()


_CSV_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([1e308, -1e308, 5e-324])).map(repr)
_CSV_LINE = st.one_of(
    _CSV_VALUE,
    _CSV_VALUE.map(lambda v: f"2024-01-02,{v}"),
    st.sampled_from(["", "date,return", "return", "a,b,c", "nan", "1,2,3", '"1"']),
    st.text(max_size=8),
)
_CSV = st.one_of(
    st.lists(_CSV_LINE, max_size=30).map(lambda lines: "\n".join(lines).encode()),
    st.builds(_mixture_csv, st.integers(5, 2000), st.integers(0, 2**16),
              st.sampled_from([1e-300, 1e-90, 0.01, 1e90, 1e300])),
    st.sampled_from([b"1\n2\n\xff\xfe\n3\n", b"9" * 200_000 + b"\n"]),
)

_CLI_CASE = st.one_of(
    st.tuples(_args(["shock-table"], _flag("--n", st.lists(_INT, min_size=1, max_size=3)),
                    _flag("--kurtosis", st.lists(_FLOAT, min_size=1, max_size=3)), _OUTPUT),
              st.none()),
    st.tuples(_args(["bounds"], _flag("--method", st.sampled_from(
                        ["even-moment", "zelen", "bhattacharyya"]), optional=False),
                    _flag("--n", st.lists(_INT, min_size=1, max_size=3)),
                    _flag("--kurtosis", st.lists(_FLOAT, min_size=1, max_size=3)), _OUTPUT),
              st.none()),
    st.tuples(_args(["tail-factor"], _flag("--model", st.sampled_from(["normal", "student-t"]),
                                           optional=False),
                    _flag("--dof", st.integers(-2, int(sys.float_info.max)).map(str)),
                    _flag("--horizon", _FLOAT, optional=False), _OUTPUT),
              st.none()),
    st.tuples(_args(["validate"], st.one_of(
                        _flag("--tail-factor", _FLOAT, optional=False),
                        _args(["--blr"], _flag("--g-inv", _BLR_LABEL, optional=False)),
                        _args(_flag("--tail-factor", _FLOAT), _flag("--blr", st.just([])),
                              _flag("--g-inv", _BLR_LABEL))),
                    _flag("--kurtosis", _FLOAT, optional=False),
                    _flag("--history", _INT, optional=False),
                    _flag("--days-per-year", _INT), _OUTPUT),
              st.none()),
    st.tuples(_args(["empirical", _CSV_PATH], _flag("--tail-factor", _FLOAT, optional=False),
                    _OUTPUT),
              _CSV),
    # every appendix row runs a uniform search, O(m) in time and memory
    st.tuples(_args(["appendix"], _flag("--n", st.lists(
                        st.integers(-5, 3000).map(str), min_size=1, max_size=2)),
                    _flag("--kappa", _FLOAT), _OUTPUT),
              st.none()),
)


@settings(max_examples=300)
@example(case=(["bounds", "--method", "even-moment", "--kurtosis", "inf", "--format", "json"],
               None))
@example(case=(["appendix", "--n", "100000000"], None))
@example(case=(["appendix", "--n", str(10**200), "--format", "json"], None))
@example(case=(["appendix", "--n", "5", "--kappa", "nan"], None))
@example(case=(["tail-factor", "--model", "student-t", "--dof", "0", "--horizon", "10"], None))
@example(case=(["shock-table", "--n", str(10**160)], None))
@example(case=(["validate", "--tail-factor", "3", "--kurtosis", "7",
                "--history", str(10**160)], None))
@example(case=(["validate", "--blr", "--g-inv", "6m", "--kurtosis", "7", "--history", "500",
                "--days-per-year", "0"], None))
@example(case=(HISTORY_FLOOR_FAR_FROM_ITS_ESTIMATE[0], None))
@example(case=(HISTORY_FLOOR_FAR_FROM_ITS_ESTIMATE[1], None))
@example(case=(["empirical", _CSV_PATH, "--tail-factor", "5", "--format", "json"],
               b"1e308\n1\n2\n3\n4\n5\n"))
@example(case=(["empirical", _CSV_PATH, "--tail-factor", "5"], b"1\n2\n\xff\xfe\n3\n"))
@example(case=(["empirical", _CSV_PATH, "--tail-factor", "5"], b"9" * 200_000 + b"\n"))
@given(case=_CLI_CASE)
def test_cli_keeps_the_exit_code_contract(tmp_path_factory, time_limit, case):
    argv, data = case
    if data is not None:
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_bytes(data)
        argv = [str(path) if a == _CSV_PATH else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if err.startswith("tailbound: infeasible:"):
        assert code == 3 and out == ""
    formats = [b for a, b in zip(argv, argv[1:]) if a == "--format"]
    if formats and formats[-1] == "json" and out:
        jsonschema.validate(json.loads(out, parse_constant=_no_constants), SCHEMA)
