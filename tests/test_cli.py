"""End-to-end CLI runs: formats, exit codes, file IO."""

import csv
import io
import json
import math
import random
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
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


def test_empirical_too_many_fields(run_cli, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1.0\n2.0,3.0,4.0\n", encoding="utf-8")
    res = run_cli("empirical", str(path), "--tail-factor", 5)
    assert res.returncode == 1
    assert "line 2" in res.stderr


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


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(run_cli):
    res = run_cli()
    assert res.returncode == 1


def test_unknown_subcommand_is_usage_error(run_cli):
    res = run_cli("frobnicate")
    assert res.returncode == 1
