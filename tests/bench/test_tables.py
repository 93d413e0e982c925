"""Tests for result tables and charts."""

import csv
import io

import pytest

from repro.bench import Table, ascii_bar_chart


class TestTable:
    def make(self):
        t = Table("demo", ["method", "cut"])
        t.add_row(method="ldg", cut=0.1234)
        t.add_row(method="hash", cut=0.75)
        return t

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table("empty", [])

    def test_unknown_column_rejected(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.add_row(method="x", bogus=1)

    def test_missing_columns_blank(self):
        t = Table("demo", ["a", "b"])
        t.add_row(a="only")
        assert t.rows[0]["b"] == ""

    def test_render_contains_title_header_and_rows(self):
        text = self.make().render()
        assert "demo" in text
        assert "method" in text
        assert "0.1234" in text
        assert "hash" in text

    def test_render_aligns_columns(self):
        lines = self.make().render().splitlines()
        header, rule, *rows = lines[1:]
        assert len(rule) == len(header)

    def test_float_formatting(self):
        t = Table("t", ["x"])
        t.add_row(x=0.123456789)
        assert "0.1235" in t.render()

    def test_bool_formatting(self):
        t = Table("t", ["x"])
        t.add_row(x=True)
        assert "yes" in t.render()

    def test_csv_roundtrippable(self):
        csv = self.make().to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "method,cut"
        assert len(lines) == 3

    @pytest.mark.parametrize("cell", ["p,q", '"hi"', "two\nlines"])
    def test_csv_quotes_delimiters_quotes_and_newlines(self, cell):
        t = Table("x", ["a", "b"])
        t.add_row(a=cell, b=1)
        assert list(csv.reader(io.StringIO(t.to_csv()))) == [
            ["a", "b"], [cell, "1"],
        ]

    def test_save_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        self.make().save_csv(path)
        assert path.read_text().startswith("method,cut")

    def test_column_accessor(self):
        assert self.make().column("method") == ["ldg", "hash"]
        with pytest.raises(ValueError):
            self.make().column("nope")

    def test_len(self):
        assert len(self.make()) == 2

    def test_empty_table_renders(self):
        t = Table("empty", ["a"])
        assert "empty" in t.render()


class TestBarChart:
    def test_basic_render(self):
        chart = ascii_bar_chart("title", ["a", "b"], [1.0, 0.5])
        assert "title" in chart
        assert chart.count("#") > 0

    def test_peak_gets_full_width(self):
        chart = ascii_bar_chart("t", ["x"], [2.0], width=10)
        assert "#" * 10 in chart

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ascii_bar_chart("t", ["a"], [1.0, 2.0])

    def test_empty_ok(self):
        assert "t" in ascii_bar_chart("t", [], [])

    def test_zero_values_no_division_error(self):
        chart = ascii_bar_chart("t", ["a"], [0.0])
        assert "0.0000" in chart
