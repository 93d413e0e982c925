"""Two-sided doc drift tests: the manuals mirror the code, exactly.

Each test compares a documented table against the authoritative code
surface *as sets in both directions*: a field/verb/metric added to the
code without a doc row fails, and a doc row surviving a code removal
fails the same way.  The metric catalogue is held to the strongest
standard -- the table in ``docs/observability.md`` must match the
generated one (``python -m repro.obs``) line for line -- and so
is the experiment catalogue (``python -m repro.bench``).
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.api import Cluster, Session
from repro.api.config import ClusterConfig, DurabilityConfig, WorkerConfig
from repro.bench.experiments import EXPERIMENTS, catalogue
from repro.obs import catalog_table, metric_names
from repro.serve.config import ServeConfig, TenantConfig
from repro.serve.protocol import VERBS

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs"

CODE_SPAN = re.compile(r"`([^`]+)`")
FIELD_NAME = re.compile(r"^[a-z_][a-z0-9_]*$")


def read(name: str) -> str:
    return (DOCS / name).read_text()


def rows_after_heading(text: str, heading: str) -> list[str]:
    """Data rows of the first pipe table after a ``#`` heading."""
    lines = text.splitlines()
    start = lines.index(heading)
    rows, started = [], False
    for line in lines[start + 1:]:
        if line.startswith("|"):
            started = True
            rows.append(line)
        elif started:
            break
    if len(rows) < 3:
        raise AssertionError(f"no table found after {heading!r}")
    return rows[2:]  # drop header + separator


def rows_at_header(text: str, header: str) -> list[str]:
    """Data rows of the pipe table whose header row is ``header``."""
    lines = text.splitlines()
    start = lines.index(header)
    rows = []
    for line in lines[start + 2:]:  # skip header + separator
        if not line.startswith("|"):
            break
        rows.append(line)
    if not rows:
        raise AssertionError(f"empty table at {header!r}")
    return rows


def first_cell_names(rows: list[str]) -> set[str]:
    """Every code-span identifier in each row's first cell.

    Handles combined rows like ``| `local_cost` / `remote_cost` | ...``.
    """
    names: set[str] = set()
    for row in rows:
        first = row.strip("|").split("|")[0]
        for span in CODE_SPAN.findall(first):
            if FIELD_NAME.match(span):
                names.add(span)
    return names


def field_names(cls) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)}


class TestConfigTables:
    @pytest.mark.parametrize(
        ("page", "heading", "cls"),
        [
            ("api-reference.md", "## `ClusterConfig`", ClusterConfig),
            ("api-reference.md", "### `WorkerConfig`", WorkerConfig),
            ("api-reference.md", "### `DurabilityConfig`", DurabilityConfig),
            ("api-reference.md", "### `ServeConfig`", ServeConfig),
            ("api-reference.md", "### `TenantConfig`", TenantConfig),
        ],
    )
    def test_documented_fields_match_dataclass(self, page, heading, cls):
        documented = first_cell_names(rows_after_heading(read(page), heading))
        actual = field_names(cls)
        assert documented == actual, (
            f"{page} section {heading!r} vs {cls.__name__}: "
            f"out of sync on {sorted(documented ^ actual)}"
        )

    def test_serving_page_tenant_table(self):
        rows = rows_at_header(
            read("serving.md"), "| `TenantConfig` field | default | meaning |"
        )
        assert first_cell_names(rows) == field_names(TenantConfig)


METHOD_HEADING = re.compile(r"^### `?(?:\w+\.)?(\w+)\((.*)\)(?: -> [^`]+)?`?$")


def documented_signatures(section: str) -> dict[str, list[tuple]]:
    """``name -> [(parameter, kind, default)]`` for every ``### name(...)``
    heading between ``section`` and the next ``## `` heading."""
    lines = read("api-reference.md").splitlines()
    start = lines.index(section) + 1
    end = next(
        (i for i in range(start, len(lines)) if lines[i].startswith("## ")),
        len(lines),
    )
    empty = inspect.Parameter.empty
    documented = {}
    for line in lines[start:end]:
        match = METHOD_HEADING.match(line)
        if match is None:
            continue
        name, params = match.groups()
        args = ast.parse(f"def f({params}): pass").body[0].args
        defaults = [empty] * (len(args.args) - len(args.defaults)) + [
            ast.literal_eval(default) for default in args.defaults
        ]
        rows = [
            (arg.arg, inspect.Parameter.POSITIONAL_OR_KEYWORD, default)
            for arg, default in zip(args.args, defaults, strict=True)
        ]
        if args.vararg is not None:
            rows.append((args.vararg.arg, inspect.Parameter.VAR_POSITIONAL, empty))
        rows.extend(
            (
                arg.arg,
                inspect.Parameter.KEYWORD_ONLY,
                empty if default is None else ast.literal_eval(default),
            )
            for arg, default in zip(args.kwonlyargs, args.kw_defaults, strict=True)
        )
        if args.kwarg is not None:
            rows.append((args.kwarg.arg, inspect.Parameter.VAR_KEYWORD, empty))
        documented[name] = rows
    return documented


def actual_signatures(cls) -> dict[str, list[tuple]]:
    """The same rows for every public method of ``cls`` (annotations
    ignored; ``self`` dropped, classmethods arrive bound)."""
    actual = {}
    for name, member in inspect.getmembers(cls):
        if name.startswith("_") or not callable(member):
            continue
        params = list(inspect.signature(member).parameters.values())
        if params and params[0].name == "self":
            params = params[1:]
        actual[name] = [(p.name, p.kind, p.default) for p in params]
    return actual


class TestApiSignatures:
    @pytest.mark.parametrize(
        ("section", "cls"),
        [("## `Session`", Session), ("## `Cluster`", Cluster)],
    )
    def test_headings_match_public_methods(self, section, cls):
        documented = documented_signatures(section)
        actual = actual_signatures(cls)
        assert set(documented) == set(actual), (
            f"api-reference.md {section} headings vs {cls.__name__} "
            f"methods: out of sync on {sorted(set(documented) ^ set(actual))}"
        )
        for name, rows in actual.items():
            assert documented[name] == rows, f"{cls.__name__}.{name}"


class TestServeVerbs:
    def test_verb_table_matches_registry(self):
        rows = rows_at_header(
            read("serving.md"), "| verb | payload | result |"
        )
        documented = {
            CODE_SPAN.findall(row.strip("|").split("|")[0])[0]
            for row in rows
        }
        assert documented == set(VERBS), (
            f"serving.md verb table out of sync on "
            f"{sorted(documented ^ set(VERBS))}"
        )

    def test_every_verb_has_a_description(self):
        for verb, description in VERBS.items():
            assert description, verb


class TestMetricCatalogue:
    HEADER = "| metric | kind | labels | meaning |"

    def test_observability_table_matches_generated(self):
        documented = rows_at_header(read("observability.md"), self.HEADER)
        generated = [
            line
            for line in catalog_table().splitlines()
            if line.startswith("|")
        ][2:]  # drop the generated header + separator too
        assert documented == generated, (
            "docs/observability.md catalogue drifted from "
            "`python -m repro.obs` -- regenerate and paste"
        )

    def test_catalogue_names_are_exactly_the_registry(self):
        documented = {
            CODE_SPAN.findall(row.strip("|").split("|")[0])[0]
            for row in rows_at_header(read("observability.md"), self.HEADER)
        }
        assert documented == set(metric_names())


class TestExperimentCatalogue:
    def test_experiments_page_matches_generated(self, seed0_fast):
        generated = catalogue(seed0_fast).splitlines()
        documented = rows_at_header(read("experiments.md"), generated[0])
        assert documented == generated[2:], (
            "docs/experiments.md drifted from "
            "`python -m repro.bench` -- regenerate and paste"
        )

    def test_catalogue_ids_are_exactly_the_registry(self, seed0_fast):
        header = catalogue(seed0_fast).splitlines()[0]
        documented = [
            row.strip("|").split("|")[0].strip()
            for row in rows_at_header(read("experiments.md"), header)
        ]
        assert documented == list(EXPERIMENTS)


class TestReadmeClaims:
    def test_docs_index_lists_every_page(self):
        index = read("README.md")
        for page in sorted(DOCS.glob("*.md")):
            if page.name == "README.md":
                continue
            assert f"({page.name})" in index, (
                f"docs/README.md index is missing {page.name}"
            )
