"""``python -m repro.obs``: print the metric catalogue table embedded in
``docs/observability.md``."""

from repro.obs.catalog import catalog_table

print(catalog_table())
