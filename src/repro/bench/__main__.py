"""``python -m repro.bench``: print the experiment catalogue committed as
``docs/experiments.md`` (every experiment at seed 0, fast)."""

from repro.bench.experiments import EXPERIMENTS, catalogue, run_experiment

print(catalogue({i: run_experiment(i, seed=0, fast=True) for i in EXPERIMENTS}))
