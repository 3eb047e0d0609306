"""The span tracer of perfbench/ still fits the package it wraps.

The tracer is loaded from its file and never installed, so the package stays
unwrapped for the other tests.
"""

import importlib.util
from pathlib import Path

from pdmp_lab.models import gene_expression_model
from pdmp_lab.simulate import REPLICA_CHUNK, run_ensemble

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_wrapped_name_resolves_to_a_package_attribute():
    assert tracer.WRAPS
    for layer, owner, attr, _ in tracer.WRAPS:
        assert callable(getattr(tracer._resolve(owner), attr, None)), (layer, owner, attr)


def test_replica_steps_counts_a_run_ensemble_result():
    # two chunks, so the count sums over them
    n_replicas = REPLICA_CHUNK + 3
    ens = run_ensemble(gene_expression_model(), n_replicas, seed=1, n_steps=2)
    assert tracer._replica_steps(ens) == 2 * n_replicas
