"""The live-cluster end-to-end benchmark (see ``benchmarks/e2e/README.md``).

Modules, in the order a run uses them:

* :mod:`e2ebench.metrics`   — the metric catalogue (names, units, bounds);
* :mod:`e2ebench.workloads` — the four workloads and their frozen rates;
* :mod:`e2ebench.cluster`   — the server subprocess (spawn, pin, sample);
* :mod:`e2ebench.load`      — phases driven from the public client API;
* :mod:`e2ebench.tracing`   — spans, counters and profile folding;
* :mod:`e2ebench.isolated`  — direct drives of single layers;
* :mod:`e2ebench.layers`    — the per-layer ledger and its self-checks;
* :mod:`e2ebench.stats`     — the pure statistics everything reports with.
"""
