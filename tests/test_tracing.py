"""The benchmark tracer's hold on the package: what it wraps must exist."""
import inspect
import os

from merton_arena import constant_strategy, simulate, verification

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    import tracing

    originals = [owner.__dict__[attr] for _, owner, attr, _, _ in tracing._TARGETS]
    tracer = tracing.Tracer()
    tracer.install()  # KeyError if a wrapped attribute is gone
    try:
        assert all(owner.__dict__[attr] is not fn for (_, owner, attr, _, _), fn
                   in zip(tracing._TARGETS, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (_, owner, attr, _, _), fn
               in zip(tracing._TARGETS, originals))


def test_scan_grid_is_eighth_positional_parameter():
    # tracing._scan_info reads the grid of a positional call from args[7]
    names = list(inspect.signature(verification.best_response_test).parameters)
    assert names[7] == "grid"


def test_batch_bytes_reads_a_simulate_batch(monkeypatch, ref_n2):
    # tracing._batch_bytes reads SimulationBatch.dW and .dB when a traced run calls simulate
    monkeypatch.syspath_prepend(BENCHMARKS)
    import tracing

    batch = simulate(ref_n2, constant_strategy([0.5, 0.5], [1.0, 1.0]), grid=4, paths=3, seed=0)
    assert tracing._batch_bytes(batch) == {"bytes": batch.log_wealth.nbytes}
