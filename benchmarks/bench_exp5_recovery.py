"""Exp. 5 (Fig. 11) — recovery time vs full-checkpoint frequency (GPT2-S).

Paper claims: at FCF=10, LowDiff's parallel recovery cuts recovery time
83.2% vs Baseline and 55.8% vs Naive DC; LowDiff+(S) recovers from CPU
memory 9.4x-57.1x faster than Baseline across FCF 5-50.

In addition to the analytic table, a *functional* benchmark times real
parallel recovery (miniature model, in-memory store).
"""

import pytest

from repro.compression import TopKCompressor
from repro.core.recovery import parallel_recover
from repro.harness import exp5
from repro.optim import Adam
from repro.storage import CheckpointStore, InMemoryBackend
from repro.tensor.models import MLP
from repro.utils.rng import Rng


def test_exp5_recovery_table(benchmark, persist):
    result = benchmark.pedantic(exp5.run, rounds=1, iterations=1)
    print(persist(result))
    for fcf in (10, 20, 50):
        rows = {r["method"]: r["recovery_s"]
                for r in result.rows if r["fcf_iters"] == fcf}
        assert rows["lowdiff+(S)"] < rows["lowdiff-parallel"] \
            < rows["naive_dc"] < rows["baseline"]


@pytest.fixture
def populated_store():
    store = CheckpointStore(InMemoryBackend())
    model = MLP(8, [32, 32], 4, rng=Rng(0))
    optimizer = Adam(model, lr=1e-3)
    compressor = TopKCompressor(0.1)
    store.save_full(0, model.state_dict(), optimizer.state_dict())
    rng = Rng(1)
    for step in range(1, 33):
        grads = {name: rng.child(step, name).normal(size=p.shape)
                 for name, p in model.named_parameters()}
        payload = compressor.compress(grads)
        optimizer.step_with(payload.decompress())
        store.save_diff(step, step, payload)
    return store


def test_functional_parallel_recovery(benchmark, populated_store):
    def recover():
        model = MLP(8, [32, 32], 4, rng=Rng(9))
        optimizer = Adam(model, lr=1e-3)
        return parallel_recover(populated_store, model, optimizer)

    result = benchmark(recover)
    assert result.merge_depth == 5  # ceil(log2(32))
